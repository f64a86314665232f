"""Regression pins of the three single-scale pipelines and the seeded ensembles:
exact outputs and peak memory."""

import hashlib
import tracemalloc

import pytest

from mvdeg import (
    EmbeddingConfig,
    GeneratorSpec,
    build_complete_graph,
    build_zero_graph,
    classical_mvde,
    coarse_grain,
    compare_graph_policies,
    estimate_correlation_graph,
    gen_correlated,
    gen_wgn,
    mvdeg_single_scale,
    run_noise_experiment,
    uniform_correlation,
    univariate_single_scale,
)

# (p, N, m, c, graph, tau) -> (entropy as float.hex, distinct codes, patterns,
# first 16 hex digits of sha256 over the little-endian int64 codes then counts),
# computed by classing and encoding the whole (N p, m) hop basis at once. The
# cells reach every counting branch: c^m = 1296 is counted by bincount,
# 40^5 < 2^53 and 30^11 > 2^53 by np.unique.
GOLDEN = {
    (3, 15_000, 4, 6, "correlation", 1): ("0x1.a5f1378829c1ap-1", 809, 44991, "a5605e8d85049206"),
    (3, 15_000, 4, 6, "correlation", 2): ("0x1.a5e68a973e8d6p-1", 753, 22491, "19568a4491669a71"),
    (3, 15_000, 4, 6, "correlation", 7): ("0x1.a21681fb6ea60p-1", 604, 6417, "32d6e8e337ca7dbd"),
    (3, 15_000, 4, 6, "complete", 1): ("0x1.8289032285c41p-1", 584, 44991, "9c2beb503537c2ad"),
    (3, 15_000, 4, 6, "complete", 2): ("0x1.8290cf18e9f0fp-1", 521, 22491, "50d311ae838ac666"),
    (3, 15_000, 4, 6, "complete", 7): ("0x1.80e37460690dcp-1", 438, 6417, "a3843e8f7b3bf082"),
    (3, 15_000, 4, 6, "zero", 1): ("0x1.fef7adb0709a7p-1", 1296, 44991, "1b02bc75cd776dda"),
    (3, 15_000, 4, 6, "zero", 2): ("0x1.fdf91d981409fp-1", 1296, 22491, "4120a04cb727999c"),
    (3, 15_000, 4, 6, "zero", 7): ("0x1.f8c6ea7fbbda2p-1", 1289, 6417, "64ab3c215aa46971"),
    (4, 3_000, 5, 40, "correlation", 1): ("0x1.048307c0af06ep-1", 11927, 11984, "7a24b107c9e07976"),
    (4, 3_000, 5, 40, "correlation", 2): ("0x1.e2be4556c99f3p-2", 5977, 5984, "2abe2ad4f1b64f9a"),
    (4, 3_000, 5, 40, "correlation", 7): ("0x1.9cca2398c7819p-2", 1695, 1696, "e7055cd8fe6cc60a"),
    (4, 3_000, 5, 40, "complete", 1): ("0x1.0409f89b7affcp-1", 11782, 11984, "b0f6962e21c5fe01"),
    (4, 3_000, 5, 40, "complete", 2): ("0x1.e22039d660890p-2", 5929, 5984, "3fe01d874e2f237f"),
    (4, 3_000, 5, 40, "complete", 7): ("0x1.9c619558a8a08p-2", 1686, 1696, "6b82b69ebf8a18c7"),
    (4, 3_000, 5, 40, "zero", 1): ("0x1.04b03e3d7ab80p-1", 11982, 11984, "ef8ae10afd606043"),
    (4, 3_000, 5, 40, "zero", 2): ("0x1.e2d551aed8f27p-2", 5984, 5984, "44fa3053e834be10"),
    (4, 3_000, 5, 40, "zero", 7): ("0x1.9cd5c19fe761cp-2", 1696, 1696, "fb6e77cf8a603347"),
    (3, 2_000, 11, 30, "correlation", 1): ("0x1.dbf010617fa29p-3", 5970, 5970, "8f510025a432d907"),
    (3, 2_000, 11, 30, "correlation", 2): ("0x1.b5b8138c9bcaap-3", 2970, 2970, "33c3ccbe5e3580ac"),
    (3, 2_000, 11, 30, "correlation", 7): ("0x1.6f99c2aa09c6dp-3", 825, 825, "8f7f8d2abbaecce5"),
    (3, 2_000, 11, 30, "complete", 1): ("0x1.dbe98e4c65e33p-3", 5968, 5970, "9a300e21ac24ed02"),
    (3, 2_000, 11, 30, "complete", 2): ("0x1.b5b8138c9bcaap-3", 2970, 2970, "d7afb845c43aa107"),
    (3, 2_000, 11, 30, "complete", 7): ("0x1.6f99c2aa09c6dp-3", 825, 825, "62672c0e4271c37d"),
    (3, 2_000, 11, 30, "zero", 1): ("0x1.dbf010617fa29p-3", 5970, 5970, "99b6d004093a1c62"),
    (3, 2_000, 11, 30, "zero", 2): ("0x1.b5b8138c9bcaap-3", 2970, 2970, "a5fbb9aba87da1a3"),
    (3, 2_000, 11, 30, "zero", 7): ("0x1.6f99c2aa09c6dp-3", 825, 825, "8a41bbdcf2aebe65"),
    # three time chunks of one channel, computed with the hop recurrence over
    # every column before the edgeless graph class-mapped each sample once
    (1, 800_000, 4, 6, "zero", 1): ("0x1.fff17fb6d0c00p-1", 1296, 799997, "bf0e22284930fc24"),
}


# classical_mvde at (p, N, m, c, tau), same format and signals, computed with
# the (windows, p m) window-matrix encoder: c^m = 1296 is counted by bincount,
# 40^3 and 300^7 > 2^53 by merged per-subset np.unique.
CLASSICAL_GOLDEN = {
    (6, 2000, 4, 6, 1): ("0x1.fd6f18b0d72fcp-1", 1296, 21220122, "525670448487b9ee"),
    (6, 2000, 4, 6, 3): ("0x1.fd4fbc05e0973p-1", 1296, 7045038, "7dbd5cdf9db884ee"),
    (3, 500, 3, 40, 1): ("0x1.c676d613badbfp-1", 21942, 41832, "464f9647db25cca1"),
    (2, 3000, 7, 300, 1): ("0x1.94537b42752d3p-2", 7676885, 10275408, "63f35a92c2e80c6f"),
}

# univariate_single_scale at (N, m, c) on gen_wgn(1, N, seed=N), same format,
# reaching bincount, np.unique and codes above 2^53 (30^11)
UNIVARIATE_GOLDEN = {
    (200_000, 4, 6): ("0x1.ffc082cdcdc87p-1", 1296, 199997, "444fe4853ec53889"),
    (50_001, 6, 40): ("0x1.f493451839da5p-2", 49996, 49996, "94f0f8be095dcf38"),
    (5_000, 11, 30): ("0x1.d21f4bcdd1763p-3", 4990, 4990, "b57049578db63d47"),
    (5_000, 2, 3000): ("0x1.104ce883b164fp-1", 4996, 4999, "870a383144ddbf2b"),
}


# per-scale (mean, sd) as float.hex of each aggregated curve: run_noise_experiment
# over two conditions under the estimated policy (seed 7), then
# compare_graph_policies (seed 11), all at N = 300, m = 3, c = 4, 4 scales and
# 3 realizations
ENSEMBLE_GOLDEN = {
    "rho=0.8": [
        ("0x1.9b33b7894909bp-1", "0x1.2d91bdbdf2c8cp-7"),
        ("0x1.919ba19b29b49p-1", "0x1.1e22a7b7ae809p-6"),
        ("0x1.91cb611bd6fe0p-1", "0x1.ce3d7d34a21e0p-10"),
        ("0x1.848d335e7e535p-1", "0x1.3db130da536f6p-6"),
    ],
    "F(1)": [
        ("0x1.e2db12f67fe58p-1", "0x1.a3a61be728cfcp-7"),
        ("0x1.deb4a5ea79124p-1", "0x1.defe16f74bd88p-8"),
        ("0x1.e058d18d6c37bp-1", "0x1.7c24367128b77p-7"),
        ("0x1.d6215b2254111p-1", "0x1.b86d72362c3eep-7"),
    ],
    "theoretical": [
        ("0x1.b6c8aa00c7604p-1", "0x1.5728fe04a372cp-9"),
        ("0x1.b2912c0e62d40p-1", "0x1.9e025d99a82b9p-8"),
        ("0x1.ad2dd4fc4ff93p-1", "0x1.dd68db0b9e323p-7"),
        ("0x1.a533f8ae0f358p-1", "0x1.66aa4bef038cdp-7"),
    ],
    "estimated": [
        ("0x1.b6cc76e209d01p-1", "0x1.ae28cc15292bdp-8"),
        ("0x1.b411673345473p-1", "0x1.64820070eb097p-7"),
        ("0x1.ad6f31eb73abbp-1", "0x1.e9b551476a8c0p-7"),
        ("0x1.a5f621ef20c8fp-1", "0x1.77b4b63576540p-7"),
    ],
}


def pin(value, hist):
    """(entropy as float.hex, distinct codes, patterns, sha256 prefix) of one result."""
    digest = hashlib.sha256(
        hist.codes.astype("<i8").tobytes() + hist.code_counts.astype("<i8").tobytes()
    ).hexdigest()[:16]
    return value.hex(), len(hist.codes), hist.total, digest


def case_id(case):
    return "-".join(map(str, case))


@pytest.mark.parametrize("case", list(GOLDEN), ids=lambda case: "-".join(map(str, case)))
def test_single_scale_is_bit_identical_to_the_whole_basis_path(case):
    p, n, m, c, graph_name, tau = case
    signal = gen_correlated(p, n, uniform_correlation(p, 0.5), seed=p + n)
    graph = {
        "correlation": estimate_correlation_graph,
        "complete": lambda s: build_complete_graph(s.p),
        "zero": lambda s: build_zero_graph(s.p),
    }[graph_name](signal)
    value, hist = mvdeg_single_scale(coarse_grain(signal, tau), graph, m, c)
    digest = hashlib.sha256(
        hist.codes.astype("<i8").tobytes() + hist.code_counts.astype("<i8").tobytes()
    ).hexdigest()[:16]
    assert (value.hex(), len(hist.codes), hist.total, digest) == GOLDEN[case]


@pytest.mark.parametrize("case", list(CLASSICAL_GOLDEN), ids=case_id)
def test_classical_mvde_is_bit_identical_to_the_window_matrix_path(case):
    p, n, m, c, tau = case
    signal = gen_correlated(p, n, uniform_correlation(p, 0.5), seed=p + n)
    assert pin(*classical_mvde(signal, m, c, tau=tau)) == CLASSICAL_GOLDEN[case]


@pytest.mark.parametrize("case", list(UNIVARIATE_GOLDEN), ids=case_id)
def test_univariate_single_scale_is_bit_identical_to_its_pinned_outputs(case):
    n, m, c = case
    channel = gen_wgn(1, n, seed=n).values[0]
    assert pin(*univariate_single_scale(channel, m, c)) == UNIVARIATE_GOLDEN[case]


def test_ensembles_are_bit_identical_to_their_pinned_outputs():
    def correlated(rho):
        return GeneratorSpec("correlated", 3, 300, 0, {"corr": uniform_correlation(3, rho).tolist()})

    config = EmbeddingConfig(m=3, c=4, max_scale=4)
    conditions = [("rho=0.8", correlated(0.8)), ("F(1)", GeneratorSpec("mixture", 3, 300, 0, {"q": 1}))]
    noise = run_noise_experiment(conditions, "estimated", config, realizations=3, seed=7)
    compared = compare_graph_policies(correlated(0.6), config, realizations=3, seed=11)
    got = {
        curve.method: [(r.mean.hex(), r.sd.hex()) for r in curve.records]
        for curve in noise.curves + compared.curves
    }
    assert got == ENSEMBLE_GOLDEN


def test_single_scale_peak_memory_does_not_grow_with_m():
    # an (N p, m) float basis plus its class matrix alone is 2m = 12 signal
    # sizes at m = 6; the streamed kernel holds a few (N, p) arrays at once
    signal = gen_wgn(32, 20_000, 0)
    graph = build_complete_graph(32)
    mvdeg_single_scale(signal, graph, 6, 6)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        mvdeg_single_scale(signal, graph, 6, 6)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 10 * signal.values.nbytes


def traced_peak(call):
    """Peak bytes traced while call() runs, after one untraced warm-up call."""
    call()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_single_scale_streams_time_in_bounded_chunks():
    # the sd pass takes one signal size; each time chunk adds a few arrays of
    # about 2^18 samples and its codes are counted before the next one
    signal = gen_wgn(32, 100_000, 0)
    graph = build_complete_graph(32)
    peak = traced_peak(lambda: mvdeg_single_scale(signal, graph, 4, 6))
    assert peak < 2 * signal.values.nbytes


def test_zero_graph_single_scale_class_maps_each_sample_once():
    # m hop columns and their classes would be several signal sizes; the
    # edgeless graph holds one block's classes and the codes folded from them
    signal = gen_wgn(3, 15_000, 0)
    graph = build_zero_graph(3)
    peak = traced_peak(lambda: mvdeg_single_scale(signal, graph, 4, 6))
    assert peak < 3 * signal.values.nbytes


def test_univariate_single_scale_folds_codes_without_a_window_array():
    channel = gen_wgn(1, 200_000, 0).values[0]
    peak = traced_peak(lambda: univariate_single_scale(channel, 4, 6))
    assert peak < 4 * channel.nbytes


def test_classical_mvde_encodes_lagged_class_views_without_a_window_matrix():
    # a (windows, p m) int64 window matrix alone is m = 4 signal sizes; the
    # lagged columns are views of the (p, N) classes and each subset's codes
    # are one window-length array
    signal = gen_wgn(4, 20_000, 0)
    peak = traced_peak(lambda: classical_mvde(signal, 4, 6))
    assert peak < 4 * signal.values.nbytes


def test_classical_mvde_folds_and_counts_one_block_of_subsets_at_a_time():
    # 635,376 subsets of 37 windows: their (subsets, m) index array alone is 20 MB
    signal = gen_wgn(16, 40, 0)
    peak = traced_peak(lambda: classical_mvde(signal, 4, 6))
    assert peak < 4 * 2 ** 20


def test_sparse_code_counts_hold_the_distinct_codes_not_every_chunk():
    # c^m = 40^4 is more than twice a block's length, so the 7.2M patterns of
    # 110 blocks are counted by np.unique: 1.27M distinct codes in all, 4.58M
    # summed over the blocks, which traced 219 MB while every block's were held
    signal = gen_wgn(12, 40, 0)
    _, histogram = classical_mvde(signal, 4, 40)
    held = histogram.codes.nbytes + histogram.code_counts.nbytes
    peak = traced_peak(lambda: classical_mvde(signal, 4, 40))
    assert peak < 8 * held
