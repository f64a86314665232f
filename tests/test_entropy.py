"""Entropy pipelines: frozen hand values, cross-method oracles, invariants."""

import itertools
import math
from collections import Counter

import numpy as np
import pytest

import mvdeg.entropy as entropy_module
from mvdeg import (
    CapacityError,
    DimensionError,
    DispersionHistogram,
    EmbeddingConfig,
    EmptyPatternError,
    FloatRangeError,
    MultivariateSignal,
    ScaleUndefinedError,
    WeightedGraph,
    build_complete_graph,
    build_zero_graph,
    classical_mvde,
    coarse_grain,
    mvdeg_curve,
    mvdeg_single_scale,
    ncdf_map,
    normalized_entropy,
    gen_wgn,
    pattern_counts,
    univariate_mde,
    univariate_single_scale,
)


def classical_oracle(signal, m, c, tau=1):
    """Independent pure-Python enumeration of classical multivariate patterns."""
    coarse = coarse_grain(signal, tau)
    classes = ncdf_map(coarse, c)
    p, length = classes.shape
    counter: dict = {}
    for t in range(length - m + 1):
        vec = []
        for ch in range(p):  # channels-then-lags ordering
            vec.extend(int(v) for v in classes[ch, t : t + m])
        for subset in itertools.combinations(range(m * p), m):
            pattern = tuple(vec[i] for i in subset)
            counter[pattern] = counter.get(pattern, 0) + 1
    total = sum(counter.values())
    h = -sum((n / total) * math.log(n / total) for n in counter.values())
    return h / (m * math.log(c)), counter


# ── signal container ─────────────────────────────────────────────────────────


@pytest.mark.parametrize("values, labels, message", [
    (np.ones(5), None, "must be 2-D"),
    (np.ones((0, 5)), None, "at least one channel"),
    (np.ones((2, 5)), ("a",), "1 channel labels for 2 channels"),
], ids=["one-d", "no-channels", "labels"])
def test_signal_validation(values, labels, message):
    with pytest.raises(DimensionError, match=message):
        MultivariateSignal(values, labels=labels)


# ── coarse graining ──────────────────────────────────────────────────────────


def test_coarse_grain_window_means():
    sig = MultivariateSignal(np.array([[2.0, 4.0, 6.0, 8.0]]))
    out = coarse_grain(sig, 2)
    assert np.array_equal(out.values, [[3.0, 7.0]])


def test_coarse_grain_scale_one_is_identity():
    sig = MultivariateSignal(np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]))
    assert np.array_equal(coarse_grain(sig, 1).values, sig.values)


def test_coarse_grain_drops_partial_tail_window():
    sig = MultivariateSignal(np.array([[1.0, 3.0, 5.0, 7.0, 100.0]]))
    assert np.array_equal(coarse_grain(sig, 2).values, [[2.0, 6.0]])


def test_coarse_grain_undefined_scale():
    sig = MultivariateSignal(np.array([[2.0, 4.0, 6.0, 8.0]]))
    with pytest.raises(ScaleUndefinedError) as err:
        coarse_grain(sig, 3)
    assert err.value.tau == 3
    with pytest.raises(DimensionError):
        coarse_grain(sig, 0)
    with pytest.raises(ScaleUndefinedError) as err:
        classical_mvde(gen_wgn(2, 10, 0), 4, 6, tau=3)  # 3 coarse samples < m + 1
    assert (err.value.tau, err.value.length) == (3, 3)


# ── class map ────────────────────────────────────────────────────────────────


def test_ncdf_map_two_classes():
    sig = MultivariateSignal(np.array([[1.0, 2.0, 3.0, 4.0, 5.0]]))
    assert np.array_equal(ncdf_map(sig, 2), [[1, 1, 2, 2, 2]])


def test_ncdf_map_six_classes():
    sig = MultivariateSignal(np.array([[1.0, 2.0, 3.0, 4.0, 5.0]]))
    assert np.array_equal(ncdf_map(sig, 6), [[1, 2, 4, 5, 6]])


def test_ncdf_map_constant_channel_lands_midscale():
    sig = MultivariateSignal(np.full((1, 10), 3.25))
    for c, expected in ((2, 2), (3, 2), (5, 3), (6, 4)):
        assert np.all(ncdf_map(sig, c) == expected)


def test_ncdf_map_extremes_pin_to_end_classes():
    x = np.array([[0.0] * 20 + [1e6, -1e6]])
    classes = ncdf_map(MultivariateSignal(x), 6)
    assert classes[0, -2] == 6
    assert classes[0, -1] == 1


def test_ncdf_map_per_channel_statistics():
    # each channel is standardized by its own mean/sd
    sig = MultivariateSignal(
        np.array([[1.0, 2.0, 3.0, 4.0, 5.0], [100.0, 200.0, 300.0, 400.0, 500.0]])
    )
    classes = ncdf_map(sig, 2)
    assert np.array_equal(classes[0], classes[1])


def test_ncdf_map_validation():
    sig = MultivariateSignal(np.ones((1, 4)))
    with pytest.raises(DimensionError):
        ncdf_map(sig, 1)


# ── graph-based entropy ──────────────────────────────────────────────────────


def test_golden_five_sample_case():
    sig = MultivariateSignal(np.array([[1.0, 2.0, 3.0, 4.0, 5.0]]))
    value, hist = mvdeg_single_scale(sig, build_zero_graph(1), m=2, c=2)
    assert value == pytest.approx(0.75, abs=1e-12)
    assert hist.counts == {(1, 1): 1, (1, 2): 1, (2, 2): 2}
    assert hist.total == 4


def test_constant_signal_single_pattern_zero_entropy():
    sig = MultivariateSignal(np.full((3, 30), 2.5))
    for graph in (build_zero_graph(3), build_complete_graph(3)):
        value, hist = mvdeg_single_scale(sig, graph, m=3, c=6)
        assert value == 0.0
        assert len(hist.counts) == 1
        assert hist.total == (30 - 3 + 1) * 3


def test_constant_signal_entropy_is_positive_zero():
    # -(1 * ln 1) is -0.0; a curve file would print it as "-0.0"
    sig = MultivariateSignal(np.full((2, 30), 2.5))
    for value in (
        mvdeg_single_scale(sig, build_zero_graph(2), 3, 6)[0],
        mvdeg_single_scale(sig, build_complete_graph(2), 3, 6)[0],
        univariate_single_scale(sig.values[0], 3, 6)[0],
        classical_mvde(sig, 3, 6)[0],
    ):
        assert math.copysign(1.0, value) == 1.0 and value == 0.0


# a channel whose sum overflows float64 (every z-score NaN), and one whose sum
# of squares does (every z-score 0)
OVERFLOWING_CHANNELS = {
    "mean": [1.7e308] + [-1.7e308] * 3 + [0.0] * 6,
    "sd": [1e200] + [0.0] * 9,
}


@pytest.mark.parametrize(
    "channel", list(OVERFLOWING_CHANNELS.values()), ids=list(OVERFLOWING_CHANNELS)
)
@pytest.mark.parametrize("pipeline", [
    lambda x: mvdeg_single_scale(MultivariateSignal([x, x]), build_zero_graph(2), 5, 40),
    lambda x: mvdeg_single_scale(MultivariateSignal([x, x]), build_complete_graph(2), 2, 3),
    lambda x: univariate_single_scale(np.array(x), 5, 40),
    lambda x: univariate_single_scale(np.array(x), 2, 3),
    lambda x: classical_mvde(MultivariateSignal([x]), 5, 40),
    lambda x: classical_mvde(MultivariateSignal([x]), 2, 3),
], ids=["mvdeg-zero", "mvdeg-complete", "univariate", "univariate-bincount",
        "classical", "classical-bincount"])
def test_overflowing_moments_raise_in_every_pipeline(pipeline, channel):
    with pytest.raises(FloatRangeError, match="channel mean or sd overflows float64"):
        pipeline(channel)


# a varying channel whose squared deviations all underflow to 0
UNDERFLOWING_CHANNEL = [1e-200, -1e-200, 3e-200, 0.0, -2e-200, 1e-200, 0.0, 5e-201, -1e-200, 2e-200]


@pytest.mark.parametrize("pipeline", [
    lambda x: mvdeg_single_scale(MultivariateSignal([x, x]), build_zero_graph(2), 5, 40),
    lambda x: mvdeg_single_scale(MultivariateSignal([x, x]), build_complete_graph(2), 2, 3),
    lambda x: univariate_single_scale(np.array(x), 2, 3),
    lambda x: classical_mvde(MultivariateSignal([x]), 2, 3),
], ids=["mvdeg-zero", "mvdeg-complete", "univariate", "classical"])
def test_underflowing_variance_raises_in_every_pipeline(pipeline):
    with pytest.raises(FloatRangeError, match="channel 0 varies but its variance underflows"):
        pipeline(UNDERFLOWING_CHANNEL)


def test_tiny_constant_channel_still_lands_midscale():
    sig = MultivariateSignal([[1e-200] * 10, np.arange(10.0)])
    assert np.all(ncdf_map(sig, 6)[0] == 4)


def test_single_scale_validation():
    sig = MultivariateSignal(np.random.default_rng(0).standard_normal((2, 20)))
    with pytest.raises(DimensionError):
        mvdeg_single_scale(sig, build_zero_graph(3), 2, 4)
    with pytest.raises(DimensionError):
        mvdeg_single_scale(sig, build_zero_graph(2), 1, 4)
    with pytest.raises(DimensionError):
        mvdeg_single_scale(sig, build_zero_graph(2), 2, 1)
    with pytest.raises(DimensionError, match="expected a 1-D channel"):
        univariate_single_scale(np.ones((2, 5)), 2, 4)
    with pytest.raises(DimensionError, match="need more than m=4 samples, got 4"):
        univariate_single_scale(np.arange(4.0), 4, 6)
    with pytest.raises(DimensionError, match="expected a 1-D channel"):
        univariate_mde(np.ones((2, 5)), EmbeddingConfig(m=2, c=3, max_scale=2))


def test_single_scale_empty_rows():
    sig = MultivariateSignal(np.array([[1.0, 2.0, 3.0]]))
    with pytest.raises(EmptyPatternError):
        mvdeg_single_scale(sig, build_zero_graph(1), m=4, c=3)


def test_surviving_pattern_count_every_graph():
    # count after masking is exactly (N - m + 1) * p, i.e. <= (N - m) p + p
    rng = np.random.default_rng(12)
    for n in (5, 9, 16, 30):
        for p in (1, 2, 3, 4):
            for m in (2, 3, 4):
                if n < m + 1:
                    continue
                graphs = [build_zero_graph(p), build_complete_graph(p)]
                w = rng.uniform(0, 1, (p, p)) * (rng.random((p, p)) > 0.5)
                w = (w + w.T) / 2
                np.fill_diagonal(w, 0)
                graphs.append(WeightedGraph(w))
                sig = MultivariateSignal(rng.standard_normal((p, n)))
                for graph in graphs:
                    _, hist = mvdeg_single_scale(sig, graph, m, c=4)
                    assert hist.total == (n - m + 1) * p


def test_class_map_affine_invariance():
    # per-channel x -> a x + b with a > 0 leaves every histogram unchanged
    rng = np.random.default_rng(23)
    for _ in range(25):
        p = int(rng.integers(1, 5))
        n = int(rng.integers(12, 60))
        m = int(rng.integers(2, 5))
        c = int(rng.integers(2, 7))
        sig = MultivariateSignal(rng.standard_normal((p, n)))
        graph = [build_zero_graph(p), build_complete_graph(p)][int(rng.integers(2))]
        gains = rng.uniform(0.1, 50.0, (p, 1))
        offsets = rng.uniform(-100.0, 100.0, (p, 1))
        scaled = MultivariateSignal(gains * sig.values + offsets)
        _, h1 = mvdeg_single_scale(sig, graph, m, c)
        _, h2 = mvdeg_single_scale(scaled, graph, m, c)
        assert h1.counts == h2.counts


def test_zero_graph_factorizes_into_univariate_patterns():
    rng = np.random.default_rng(31)
    sig = MultivariateSignal(rng.standard_normal((3, 40)))
    _, hist = mvdeg_single_scale(sig, build_zero_graph(3), m=3, c=5)
    merged: Counter = Counter()
    for ch in range(3):
        _, h = univariate_single_scale(sig.values[ch], 3, 5)
        merged.update(h.counts)
    assert dict(merged) == hist.counts


def test_entropy_bounds_random_inputs():
    rng = np.random.default_rng(44)
    for _ in range(60):
        p = int(rng.integers(1, 4))
        n = int(rng.integers(10, 40))
        sig = MultivariateSignal(rng.standard_normal((p, n)))
        value, _ = mvdeg_single_scale(sig, build_complete_graph(p), m=2, c=3)
        assert 0.0 <= value <= 1.0


def test_curve_marks_undefined_scales():
    sig = MultivariateSignal(np.random.default_rng(2).standard_normal((2, 20)))
    cfg = EmbeddingConfig(m=4, c=5, max_scale=10)
    curve = mvdeg_curve(sig, build_zero_graph(2), cfg)
    assert len(curve.records) == 10
    for record in curve.records:
        defined = 20 // record.tau >= 5
        assert record.defined == defined
        if defined:
            assert 0.0 <= record.mean <= 1.0
            assert record.n_realizations == 1
        else:
            assert math.isnan(record.mean)
            assert record.n_realizations == 0


def test_curve_is_deterministic():
    sig = MultivariateSignal(np.random.default_rng(3).standard_normal((3, 120)))
    cfg = EmbeddingConfig(m=3, c=4, max_scale=6)
    graph = build_complete_graph(3)
    a = mvdeg_curve(sig, graph, cfg)
    b = mvdeg_curve(sig, graph, cfg)
    assert a == b  # all scales defined, so float equality is exact


# ── classical multivariate method ───────────────────────────────────────────


def test_classical_matches_pure_python_oracle():
    rng = np.random.default_rng(17)
    for p, n, m, c in ((2, 12, 2, 3), (3, 10, 2, 4), (2, 9, 3, 3)):
        sig = MultivariateSignal(rng.standard_normal((p, n)))
        value, hist = classical_mvde(sig, m, c)
        expected_value, expected_counts = classical_oracle(sig, m, c)
        assert hist.counts == expected_counts
        assert value == pytest.approx(expected_value, abs=1e-12)
        assert hist.total == (n - m + 1) * math.comb(m * p, m)


def test_classical_single_channel_equals_univariate():
    rng = np.random.default_rng(19)
    x = rng.standard_normal(80)
    value_c, hist_c = classical_mvde(MultivariateSignal(x[None, :]), 3, 5)
    value_u, hist_u = univariate_single_scale(x, 3, 5)
    assert hist_c.counts == hist_u.counts
    assert value_c == value_u


def test_classical_constant_signal():
    sig = MultivariateSignal(np.full((2, 15), 1.0))
    value, hist = classical_mvde(sig, 2, 4)
    assert value == 0.0
    assert len(hist.counts) == 1


def test_classical_capacity_refusal_quotes_exact_count():
    sig = MultivariateSignal(np.random.default_rng(5).standard_normal((8, 2000)))
    with pytest.raises(CapacityError) as err:
        classical_mvde(sig, m=5, c=6)
    assert err.value.count == 1313383968
    assert "1313383968" in str(err.value)


def test_classical_respects_custom_cap():
    sig = MultivariateSignal(np.random.default_rng(6).standard_normal((2, 30)))
    count = (30 - 2 + 1) * math.comb(4, 2)
    with pytest.raises(CapacityError):
        classical_mvde(sig, 2, 3, pattern_cap=count - 1)
    value, _ = classical_mvde(sig, 2, 3, pattern_cap=count)
    assert 0.0 <= value <= 1.0


def test_classical_coarse_grains_before_counting():
    rng = np.random.default_rng(21)
    sig = MultivariateSignal(rng.standard_normal((2, 24)))
    value_direct, hist_direct = classical_mvde(coarse_grain(sig, 3), 2, 3)
    value_tau, hist_tau = classical_mvde(sig, 2, 3, tau=3)
    assert hist_direct.counts == hist_tau.counts
    assert value_direct == value_tau


def assert_classical_matches_oracle(sig, m, c):
    value, hist = classical_mvde(sig, m, c)
    expected_value, expected_counts = classical_oracle(sig, m, c)
    assert hist.codes.dtype == np.int64 and hist.code_counts.dtype == np.int64
    assert hist.counts == expected_counts
    assert value == pytest.approx(expected_value, abs=1e-12)


def test_classical_matches_oracle_over_several_blocks_and_a_remainder():
    # 298 windows take 219 subsets per block: C(18, 3) = 816 is 3 blocks and 159
    sig = MultivariateSignal(np.random.default_rng(23).standard_normal((6, 300)))
    assert_classical_matches_oracle(sig, 3, 4)


def test_classical_matches_oracle_with_one_subset_per_block():
    # more than 2^16 windows, so each block holds one subset's codes
    sig = MultivariateSignal(np.random.default_rng(29).standard_normal((2, 2 ** 16 + 10)))
    assert_classical_matches_oracle(sig, 2, 3)


@pytest.mark.parametrize("p, m, c, n", [
    (6, 2, 11, 40), (6, 2, 12, 40),  # c^m = 121, 144: int8, int16
    (2, 7, 2, 40), (2, 5, 8, 40),  # c^m = 2^7, 2^15: int8, int16, each just holding c^m - 1
    (6, 2, 181, 40), (6, 2, 182, 40),  # c^m = 32761, 33124: int16, int32, counted by np.unique
    (6, 2, 181, 301), (6, 2, 182, 301),  # the same, counted by bincount (66 x 300 codes a block)
    (6, 2, 46340, 40), (6, 2, 46341, 40),  # c^m = 2147395600, 2147488281: int32, int64
])
def test_classical_matches_oracle_on_both_sides_of_each_code_type(p, m, c, n):
    sig = MultivariateSignal(np.random.default_rng(c + n).standard_normal((p, n)))
    assert_classical_matches_oracle(sig, m, c)


def test_classical_reads_the_class_table_without_ncdf_map(monkeypatch):
    sig = MultivariateSignal(np.random.default_rng(31).standard_normal((3, 200)))
    expected = classical_oracle(sig, 3, 6)[1]  # through ncdf_map, before the patch

    def refuse(*args):
        raise AssertionError("classical_mvde went through the public class view")

    monkeypatch.setattr(entropy_module, "ncdf_map", refuse)
    assert classical_mvde(sig, 3, 6)[1].counts == expected


# ── univariate method and the reduction identity ─────────────────────────────


def test_univariate_golden_case():
    value, hist = univariate_single_scale(np.array([1.0, 2.0, 3.0, 4.0, 5.0]), 2, 2)
    assert value == pytest.approx(0.75, abs=1e-12)
    assert hist.counts == {(1, 1): 1, (1, 2): 1, (2, 2): 2}


def test_reduction_identity_bitwise():
    rng = np.random.default_rng(29)
    graph = build_zero_graph(1)
    for _ in range(20):
        n = int(rng.integers(30, 200))
        m = int(rng.integers(2, 5))
        c = int(rng.integers(2, 8))
        max_scale = int(rng.integers(1, 6))
        x = rng.standard_normal(n)
        cfg = EmbeddingConfig(m=m, c=c, max_scale=max_scale)
        mde = univariate_mde(x, cfg)
        graph_curve = mvdeg_curve(MultivariateSignal(x[None, :]), graph, cfg)
        for a, b in zip(mde.records, graph_curve.records):
            assert a.defined == b.defined
            if a.defined:
                assert a.mean == b.mean  # bitwise
        for tau in range(1, max_scale + 1):
            if n // tau < m + 1:
                continue
            coarse = coarse_grain(MultivariateSignal(x[None, :]), tau)
            _, h_graph = mvdeg_single_scale(coarse, graph, m, c)
            _, h_mde = univariate_single_scale(coarse.values[0], m, c)
            assert h_graph.counts == h_mde.counts


@pytest.mark.parametrize("x", [[1.0], [], [math.nan, 1.0, 2.0]], ids=["one", "empty", "nan"])
def test_univariate_mde_refuses_what_the_one_channel_curve_refuses(x):
    config = EmbeddingConfig(m=2, c=3, max_scale=3)
    channel = np.array(x, dtype=float)
    with pytest.raises(DimensionError) as want:
        mvdeg_curve(MultivariateSignal(channel[None, :]), build_zero_graph(1), config)
    with pytest.raises(DimensionError) as got:
        univariate_mde(channel, config)
    assert str(got.value) == str(want.value)


# ── counts, histograms, entropy function ─────────────────────────────────────


def test_pattern_counts_reference_values():
    assert pattern_counts(2000, 8, 5) == (1313383968, 15960)
    assert pattern_counts(10, 2, 2) == (9 * 6, 16)
    with pytest.raises(DimensionError):
        pattern_counts(4, 2, 4)
    with pytest.raises(DimensionError):
        pattern_counts(10, 2, 1)
    with pytest.raises(DimensionError):
        pattern_counts(10, 0, 2)


def test_histogram_validation():
    with pytest.raises(DimensionError):
        DispersionHistogram({(1, 2, 3): 1}, m=2, c=3)
    with pytest.raises(DimensionError):
        DispersionHistogram({(0, 1): 1}, m=2, c=3)
    with pytest.raises(DimensionError):
        DispersionHistogram({(1, 1): 0}, m=2, c=3)
    with pytest.raises(DimensionError):
        DispersionHistogram.from_class_rows(np.ones((3, 3), dtype=np.int64), 2, 3)
    hist = DispersionHistogram({(1, 2): 1}, m=2, c=3)
    assert hist != {(1, 2): 1}
    assert hist != DispersionHistogram({(1, 2): 1}, m=2, c=4)


def test_normalized_entropy_reference_values():
    hist = DispersionHistogram({(1, 1): 1, (1, 2): 1, (2, 2): 2}, m=2, c=2)
    assert normalized_entropy(hist) == pytest.approx(0.75, abs=1e-15)
    single = DispersionHistogram({(3, 3): 17}, m=2, c=4)
    assert normalized_entropy(single) == 0.0
    with pytest.raises(EmptyPatternError):
        normalized_entropy(DispersionHistogram({}, m=2, c=2))


def test_normalized_entropy_uniform_is_one():
    for c, m in ((2, 2), (3, 2), (6, 4)):
        patterns = itertools.product(range(1, c + 1), repeat=m)
        hist = DispersionHistogram({pat: 7 for pat in patterns}, m=m, c=c)
        assert normalized_entropy(hist) == pytest.approx(1.0, abs=1e-12)


def test_embedding_config_validation():
    with pytest.raises(DimensionError):
        EmbeddingConfig(m=1, c=6, max_scale=5)
    with pytest.raises(DimensionError):
        EmbeddingConfig(m=4, c=1, max_scale=5)
    with pytest.raises(DimensionError):
        EmbeddingConfig(m=4, c=6, max_scale=0)
    with pytest.raises(DimensionError):
        EmbeddingConfig(m=40, c=20, max_scale=1)
