"""Property tests of the hop kernel and the graph-based pipeline over random inputs."""

import math
import subprocess
import sys
import warnings
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr, ndtri

from mvdeg import (
    CapacityError,
    DimensionError,
    DispersionHistogram,
    EmbeddingConfig,
    FloatRangeError,
    MultivariateSignal,
    WeightedGraph,
    build_complete_graph,
    build_hop_basis,
    build_zero_graph,
    classical_mvde,
    classical_mvde_curve,
    coarse_grain,
    gen_wgn,
    mvdeg_curve,
    mvdeg_single_scale,
    naive_power,
    ncdf_map,
    normalized_entropy,
    product_adjacency,
    univariate_mde,
    univariate_single_scale,
    write_graph_json,
    write_signal_csv,
)
from mvdeg.cli import main
from mvdeg.entropy import (
    _CELL_BITS,
    _CELL_RANGE,
    _CHUNK_ELEMENTS,
    _CHUNK_MIN_ROWS,
    _CLASS_TABLES,
    _class_table,
    _digits_from_cells,
    _moments,
    _standardize,
    _time_chunks,
)
from mvdeg.kron import _hop_columns
from mvdeg.signal import _BLOCK_SAMPLES

EXAMPLES = settings(max_examples=200, deadline=None)

# every public entry point that takes (m, c), called as entry(c, m)
ENTRY_POINTS = {
    "mvdeg_single_scale":
        lambda c, m: mvdeg_single_scale(gen_wgn(2, 50, 0), build_zero_graph(2), m, c),
    "univariate_single_scale":
        lambda c, m: univariate_single_scale(gen_wgn(1, 50, 0).values[0], m, c),
    "classical_mvde": lambda c, m: classical_mvde(gen_wgn(2, 50, 0), m, c),
    "from_class_rows":
        lambda c, m: DispersionHistogram.from_class_rows(np.ones((3, m), dtype=np.int64), m, c),
    "EmbeddingConfig": lambda c, m: EmbeddingConfig(m=m, c=c),
}
# from_class_rows checks only the code range, not m >= 2 and c >= 2
EMBEDDING_ENTRY_POINTS = {k: v for k, v in ENTRY_POINTS.items() if k != "from_class_rows"}


@st.composite
def channel_graphs(draw, p):
    """Directed or undirected graph on p channels, weights in [0, 2]."""
    w = np.array(
        draw(st.lists(st.floats(0.0, 2.0), min_size=p * p, max_size=p * p))
    ).reshape(p, p)
    if draw(st.booleans()):
        return WeightedGraph(w, directed=True)
    w = (w + w.T) / 2.0
    np.fill_diagonal(w, 0.0)
    return WeightedGraph(w)


@st.composite
def signals_and_graphs(draw, min_n=2, max_n=12, max_p=4):
    n = draw(st.integers(min_n, max_n))
    p = draw(st.integers(1, max_p))
    seed = draw(st.integers(0, 2**32 - 1))
    signal = MultivariateSignal(np.random.default_rng(seed).standard_normal((p, n)))
    return signal, draw(channel_graphs(p))


# ── hop basis against the dense oracle ──────────────────────────────────────


@EXAMPLES
@given(signals_and_graphs(), st.integers(1, 5))
def test_hop_basis_matches_row_normalized_dense_power(case, m):
    signal, graph = case
    n, p = signal.n_samples, signal.p
    basis = build_hop_basis(signal, graph, m)
    dense = product_adjacency(n, graph)
    for k in range(m):
        power = naive_power(dense, k)
        horizon = np.repeat(np.arange(n) + k <= n - 1, p)
        expected = np.zeros(n * p)
        np.divide(power @ signal.stacked(), power.sum(axis=1), out=expected, where=horizon)
        assert np.allclose(basis[:, k], expected, rtol=0.0, atol=1e-12)


# ── channel-permutation equivariance ────────────────────────────────────────


@EXAMPLES
@given(
    signals_and_graphs(min_n=6, max_n=60, max_p=5),
    st.integers(2, 5),
    st.integers(2, 8),
    st.randoms(use_true_random=False),
)
def test_channel_permutation_permutes_basis_and_keeps_histogram(case, m, c, rnd):
    signal, graph = case
    n, p = signal.n_samples, signal.p
    perm = np.array(rnd.sample(range(p), p))
    moved_signal = MultivariateSignal(signal.values[perm])
    moved_graph = WeightedGraph(graph.weights[np.ix_(perm, perm)], directed=graph.directed)

    basis = build_hop_basis(signal, graph, m).reshape(n, p, m)
    moved = build_hop_basis(moved_signal, moved_graph, m).reshape(n, p, m)
    assert np.allclose(moved, basis[:, perm, :], rtol=0.0, atol=1e-12)

    value, hist = mvdeg_single_scale(signal, graph, m, c)
    moved_value, moved_hist = mvdeg_single_scale(moved_signal, moved_graph, m, c)
    assert moved_hist.counts == hist.counts
    assert moved_value == value


# ── graph weights at the edges of the float range ───────────────────────────


def test_huge_weights_reach_the_scaling_limit_exactly():
    signal = gen_wgn(3, 200, 0)
    complete = build_complete_graph(3).weights
    results = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for scale in (1e50, 1e120, 1e300):
            results.append(mvdeg_single_scale(signal, WeightedGraph(complete * scale), 4, 6))
    for value, hist in results:
        assert hist.counts == results[0][1].counts
        assert value == 0.5926129160722566
        assert hist.total == 591


def test_overflowing_weights_raise():
    graph = WeightedGraph(build_complete_graph(3).weights * 1.7e308)
    with pytest.raises(FloatRangeError):
        mvdeg_single_scale(gen_wgn(3, 200, 0), graph, 4, 6)


def test_row_sums_too_far_apart_raise():
    # channel 2 is isolated; its rescaled row sum would sink below the
    # range where hop values divide exactly
    w = np.zeros((3, 3))
    w[0, 1] = w[1, 0] = 1e110
    with pytest.raises(FloatRangeError):
        mvdeg_single_scale(gen_wgn(3, 200, 0), WeightedGraph(w), 4, 6)


def test_cli_reports_float_range_error_as_numeric_refusal(tmp_path, capsys):
    write_signal_csv(gen_wgn(3, 200, 0), tmp_path / "s.csv")
    graph = WeightedGraph(build_complete_graph(3).weights * 1.7e308)
    write_graph_json(graph, tmp_path / "g.json")
    code = main([
        "entropy", "--input", str(tmp_path / "s.csv"), "--graph", str(tmp_path / "g.json"),
        "--max-scale", "1", "--out", str(tmp_path / "c.csv"),
    ])
    assert code == 4
    assert "overflow" in capsys.readouterr().err


# ── pattern-code histograms ─────────────────────────────────────────────────


@st.composite
def class_rows(draw):
    """(R, m) class rows over 1..c, drawn to reach every counting branch:
    c^m at most 2R (bincount), above 2R, and above 2^24 (np.unique)."""
    m = draw(st.integers(2, 5))
    branch = draw(st.sampled_from(["bincount", "unique", "above 2^24"]))
    smallest_sparse = math.floor(2 ** (24 / m)) + 1  # least c with c^m > 2^24
    largest = math.floor(2 ** (62 / m))  # codes must stay below 2^62
    while largest ** m >= 2 ** 62:
        largest -= 1
    min_rows = 1
    if branch == "bincount":
        c = draw(st.integers(2, math.floor(200 ** (1 / m))))
        min_rows = -(-(c ** m) // 2)
    elif branch == "unique":
        c = draw(st.integers(2, smallest_sparse - 1))
    else:
        c = draw(st.integers(smallest_sparse, largest))
    rows = draw(st.lists(
        st.lists(st.integers(1, c), min_size=m, max_size=m), min_size=min_rows, max_size=100
    ))
    return np.array(rows, dtype=np.int64), m, c


def dict_sorted_entropy(counts: dict, m: int, c: int) -> float:
    """Normalized entropy summed over a dict of counts in sorted pattern order."""
    values = np.array([counts[k] for k in sorted(counts)], dtype=float)
    probs = values / values.sum()
    h = float(-(probs * np.log(probs)).sum()) / (m * math.log(c))
    return min(max(0.0, h), 1.0)


@EXAMPLES
@given(class_rows())
def test_from_class_rows_counts_every_distinct_row(case):
    rows, m, c = case
    hist = DispersionHistogram.from_class_rows(rows, m, c)
    expected = Counter(map(tuple, rows.tolist()))
    assert hist.counts == expected
    assert dict(hist.counts.items()) == expected
    assert hist.total == len(rows)
    assert hist == DispersionHistogram(expected, m=m, c=c)


@EXAMPLES
@given(class_rows())
def test_normalized_entropy_equals_the_dict_sorted_formula_bitwise(case):
    rows, m, c = case
    hist = DispersionHistogram.from_class_rows(rows, m, c)
    expected = dict_sorted_entropy(Counter(map(tuple, rows.tolist())), m, c)
    assert normalized_entropy(hist).hex() == expected.hex()
    assert 0.0 <= normalized_entropy(hist) <= 1.0


@EXAMPLES
@given(class_rows(), st.lists(st.lists(st.integers(-2, 12), min_size=1, max_size=6), max_size=20))
def test_counts_view_behaves_like_a_sorted_dict(case, probes):
    rows, m, c = case
    view = DispersionHistogram.from_class_rows(rows, m, c).counts
    reference = dict(sorted(Counter(map(tuple, rows.tolist())).items()))
    assert len(view) == len(reference)
    assert list(view) == list(reference)
    assert list(view.items()) == list(reference.items())
    for key in [*reference, *map(tuple, probes), tuple(rows[0].tolist()) + (1,), "not a pattern"]:
        assert (key in view) == (key in reference)
        if key in reference:
            assert view[key] == reference[key]
        else:
            with pytest.raises(KeyError):
                view[key]


@EXAMPLES
@given(
    st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(4, 20), st.integers(2, 3),
    st.sampled_from([2, 3, 6, 300]),
)
def test_classical_mvde_counts_every_subset_pattern(seed, p, n, m, c):
    # c = 300 puts c^m above twice the window count (and above 2^24 at m = 3),
    # where per-subset np.unique counts are merged
    signal = MultivariateSignal(np.random.default_rng(seed).standard_normal((p, n)))
    _, hist = classical_mvde(signal, m, c)
    classes = ncdf_map(signal, c)
    expected = Counter()
    for t in range(n - m + 1):
        window = classes[:, t:t + m].reshape(-1).tolist()
        expected.update(combinations(window, m))
    assert hist.counts == expected
    assert list(hist.counts) == sorted(expected)


@pytest.mark.parametrize("entry", list(ENTRY_POINTS.values()), ids=list(ENTRY_POINTS))
def test_pattern_codes_that_would_wrap_int64_are_refused(entry):
    # 5e9^2 > 2^62: base-c codes of such patterns wrap int64
    with pytest.raises(DimensionError):
        entry(5_000_000_000, 2)


@pytest.mark.parametrize("rows", [[[7, 1]], [[1, 0]], [[1, 2], [3, 4]]])
def test_from_class_rows_rejects_classes_outside_1_to_c(rows):
    with pytest.raises(DimensionError):
        DispersionHistogram.from_class_rows(np.array(rows), 2, 3)


# ── reductions and invariances of the graph-based pipeline ──────────────────


@EXAMPLES
@given(signals_and_graphs(min_n=6, max_n=60, max_p=4), st.integers(2, 4), st.integers(2, 8))
def test_zero_graph_histogram_is_the_union_of_channel_histograms(case, m, c):
    signal, _ = case
    _, hist = mvdeg_single_scale(signal, build_zero_graph(signal.p), m, c)
    merged = Counter()
    for channel in signal.values:
        merged.update(univariate_single_scale(channel, m, c)[1].counts)
    assert hist.counts == merged


@EXAMPLES
@given(
    st.integers(0, 2**32 - 1), st.integers(6, 80), st.integers(2, 4), st.integers(2, 8),
    st.integers(1, 6),
)
def test_single_channel_curve_is_univariate_mde(seed, n, m, c, max_scale):
    x = np.random.default_rng(seed).standard_normal(n)
    config = EmbeddingConfig(m=m, c=c, max_scale=max_scale)
    graph_curve = mvdeg_curve(MultivariateSignal(x[None, :]), build_zero_graph(1), config)
    mde_curve = univariate_mde(x, config)
    assert len(graph_curve.records) == len(mde_curve.records) == max_scale
    for got, want in zip(graph_curve.records, mde_curve.records):
        assert (got.tau, got.defined, got.n_realizations) == (
            want.tau, want.defined, want.n_realizations
        )
        assert got.mean == want.mean or (math.isnan(got.mean) and math.isnan(want.mean))


@EXAMPLES
@given(signals_and_graphs(min_n=6, max_n=60, max_p=4), st.integers(2, 5), st.integers(2, 8))
def test_entropy_lies_in_unit_interval(case, m, c):
    signal, graph = case
    value, hist = mvdeg_single_scale(signal, graph, m, c)
    assert 0.0 <= value <= 1.0
    assert hist.total == (signal.n_samples - m + 1) * signal.p


@EXAMPLES
@given(signals_and_graphs(min_n=6, max_n=60, max_p=4), st.integers(2, 4), st.integers(2, 8),
       st.data())
def test_positive_gain_and_offset_per_channel_keep_the_histogram(case, m, c, data):
    # gains and offsets stay within a few decades, so the affine map moves
    # standardized values by a few ulps and flips no class in practice
    signal, graph = case
    gains = data.draw(st.lists(st.floats(0.05, 50.0), min_size=signal.p, max_size=signal.p))
    offsets = data.draw(st.lists(st.floats(-100.0, 100.0), min_size=signal.p, max_size=signal.p))
    moved = MultivariateSignal(
        np.array(gains)[:, None] * signal.values + np.array(offsets)[:, None]
    )
    _, hist = mvdeg_single_scale(signal, graph, m, c)
    _, moved_hist = mvdeg_single_scale(moved, graph, m, c)
    assert moved_hist.counts == hist.counts


# ── one embedding contract for every entry point and every curve ────────────


@pytest.mark.parametrize(
    "entry", list(EMBEDDING_ENTRY_POINTS.values()), ids=list(EMBEDDING_ENTRY_POINTS)
)
@pytest.mark.parametrize("c, m", [(6, -1), (6, 0), (6, 1), (1, 4), (0, 4)])
def test_embedding_below_m_2_or_c_2_is_refused(entry, c, m):
    with pytest.raises(DimensionError):
        entry(c, m)


def test_classical_curve_is_classical_mvde_per_scale():
    signal = gen_wgn(2, 30, 0)
    curve = classical_mvde_curve(signal, EmbeddingConfig(m=2, c=3, max_scale=12))
    assert (curve.method, curve.graph, curve.m, curve.c) == ("mvde", "none", 2, 3)
    assert [r.tau for r in curve.records] == list(range(1, 13))
    for record in curve.records[:10]:
        assert record.defined and record.n_realizations == 1
        assert record.mean == classical_mvde(signal, 2, 3, record.tau)[0]
    # 30 // 11 = 2 samples cannot hold an m=2 window plus one step
    for record in curve.records[10:]:
        assert not record.defined and record.n_realizations == 0
        assert math.isnan(record.mean)
    with pytest.raises(CapacityError):
        classical_mvde_curve(signal, EmbeddingConfig(m=2, c=3, max_scale=12), pattern_cap=10)


# ── streamed pattern codes against the whole-basis path ─────────────────────


def basis_class_map(z, c):
    """The class map as the whole-basis path applied it, on a copy of z."""
    return np.floor(c * ndtr(z) + 1.0).clip(1, c).astype(np.int64)


def table_classes(z, c):
    """Classes 1..c as the pipelines read them: the class table's digit of z 2^_CELL_BITS."""
    return _digits_from_cells(z * 2.0 ** _CELL_BITS, c) + 1


@st.composite
def embeddings(draw):
    """(m, c) with c^m below 2^62, reaching codes above 2^53 for large m."""
    m = draw(st.integers(2, 12))
    c = draw(st.integers(2, min(10 ** 6, math.floor(2 ** (61 / m)))))
    return m, c


@EXAMPLES
@given(signals_and_graphs(min_n=12, max_n=60, max_p=5), embeddings())
def test_streamed_histogram_equals_the_whole_basis_oracle(case, embedding):
    signal, graph = case
    m, c = embedding
    value, hist = mvdeg_single_scale(signal, graph, m, c)
    z = MultivariateSignal(_standardize(signal.values))
    rows = (signal.n_samples - m + 1) * signal.p
    classes = basis_class_map(build_hop_basis(z, graph, m)[:rows], c)
    oracle = DispersionHistogram.from_class_rows(classes, m, c)
    assert hist == oracle
    assert value.hex() == normalized_entropy(oracle).hex()


def test_class_map_matches_the_whole_basis_map_at_every_class_edge():
    # ndtr is not monotone within one ulp of some edges (c = 5 near
    # z = -0.8416), so the table must round exactly as the whole-basis map did
    for c in range(2, 65):
        edge = ndtri(np.arange(1, c) / c)
        up, down, zs = edge, edge, [edge]
        for _ in range(64):
            up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
            zs += [up, down]
        z = np.concatenate(zs + [np.array([-(2.0 ** 51), -40.0, 0.0, 40.0, 2.0 ** 51])])
        assert np.array_equal(table_classes(z, c), basis_class_map(z, c))


# ── the class table against ndtr ────────────────────────────────────────────

# c = 2 has its class edge z = 0 on a cell edge; at c = 10^5 most cells fall back
TABLE_CS = [2, 5, 6, 64, 10 ** 5]


def cell_edges():
    """Every edge of a table cell, and one cell beyond each end."""
    half = _CELL_RANGE << _CELL_BITS
    return np.arange(-half - 1, half + 2) / 2.0 ** _CELL_BITS


def around(points, ulps=8):
    """points and the `ulps` floats on either side of each, and each point moved by
    2^-60 .. 2^-40, which the table's offset add can round onto the point."""
    up, down, zs = points, points, [points]
    for _ in range(ulps):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        zs += [up, down]
    for bits in (60, 54, 52, 51, 50, 48, 44, 40):
        zs += [points - 2.0 ** -bits, points + 2.0 ** -bits]
    return np.concatenate(zs)


@pytest.mark.parametrize("c", TABLE_CS)
def test_table_class_map_equals_ndtr_around_every_cell_edge(c):
    z = around(cell_edges())
    assert np.array_equal(table_classes(z, c), basis_class_map(z, c))


@pytest.mark.parametrize("c", TABLE_CS)
def test_table_class_map_equals_ndtr_around_every_class_edge(c):
    z = around(ndtri(np.arange(1, c) / c))
    assert np.array_equal(table_classes(z, c), basis_class_map(z, c))


@pytest.mark.parametrize("c", TABLE_CS)
def test_table_class_map_at_the_ends_of_the_float_range(c):
    tiny = np.nextafter(0.0, 1.0)
    specials = np.array([
        2.0 ** 51, 2.0 ** 40, 16.0, 16.0 - 2.0 ** -_CELL_BITS, 15.0, 1e-15, 2.0 ** -51,
        tiny, 2.2e-308, 2.2250738585072014e-308, 0.0,
    ])
    z = np.concatenate([specials, -specials])
    assert np.signbit(z[-1])  # -0.0
    for shaped in (z, z.reshape(2, -1), z.reshape(-1, 2).T):
        classes = table_classes(shaped, c)
        assert classes.dtype == np.int64 and classes.shape == shaped.shape
        assert np.array_equal(classes, basis_class_map(shaped, c))


@EXAMPLES
@given(st.integers(2, 1000), st.floats(-3.0, 3.0), st.integers(0, 2 ** 32 - 1))
def test_table_class_map_equals_ndtr_on_scaled_normal_z(c, decades, seed):
    z = np.random.default_rng(seed).standard_normal(2048) * 10.0 ** decades
    assert np.array_equal(table_classes(z, c), basis_class_map(z, c))


@EXAMPLES
@given(st.integers(1, 5), st.integers(2, 80), st.integers(2, 70), st.integers(0, 2 ** 32 - 1),
       st.data())
def test_ncdf_map_equals_ndtr_of_the_z_scores(p, n, c, seed, data):
    # gains 2^k reach sds far from 1, where the z-cells of _standardize's unit
    # must still be z 2^_CELL_BITS exactly; a constant channel's z-scores are 0
    gains = data.draw(st.lists(st.integers(-400, 400), min_size=p, max_size=p))
    constant = data.draw(st.lists(st.booleans(), min_size=p, max_size=p))
    values = np.random.default_rng(seed).standard_normal((p, n)) * 2.0 ** np.array(gains)[:, None]
    values[constant] = values[constant, :1]
    classes = ncdf_map(MultivariateSignal(values), c)
    assert np.array_equal(classes, basis_class_map(_standardize(values), c))


def test_class_tables_are_read_only_and_at_most_class_tables_are_kept():
    cs = range(3, 3 + 2 * _CLASS_TABLES)
    for c in cs:
        table_classes(np.linspace(-3.0, 3.0, 7), c)
        assert not _class_table(c).flags.writeable
    info = _class_table.cache_info()
    assert info.maxsize == _CLASS_TABLES and info.currsize == _CLASS_TABLES


def test_class_tables_are_built_on_first_use_not_at_import():
    code = "import mvdeg.entropy as e; print(e._class_table.cache_info().currsize)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["0"]


def test_pool_threads_share_the_class_tables():
    # threads that build and read the same tables give the serial classes
    zs = [np.random.default_rng(seed).standard_normal(50_000) for seed in range(8)]
    jobs = [(z, c) for z in zs for c in (4, 7, 11)]
    _class_table.cache_clear()
    with ThreadPoolExecutor(4) as pool:
        got = list(pool.map(lambda job: table_classes(*job), jobs))
    for (z, c), classes in zip(jobs, got):
        assert np.array_equal(classes, basis_class_map(z, c))


# ── time chunks against the whole-basis path ────────────────────────────────


def whole_basis_oracle(signal, graph, m, c):
    """(entropy, histogram) from classing the whole (N p, m) hop basis at once."""
    z = MultivariateSignal(_standardize(signal.values))
    rows = (signal.n_samples - m + 1) * signal.p
    classes = basis_class_map(build_hop_basis(z, graph, m)[:rows], c)
    oracle = DispersionHistogram.from_class_rows(classes, m, c)
    return normalized_entropy(oracle), oracle


def rows_in_chunks(p, chunks):
    """A pattern-row count that _time_chunks splits into `chunks` chunks, unevenly when
    there are several."""
    per_chunk = max(_CHUNK_MIN_ROWS, -(-_CHUNK_ELEMENTS // p))
    n_rows = per_chunk + per_chunk // 2 if chunks == 1 else chunks * per_chunk + chunks - 1
    bounds = _time_chunks(n_rows, p)
    sizes = {end - start for start, end in bounds}
    assert len(bounds) == chunks and min(sizes) >= _CHUNK_MIN_ROWS
    assert bounds[0][0] == 0 and bounds[-1][1] == n_rows
    assert len(sizes) == (1 if chunks == 1 else 2)
    return n_rows


def random_graph(p, seed):
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.0, 2.0, (p, p))
    return WeightedGraph(w + w.T)


@pytest.mark.parametrize("chunks", [1, 2, 3])
@pytest.mark.parametrize("m", [2, 4, 6])
@pytest.mark.parametrize("p", [1, 3, 32, 64])
def test_time_chunks_equal_the_whole_basis_oracle(p, m, chunks):
    n = rows_in_chunks(p, chunks) + m - 1
    signal = gen_wgn(p, n, seed=p * 100 + m * 10 + chunks)
    graph = random_graph(p, seed=p)
    value, hist = mvdeg_single_scale(signal, graph, m, 6)
    want_value, want = whole_basis_oracle(signal, graph, m, 6)
    assert hist == want
    assert value.hex() == want_value.hex()


@pytest.mark.parametrize("p, m, c", [(32, 4, 40), (3, 5, 3000)])
def test_time_chunks_merge_sparse_codes_like_the_whole_basis_oracle(p, m, c):
    # c^m is above twice a chunk's codes, so each chunk is counted by
    # np.unique and the counts merged; 3000^5 also puts codes above 2^53
    n = rows_in_chunks(p, 3) + m - 1
    signal = gen_wgn(p, n, seed=c)
    graph = random_graph(p, seed=c)
    value, hist = mvdeg_single_scale(signal, graph, m, c)
    want_value, want = whole_basis_oracle(signal, graph, m, c)
    assert hist == want
    assert value.hex() == want_value.hex()


# ── the edgeless graph's shifted class slices against the whole-basis path ──


@pytest.mark.parametrize("chunks", [1, 2, 3])
@pytest.mark.parametrize("m", [2, 4, 6])
@pytest.mark.parametrize("p", [1, 3, 32, 64])
def test_zero_graph_time_chunks_equal_the_whole_basis_oracle(p, m, chunks):
    n = rows_in_chunks(p, chunks) + m - 1
    signal = gen_wgn(p, n, seed=p * 100 + m * 10 + chunks)
    graph = build_zero_graph(p)
    value, hist = mvdeg_single_scale(signal, graph, m, 6)
    want_value, want = whole_basis_oracle(signal, graph, m, 6)
    assert hist == want
    assert value.hex() == want_value.hex()


@pytest.mark.parametrize("p, m, c", [(32, 4, 40), (3, 5, 3000)])
def test_zero_graph_time_chunks_merge_sparse_codes_like_the_whole_basis_oracle(p, m, c):
    n = rows_in_chunks(p, 3) + m - 1
    signal = gen_wgn(p, n, seed=c)
    graph = build_zero_graph(p)
    value, hist = mvdeg_single_scale(signal, graph, m, c)
    want_value, want = whole_basis_oracle(signal, graph, m, c)
    assert hist == want
    assert value.hex() == want_value.hex()


@EXAMPLES
@given(signals_and_graphs(min_n=13, max_n=60, max_p=5), embeddings())
def test_zero_graph_shifted_classes_equal_the_whole_basis_oracle(case, embedding):
    # univariate_single_scale needs N >= m + 1 = 13 samples at m = 12
    signal, _ = case
    m, c = embedding
    graph = build_zero_graph(signal.p)
    value, hist = mvdeg_single_scale(signal, graph, m, c)
    want_value, want = whole_basis_oracle(signal, graph, m, c)
    assert hist == want
    assert value.hex() == want_value.hex()
    channel = signal.values[0]
    one_value, one = univariate_single_scale(channel, m, c)
    graph_value, graph_hist = mvdeg_single_scale(
        MultivariateSignal(channel[None, :]), build_zero_graph(1), m, c
    )
    assert one == graph_hist
    assert one_value.hex() == graph_value.hex()


@pytest.mark.parametrize("chunks", [2, 3])
@pytest.mark.parametrize("m", [2, 4, 6])
@pytest.mark.parametrize("p", [1, 3, 32, 64])
def test_time_chunk_hop_columns_equal_the_whole_columns_bitwise(p, m, chunks):
    # one ulp of difference rarely moves a class, so compare the floats: BLAS
    # products of a few rows differ from the whole product in the last bit
    n_rows = rows_in_chunks(p, chunks)
    signal = gen_wgn(p, n_rows + m - 1, seed=p + m + chunks)
    weights = random_graph(p, seed=p).weights
    moments = _moments(signal.values)
    whole = list(_hop_columns(_standardize(signal.values).T, weights, m))
    for start, end in _time_chunks(n_rows, p):
        block = _standardize(signal.values[:, start : end + m - 1], moments)
        for k, column in enumerate(_hop_columns(block.T, weights, m)):
            assert np.array_equal(column[: end - start], whole[k][start:end])


def test_huge_weights_rescale_identically_in_every_time_chunk():
    n = rows_in_chunks(3, 3) + 3
    signal = gen_wgn(3, n, 0)
    complete = build_complete_graph(3).weights
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value, hist = mvdeg_single_scale(signal, WeightedGraph(complete * 1e120), 4, 6)
        large_value, large = mvdeg_single_scale(signal, WeightedGraph(complete * 1e50), 4, 6)
    want_value, want = whole_basis_oracle(signal, WeightedGraph(complete * 1e120), 4, 6)
    assert hist == want == large
    assert value.hex() == want_value.hex() == large_value.hex()


def test_float_range_errors_raise_from_chunked_signals():
    signal = gen_wgn(3, rows_in_chunks(3, 3) + 3, 0)
    with pytest.raises(FloatRangeError, match="row sums of hop column 1 overflow"):
        mvdeg_single_scale(signal, WeightedGraph(build_complete_graph(3).weights * 1.7e308), 4, 6)
    w = np.zeros((3, 3))
    w[0, 1] = w[1, 0] = 1e110
    with pytest.raises(FloatRangeError, match="too far apart"):
        mvdeg_single_scale(signal, WeightedGraph(w), 4, 6)


@pytest.mark.parametrize("chunks", [1, 3])
def test_an_overflowing_hop_step_raises_from_whole_and_chunked_signals(chunks):
    # the row sums 1 + 1e308 are finite, but 1e308 times a z-score above 1.8 is not
    signal = gen_wgn(2, rows_in_chunks(2, chunks) + 3, 0)
    graph = WeightedGraph(build_complete_graph(2).weights * 1e308)
    with pytest.raises(FloatRangeError, match="^hop column 1 overflows float64$"):
        mvdeg_single_scale(signal, graph, 4, 6)


@pytest.mark.parametrize("build", [
    lambda: DispersionHistogram.from_class_rows(np.array([[1.5, 2.0], [1.0, 2.0]]), 2, 3),
    lambda: DispersionHistogram.from_class_rows(np.array([[1.0, 2.0]]), 2, 3),
    lambda: DispersionHistogram({(1.5, 2): 1, (1, 2): 3}, 2, 3),
    lambda: DispersionHistogram({(1, np.float64(2.0)): 1}, 2, 3),
    lambda: DispersionHistogram({(1, 2): 1.5}, 2, 3),
], ids=["fractional-rows", "float-rows", "fractional-class", "float-class", "fractional-count"])
def test_non_integer_classes_and_counts_are_refused(build):
    # truncating them instead would merge distinct patterns or drop counts
    with pytest.raises(DimensionError, match="integer"):
        build()


@pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.int32, np.uint64])
def test_from_class_rows_counts_any_integer_dtype_like_int64(dtype):
    rows = np.random.default_rng(0).integers(1, 7, size=(500, 4))
    want = DispersionHistogram.from_class_rows(rows, 4, 6)
    assert DispersionHistogram.from_class_rows(rows.astype(dtype), 4, 6) == want


# ── coarse-graining and moments against numpy, bit for bit ─────────────────
# These pin numpy's own reduction order (its pairwise sum), so a numpy whose
# order changes fails here first. Bits are compared as int64, so -0.0 counts.


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def window_means(values, tau):
    """numpy's means of the windows; at tau = 1 coarse_grain keeps the signal, -0.0s too."""
    if tau == 1:
        return values
    length = values.shape[1] // tau
    return values[:, : length * tau].reshape(values.shape[0], length, tau).mean(axis=2)


@pytest.mark.parametrize("decades", [-300, 0, 300])
def test_coarse_grain_is_numpys_window_mean_at_every_scale_to_300(decades):
    values = np.random.default_rng(decades + 1000).standard_normal((3, 1201)) * 10.0 ** decades
    values[1, :700] = -0.0  # windows of -0.0s, which numpy sums to +0.0
    signal = MultivariateSignal(values)
    for tau in range(1, 301):
        assert same_bits(coarse_grain(signal, tau).values, window_means(values, tau)), tau


@EXAMPLES
@given(
    st.sampled_from([1, 3, 32]), st.integers(1, 300), st.integers(2, 6), st.integers(0, 299),
    st.floats(-300.0, 300.0), st.integers(0, 2 ** 32 - 1),
)
def test_coarse_grain_is_numpys_window_mean(p, tau, length, tail, decades, seed):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((p, length * tau + tail % tau)) * 10.0 ** decades
    values[rng.random(values.shape) < 0.1] = -0.0
    coarse = coarse_grain(MultivariateSignal(values), tau)
    assert same_bits(coarse.values, window_means(values, tau))
    assert not coarse.values.flags.writeable


def test_coarse_grain_blocks_channels_without_changing_a_bit():
    values = np.random.default_rng(5).standard_normal((7, 3 * _BLOCK_SAMPLES // 7 + 5))
    for tau in (2, 9, 23, 24, 130):  # several channels per block, and a ragged last block
        assert same_bits(coarse_grain(MultivariateSignal(values), tau).values, window_means(values, tau))


def test_coarse_grain_of_an_f_ordered_signal_is_that_of_its_c_ordered_copy():
    # read_signal_csv gives F-ordered values, where numpy's own mean would sum in sequence
    values = np.random.default_rng(7).standard_normal((1201, 3)).T
    values[1, :700] = -0.0
    f_ordered, c_ordered = MultivariateSignal(values), MultivariateSignal(np.ascontiguousarray(values))
    assert f_ordered.values.flags.f_contiguous and not f_ordered.values.flags.c_contiguous
    for tau in range(1, 301):
        assert same_bits(coarse_grain(f_ordered, tau).values, window_means(c_ordered.values, tau)), tau


def test_a_window_whose_sum_overflows_is_refused_as_before():
    signal = MultivariateSignal([[1e308, 1e308, 1.0, 2.0], [1.0, 2.0, 3.0, 4.0]])
    with np.errstate(over="ignore"):
        with pytest.raises(DimensionError, match="^signal values must be finite$"):
            MultivariateSignal(window_means(signal.values, 2))
        with pytest.raises(DimensionError, match="^signal values must be finite$"):
            coarse_grain(signal, 2)


@EXAMPLES
@given(
    st.integers(1, 9), st.integers(2, 3 * _BLOCK_SAMPLES // 9), st.floats(-150.0, 150.0),
    st.floats(-100.0, 100.0), st.integers(0, 2 ** 32 - 1),
)
def test_moments_are_numpys_mean_and_std(p, n, spread, offset, seed):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((p, n)) * 10.0 ** spread + rng.standard_normal((p, 1)) * 10.0 ** offset
    mean, sd = _moments(values)
    assert same_bits(mean, values.mean(axis=1, keepdims=True))
    assert same_bits(sd, values.std(axis=1, ddof=1, keepdims=True))


@pytest.mark.parametrize("channel, message", [
    ([1.7e308, -1.7e308, -1.7e308, 0.0], "^channel mean or sd overflows float64$"),
    ([1e200, 0.0, 0.0, 0.0], "^channel mean or sd overflows float64$"),
    ([1e-200, -1e-200, 3e-200, 0.0], "^channel 1 varies but its variance underflows float64$"),
])
def test_moments_refuse_out_of_range_channels(channel, message):
    with pytest.raises(FloatRangeError, match=message):
        _moments(np.array([[1.0, 2.0, 3.0, 4.0], channel]))
