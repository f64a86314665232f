"""Property tests of the hop kernel and the graph-based pipeline over random inputs."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvdeg import (
    FloatRangeError,
    MultivariateSignal,
    WeightedGraph,
    build_complete_graph,
    build_hop_basis,
    gen_wgn,
    mvdeg_single_scale,
    naive_power,
    product_adjacency,
    write_graph_json,
    write_signal_csv,
)
from mvdeg.cli import main

EXAMPLES = settings(max_examples=200, deadline=None)


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
        assert np.array_equal(basis.valid[:, k], horizon)
        assert np.allclose(basis.values[:, k], expected, rtol=0.0, atol=1e-12)


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

    basis = build_hop_basis(signal, graph, m).values.reshape(n, p, m)
    moved = build_hop_basis(moved_signal, moved_graph, m).values.reshape(n, p, m)
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
