"""Graph constructors: values, symmetry, degeneracy handling."""

import warnings

import numpy as np
import pytest

from mvdeg import (
    DegenerateChannelError,
    DimensionError,
    FloatRangeError,
    MultivariateSignal,
    StationLayout,
    WeightedGraph,
    build_complete_graph,
    build_gaussian_kernel_graph,
    build_zero_graph,
    estimate_correlation_graph,
    gen_wgn,
)


def test_zero_graph():
    g = build_zero_graph(3)
    assert g.n == 3
    assert not g.directed
    assert np.array_equal(g.weights, np.zeros((3, 3)))


def test_complete_graph_16_channels():
    g = build_complete_graph(16)
    assert np.count_nonzero(g.weights) == 240  # 16 * 15 ordered pairs
    assert np.all(np.diag(g.weights) == 0)
    assert set(np.unique(g.weights)) == {0.0, 1.0}


def test_complete_graph_single_vertex_has_no_edges():
    g = build_complete_graph(1)
    assert np.array_equal(g.weights, np.zeros((1, 1)))


def test_builders_reject_empty():
    with pytest.raises(DimensionError):
        build_zero_graph(0)
    with pytest.raises(DimensionError):
        build_complete_graph(0)


def test_graph_validation():
    with pytest.raises(DimensionError):
        WeightedGraph(np.ones((2, 3)))
    with pytest.raises(DimensionError):
        WeightedGraph(np.ones((0, 0)))
    with pytest.raises(DimensionError):
        WeightedGraph(np.array([[0.0, -1.0], [-1.0, 0.0]]))
    with pytest.raises(DimensionError):
        WeightedGraph(np.array([[0.0, np.inf], [np.inf, 0.0]]))
    with pytest.raises(DimensionError):
        WeightedGraph(np.array([[0.0, 1.0], [2.0, 0.0]]), directed=False)
    # asymmetric is fine when declared directed
    g = WeightedGraph(np.array([[0.0, 1.0], [2.0, 0.0]]), directed=True)
    assert g.directed


def test_graph_weights_are_readonly():
    g = build_complete_graph(3)
    with pytest.raises(ValueError):
        g.weights[0, 1] = 5.0


def test_gaussian_kernel_reference_distance():
    # stations exactly sqrt(2 sigma1_sq) apart get weight e^-1
    sigma1_sq = 2.5
    d = np.sqrt(2 * sigma1_sq)
    layout = StationLayout(np.array([[0.0, 0.0], [d, 0.0]]))
    g = build_gaussian_kernel_graph(layout, sigma1_sq, sigma2=10.0)
    assert g.weights[0, 1] == pytest.approx(np.exp(-1.0), abs=1e-15)
    assert g.weights[1, 0] == g.weights[0, 1]
    assert np.all(np.diag(g.weights) == 0)


def test_gaussian_kernel_cutoff_zeroes_far_pairs():
    layout = StationLayout(np.array([[0.0, 0.0], [5.0, 0.0]]))
    g = build_gaussian_kernel_graph(layout, sigma1_sq=100.0, sigma2=4.9)
    assert g.weights[0, 1] == 0.0


def test_gaussian_kernel_coincident_stations():
    layout = StationLayout(np.array([[1.0, 1.0], [1.0, 1.0]]))
    g = build_gaussian_kernel_graph(layout, sigma1_sq=1.0, sigma2=1.0)
    assert g.weights[0, 1] == 1.0
    assert g.weights[0, 0] == 0.0  # self-loops off by default
    g_loops = build_gaussian_kernel_graph(layout, 1.0, 1.0, include_self_loops=True)
    assert g_loops.weights[0, 0] == 1.0


def test_gaussian_kernel_parameter_validation():
    layout = StationLayout(np.array([[0.0, 0.0], [1.0, 0.0]]))
    with pytest.raises(DimensionError):
        build_gaussian_kernel_graph(layout, sigma1_sq=0.0, sigma2=1.0)
    with pytest.raises(DimensionError):
        build_gaussian_kernel_graph(layout, sigma1_sq=1.0, sigma2=-1.0)


def test_station_layout_validation():
    with pytest.raises(DimensionError):
        StationLayout(np.zeros((2, 3)))
    with pytest.raises(DimensionError):
        StationLayout(np.zeros((0, 2)))
    with pytest.raises(DimensionError):
        StationLayout(np.array([[0.0, np.nan]]))
    with pytest.raises(DimensionError):
        StationLayout(np.zeros((2, 2)), station_ids=("only-one",))


def test_correlation_graph_identical_and_negated_channels():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(500)
    sig = MultivariateSignal(np.stack([x, x, -x]))
    g = estimate_correlation_graph(sig)
    assert g.weights[0, 1] == pytest.approx(1.0, abs=1e-12)
    assert g.weights[0, 2] == pytest.approx(1.0, abs=1e-12)  # absolute value
    assert np.all(np.diag(g.weights) == 0)
    assert np.array_equal(g.weights, g.weights.T)


def test_correlation_graph_independent_noise_is_weak():
    sig = gen_wgn(4, 15000, seed=1)
    g = estimate_correlation_graph(sig)
    off = g.weights[~np.eye(4, dtype=bool)]
    assert np.all(off <= 0.1)


def test_correlation_graph_names_degenerate_channel():
    sig = MultivariateSignal(np.array([[1.0, 2.0, 3.0], [5.0, 5.0, 5.0]]))
    with pytest.raises(DegenerateChannelError) as err:
        estimate_correlation_graph(sig)
    assert err.value.channel == 1
    assert "1" in str(err.value)


@pytest.mark.parametrize("scale, message", [
    (1e200, "channel mean or sd overflows float64"),
    (1e-200, "channel 1 varies but its variance underflows float64"),
])
def test_correlation_graph_out_of_range_channel_is_float_range_error(scale, message):
    rng = np.random.default_rng(2)
    values = np.vstack([rng.standard_normal(40), rng.standard_normal(40) * scale])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatRangeError, match=message):
            estimate_correlation_graph(MultivariateSignal(values))


def test_correlation_graph_tiny_constant_channel_is_degenerate():
    values = np.array([[1.0, 2.0, 4.0], [1e-200, 1e-200, 1e-200]])
    with pytest.raises(DegenerateChannelError) as err:
        estimate_correlation_graph(MultivariateSignal(values))
    assert err.value.channel == 1


def test_correlation_graph_preconditions():
    with pytest.raises(DimensionError):
        estimate_correlation_graph(MultivariateSignal(np.array([[1.0, 2.0, 3.0]])))
    with pytest.raises(DimensionError):
        estimate_correlation_graph(MultivariateSignal(np.array([[1.0, 2.0], [3.0, 4.0]])))


def test_correlation_graph_affine_invariance():
    # |Pearson| is unchanged by per-channel affine maps with nonzero gain
    rng = np.random.default_rng(7)
    values = rng.standard_normal((3, 300))
    g1 = estimate_correlation_graph(MultivariateSignal(values))
    gains = np.array([[2.0], [-0.5], [10.0]])
    offsets = np.array([[1.0], [-3.0], [0.25]])
    g2 = estimate_correlation_graph(MultivariateSignal(gains * values + offsets))
    assert np.allclose(g1.weights, g2.weights, atol=1e-12)


def test_correlation_graph_permutation_equivariance():
    rng = np.random.default_rng(3)
    values = rng.standard_normal((4, 200))
    perm = np.array([2, 0, 3, 1])
    g = estimate_correlation_graph(MultivariateSignal(values))
    gp = estimate_correlation_graph(MultivariateSignal(values[perm]))
    assert np.allclose(gp.weights, g.weights[np.ix_(perm, perm)], atol=1e-12)


def test_constructor_outputs_always_valid():
    rng = np.random.default_rng(5)
    for p in (1, 2, 3, 8, 17, 32):
        for g in (build_zero_graph(p), build_complete_graph(p)):
            assert g.n == p
            assert np.all(g.weights >= 0)
            assert np.array_equal(g.weights, g.weights.T)
        layout = StationLayout(rng.uniform(0, 10, (p, 2)))
        gk = build_gaussian_kernel_graph(layout, sigma1_sq=4.0, sigma2=8.0)
        assert np.all((gk.weights >= 0) & (gk.weights <= 1))
        assert np.array_equal(gk.weights, gk.weights.T)
