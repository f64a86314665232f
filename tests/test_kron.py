"""Kronecker-structure engine against dense linear-algebra oracles."""

import numpy as np
import pytest

from mvdeg import (
    DimensionError,
    MultivariateSignal,
    SizeCapError,
    WeightedGraph,
    apply_hop,
    build_complete_graph,
    build_hop_basis,
    build_zero_graph,
    naive_power,
    path_power,
    product_adjacency,
    product_power_terms,
)


def random_channel_graph(rng, p, allow_directed=False):
    w = rng.uniform(0.0, 2.0, (p, p)) * (rng.random((p, p)) > 0.3)
    if allow_directed and rng.random() < 0.5:
        np.fill_diagonal(w, 0.0)
        return WeightedGraph(w, directed=True)
    w = (w + w.T) / 2.0
    np.fill_diagonal(w, 0.0)
    return WeightedGraph(w)


def dense_hop_oracle(signal, graph, k):
    """Row-sum normalized dense A^k with the k-hop time-horizon mask."""
    n, p = signal.n_samples, signal.p
    full = naive_power(product_adjacency(n, graph), k)
    row_sums = full.sum(axis=1)
    valid = np.repeat(np.arange(n) <= n - 1 - k, p)
    out = np.zeros(n * p)
    out[valid] = (full @ signal.stacked())[valid] / row_sums[valid]
    return out, valid, row_sums


# ── path powers ──────────────────────────────────────────────────────────────


def test_path_power_closed_form():
    shift = path_power(4, 2)
    dense = shift.to_dense()
    expected = np.zeros((4, 4))
    expected[0, 2] = expected[1, 3] = 1.0
    assert np.array_equal(dense, expected)


def test_path_power_matches_repeated_multiplication():
    one = path_power(6, 1).to_dense()
    for k in range(8):
        assert np.array_equal(path_power(6, k).to_dense(), naive_power(one, k))


def test_path_power_identity_and_nilpotency():
    assert np.array_equal(path_power(5, 0).to_dense(), np.eye(5))
    for k in (5, 6, 11):
        assert not path_power(5, k).to_dense().any()


def test_path_power_rejects_negative_order():
    with pytest.raises(DimensionError):
        path_power(5, -1)
    with pytest.raises(DimensionError):
        path_power(0, 1)


# ── dense product and expansion ──────────────────────────────────────────────


def test_product_adjacency_two_steps_two_channels():
    g = build_complete_graph(2)
    expected = np.array(
        [
            [0.0, 1.0, 1.0, 0.0],
            [1.0, 0.0, 0.0, 1.0],
            [0.0, 0.0, 0.0, 1.0],
            [0.0, 0.0, 1.0, 0.0],
        ]
    )
    assert np.array_equal(product_adjacency(2, g), expected)


def test_product_adjacency_single_time_step_is_channel_graph():
    g = build_complete_graph(3)
    assert np.array_equal(product_adjacency(1, g), g.weights)


def test_product_adjacency_zero_graph_is_pure_shift():
    g = build_zero_graph(2)
    expected = np.kron(path_power(3, 1).to_dense(), np.eye(2))
    assert np.array_equal(product_adjacency(3, g), expected)


def test_product_adjacency_respects_dense_cap():
    with pytest.raises(SizeCapError):
        product_adjacency(100, build_zero_graph(2), dense_cap=150)


def test_naive_power_validation():
    with pytest.raises(DimensionError):
        naive_power(np.ones((2, 3)), 2)
    with pytest.raises(DimensionError):
        naive_power(np.eye(2), -1)
    with pytest.raises(SizeCapError):
        naive_power(np.eye(10), 2, dense_cap=5)
    with pytest.raises(SizeCapError):
        product_power_terms(4, build_complete_graph(2), 2).to_dense(dense_cap=5)
    with pytest.raises(DimensionError):
        product_power_terms(4, build_complete_graph(2), -1)


def test_expansion_k0_is_identity():
    g = build_complete_graph(3)
    power = product_power_terms(4, g, 0)
    assert len(power.terms) == 1
    assert np.array_equal(power.to_dense(), np.eye(12))


def test_expansion_matches_dense_powers():
    rng = np.random.default_rng(42)
    for n in (2, 3, 5):
        for p in (1, 2, 4):
            g = random_channel_graph(rng, p)
            dense = product_adjacency(n, g)
            for k in range(6):
                expansion = product_power_terms(n, g, k).to_dense()
                assert np.allclose(expansion, naive_power(dense, k), atol=1e-12)


def test_kron_summands_commute():
    rng = np.random.default_rng(9)
    for n in (2, 4, 6):
        for p in (2, 3, 4):
            g = random_channel_graph(rng, p, allow_directed=True)
            left = np.kron(path_power(n, 1).to_dense(), np.eye(p))
            right = np.kron(np.eye(n), g.weights)
            assert np.allclose(left @ right, right @ left, atol=1e-13)


# ── matrix-free application ──────────────────────────────────────────────────


def test_apply_hop_order_zero_returns_signal():
    rng = np.random.default_rng(1)
    sig = MultivariateSignal(rng.standard_normal((3, 7)))
    values, valid = apply_hop(sig, build_complete_graph(3), 0)
    assert np.array_equal(values, sig.stacked())
    assert valid.all()


def test_apply_hop_zero_graph_is_pure_shift():
    sig = MultivariateSignal(np.array([[1.0, 2.0, 3.0], [10.0, 20.0, 30.0]]))
    values, valid = apply_hop(sig, build_zero_graph(2), 1)
    # one-step forward shift per channel, last time step invalid
    assert np.array_equal(values.reshape(3, 2).T, [[2.0, 3.0, 0.0], [20.0, 30.0, 0.0]])
    assert np.array_equal(valid.reshape(3, 2), [[True, True], [True, True], [False, False]])


def test_apply_hop_matches_dense_oracle():
    rng = np.random.default_rng(11)
    for n in (2, 3, 5, 9, 14, 20):
        for p in (1, 2, 3, 4):
            for k in range(5):
                g = random_channel_graph(rng, p, allow_directed=True)
                sig = MultivariateSignal(rng.standard_normal((p, n)))
                values, valid = apply_hop(sig, g, k)
                expected, expected_valid, row_sums = dense_hop_oracle(sig, g, k)
                assert np.array_equal(valid, expected_valid)
                assert np.allclose(values, expected, atol=1e-12)
                # the mask keeps only rows whose normalizer is safely positive
                assert np.all(row_sums[valid] >= 1.0 - 1e-12)
                assert np.all(values[~valid] == 0.0)


def test_apply_hop_beyond_horizon_is_all_invalid():
    sig = MultivariateSignal(np.ones((2, 4)))
    values, valid = apply_hop(sig, build_complete_graph(2), 4)
    assert not valid.any()
    assert not values.any()


def test_apply_hop_linearity():
    rng = np.random.default_rng(2)
    g = random_channel_graph(rng, 3)
    a = MultivariateSignal(rng.standard_normal((3, 10)))
    b = MultivariateSignal(rng.standard_normal((3, 10)))
    combined = MultivariateSignal(2.0 * a.values + 3.0 * b.values)
    va, _ = apply_hop(a, g, 2)
    vb, _ = apply_hop(b, g, 2)
    vc, _ = apply_hop(combined, g, 2)
    assert np.allclose(vc, 2.0 * va + 3.0 * vb, atol=1e-12)


def test_apply_hop_dimension_mismatch():
    sig = MultivariateSignal(np.ones((2, 5)))
    with pytest.raises(DimensionError):
        apply_hop(sig, build_zero_graph(3), 1)
    with pytest.raises(DimensionError):
        apply_hop(sig, build_zero_graph(2), -1)


# ── hop basis ────────────────────────────────────────────────────────────────


def test_hop_basis_first_column_is_stacked_signal():
    rng = np.random.default_rng(4)
    sig = MultivariateSignal(rng.standard_normal((3, 12)))
    basis = build_hop_basis(sig, build_complete_graph(3), m=4)
    assert np.array_equal(basis[:, 0], sig.stacked())
    assert apply_hop(sig, build_complete_graph(3), 0)[1].all()
    assert basis.shape == (36, 4)


def test_hop_basis_averaging_preserves_constants():
    sig = MultivariateSignal(np.full((3, 6), 5.0))
    basis = build_hop_basis(sig, build_complete_graph(3), m=2)
    for k in range(2):
        valid = apply_hop(sig, build_complete_graph(3), k)[1]
        assert np.all(basis[valid, k] == 5.0)


def test_hop_basis_mask_is_time_horizon():
    sig = MultivariateSignal(np.ones((2, 5)))
    g = build_complete_graph(2)
    for k in range(3):
        expected = np.repeat(np.arange(5) <= 4 - k, 2)
        assert np.array_equal(apply_hop(sig, g, k)[1], expected)
    # rows surviving every column: first N - m + 1 time steps
    assert apply_hop(sig, g, 3 - 1)[1].sum() == (5 - 3 + 1) * 2


def test_hop_basis_two_time_steps_masks_second_row():
    sig = MultivariateSignal(np.array([[1.0, 2.0]]))
    valid = [apply_hop(sig, build_zero_graph(1), k)[1] for k in range(2)]
    assert np.array_equal(np.column_stack(valid), [[True, True], [True, False]])


def test_hop_basis_columns_match_apply_hop():
    rng = np.random.default_rng(8)
    g = random_channel_graph(rng, 3)
    sig = MultivariateSignal(rng.standard_normal((3, 9)))
    basis = build_hop_basis(sig, g, m=4)
    for k in range(4):
        values, valid = apply_hop(sig, g, k)
        assert np.array_equal(basis[:, k], values)
        assert np.all(basis[~valid, k] == 0.0)


def test_hop_basis_validation():
    sig = MultivariateSignal(np.ones((2, 5)))
    with pytest.raises(DimensionError):
        build_hop_basis(sig, build_zero_graph(3), m=2)
    with pytest.raises(DimensionError):
        build_hop_basis(sig, build_zero_graph(2), m=0)
