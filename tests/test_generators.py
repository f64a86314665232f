"""Seeded signal generators: determinism, substreams, spectra, correlations."""

import numpy as np
import pytest
from scipy.signal import welch

from mvdeg import (
    GENERATOR_VERSION,
    BaselineError,
    DimensionError,
    FactorizationError,
    GeneratorSpec,
    ert_features,
    gen_correlated,
    gen_mixture_F,
    gen_one_over_f,
    gen_wgn,
    generate,
    realization_seed,
)

# ── determinism and substream layout ─────────────────────────────────────────


def test_wgn_deterministic():
    a = gen_wgn(3, 500, seed=42)
    b = gen_wgn(3, 500, seed=42)
    assert np.array_equal(a.values, b.values)
    c = gen_wgn(3, 500, seed=43)
    assert not np.array_equal(a.values, c.values)


def test_channel_substreams_are_independent_of_channel_count():
    # channel k depends only on (seed, k), never on how many channels exist
    narrow = gen_wgn(1, 300, seed=7)
    wide = gen_wgn(5, 300, seed=7)
    assert np.array_equal(narrow.values[0], wide.values[0])
    narrow_f = gen_one_over_f(2, 256, seed=9)
    wide_f = gen_one_over_f(4, 256, seed=9)
    assert np.array_equal(narrow_f.values[:2], wide_f.values[:2])


def test_distinct_channels_within_one_signal():
    sig = gen_wgn(4, 400, seed=11)
    for i in range(4):
        for j in range(i + 1, 4):
            assert not np.array_equal(sig.values[i], sig.values[j])


def test_realization_seed_behaviour():
    assert realization_seed(5, 0, 3) == realization_seed(5, 0, 3)
    assert realization_seed(5, 0, 3) != realization_seed(5, 0, 4)
    assert realization_seed(5, 0, 3) != realization_seed(6, 0, 3)
    s = realization_seed(123, 2)
    assert isinstance(s, int) and 0 <= s < 2 ** 64


def test_negative_seed_is_refused():
    with pytest.raises(DimensionError, match="seed must be >= 0, got -1"):
        gen_wgn(2, 10, -1)
    with pytest.raises(DimensionError, match="seed must be >= 0, got -3"):
        realization_seed(-3, 0)


# ── distributional properties ────────────────────────────────────────────────


def test_wgn_moments():
    sig = gen_wgn(3, 50_000, seed=1)
    assert np.all(np.abs(sig.values.mean(axis=1)) < 0.05)
    assert np.all(np.abs(sig.values.var(axis=1) - 1.0) < 0.05)
    r = np.corrcoef(sig.values)
    off = r[~np.eye(3, dtype=bool)]
    assert np.all(np.abs(off) < 0.05)


def test_one_over_f_is_exactly_standardized():
    sig = gen_one_over_f(2, 4096, seed=3)
    assert np.all(np.abs(sig.values.mean(axis=1)) < 1e-12)
    assert np.all(np.abs(sig.values.var(axis=1) - 1.0) < 1e-12)


def test_one_over_f_spectral_slope():
    sig = gen_one_over_f(1, 16_384, seed=4)
    freqs, psd = welch(sig.values[0], nperseg=2048)
    band = (freqs > 0.002) & (freqs < 0.1)
    slope = np.polyfit(np.log(freqs[band]), np.log(psd[band]), 1)[0]
    assert slope == pytest.approx(-1.0, abs=0.2)


def test_one_over_f_needs_four_samples():
    with pytest.raises(DimensionError):
        gen_one_over_f(1, 3, seed=0)


# ── correlated Gaussian channels ─────────────────────────────────────────────


def test_identity_correlation_reduces_to_wgn():
    sig = gen_correlated(3, 200, np.eye(3), seed=21)
    assert np.array_equal(sig.values, gen_wgn(3, 200, seed=21).values)


def test_pairwise_correlation_is_realized():
    rho = 0.95
    corr = np.array([[1.0, rho], [rho, 1.0]])
    sig = gen_correlated(2, 20_000, corr, seed=22)
    measured = np.corrcoef(sig.values)[0, 1]
    assert measured == pytest.approx(rho, abs=0.03)


def test_singular_correlation_duplicates_channels():
    corr = np.array([[1.0, 1.0], [1.0, 1.0]])
    sig = gen_correlated(2, 500, corr, seed=23)
    assert np.array_equal(sig.values[0], sig.values[1])


def test_non_psd_two_by_two_names_second_minor():
    corr = np.array([[1.0, 1.2], [1.2, 1.0]])
    with pytest.raises(FactorizationError) as err:
        gen_correlated(2, 100, corr, seed=1)
    assert err.value.minor == 2
    assert "order 2" in str(err.value)


def test_non_psd_three_by_three_names_third_minor():
    corr = np.array([[1.0, 0.9, -0.9], [0.9, 1.0, 0.9], [-0.9, 0.9, 1.0]])
    with pytest.raises(FactorizationError) as err:
        gen_correlated(3, 100, corr, seed=1)
    assert err.value.minor == 3


def test_correlation_matrix_validation():
    with pytest.raises(DimensionError):
        gen_correlated(2, 100, np.eye(3), seed=0)
    bad_sym = np.array([[1.0, 0.2], [0.3, 1.0]])
    with pytest.raises(DimensionError):
        gen_correlated(2, 100, bad_sym, seed=0)
    bad_diag = np.array([[2.0, 0.0], [0.0, 1.0]])
    with pytest.raises(DimensionError):
        gen_correlated(2, 100, bad_diag, seed=0)
    bad_finite = np.array([[1.0, np.inf], [np.inf, 1.0]])
    with pytest.raises(DimensionError):
        gen_correlated(2, 100, bad_finite, seed=0)


# ── trivariate mixtures ──────────────────────────────────────────────────────


def test_mixture_endpoints_match_pure_generators():
    n, seed = 512, 31
    assert np.array_equal(gen_mixture_F(3, n, seed).values, gen_wgn(3, n, seed).values)
    assert np.array_equal(
        gen_mixture_F(0, n, seed).values, gen_one_over_f(3, n, seed).values
    )


def test_mixture_interpolates_channelwise():
    n, seed = 512, 32
    mixed = gen_mixture_F(1, n, seed)
    assert np.array_equal(mixed.values[0], gen_wgn(3, n, seed).values[0])
    assert np.array_equal(mixed.values[1:], gen_one_over_f(3, n, seed).values[1:])


def test_mixture_rejects_bad_index():
    for q in (-1, 4):
        with pytest.raises(DimensionError):
            gen_mixture_F(q, 64, seed=0)


# ── spec-driven dispatch ─────────────────────────────────────────────────────


def test_generate_dispatch():
    n, seed = 128, 8
    spec = GeneratorSpec("wgn", p=2, n_samples=n, seed=seed)
    assert np.array_equal(generate(spec).values, gen_wgn(2, n, seed).values)
    spec = GeneratorSpec("one_over_f", p=2, n_samples=n, seed=seed)
    assert np.array_equal(generate(spec).values, gen_one_over_f(2, n, seed).values)
    corr = [[1.0, 0.5], [0.5, 1.0]]
    spec = GeneratorSpec("correlated", p=2, n_samples=n, seed=seed, params={"corr": corr})
    assert np.array_equal(
        generate(spec).values, gen_correlated(2, n, np.array(corr), seed).values
    )
    spec = GeneratorSpec("mixture", p=3, n_samples=n, seed=seed, params={"q": 2})
    assert np.array_equal(generate(spec).values, gen_mixture_F(2, n, seed).values)


def test_spec_validation():
    with pytest.raises(DimensionError):
        GeneratorSpec("pink", p=1, n_samples=10, seed=0)
    with pytest.raises(DimensionError):
        GeneratorSpec("wgn", p=0, n_samples=10, seed=0)
    with pytest.raises(DimensionError):
        GeneratorSpec("wgn", p=1, n_samples=1, seed=0)
    with pytest.raises(DimensionError):
        generate(GeneratorSpec("mixture", p=2, n_samples=16, seed=0, params={"q": 1}))
    spec = GeneratorSpec("wgn", p=1, n_samples=10, seed=0)
    assert spec.version == GENERATOR_VERSION


# ── voltage feature extraction ───────────────────────────────────────────────


def test_ert_features_relative_change():
    v0 = np.array([[10.0, 20.0], [5.0, 4.0]])
    delta = np.array(
        [
            [[0.0, 0.1, 0.2], [0.0, 0.3, 0.0]],
            [[0.0, 0.0, 0.0], [0.02, 0.04, 0.06]],
        ]
    )
    v = v0[:, :, None] * (1.0 + delta)
    sig = ert_features(v, v0)
    assert sig.p == 2 and sig.n_samples == 3
    assert np.allclose(sig.values[0], [0.0, 0.2, 0.1], atol=1e-12)
    assert np.allclose(sig.values[1], [0.01, 0.02, 0.03], atol=1e-12)


def test_ert_zero_baseline_names_pair_one_based():
    v0 = np.array([[10.0, 20.0], [0.0, 4.0]])
    v = np.ones((2, 2, 3))
    with pytest.raises(BaselineError) as err:
        ert_features(v, v0)
    assert err.value.electrode == 2
    assert err.value.measurement == 1


def test_ert_validation():
    with pytest.raises(DimensionError):
        ert_features(np.ones((2, 3)), np.ones((2, 3)))
    with pytest.raises(DimensionError):
        ert_features(np.ones((2, 2, 3)), np.ones((2, 3)))
    with pytest.raises(DimensionError):
        ert_features(np.ones((2, 2, 1)), np.ones((2, 2)))
    bad = np.ones((2, 2, 3))
    bad[0, 0, 0] = np.nan
    with pytest.raises(DimensionError):
        ert_features(bad, np.ones((2, 2)))
