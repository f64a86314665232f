"""Seeded synthetic signals and the electrical-tomography feature extractor.

Every generator draws each channel from its own substream, derived from
(seed, channel index) through numpy's SeedSequence, so adding or reordering
channels never perturbs the others and realizations are reproducible
bit-for-bit on a fixed numpy version. The algorithm/version tag travels with
generated data so downstream golden statistics can be pinned to it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BaselineError, DimensionError, FactorizationError
from .signal import MultivariateSignal

# PCG64 + standard_normal; 1/f = rfft shaping by f^(-1/2), zero DC, real
# Nyquist, standardized to mean 0 / var 1 (population variance)
GENERATOR_VERSION = "pcg64-v1"

GENERATOR_KINDS = ("wgn", "one_over_f", "correlated", "mixture")


@dataclass(frozen=True)
class GeneratorSpec:
    """Recipe for one synthetic signal; serialized next to generated data."""

    kind: str
    p: int
    n_samples: int
    seed: int
    params: dict = field(default_factory=dict)
    version: str = GENERATOR_VERSION

    def __post_init__(self):
        if self.kind not in GENERATOR_KINDS:
            raise DimensionError(
                f"unknown generator kind {self.kind!r}; expected one of {GENERATOR_KINDS}"
            )
        if self.p < 1:
            raise DimensionError(f"channel count must be >= 1, got {self.p}")
        if self.n_samples < 2:
            raise DimensionError(f"need at least 2 samples, got {self.n_samples}")


def _seed_sequence(seed: int, key: tuple[int, ...]) -> np.random.SeedSequence:
    if seed < 0:
        raise DimensionError(f"seed must be >= 0, got {seed}")
    return np.random.SeedSequence(seed, spawn_key=key)


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(_seed_sequence(seed, key)))


def realization_seed(seed: int, *key: int) -> int:
    """Derived integer seed for one realization of an ensemble."""
    return int(_seed_sequence(seed, key).generate_state(1, np.uint64)[0])


def _wgn_channel(rng: np.random.Generator, n_samples: int) -> np.ndarray:
    return rng.standard_normal(n_samples)


def _one_over_f_channel(rng: np.random.Generator, n_samples: int) -> np.ndarray:
    """White noise reshaped to a 1/f power spectrum, standardized."""
    if n_samples < 4:
        raise DimensionError(f"1/f synthesis needs at least 4 samples, got {n_samples}")
    white = rng.standard_normal(n_samples)
    spectrum = np.fft.rfft(white)
    idx = np.arange(1, spectrum.size)
    spectrum[1:] *= idx ** -0.5
    spectrum[0] = 0.0  # no DC component
    if n_samples % 2 == 0:
        spectrum[-1] = spectrum[-1].real  # Nyquist bin of a real signal
    x = np.fft.irfft(spectrum, n_samples)
    return (x - x.mean()) / x.std()


def gen_wgn(p: int, n_samples: int, seed: int) -> MultivariateSignal:
    """p channels of i.i.d. standard Gaussian noise."""
    if p < 1:
        raise DimensionError(f"channel count must be >= 1, got {p}")
    values = np.stack([_wgn_channel(_rng(seed, k), n_samples) for k in range(p)])
    return MultivariateSignal(values)


def gen_one_over_f(p: int, n_samples: int, seed: int) -> MultivariateSignal:
    """p channels of 1/f noise, each standardized to mean 0 and variance 1."""
    if p < 1:
        raise DimensionError(f"channel count must be >= 1, got {p}")
    values = np.stack([_one_over_f_channel(_rng(seed, k), n_samples) for k in range(p)])
    return MultivariateSignal(values)


def _psd_lower_factor(corr: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Lower-triangular factor L with L L^T = corr, allowing singular PSD input.

    A pivot below -tol means a negative leading minor and raises
    FactorizationError with its order. A pivot within tol of zero is a
    rank-deficient direction: its column is zeroed, which is only consistent
    when the residual column is also ~0 (checked).
    """
    p = corr.shape[0]
    lower = np.zeros((p, p))
    for j in range(p):
        pivot = corr[j, j] - lower[j, :j] @ lower[j, :j]
        if pivot < -tol:
            raise FactorizationError(j + 1)
        residual = corr[j + 1:, j] - lower[j + 1:, :j] @ lower[j, :j]
        if pivot <= tol:
            if np.any(np.abs(residual) > 1e-8):
                raise FactorizationError(j + 1)
            continue
        lower[j, j] = np.sqrt(pivot)
        lower[j + 1:, j] = residual / lower[j, j]
    return lower


def gen_correlated(
    p: int, n_samples: int, corr: np.ndarray, seed: int
) -> MultivariateSignal:
    """Gaussian channels with the given correlation matrix.

    Accepts singular positive-semidefinite matrices (an off-diagonal 1 makes
    the two channels identical); a non-PSD matrix raises FactorizationError
    naming the offending leading minor.
    """
    corr = np.asarray(corr, dtype=float)
    if corr.shape != (p, p):
        raise DimensionError(f"correlation must be ({p}, {p}), got {corr.shape}")
    if not np.all(np.isfinite(corr)):
        raise DimensionError("correlation entries must be finite")
    if np.any(np.abs(corr - corr.T) > 1e-12):
        raise DimensionError("correlation matrix must be symmetric")
    if np.any(np.abs(np.diag(corr) - 1.0) > 1e-12):
        raise DimensionError("correlation matrix must have unit diagonal")
    lower = _psd_lower_factor(corr)
    base = np.stack([_wgn_channel(_rng(seed, k), n_samples) for k in range(p)])
    return MultivariateSignal(lower @ base)


def gen_mixture_F(q: int, n_samples: int, seed: int) -> MultivariateSignal:
    """Trivariate mixture F(q): q white channels followed by 3 - q 1/f channels."""
    if not 0 <= q <= 3:
        raise DimensionError(f"mixture index must be in 0..3, got {q}")
    channels = []
    for k in range(3):
        rng = _rng(seed, k)
        if k < q:
            channels.append(_wgn_channel(rng, n_samples))
        else:
            channels.append(_one_over_f_channel(rng, n_samples))
    return MultivariateSignal(np.stack(channels))


def generate(spec: GeneratorSpec) -> MultivariateSignal:
    """Build the signal a GeneratorSpec describes."""
    if spec.kind == "wgn":
        return gen_wgn(spec.p, spec.n_samples, spec.seed)
    if spec.kind == "one_over_f":
        return gen_one_over_f(spec.p, spec.n_samples, spec.seed)
    if spec.kind == "correlated":
        corr = np.asarray(spec.params["corr"], dtype=float)
        return gen_correlated(spec.p, spec.n_samples, corr, spec.seed)
    if spec.kind == "mixture":
        if spec.p != 3:
            raise DimensionError(f"mixture signals are trivariate, got p={spec.p}")
        return gen_mixture_F(int(spec.params["q"]), spec.n_samples, spec.seed)
    raise DimensionError(f"unknown generator kind {spec.kind!r}")


def ert_features(voltages: np.ndarray, baseline: np.ndarray) -> MultivariateSignal:
    """Per-electrode relative voltage change, averaged over measurements.

    voltages has shape (electrodes, measurements, T) and baseline
    (electrodes, measurements); channel i at time t is the mean over j of
    (V[i, j, t] - V0[i, j]) / V0[i, j]. A zero baseline entry raises
    BaselineError naming the (electrode, measurement) pair, 1-based.
    """
    v = np.asarray(voltages, dtype=float)
    v0 = np.asarray(baseline, dtype=float)
    if v.ndim != 3:
        raise DimensionError(f"voltages must be 3-D (E, M, T), got shape {v.shape}")
    if v0.shape != v.shape[:2]:
        raise DimensionError(
            f"baseline shape {v0.shape} does not match voltages {v.shape[:2]}"
        )
    if v.shape[2] < 2:
        raise DimensionError(f"need at least 2 time samples, got {v.shape[2]}")
    if not (np.all(np.isfinite(v)) and np.all(np.isfinite(v0))):
        raise DimensionError("voltages and baseline must be finite")
    zero = np.argwhere(v0 == 0.0)
    if zero.size:
        i, j = zero[0]
        raise BaselineError(int(i) + 1, int(j) + 1)
    rel = (v - v0[:, :, None]) / v0[:, :, None]
    return MultivariateSignal(rel.mean(axis=1))
