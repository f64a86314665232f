"""Seeded synthetic signals and the electrical-tomography feature extractor.

Every generator draws each channel from its own substream, derived from
(seed, channel index) through numpy's SeedSequence, so adding or reordering
channels never perturbs the others and realizations are reproducible
bit-for-bit on a fixed numpy version. Correlated signals are L @ white, a
BLAS product, so theirs are reproducible only on a fixed numpy and a fixed
OpenBLAS kernel: another kernel can round the product differently. The
algorithm/version tag travels with generated data so downstream golden
statistics can be pinned to it.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .errors import BaselineError, DimensionError, FactorizationError
from .signal import MultivariateSignal

# PCG64 + standard_normal; 1/f = rfft shaping by f^(-1/2), zero DC, real
# Nyquist, standardized to mean 0 / var 1 (population variance)
GENERATOR_VERSION = "pcg64-v1"

GENERATOR_KINDS = ("wgn", "one_over_f", "correlated", "mixture")
_PIVOT_TOL = 1e-10  # _psd_lower_factor: a smaller pivot is a rank-deficient direction


def _check_int(name: str, value, rule: str, least: int, most: float = math.inf) -> None:
    """value must be an integer, not a bool, in least..most; rule says the range."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise DimensionError(f"{name} must be an integer, got {value!r}")
    if not least <= value <= most:
        raise DimensionError(rule)


def _check_seed(seed) -> None:
    _check_int("seed", seed, f"seed must be >= 0, got {seed}", 0)


def _check_correlation(corr, p: int) -> np.ndarray:
    """corr must convert to a finite, symmetric, unit-diagonal (p, p) float array;
    returns that array, a read-only copy."""
    try:
        arr = None if corr is None else np.array(corr, dtype=float)
    except (TypeError, ValueError, OverflowError):  # ragged, or not numbers
        arr = None
    if arr is None or arr.shape != (p, p):
        got = "no numeric array" if arr is None else arr.shape
        raise DimensionError(f"correlation must be ({p}, {p}), got {got}")
    if not np.all(np.isfinite(arr)):
        raise DimensionError("correlation entries must be finite")
    if np.any(np.abs(arr - arr.T) > 1e-12):
        raise DimensionError("correlation matrix must be symmetric")
    if np.any(np.abs(np.diag(arr) - 1.0) > 1e-12):
        raise DimensionError("correlation matrix must have unit diagonal")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class GeneratorSpec:
    """Recipe for one synthetic signal, serialized next to generated data; params
    holds "q" (white channels) of a mixture or "corr" of correlated ones. Construction
    checks every rule but one: generate() refuses a non-PSD corr as it factors it.
    The checked values are copied, so a later edit of params cannot reach a signal."""

    kind: str
    p: int
    n_samples: int
    seed: int
    params: dict = field(default_factory=dict)
    version: str = field(default=GENERATOR_VERSION, init=False)
    _params: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in GENERATOR_KINDS:
            raise DimensionError(
                f"unknown generator kind {self.kind!r}; expected one of {GENERATOR_KINDS}"
            )
        _check_int("p", self.p, f"channel count must be >= 1, got {self.p}", 1)
        n = self.n_samples
        _check_int("n_samples", n, f"need at least 2 samples, got {n}", 2)
        if self.kind in ("mixture", "correlated") and not isinstance(self.params, Mapping):
            raise DimensionError(f"{self.kind} params must be a mapping, got {self.params!r}")
        if self.kind == "mixture":
            if self.p != 3:
                raise DimensionError(f"mixture signals are trivariate, got p={self.p}")
            q = self.params.get("q")
            _check_int("q", q, f"mixture index must be in 0..3, got {q}", 0, 3)
            object.__setattr__(self, "_params", {"q": q})
        if self.kind == "correlated":
            corr = _check_correlation(self.params.get("corr"), self.p)
            object.__setattr__(self, "_params", {"corr": corr})
        _check_seed(self.seed)
        if _white_channels(self) < self.p and n < 4:
            raise DimensionError(f"1/f synthesis needs at least 4 samples, got {n}")


def _white_channels(spec: GeneratorSpec) -> int:
    """Channels 0..k-1 of spec are white and the rest 1/f; this returns k."""
    if spec.kind == "mixture":
        return spec._params["q"]
    return 0 if spec.kind == "one_over_f" else spec.p


def realization_seed(seed: int, *key: int) -> int:
    """Derived integer seed for one realization of an ensemble."""
    _check_seed(seed)
    return int(np.random.SeedSequence(seed, spawn_key=key).generate_state(1, np.uint64)[0])


def _one_over_f(white: np.ndarray) -> np.ndarray:
    """White noise reshaped to a 1/f power spectrum, standardized."""
    spectrum = np.fft.rfft(white)
    spectrum[1:] *= np.arange(1, spectrum.size) ** -0.5
    spectrum[0] = 0.0  # no DC component
    if white.size % 2 == 0:
        spectrum[-1] = spectrum[-1].real  # Nyquist bin of a real signal
    x = np.fft.irfft(spectrum, white.size)
    return (x - x.mean()) / x.std()


def _psd_lower_factor(corr: np.ndarray) -> np.ndarray:
    """Lower-triangular factor L with L L^T = corr, allowing singular PSD input.

    A pivot below -_PIVOT_TOL means a negative leading minor and raises
    FactorizationError with its order. A pivot within _PIVOT_TOL of zero is a
    rank-deficient direction: its column is zeroed, which is only consistent
    when the residual column is also ~0 (checked).
    """
    p = corr.shape[0]
    lower = np.zeros((p, p))
    for j in range(p):
        pivot = corr[j, j] - lower[j, :j] @ lower[j, :j]
        if pivot < -_PIVOT_TOL:
            raise FactorizationError(j + 1)
        residual = corr[j + 1:, j] - lower[j + 1:, :j] @ lower[j, :j]
        if pivot <= _PIVOT_TOL:
            if np.any(np.abs(residual) > 1e-8):
                raise FactorizationError(j + 1)
            continue
        lower[j, j] = np.sqrt(pivot)
        lower[j + 1:, j] = residual / lower[j, j]
    return lower


def generate(spec: GeneratorSpec) -> MultivariateSignal:
    """Build the signal a GeneratorSpec describes: channel k, white or 1/f, from
    substream (seed, k); a correlated signal is L @ white, L L^T = corr."""
    substreams = np.random.SeedSequence(spec.seed).spawn(spec.p)  # spawn_key (k,) for channel k
    values = np.empty((spec.p, spec.n_samples))
    white = _white_channels(spec)
    for k, (row, substream) in enumerate(zip(values, substreams)):
        np.random.default_rng(substream).standard_normal(out=row)
        if k >= white:
            row[:] = _one_over_f(row)
    if spec.kind == "correlated":
        values = _psd_lower_factor(spec._params["corr"]) @ values
    values.flags.writeable = False  # a fresh array, which MultivariateSignal keeps
    return MultivariateSignal(values)


def gen_wgn(p: int, n_samples: int, seed: int) -> MultivariateSignal:
    """p channels of i.i.d. standard Gaussian noise."""
    return generate(GeneratorSpec("wgn", p, n_samples, seed))


def gen_one_over_f(p: int, n_samples: int, seed: int) -> MultivariateSignal:
    """p channels of 1/f noise, each standardized to mean 0 and variance 1."""
    return generate(GeneratorSpec("one_over_f", p, n_samples, seed))


def gen_correlated(p: int, n_samples: int, corr: np.ndarray, seed: int) -> MultivariateSignal:
    """Gaussian channels with the given correlation matrix. A singular PSD matrix is
    accepted (an off-diagonal 1 makes two channels identical); a non-PSD matrix
    raises FactorizationError naming the offending leading minor."""
    return generate(GeneratorSpec("correlated", p, n_samples, seed, {"corr": corr}))


def gen_mixture_F(q: int, n_samples: int, seed: int) -> MultivariateSignal:
    """Trivariate mixture F(q): q white channels followed by 3 - q 1/f channels."""
    return generate(GeneratorSpec("mixture", 3, n_samples, seed, {"q": q}))


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
