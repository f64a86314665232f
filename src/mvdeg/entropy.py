"""Dispersion-entropy pipelines: graph-based, classical multivariate, univariate.

All three share the same per-channel class map (normal CDF of standardized
values, rounded half-away-from-zero onto 1..c) and the same normalized Shannon
entropy over m-length class patterns, -(1 / ln(c^m)) * sum p ln p. They differ
only in how patterns are extracted:

  * mvdeg_*: one pattern per (time, channel) vertex, built from row-sum
    normalized hop aggregates of the time-path / channel-graph product.
  * classical_mvde: every m-element subset of the m*p classes in each length-m
    window, which is combinatorially explosive and capped.
  * univariate_mde: plain sliding windows over one channel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import ndtr

from .errors import (
    CapacityError,
    DimensionError,
    EmptyPatternError,
    ScaleUndefinedError,
)
from .graphs import WeightedGraph, build_zero_graph
from .kron import build_hop_basis
from .signal import MultivariateSignal

PATTERN_CAP = 10 ** 8  # refuse classical enumeration beyond this many patterns

# ── configuration and result records ────────────────────────────────────────


@dataclass(frozen=True)
class EmbeddingConfig:
    """Embedding dimension m, class count c, and largest scale to compute."""

    m: int = 4
    c: int = 6
    max_scale: int = 20

    def __post_init__(self):
        if self.m < 2:
            raise DimensionError(f"embedding dimension must be >= 2, got {self.m}")
        if self.c < 2:
            raise DimensionError(f"class count must be >= 2, got {self.c}")
        if self.max_scale < 1:
            raise DimensionError(f"max scale must be >= 1, got {self.max_scale}")
        if self.c ** self.m >= 2 ** 62:
            raise DimensionError(
                f"c^m = {self.c}^{self.m} exceeds the pattern-encoding range"
            )


@dataclass(frozen=True)
class DispersionHistogram:
    """Multiset of observed m-length class patterns.

    counts maps each pattern (tuple of ints in 1..c) to its positive count.
    """

    counts: dict[tuple[int, ...], int]
    m: int
    c: int

    def __post_init__(self):
        for pattern, count in self.counts.items():
            if len(pattern) != self.m:
                raise DimensionError(f"pattern {pattern} is not length {self.m}")
            if not all(1 <= v <= self.c for v in pattern):
                raise DimensionError(f"pattern {pattern} leaves class range 1..{self.c}")
            if count < 1:
                raise DimensionError(f"pattern {pattern} has nonpositive count {count}")

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    @classmethod
    def from_class_rows(cls, rows: np.ndarray, m: int, c: int) -> "DispersionHistogram":
        """Count identical rows of an (R, m) integer class matrix."""
        if rows.ndim != 2 or rows.shape[1] != m:
            raise DimensionError(f"class rows must have shape (R, {m}), got {rows.shape}")
        codes = _encode_patterns(rows, c)
        uniq, counts = np.unique(codes, return_counts=True)
        return cls(
            counts={
                _decode_pattern(int(code), m, c): int(n)
                for code, n in zip(uniq, counts)
            },
            m=m,
            c=c,
        )


@dataclass(frozen=True)
class ScaleRecord:
    """Entropy statistics at one scale; mean/sd are NaN when undefined."""

    tau: int
    mean: float
    sd: float
    n_realizations: int
    defined: bool


@dataclass(frozen=True)
class EntropyCurve:
    """Per-scale entropy statistics for one method and configuration."""

    method: str
    records: tuple[ScaleRecord, ...]
    m: int
    c: int
    graph: str
    seed: int | None = field(default=None)

    def defined_means(self) -> dict[int, float]:
        return {r.tau: r.mean for r in self.records if r.defined}


# ── shared numeric steps ─────────────────────────────────────────────────────


def _standardize(values: np.ndarray) -> np.ndarray:
    """Per-channel z-scores (sd with denominator N-1); constant channels map to 0."""
    mu = values.mean(axis=1, keepdims=True)
    sd = values.std(axis=1, ddof=1, keepdims=True)
    out = np.zeros_like(values)
    np.divide(values - mu, sd, out=out, where=sd > 0)
    return out


def _classes_from_z(z: np.ndarray, c: int) -> np.ndarray:
    """Map z-scores through the normal CDF onto integer classes 1..c.

    round(c * Phi(z) + 0.5) with ties away from zero; the argument is always
    positive, so that is floor(c * Phi(z) + 1).
    """
    return np.floor(c * ndtr(z) + 1.0).clip(1, c).astype(np.int64)


def _encode_patterns(rows: np.ndarray, c: int) -> np.ndarray:
    """Base-c integer code per row; row order preserved."""
    m = rows.shape[1]
    weights = (c ** np.arange(m - 1, -1, -1)).astype(np.int64)
    return (rows.astype(np.int64) - 1) @ weights


def _decode_pattern(code: int, m: int, c: int) -> tuple[int, ...]:
    out = []
    for _ in range(m):
        code, digit = divmod(code, c)
        out.append(digit + 1)
    return tuple(reversed(out))


def normalized_entropy(histogram: DispersionHistogram) -> float:
    """Shannon entropy of the pattern distribution over ln(c^m), clamped to [0, 1]."""
    if not histogram.counts:
        raise EmptyPatternError("histogram holds no patterns")
    counts = np.array(
        [histogram.counts[k] for k in sorted(histogram.counts)], dtype=float
    )
    probs = counts / counts.sum()
    h = float(-(probs * np.log(probs)).sum()) / (histogram.m * math.log(histogram.c))
    return min(max(h, 0.0), 1.0)


# ── pipeline stages ──────────────────────────────────────────────────────────


def coarse_grain(signal: MultivariateSignal, tau: int) -> MultivariateSignal:
    """Average non-overlapping windows of tau samples per channel.

    Output length is floor(N / tau); a scale leaving fewer than 2 samples is
    undefined and raises ScaleUndefinedError.
    """
    if tau < 1:
        raise DimensionError(f"scale must be >= 1, got {tau}")
    length = signal.n_samples // tau
    if length < 2:
        raise ScaleUndefinedError(tau, length)
    if tau == 1:
        return signal
    v = signal.values[:, : length * tau].reshape(signal.p, length, tau).mean(axis=2)
    return MultivariateSignal(v, labels=signal.labels)


def ncdf_map(signal: MultivariateSignal, c: int) -> np.ndarray:
    """Integer classes 1..c per sample, (p, N).

    Each channel is standardized by its own mean and sd (denominator N-1)
    before the CDF map; a constant channel lands on class round(c/2 + 0.5).
    """
    if c < 2:
        raise DimensionError(f"class count must be >= 2, got {c}")
    return _classes_from_z(_standardize(signal.values), c)


def mvdeg_single_scale(
    signal: MultivariateSignal, graph: WeightedGraph, m: int, c: int
) -> tuple[float, DispersionHistogram]:
    """Graph-based multivariate dispersion entropy at the signal's native scale.

    Channels are standardized, aggregated through hop columns 0..m-1 of the
    time-path / channel-graph product, and class-mapped; each (time, channel)
    vertex whose m-1 hop horizon stays on the time axis contributes one
    pattern. Returns the normalized entropy and the pattern histogram.
    """
    if m < 2:
        raise DimensionError(f"embedding dimension must be >= 2, got {m}")
    if c < 2:
        raise DimensionError(f"class count must be >= 2, got {c}")
    if signal.p != graph.n:
        raise DimensionError(
            f"signal has {signal.p} channels but graph has {graph.n} vertices"
        )
    rows = (signal.n_samples - m + 1) * signal.p
    if rows <= 0:
        raise EmptyPatternError(
            f"no embedding rows survive masking (N={signal.n_samples}, m={m})"
        )
    z = MultivariateSignal(_standardize(signal.values), labels=signal.labels)
    basis = build_hop_basis(z, graph, m)
    classes = _classes_from_z(basis.values[:rows], c)
    histogram = DispersionHistogram.from_class_rows(classes, m=m, c=c)
    return normalized_entropy(histogram), histogram


def mvdeg_curve(
    signal: MultivariateSignal,
    graph: WeightedGraph,
    config: EmbeddingConfig,
    method: str = "mvdeg",
    seed: int | None = None,
) -> EntropyCurve:
    """Entropy versus scale for one signal.

    Scales whose coarse-grained length drops below m+1 are recorded as
    undefined rather than skipped.
    """
    records = []
    for tau in range(1, config.max_scale + 1):
        length = signal.n_samples // tau
        if length < config.m + 1:
            records.append(ScaleRecord(tau, math.nan, math.nan, 0, False))
            continue
        coarse = coarse_grain(signal, tau)
        value, _ = mvdeg_single_scale(coarse, graph, config.m, config.c)
        records.append(ScaleRecord(tau, value, 0.0, 1, True))
    return EntropyCurve(
        method=method,
        records=tuple(records),
        m=config.m,
        c=config.c,
        graph=graph.describe(),
        seed=seed,
    )


def pattern_counts(n_samples: int, p: int, m: int) -> tuple[int, int]:
    """Exact pattern workloads at one scale: (classical, graph-based bound).

    Classical multivariate DE enumerates (N - m + 1) * C(m p, m) patterns;
    the graph-based method processes at most (N - m) * p.
    """
    if m < 2:
        raise DimensionError(f"embedding dimension must be >= 2, got {m}")
    if p < 1:
        raise DimensionError(f"channel count must be >= 1, got {p}")
    if n_samples < m + 1:
        raise DimensionError(
            f"need more than m={m} samples, got {n_samples}"
        )
    classical = (n_samples - m + 1) * math.comb(m * p, m)
    graph_bound = (n_samples - m) * p
    return classical, graph_bound


def classical_mvde(
    signal: MultivariateSignal,
    m: int,
    c: int,
    tau: int = 1,
    pattern_cap: int = PATTERN_CAP,
) -> tuple[float, DispersionHistogram]:
    """Classical multivariate dispersion entropy at one scale.

    Every length-m window of the coarse-grained signal yields the m*p classes
    of all channels (channel-major, lags consecutive); each m-element subset of
    those positions, in index order, is one pattern. The exact pattern count is
    checked against pattern_cap before any enumeration and refused with
    CapacityError when it exceeds the cap.
    """
    if m < 2:
        raise DimensionError(f"embedding dimension must be >= 2, got {m}")
    if c < 2:
        raise DimensionError(f"class count must be >= 2, got {c}")
    coarse = coarse_grain(signal, tau)
    length = coarse.n_samples
    if length < m + 1:
        raise ScaleUndefinedError(tau, length)
    count = (length - m + 1) * math.comb(m * coarse.p, m)
    if count > pattern_cap:
        raise CapacityError(count, pattern_cap)

    classes = ncdf_map(coarse, c)
    # (windows, p, m) -> (windows, p*m), channel-major with lags consecutive
    window_classes = (
        sliding_window_view(classes, m, axis=1)
        .transpose(1, 0, 2)
        .reshape(length - m + 1, coarse.p * m)
        .astype(np.int64)
    )
    weights = (c ** np.arange(m - 1, -1, -1)).astype(np.int64)
    space = c ** m
    dense_counts = space <= 2 ** 24
    if dense_counts:
        acc = np.zeros(space, dtype=np.int64)
    else:
        sparse_acc: dict[int, int] = {}
    for subset in combinations(range(coarse.p * m), m):
        codes = (window_classes[:, subset] - 1) @ weights
        if dense_counts:
            acc += np.bincount(codes, minlength=space)
        else:
            uniq, cnt = np.unique(codes, return_counts=True)
            for code, n in zip(uniq, cnt):
                sparse_acc[int(code)] = sparse_acc.get(int(code), 0) + int(n)
    if dense_counts:
        nonzero = np.nonzero(acc)[0]
        counts = {
            _decode_pattern(int(code), m, c): int(acc[code]) for code in nonzero
        }
    else:
        counts = {
            _decode_pattern(code, m, c): n for code, n in sorted(sparse_acc.items())
        }
    histogram = DispersionHistogram(counts=counts, m=m, c=c)
    return normalized_entropy(histogram), histogram


def univariate_single_scale(
    channel: np.ndarray, m: int, c: int
) -> tuple[float, DispersionHistogram]:
    """Univariate dispersion entropy of one 1-D series via sliding windows."""
    x = np.asarray(channel, dtype=float)
    if x.ndim != 1:
        raise DimensionError(f"expected a 1-D channel, got shape {x.shape}")
    if x.size < m + 1:
        raise DimensionError(f"need more than m={m} samples, got {x.size}")
    classes = ncdf_map(MultivariateSignal(x[None, :]), c)[0]
    windows = sliding_window_view(classes, m)
    histogram = DispersionHistogram.from_class_rows(np.ascontiguousarray(windows), m, c)
    return normalized_entropy(histogram), histogram


def univariate_mde(
    channel: np.ndarray,
    config: EmbeddingConfig,
    method: str = "mde",
    seed: int | None = None,
) -> EntropyCurve:
    """Univariate multiscale dispersion entropy of one 1-D series.

    Coincides pattern-for-pattern with mvdeg_curve on a single-channel signal
    and the edgeless graph: with one channel and no neighbours, hop column k is
    exactly the k-step time shift.
    """
    x = np.asarray(channel, dtype=float)
    if x.ndim != 1:
        raise DimensionError(f"expected a 1-D channel, got shape {x.shape}")
    records = []
    for tau in range(1, config.max_scale + 1):
        length = x.size // tau
        if length < config.m + 1:
            records.append(ScaleRecord(tau, math.nan, math.nan, 0, False))
            continue
        coarse = coarse_grain(MultivariateSignal(x[None, :]), tau)
        value, _ = univariate_single_scale(coarse.values[0], config.m, config.c)
        records.append(ScaleRecord(tau, value, 0.0, 1, True))
    return EntropyCurve(
        method=method,
        records=tuple(records),
        m=config.m,
        c=config.c,
        graph=build_zero_graph(1).describe(),
        seed=seed,
    )
