"""Dispersion-entropy pipelines: graph-based, classical multivariate, univariate.

All three share the same per-channel class map (normal CDF of standardized
values, rounded half-away-from-zero onto 1..c) and the same normalized Shannon
entropy over m-length class patterns, -(1 / ln(c^m)) * sum p ln p. They differ
only in which class sequences make up a pattern; _encode_patterns folds those
sequences into the same base-c int64 codes for all three:

  * mvdeg_*: one pattern per (time, channel) vertex, built from row-sum
    normalized hop aggregates of the time-path / channel-graph product.
  * classical_mvde: every m-element subset of the m*p classes in each length-m
    window, which is combinatorially explosive and capped.
  * univariate_mde: mvdeg on one channel and the edgeless graph.
"""

from __future__ import annotations

import math
import os
from collections.abc import Callable, Iterable, Mapping
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import chain, combinations

import numpy as np
from scipy.special import ndtr

from .errors import (
    CapacityError,
    DimensionError,
    EmptyPatternError,
    ScaleUndefinedError,
)
from .graphs import WeightedGraph, build_zero_graph
from .kron import _hop_columns
from .signal import MultivariateSignal, _channel_sd

PATTERN_CAP = 10 ** 8  # refuse classical enumeration beyond this many patterns
# mvdeg_single_scale streams time in chunks of about _CHUNK_ELEMENTS samples
# over all channels, never fewer than _CHUNK_MIN_ROWS rows: from there up,
# OpenBLAS (rows, p) x (p, p) products match the whole product bit for bit.
_CHUNK_ELEMENTS = 2 ** 18
_CHUNK_MIN_ROWS = 4096

# ── configuration and result records ────────────────────────────────────────


@dataclass(frozen=True)
class EmbeddingConfig:
    """Embedding dimension m, class count c, and largest scale to compute."""

    m: int = 4
    c: int = 6
    max_scale: int = 20

    def __post_init__(self):
        _check_embedding(self.m, self.c)
        if self.max_scale < 1:
            raise DimensionError(f"max scale must be >= 1, got {self.max_scale}")


class DispersionHistogram:
    """Multiset of observed m-length class patterns.

    Held as two int64 arrays: ``codes``, the distinct base-c pattern codes in
    ascending order, and ``code_counts``, their positive counts. ``counts`` is
    a {pattern (tuple of ints in 1..c): count} dict, decoded on each access in
    ascending code order.
    """

    __slots__ = ("codes", "code_counts", "m", "c")

    def __init__(self, counts: Mapping[tuple[int, ...], int], m: int, c: int):
        """Histogram of a {pattern: count} dict; production does not call it."""
        _check_code_range(m, c)
        for pattern, count in counts.items():
            if len(pattern) != m:
                raise DimensionError(f"pattern {pattern} is not length {m}")
            if not all(isinstance(v, (int, np.integer)) for v in (*pattern, count)):
                raise DimensionError(f"pattern {pattern} or its count {count} is not an integer")
            if not all(1 <= v <= c for v in pattern):
                raise DimensionError(f"pattern {pattern} leaves class range 1..{c}")
            if count < 1:
                raise DimensionError(f"pattern {pattern} has nonpositive count {count}")
        codes = _encode_patterns(np.array(list(counts), dtype=np.int64).reshape(-1, m).T, c)
        order = np.argsort(codes)
        self.codes = codes[order]
        self.code_counts = np.array(list(counts.values()), dtype=np.int64)[order]
        self.m, self.c = m, c

    def __eq__(self, other) -> bool:
        if not isinstance(other, DispersionHistogram) or (self.m, self.c) != (other.m, other.c):
            return False
        return np.array_equal(self.codes, other.codes) and np.array_equal(
            self.code_counts, other.code_counts
        )

    @property
    def counts(self) -> dict[tuple[int, ...], int]:
        """The {pattern: count} dict; production does not call it."""
        m, c = self.m, self.c
        return {
            _decode_pattern(code, m, c): count
            for code, count in zip(self.codes.tolist(), self.code_counts.tolist())
        }

    @property
    def total(self) -> int:
        return int(self.code_counts.sum())

    @classmethod
    def from_class_rows(cls, rows: np.ndarray, m: int, c: int) -> "DispersionHistogram":
        """Count identical rows of an (R, m) integer class matrix over 1..c; production does not call it."""
        if rows.ndim != 2 or rows.shape[1] != m:
            raise DimensionError(f"class rows must have shape (R, {m}), got {rows.shape}")
        if not np.issubdtype(rows.dtype, np.integer):
            raise DimensionError(f"class rows must be integers, got dtype {rows.dtype}")
        _check_code_range(m, c)
        if rows.size and (rows.min() < 1 or rows.max() > c):
            raise DimensionError(f"class rows leave class range 1..{c}")
        return cls._from_codes([_encode_patterns(rows.astype(np.int64, copy=False).T, c)], m, c)

    @classmethod
    def _from_codes(cls, chunks: Iterable[np.ndarray], m: int, c: int) -> "DispersionHistogram":
        """Count base-c codes over chunks of about equal length: bincount when c^m <= 2^24 and
        at most twice the first chunk's length, else merged per-chunk np.unique (cheaper for
        sparse codes)."""
        chunks = iter(chunks)
        first, space = next(chunks), c ** m
        if space <= min(2 ** 24, 2 * len(first)):
            tally = np.bincount(first, minlength=space)
            for codes in chunks:
                tally += np.bincount(codes, minlength=space)
            codes = np.flatnonzero(tally)
            tally = tally[codes]
        else:
            parts = [np.unique(codes, return_counts=True) for codes in chain([first], chunks)]
            codes, where = np.unique(np.concatenate([u for u, _ in parts]), return_inverse=True)
            tally = np.zeros(len(codes), dtype=np.int64)
            np.add.at(tally, where, np.concatenate([n for _, n in parts]))
        hist = cls.__new__(cls)
        hist.codes, hist.code_counts, hist.m, hist.c = codes, tally, m, c
        return hist


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


def _moments(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-channel mean and sd (denominator N-1) of (p, N) samples, as (p, 1) columns.
    Raises FloatRangeError, via _channel_sd, for an sd that overflows float64 (z-scores
    NaN or 0) or underflows on a varying channel (which would read as constant)."""
    sd = _channel_sd(values)
    return values.mean(axis=1, keepdims=True), sd


def _standardize(
    values: np.ndarray, moments: tuple[np.ndarray, np.ndarray] | None = None
) -> np.ndarray:
    """Per-channel z-scores (sd with denominator N-1); constant channels map to 0.

    moments defaults to _moments(values); a time slice passes the whole
    signal's, and gets the same values as the slice of the whole z-scores.
    """
    mu, sd = _moments(values) if moments is None else moments
    out = np.zeros_like(values)
    np.divide(values - mu, sd, out=out, where=sd > 0)
    return out


def _classes_from_z(z: np.ndarray, c: int) -> np.ndarray:
    """Map z-scores through the normal CDF onto int64 classes 1..c, overwriting z.

    round(c * Phi(z) + 0.5) with ties away from zero is floor(c * Phi(z) + 1),
    capped at c where Phi(z) = 1. The class edges are those of scipy's ndtr,
    which is not monotone within one ulp of some of them.
    """
    ndtr(z, out=z)
    z *= c
    z += 1.0
    return np.minimum(np.floor(z, out=z), c, out=z).astype(np.int64)


def _encode_patterns(columns: Iterable[np.ndarray], c: int) -> np.ndarray:
    """Base-c int64 code per pattern, sum (class_j - 1) c^(m-1-j), from 1-D class
    columns (values 1..c, first column most significant). Folds code = code * c +
    (class - 1) into a new array, taking one column at a time from a generator."""
    columns = iter(columns)
    code = np.subtract(next(columns), 1, dtype=np.int64)
    for column in columns:
        code *= c
        code += column
        code -= 1
    return code


def _check_code_range(m: int, c: int) -> None:
    """Refuse an (m, c) whose base-c pattern codes would not fit in int64."""
    if int(c) ** min(int(m), 62) >= 2 ** 62:
        raise DimensionError(f"c^m = {c}^{m} exceeds the pattern-encoding range")


def _check_embedding(m: int, c: int) -> None:
    """Refuse an embedding dimension or class count no pipeline can use."""
    if m < 2:
        raise DimensionError(f"embedding dimension must be >= 2, got {m}")
    if c < 2:
        raise DimensionError(f"class count must be >= 2, got {c}")
    _check_code_range(m, c)


def _decode_pattern(code: int, m: int, c: int) -> tuple[int, ...]:
    out = []
    for _ in range(m):
        code, digit = divmod(code, c)
        out.append(digit + 1)
    return tuple(reversed(out))


def normalized_entropy(histogram: DispersionHistogram) -> float:
    """Shannon entropy of the pattern distribution over ln(c^m), clamped to [0, 1]."""
    if not len(histogram.code_counts):
        raise EmptyPatternError("histogram holds no patterns")
    counts = histogram.code_counts.astype(float)
    probs = counts / counts.sum()
    h = float(-(probs * np.log(probs)).sum()) / (histogram.m * math.log(histogram.c))
    return min(max(0.0, h), 1.0)


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


def _curve(
    n_samples: int, config: EmbeddingConfig, entropy_at: Callable[[int], float],
    method: str, graph: str,
) -> EntropyCurve:
    """Entropy versus scale: entropy_at(tau) at each tau = 1..max_scale.

    A scale whose coarse-grained length n_samples // tau drops below m+1 is
    recorded as undefined rather than skipped. The defined scales share
    nothing, so they run on a thread pool with one worker per CPU the process
    may run on (at most one per scale), largest scale (tau = 1) first. Results
    are taken in tau order, so the first error in tau order propagates, as
    from a serial loop, and no value depends on the worker count.
    """
    scales = range(1, config.max_scale + 1)
    defined = [tau for tau in scales if n_samples // tau >= config.m + 1]
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        cpus = os.cpu_count() or 1
    with ThreadPoolExecutor(max(1, min(cpus, len(defined)))) as pool:
        means = dict(zip(defined, pool.map(entropy_at, defined)))
    records = tuple(
        ScaleRecord(tau, means[tau], 0.0, 1, True) if tau in means
        else ScaleRecord(tau, math.nan, math.nan, 0, False)
        for tau in scales
    )
    return EntropyCurve(method, records, config.m, config.c, graph)


def mvdeg_single_scale(
    signal: MultivariateSignal, graph: WeightedGraph, m: int, c: int
) -> tuple[float, DispersionHistogram]:
    """Graph-based multivariate dispersion entropy at the signal's native scale.

    One code per (time, channel) vertex whose m-1 hop horizon stays on the
    time axis. The rows of those vertices stream in time chunks (_time_chunks):
    each chunk's samples, with the m-1 that follow it, are standardized by the
    whole signal's moments, each hop column 0..m-1 over them is class-mapped
    and folded into the chunk's base-c codes as soon as it is made, and the
    chunk's codes are counted before the next chunk starts. So a call holds a
    few chunk-sized arrays, never a signal-sized one beyond the moments pass.
    On the edgeless graph (W = 0) hop column k is the block shifted k samples,
    so the block is class-mapped once. Returns the entropy and the histogram.
    """
    _check_embedding(m, c)
    values, p, weights = signal.values, signal.p, graph.weights
    n_rows = signal.n_samples - m + 1
    if n_rows <= 0:
        raise EmptyPatternError(
            f"no embedding rows survive masking (N={signal.n_samples}, m={m})"
        )
    moments = _moments(values)
    edgeless = weights.shape == (p, p) and not weights.any()

    def chunk_codes():
        for start, end in _time_chunks(n_rows, p):
            rows = end - start
            z = _standardize(values[:, start : end + m - 1], moments)
            if edgeless:  # drop z, so the block and its classes are not both held
                classes, z = _classes_from_z(z, c), None
                columns = (classes[:, k : k + rows] for k in range(m))
            else:
                columns = (_classes_from_z(u[:rows], c) for u in _hop_columns(z.T, weights, m))
            yield _encode_patterns(columns, c).ravel()

    histogram = DispersionHistogram._from_codes(chunk_codes(), m, c)
    return normalized_entropy(histogram), histogram


def _time_chunks(n_rows: int, p: int) -> list[tuple[int, int]]:
    """Split rows [0, n_rows) evenly into [start, end) chunks, sizes differing by
    at most one: about _CHUNK_ELEMENTS samples each, and at least _CHUNK_MIN_ROWS
    rows each unless n_rows itself is smaller."""
    count = max(1, min(n_rows // _CHUNK_MIN_ROWS, n_rows * p // _CHUNK_ELEMENTS))
    edges = [i * n_rows // count for i in range(count + 1)]
    return list(zip(edges[:-1], edges[1:]))


def mvdeg_curve(
    signal: MultivariateSignal,
    graph: WeightedGraph,
    config: EmbeddingConfig,
) -> EntropyCurve:
    """Graph-based entropy versus scale for one signal."""

    def entropy_at(tau: int) -> float:
        return mvdeg_single_scale(coarse_grain(signal, tau), graph, config.m, config.c)[0]

    return _curve(signal.n_samples, config, entropy_at, "mvdeg", graph.describe())


def pattern_counts(n_samples: int, p: int, m: int) -> tuple[int, int]:
    """Exact pattern workloads at one scale: (classical, graph-based bound).

    Classical multivariate DE enumerates (N - m + 1) * C(m p, m) patterns;
    the graph-based figure is the paper's (N - m) * p. mvdeg_single_scale
    itself counts (N - m + 1) * p patterns, one per vertex whose m-1 hop
    horizon stays on the time axis.
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
    _check_embedding(m, c)
    coarse = coarse_grain(signal, tau)
    length = coarse.n_samples
    if length < m + 1:
        raise ScaleUndefinedError(tau, length)
    windows = length - m + 1
    count = windows * math.comb(m * coarse.p, m)
    if count > pattern_cap:
        raise CapacityError(count, pattern_cap)

    # one class view per window position, in the order above
    lagged = [row[lag : lag + windows] for row in ncdf_map(coarse, c) for lag in range(m)]
    codes = (_encode_patterns(subset, c) for subset in combinations(lagged, m))
    histogram = DispersionHistogram._from_codes(codes, m, c)
    return normalized_entropy(histogram), histogram


def classical_mvde_curve(
    signal: MultivariateSignal,
    config: EmbeddingConfig,
    pattern_cap: int = PATTERN_CAP,
) -> EntropyCurve:
    """Classical multivariate dispersion entropy versus scale.

    Every defined scale must fit pattern_cap, or CapacityError is raised.
    """

    def entropy_at(tau: int) -> float:
        return classical_mvde(signal, config.m, config.c, tau=tau, pattern_cap=pattern_cap)[0]

    return _curve(signal.n_samples, config, entropy_at, "mvde", "none")


def univariate_single_scale(
    channel: np.ndarray, m: int, c: int
) -> tuple[float, DispersionHistogram]:
    """Dispersion entropy of one 1-D series: the p=1, edgeless case of mvdeg_single_scale."""
    x = np.asarray(channel, dtype=float)
    if x.ndim != 1:
        raise DimensionError(f"expected a 1-D channel, got shape {x.shape}")
    _check_embedding(m, c)
    if x.size < m + 1:
        raise DimensionError(f"need more than m={m} samples, got {x.size}")
    return mvdeg_single_scale(MultivariateSignal(x[None, :]), build_zero_graph(1), m, c)


def univariate_mde(
    channel: np.ndarray,
    config: EmbeddingConfig,
) -> EntropyCurve:
    """Univariate multiscale dispersion entropy of one 1-D series.

    Coincides pattern-for-pattern with mvdeg_curve on a single-channel signal
    and the edgeless graph: with one channel and no neighbours, hop column k is
    exactly the k-step time shift.
    """
    x = np.asarray(channel, dtype=float)
    if x.ndim != 1:
        raise DimensionError(f"expected a 1-D channel, got shape {x.shape}")

    def entropy_at(tau: int) -> float:
        coarse = coarse_grain(MultivariateSignal(x[None, :]), tau)
        return univariate_single_scale(coarse.values[0], config.m, config.c)[0]

    return _curve(x.size, config, entropy_at, "mde", build_zero_graph(1).describe())
