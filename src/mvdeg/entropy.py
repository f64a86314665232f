"""Dispersion-entropy pipelines: graph-based, classical multivariate, univariate.

All three share the same per-channel class map (normal CDF of standardized
values, rounded half-away-from-zero onto 1..c), all read it from one table
(_digits_from_cells; ncdf_map is its public view), and share the normalized Shannon
entropy over m-length class patterns, -(1 / ln(c^m)) * sum p ln p. They differ
only in which class sequences make up a pattern; _encode_patterns folds those
sequences into the same base-c codes for all three (in int64, and for
classical_mvde in the narrowest integer type that holds them), and every
histogram holds them as int64:

  * mvdeg_*: one pattern per (time, channel) vertex, built from row-sum
    normalized hop aggregates of the time-path / channel-graph product.
  * classical_mvde: every m-element subset of the m*p classes in each length-m
    window, which is combinatorially explosive and capped.
  * univariate_mde: mvdeg on one channel and the edgeless graph.
"""

from __future__ import annotations

import importlib
import math
import mmap
import os
import threading
from collections.abc import Callable, Iterable, Mapping
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import lru_cache
from itertools import chain, combinations, islice

import numpy as np

from .blas import _one_blas_thread
from .errors import (
    CapacityError,
    DimensionError,
    EmptyPatternError,
    ScaleUndefinedError,
)
from .graphs import WeightedGraph, build_zero_graph
from .kron import _hop_columns
from .signal import _BLOCK_SAMPLES, MultivariateSignal, _moments

PATTERN_CAP = 10 ** 8  # refuse classical enumeration beyond this many patterns
# mvdeg_single_scale streams time in chunks of about _CHUNK_ELEMENTS samples
# over all channels, never fewer than _CHUNK_MIN_ROWS rows: from there up,
# OpenBLAS (rows, p) x (p, p) products match the whole product bit for bit.
# A chunk is standardized channel-major, where numpy's inner loops run along
# time, and the hop kernel copies it once into the C-ordered (rows, p) array it
# steps over (writing the z-scores straight into that layout took 2x as long);
# each hop column comes out of its division already in z-cells (below), and
# its class digits fold into the codes.
_CHUNK_ELEMENTS = 2 ** 18
_CHUNK_MIN_ROWS = 4096
# The one level of thread parallelism: an mvdeg curve of at least
# _POOL_MIN_SAMPLES samples (N * p) runs its scales on a thread pool (_curve). A
# smaller one runs them serially, as do ensembles their realizations, because
# there most of a scale is Python work that holds the GIL. On 2 cores a 20-scale
# curve's pooled/serial time ratio crosses 1 near 125k samples on a correlation
# graph and past 200k on the p=3 zero graph (README, Performance).
_POOL_MIN_SAMPLES = 150_000
# _digits_from_cells reads class digits (class - 1) from a table per class
# count over z-cells of width 2^-_CELL_BITS on [-_CELL_RANGE, _CELL_RANGE),
# 32,768 cells (256 KiB). Every caller hands it z 2^_CELL_BITS: the hop kernel
# of mvdeg_single_scale makes it in its own division, and the edgeless path of
# mvdeg_single_scale, classical_mvde and ncdf_map in _standardize(..., unit).
# Each table is built from math.erfc on first use, and the _CLASS_TABLES most
# recently used are kept (by lru_cache, which pool threads may share). A cell
# next to a class edge holds that edge's guard band instead, about 1e-11 wide
# in z at c = 6: samples outside it are classed by comparison, and only those
# inside it, or in cells that hold two or more edges (from c of about 850),
# call scipy's ndtr.
_CELL_BITS = 10
_CELL_RANGE = 16
_CLASS_TABLES = 8

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
        codes = _encode_patterns(np.array(list(counts), dtype=np.int64).reshape(-1, m).T - 1, c)
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
        return cls._from_codes([_encode_patterns(rows.astype(np.int64, copy=False).T - 1, c)], m, c)

    @classmethod
    def _from_codes(cls, chunks: Iterable[np.ndarray], m: int, c: int) -> "DispersionHistogram":
        """Count base-c codes over chunks of about equal length: bincount when c^m <= 2^24 and
        at most twice the first chunk's length, else per-chunk np.unique (cheaper for sparse
        codes), merged into the running count once two or more parts since hold as many
        distinct codes as it, so memory follows the distinct codes. The chunks may hold
        any signed integer type; the histogram's codes and counts are int64 either way."""
        chunks = iter(chunks)
        first, space = next(chunks), c ** m
        if space <= min(2 ** 24, 2 * len(first)):
            tally = np.bincount(first, minlength=space)
            for codes in chunks:
                tally += np.bincount(codes, minlength=space)
            codes = np.flatnonzero(tally)
            tally = tally[codes]
        else:
            parts = []  # the running count, then the parts counted since it was merged
            for chunk in chain([first], chunks):
                parts.append(np.unique(chunk, return_counts=True))
                if len(parts) > 2 and sum(len(u) for u, _ in parts[1:]) >= len(parts[0][0]):
                    parts = [_merge_counts(parts)]
            codes, tally = _merge_counts(parts)
        hist = cls.__new__(cls)
        hist.codes, hist.code_counts, hist.m, hist.c = codes, tally, m, c
        return hist


def _merge_counts(parts: list[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    """The distinct codes (ascending, int64) of (codes, counts) parts, each sorted by code,
    and their summed counts."""
    codes = np.concatenate([u for u, _ in parts], dtype=np.int64)
    counts = np.concatenate([n for _, n in parts], dtype=np.int64)
    if len(parts) == 1:
        return codes, counts
    order = np.argsort(codes, kind="stable")  # a merge of the parts' sorted runs
    codes, counts = codes[order], counts[order]
    first = np.flatnonzero(np.diff(codes, prepend=-1))  # codes are >= 0
    return codes[first], np.add.reduceat(counts, first)


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


def _standardize(
    values: np.ndarray, moments: tuple[np.ndarray, np.ndarray] | None = None, unit: float = 1.0
) -> np.ndarray:
    """Per-channel z-scores (sd with denominator N-1) in units of `unit`, a power of
    two; constant channels map to 0.

    moments defaults to _moments(values); a time slice passes the whole
    signal's, and gets the same values as the slice of the whole z-scores.
    """
    mu, sd = _moments(values) if moments is None else moments
    out = np.subtract(values, mu)
    varying = sd > 0
    np.divide(out, np.where(varying, sd * unit, 1.0), out=out)
    if not varying.all():
        out[~varying[:, 0]] = 0.0
    return out


def _digits_from_cells(cells: np.ndarray, c: int) -> np.ndarray:
    """Class digits 0..c-1 (class - 1) as int64, of z-scores given as cells = z 2^_CELL_BITS.

    The digits are those of _ndtr_classes, read from _class_table(c) at cell
    trunc(cells + _CELL_RANGE 2^_CELL_BITS). The add rounds up by less than one
    cell, so the cell found is the true cell or the one above it, and a digit
    the table holds is exact. A cell index past either end of the table reads
    that end's cell, which the cast gets right for |cells| below 2^62; its
    callers' are below 2^10 sqrt(N), as |z| <= (N - 1) / sqrt(N). Samples in
    the cells that hold a band b instead, found in one flatnonzero scan, are
    classed by comparison with the band's ends: below its low end they take
    its digit below, above its high end that digit + 1. Only samples inside a
    band take _ndtr_classes of cells 2^-_CELL_BITS, which gives their z back
    exactly; when there are none, scipy is not imported.

    Its callers are mvdeg_single_scale (hop columns, or standardized chunks on
    the edgeless graph), classical_mvde and ncdf_map; no other code maps z to
    classes.
    """
    table = _class_table(int(c))
    digits = np.empty(cells.shape, dtype=np.int64)
    np.add(cells, _CELL_RANGE << _CELL_BITS, out=digits, casting="unsafe")  # the cast truncates
    np.take(table[0], digits, out=digits, mode="clip")
    near = np.flatnonzero(digits < 0)
    if near.size:
        flat, z = digits.reshape(-1), cells.reshape(-1)[near]
        band = ~flat[near]
        above = z > table[3].view(np.float64)[band]
        flat[near] = table[1][band] + above
        inside = np.flatnonzero(above != (z >= table[2].view(np.float64)[band]))
        if inside.size:
            flat[near[inside]] = _ndtr_classes(z[inside] / 2.0 ** _CELL_BITS, c) - 1
    return digits


@lru_cache(maxsize=_CLASS_TABLES)
def _class_table(c: int) -> np.ndarray:
    """Read-only int64 (4, cells) array for _digits_from_cells: row 0 holds the class
    digit (class - 1) of each z-cell, or ~b where the cell holds band b; rows 1-3
    hold band b's digit below it and its low and high ends (float64, in cells).

    Cell j spans [e_j, e_(j+1)) with e_j = j 2^-_CELL_BITS - _CELL_RANGE, and is
    read for z in [e_(j-1), e_(j+2)), its window. The table is built from the
    stdlib: L(z) = c Phi(z) + 1 with Phi(z) = erfc(-z / sqrt 2) / 2, which is
    within 2.2e-16 of ndtr but not bit-equal to it. A z is sure when L(z) lies
    more than the margin (c + 1) 2^-40 from every class edge 2..c: there
    floor(L) is the class _ndtr_classes gives, with 2^10 headroom over both
    errors and the two roundings. A window whose ends are sure and hold the
    same class holds its digit. One holding exactly one edge k gets that edge's
    band [low, high], whose ends are checked sure: below it the class is k - 1,
    above it k, as both Phi are monotone up to their errors. The edge z = 0 of
    even c is exact, since ndtr(0) = 1/2 and ndtr(z) >= 1/2 for z >= 0 (Cephes
    adds erf(z / sqrt 2) >= 0 there), so its band ends below -0.0. A window
    holding two or more edges (from c = 856), or whose band fails its
    check, holds band 0, which takes every z to ndtr. Cell 0 also stands for
    all z below -_CELL_RANGE and the last cell for all z above, so they hold a
    digit or band 0, never an edge's band; every class edge ndtri(k/c) lies
    within +-6.2 for c < 2^31, so they hold classes 1 and c.
    """
    n = 2 * _CELL_RANGE << _CELL_BITS
    edges = (np.arange(-1, n + 2) / 2.0 ** _CELL_BITS - _CELL_RANGE).tolist()  # e_-1 ..
    level = c * np.array([_phi(z) for z in edges]) + 1.0
    margin = (c + 1) * 2.0 ** -40
    first = np.maximum(np.ceil(level[:-3] - margin), 2)  # the class edges each window
    last = np.minimum(np.floor(level[3:] + margin), c)  # may hold, first..last
    # in its own pages: a table made mid-scale on the malloc heap would keep
    # the heap from shrinking below it for as long as it is cached
    table = np.frombuffer(mmap.mmap(-1, 4 * 8 * n), dtype=np.int64).reshape(4, n)
    digits, below = table[0], table[1]
    low, high = table[2].view(np.float64), table[3].view(np.float64)
    low[0], high[0] = -math.inf, math.inf  # band 0
    digits.fill(-1)
    held = first > last
    np.subtract(np.minimum(np.floor(level[:-3]), c), 1, out=digits, where=held, casting="unsafe")
    bands = {}  # class edge k -> its band
    for j in (np.flatnonzero(first[1:-1] == last[1:-1]) + 1).tolist():  # not the end cells
        k = int(first[j])
        if k not in bands:
            ends = _edge_band(edges[j], edges[j + 3], k, c, margin)
            bands[k] = b = len(bands) + 1 if ends else 0
            if b:
                below[b], low[b], high[b] = k - 2, *(end * 2.0 ** _CELL_BITS for end in ends)
                if 2 * (k - 1) == c:  # the edge z = 0: every cell >= -0.0 is above it
                    high[b] = -math.ulp(0.0)
        digits[j] = ~bands[k]
    assert c >= 2 ** 31 or (digits[0], digits[-1]) == (0, c - 1), f"end cells of the class table for c={c}"
    table.flags.writeable = False
    return table


_SQRT_HALF = math.sqrt(0.5)


def _phi(z: float) -> float:
    """The standard normal CDF from the stdlib, within 2.2e-16 of ndtr."""
    return 0.5 * math.erfc(-z * _SQRT_HALF)


def _edge_band(a: float, b: float, k: int, c: int, margin: float) -> tuple[float, float] | None:
    """(low, high) around the z where L(z) = c Phi(z) + 1 = k, found by Newton from the
    middle of [a, b], with L(low) < k - margin and L(high) > k + margin, so both ends
    are sure. Widened until its ends pass that check; None if they never do."""
    z = (a + b) / 2
    for _ in range(5):
        density = c * math.exp(-0.5 * z * z) / math.sqrt(2 * math.pi)
        if not density:
            return None
        z -= (c * _phi(z) + 1.0 - k) / density
    width = 2 * margin / density
    for _ in range(8):
        low, high = z - width, z + width
        if c * _phi(low) + 1.0 < k - margin and c * _phi(high) + 1.0 > k + margin:
            return low, high
        width *= 4
    return None


def _ndtr_classes(z: np.ndarray, c: int) -> np.ndarray:
    """round(c * Phi(z) + 0.5) as int64, overwriting z: with ties away from zero
    that is floor(c * Phi(z) + 1), capped at c where Phi(z) = 1. The class edges
    are those of scipy's ndtr, which is not monotone within one ulp of some of
    them. The class table reproduces it; _digits_from_cells calls it only for
    samples inside a band of the table.
    """
    _ndtr()(z, out=z)
    z *= c
    z += 1.0
    return np.minimum(np.floor(z, out=z), c, out=z).astype(np.int64)


@lru_cache(maxsize=None)
def _ndtr():
    """scipy's ndtr, imported on first use rather than with mvdeg, whose import time
    it would mostly be; a run whose samples all miss the class table's bands
    never imports it. It is imported on a thread of its own: its modules live
    as long as the process, and allocated on the caller's malloc heap in the
    middle of a run they would keep that heap from shrinking below them (a
    p = 32, N = 100k curve run after building its signal held 25-55 MB more)."""
    loader = threading.Thread(target=importlib.import_module, args=("scipy.special",))
    loader.start()
    loader.join()
    from scipy.special import ndtr

    return ndtr


def _encode_patterns(columns: Iterable[np.ndarray], c: int) -> np.ndarray:
    """Base-c code per pattern, sum digit_j c^(m-1-j), from columns of class digits
    (class - 1, values 0..c-1, first column most significant). Folds code =
    code * c + digit into a new array in the first column's integer type, which
    must hold every code below c^m, taking one column at a time from a generator. The mvdeg and
    univariate paths pass int64 digits, classical_mvde narrower ones."""
    columns = iter(columns)
    code = np.array(next(columns))
    for column in columns:
        code *= c
        code += column
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
    undefined and raises ScaleUndefinedError. The means are those of
    values.reshape(p, N / tau, tau).mean(axis=2) on C-ordered values bit for bit,
    whatever the signal's memory order (_window_sums), computed a block of
    _BLOCK_SAMPLES samples at a time and kept without a copy.
    """
    if tau < 1:
        raise DimensionError(f"scale must be >= 1, got {tau}")
    length = signal.n_samples // tau
    if length < 2:
        raise ScaleUndefinedError(tau, length)
    if tau == 1:
        return signal
    windows = signal.values[:, : length * tau].reshape(signal.p, length, tau)
    means = np.empty((signal.p, length))
    step = max(1, _BLOCK_SAMPLES // (length * tau))  # channels per block
    for first in range(0, signal.p, step):
        block = means[first : first + step]
        _window_sums(windows[first : first + step], block)
        block += 0.0  # numpy's sum starts from +0.0, so a window of -0.0s sums to +0.0
        block /= tau
    means.flags.writeable = False
    return MultivariateSignal(means, labels=signal.labels)


def _window_sums(windows: np.ndarray, out: np.ndarray) -> None:
    """Write the sums over the last axis of the 3-D windows into the C-ordered out in
    numpy's pairwise order: from 24 terms by numpy's own reduction (into such an out it
    is pairwise along strided windows too); below 24, where that is slower, by strided
    adds, under 8 terms in sequence, from 8 in eight accumulators (position i goes to
    i mod 8) joined as ((0+1)+(2+3))+((4+5)+(6+7)), then the rest in sequence. Only a
    zero sum may differ from numpy's, in its sign.
    """
    n = windows.shape[-1]
    if n >= 24:
        np.add.reduce(windows, axis=-1, out=out)
    elif n < 8:
        np.add(windows[..., 0], windows[..., 1], out=out)
        for i in range(2, n):
            out += windows[..., i]
    else:
        whole = n - n % 8  # end of the positions the accumulators take
        acc = windows[..., :8].transpose(2, 0, 1).copy()
        for i in range(8, whole, 8):
            acc += windows[..., i : i + 8].transpose(2, 0, 1)
        np.add(acc[0::2], acc[1::2], out=acc[0::2])
        np.add(acc[0::4], acc[2::4], out=acc[0::4])
        np.add(acc[0], acc[4], out=out)
        for i in range(whole, n):
            out += windows[..., i]


def ncdf_map(signal: MultivariateSignal, c: int) -> np.ndarray:
    """Integer classes 1..c per sample, (p, N).

    Each channel is standardized by its own mean and sd (denominator N-1)
    before the CDF map; a constant channel lands on class round(c/2 + 0.5).
    """
    if c < 2:
        raise DimensionError(f"class count must be >= 2, got {c}")
    return _digits_from_cells(_standardize(signal.values, unit=2.0 ** -_CELL_BITS), c) + 1


def _curve(
    n_samples: int, config: EmbeddingConfig, entropy_at: Callable[[int], float],
    method: str, graph: str, pooled: bool,
) -> EntropyCurve:
    """Entropy versus scale: entropy_at(tau) at each tau = 1..max_scale.

    A scale whose coarse-grained length n_samples // tau drops below m+1 is
    recorded as undefined rather than skipped. The defined scales share
    nothing, so when pooled they run on a thread pool, largest scale (tau = 1)
    first: one worker per CPU the process may run on, at most one per scale.
    Otherwise they run in a serial loop. Results are taken in tau order, so the
    first error in tau order propagates and no value depends on the worker count.
    """
    scales = range(1, config.max_scale + 1)
    defined = [tau for tau in scales if n_samples // tau >= config.m + 1]
    if pooled:
        try:
            cpus = len(os.sched_getaffinity(0))
        except AttributeError:  # no affinity API on this platform
            cpus = os.cpu_count() or 1
        with ThreadPoolExecutor(max(1, min(cpus, len(defined)))) as pool:
            means = dict(zip(defined, pool.map(entropy_at, defined)))
    else:
        means = {tau: entropy_at(tau) for tau in defined}
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
    cell = 2.0 ** -_CELL_BITS  # z-scores in this unit are z-cells
    bound = math.sqrt(signal.n_samples)  # |z| <= (N - 1) / sqrt(N), Samuelson's inequality

    def chunk_codes():
        for start, end in _time_chunks(n_rows, p):
            rows = end - start
            block = values[:, start : end + m - 1]
            if edgeless:
                digits = _digits_from_cells(_standardize(block, moments, cell), c)
                columns = (digits[:, k : k + rows] for k in range(m))
            else:
                z = _standardize(block, moments).T  # the kernel copies it time-major
                columns = (
                    _digits_from_cells(u[:rows], c)
                    for u in _hop_columns(z, weights, m, cell, bound)
                )
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
    """Graph-based entropy versus scale for one signal, on one OpenBLAS thread; its
    scales run on a thread pool when N * p is at least _POOL_MIN_SAMPLES,
    serially otherwise. Either way the values are those of a serial loop.

    Scales from 2 coarse-grain a C-ordered copy of values that are not C-ordered
    (a CSV signal's are F-ordered), whose windows are 3x faster to sum; the means
    are the same for both orders. Scale 1 runs on the values as given, because
    _moments' bits depend on their memory order."""
    coarse_from = signal
    if not signal.values.flags.c_contiguous and config.max_scale > 1:
        values = np.ascontiguousarray(signal.values)
        values.flags.writeable = False  # so the signal keeps it without a second copy
        coarse_from = replace(signal, values=values)

    def entropy_at(tau: int) -> float:
        scaled = signal if tau == 1 else coarse_grain(coarse_from, tau)
        return mvdeg_single_scale(scaled, graph, config.m, config.c)[0]

    pooled = signal.n_samples * signal.p >= _POOL_MIN_SAMPLES
    with _one_blas_thread():  # the hop products are too small to split
        return _curve(signal.n_samples, config, entropy_at, "mvdeg", graph.describe(), pooled)


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


def _check_capacity(n_samples: int, p: int, m: int, pattern_cap: int) -> None:
    """CapacityError when classical MvDE would enumerate more than pattern_cap patterns."""
    count = pattern_counts(n_samples, p, m)[0]
    if count > pattern_cap:
        raise CapacityError(count, pattern_cap)


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

    The m*p lagged digit rows, read from the class table as in the edgeless mvdeg
    chunk, are stacked once in the narrowest signed integer type that holds -c^m
    (int16 at c = 6, m = 4), and so every code below c^m. The subsets are drawn
    from itertools.combinations a block at a time, about _BLOCK_SAMPLES codes per
    block and at least one subset, and each block's codes are folded from
    fancy-indexed rows and counted before the next block is drawn; so a call
    never holds the whole subset index array.
    """
    _check_embedding(m, c)
    coarse = coarse_grain(signal, tau)
    length = coarse.n_samples
    if length < m + 1:
        raise ScaleUndefinedError(tau, length)
    windows = length - m + 1
    _check_capacity(length, coarse.p, m, pattern_cap)

    digits = _digits_from_cells(_standardize(coarse.values, unit=2.0 ** -_CELL_BITS), c)
    # one digit row per window position, in the order above, in the narrowest
    # signed type that holds -c^m and so every code: the folds below run in it,
    # and in int64 they took as long as one fold per subset
    lagged = np.stack(
        [row[lag : lag + windows] for row in digits for lag in range(m)],
        dtype=np.min_scalar_type(-(c ** m)), casting="same_kind",
    )
    subsets = combinations(range(len(lagged)), m)
    per_block = max(1, _BLOCK_SAMPLES // windows)

    def block_codes():
        while block := list(islice(subsets, per_block)):
            rows = np.array(block).T  # rows[j] holds each subset's j-th position
            yield _encode_patterns((lagged[index] for index in rows), c).ravel()

    histogram = DispersionHistogram._from_codes(block_codes(), m, c)
    return normalized_entropy(histogram), histogram


def classical_mvde_curve(
    signal: MultivariateSignal,
    config: EmbeddingConfig,
    pattern_cap: int = PATTERN_CAP,
) -> EntropyCurve:
    """Classical multivariate dispersion entropy versus scale.

    Every defined scale must fit pattern_cap, or CapacityError is raised. The
    scales run serially from tau = 1, where the pattern count is largest, so
    tau = 1, when defined, refuses before any scale makes its digits. On 2 cores
    a pool of two took 1.4-2.5x the serial time from 25k to 21M patterns.
    """

    def entropy_at(tau: int) -> float:
        return classical_mvde(signal, config.m, config.c, tau=tau, pattern_cap=pattern_cap)[0]

    return _curve(signal.n_samples, config, entropy_at, "mvde", "none", pooled=False)


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
    """Univariate multiscale dispersion entropy of one 1-D series: mvdeg_curve on
    the single-channel signal and the edgeless graph, relabelled "mde". With one
    channel and no neighbours, hop column k is exactly the k-step time shift.
    """
    x = np.asarray(channel, dtype=float)
    if x.ndim != 1:
        raise DimensionError(f"expected a 1-D channel, got shape {x.shape}")
    curve = mvdeg_curve(MultivariateSignal(x[None, :]), build_zero_graph(1), config)
    return replace(curve, method="mde")
