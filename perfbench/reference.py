"""Reference dispersion patterns computed without mvdeg.

The benchmark checks the program's histograms and entropies against this
module. It shares no code with mvdeg: it coarse-grains, z-scores, builds the
hop embedding and counts patterns on its own, with numpy and
``scipy.special.ndtr`` only.

Hop embedding. The joint adjacency of the time path and the channel graph is
A = S (x) I + I (x) W, with S the one-step successor shift. Column k of the
embedding is A^k x / A^k 1. It is built from the one-step identity
A^k = A A^(k-1), in time-major (N, p) layout:

    u_k[t] = u_(k-1)[t + 1] + W u_(k-1)[t]

and, on every row whose k-step horizon stays on the time axis, the row sum is
a per-channel constant r_k = (I + W) r_(k-1) with r_0 = 1. After each step u
and r are divided by the same power of two, which leaves every ratio u / r
bit for bit unchanged and keeps large graph weights from overflowing.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

CHUNK = 8192  # time samples per block in graph_scale


def coarse_grain(values: np.ndarray, tau: int) -> np.ndarray:
    """Means of non-overlapping windows of tau samples, per channel of (p, N)."""
    p, n = values.shape
    length = n // tau
    return values[:, : length * tau].reshape(p, length, tau).mean(axis=2)


def zscore(values: np.ndarray) -> np.ndarray:
    """Per-channel z-scores with the N-1 denominator; constant channels give 0."""
    mu = values.mean(axis=1, keepdims=True)
    sd = values.std(axis=1, ddof=1, keepdims=True)
    safe = np.where(sd > 0, sd, 1.0)
    return np.where(sd > 0, (values - mu) / safe, 0.0)


def correlation_graph(values: np.ndarray) -> np.ndarray:
    """|Pearson correlation| between channels of (p, N), symmetric, zero diagonal."""
    r = np.corrcoef(values)
    r = (r + r.T) / 2.0
    w = np.minimum(np.abs(r), 1.0)
    np.fill_diagonal(w, 0.0)
    return w


def hop_embedding(z: np.ndarray, weights: np.ndarray, m: int) -> np.ndarray:
    """(R, m) hop values of the rows that survive masking, R = (N - m + 1) * p.

    z is (p, N); row (t * p + ch) of the result is vertex (t, ch).
    """
    x = np.ascontiguousarray(z.T)
    n, p = x.shape
    rows = n - m + 1
    w = np.asarray(weights, dtype=float)
    grow = np.eye(p) + w
    u = x
    r = np.ones(p)
    cols = [x[:rows]]
    for _ in range(1, m):
        nxt = u @ w.T
        nxt[:-1] += u[1:]
        u = nxt
        r = grow @ r
        exponent = math.frexp(float(r.max()))[1]
        u = np.ldexp(u, -exponent)
        r = np.ldexp(r, -exponent)
        cols.append(u[:rows] / r)
    return np.stack(cols, axis=-1).reshape(rows * p, m)


def classes(values: np.ndarray, c: int) -> np.ndarray:
    """Normal-CDF class map onto 1..c: floor(c * Phi(z) + 1), clipped."""
    # imported here, so that importing the benchmark loads no scipy before
    # the program's own set-up has been timed
    from scipy.special import ndtr

    return np.clip(np.floor(c * ndtr(values) + 1.0), 1, c).astype(np.int64)


def encode(class_rows: np.ndarray, c: int) -> np.ndarray:
    """Base-c integer code of each row of an (R, m) class matrix."""
    m = class_rows.shape[1]
    return (class_rows - 1) @ (c ** np.arange(m - 1, -1, -1, dtype=np.int64))


def by_pattern(codes: np.ndarray, counts: np.ndarray, m: int, c: int) -> dict[tuple[int, ...], int]:
    """Counts keyed by pattern (classes 1..c) instead of by code."""
    place = c ** np.arange(m - 1, -1, -1, dtype=np.int64)
    digits = (codes[:, None] // place[None, :]) % c + 1
    return {tuple(int(d) for d in row): int(k) for row, k in zip(digits, counts)}


def histogram(codes: np.ndarray, m: int, c: int) -> dict[tuple[int, ...], int]:
    """Counts of identical pattern codes, keyed by pattern."""
    return by_pattern(*np.unique(codes, return_counts=True), m, c)


def entropy(counts: dict[tuple[int, ...], int], m: int, c: int) -> float:
    """Shannon entropy of the pattern distribution over ln(c^m)."""
    n = np.array(list(counts.values()), dtype=float)
    prob = n / n.sum()
    return float(-(prob * np.log(prob)).sum()) / (m * math.log(c))


def graph_scale(
    values: np.ndarray, weights: np.ndarray, m: int, c: int, tau: int = 1
) -> tuple[float, dict[tuple[int, ...], int]]:
    """Entropy and histogram of graph-based dispersion patterns at scale tau.

    Works through the time axis in blocks with an (m - 1)-sample halo, so its
    memory stays far below the program's and does not set the peak RSS of the
    process that checks it.
    """
    z = zscore(coarse_grain(np.asarray(values, dtype=float), tau))
    rows = z.shape[1] - m + 1
    codes = []
    for start in range(0, rows, CHUNK):
        stop = min(start + CHUNK, rows)
        block = hop_embedding(z[:, start : stop + m - 1], weights, m)
        codes.append(encode(classes(block, c), c))
    counts = histogram(np.concatenate(codes), m, c)
    return entropy(counts, m, c), counts


def classical_scale(values: np.ndarray, m: int, c: int) -> tuple[float, dict[tuple[int, ...], int]]:
    """Entropy and histogram of classical multivariate dispersion patterns at scale 1.

    Each length-m window yields the m * p classes of all channels; every
    m-element subset of those positions is one pattern.
    """
    cls = classes(zscore(np.asarray(values, dtype=float)), c)
    p, n = cls.shape
    flat = sliding_window_view(cls, m, axis=1).transpose(1, 0, 2).reshape(n - m + 1, p * m)
    subsets = np.array(list(combinations(range(p * m), m)))
    place = c ** np.arange(m - 1, -1, -1, dtype=np.int64)
    totals = np.zeros(c ** m, dtype=np.int64)
    for start in range(0, len(subsets), 32):  # small blocks keep memory low
        codes = (flat[:, subsets[start : start + 32]] - 1) @ place
        totals += np.bincount(codes.ravel(), minlength=c ** m)
    seen = np.nonzero(totals)[0]
    counts = by_pattern(seen, totals[seen], m, c)
    return entropy(counts, m, c), counts


def uniform_entropy_expectation(patterns: int, m: int, c: int) -> float:
    """Miller-Madow expectation of the normalized entropy of i.i.d. uniform classes."""
    return 1.0 - (c ** m - 1) / (2.0 * patterns * m * math.log(c))
