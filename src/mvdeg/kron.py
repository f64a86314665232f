"""Matrix-free powers of the time-path / channel-graph product.

The joint adjacency over (time, channel) vertices is

    A = shift (x) Id_p + Id_N (x) W

where (x) is the Kronecker product, shift is the one-step successor matrix of
the directed path on N time vertices, and W is the channel graph. Hop column k
of the embedding is A^k x / A^k 1, built from column k-1 by A^k = A A^(k-1):
one time shift and one (N, p) x (p, p) product, so O(N p^2) per column and
no (N p)^2 matrix. Production holds no (N p, m) basis either: _hop_columns
yields each column as it is made, and mvdeg_single_scale runs it over one
time chunk at a time (the chunk's rows plus the m-1 that follow) and folds
each column into the chunk's codes, so its arrays are chunk-sized. A row's
hop values depend only on the samples at and after it, and the per-step
rescale only on W, so a chunk's columns are the whole signal's rows, bit for
bit once the chunk is long enough for BLAS to round its (rows, p) x (p, p)
product as it rounds the whole one (entropy._CHUNK_MIN_ROWS). Per step a
column costs the product, the shifted add, the power-of-two rescale and one
division, u / (r unit): mvdeg_single_scale asks for its columns in z-cells
(unit 2^-10), which the class map reads directly. The per-element overflow
scan runs only when the step could overflow: as W >= 0 a hop value is r times
a weighted average of the input, and mvdeg_single_scale bounds |z| by
sqrt(N). On the edgeless graph column k is column 0 shifted k samples, which
mvdeg_single_scale slices. For tests, build_hop_basis returns the whole
columns stacked as one (N p, m) array in the input's units, and apply_hop one
column with its horizon mask. The dense A and its binomial expansion live
only in oracles.py.
"""

from __future__ import annotations

from collections.abc import Iterator
from math import frexp, inf, ldexp

import numpy as np

from .errors import DimensionError, FloatRangeError
from .graphs import WeightedGraph
from .signal import MultivariateSignal

# Smallest rescaled row sum accepted. Above it every hop value at least 2^-64
# times its row sum is a normal float, so u / (r unit) is exact for a unit down
# to 2^-64; smaller ratios map where float64 rounds the normal CDF to exactly 0.5.
_ROW_SUM_FLOOR = 2.0 ** -958


def _hop_columns(
    time_major: np.ndarray, weights: np.ndarray, m: int, unit: float = 1.0,
    bound: float = inf,
) -> Iterator[np.ndarray]:
    """Yield hop columns k = 0 .. min(m, N) - 1 of time-major (N, p) samples.

    Column k is a fresh (N - k, p) array A^k x / A^k 1 over the times whose
    horizon t + k stays on the time axis, in units of `unit`, a power of two
    down to 2^-64. With u_0 = x and r_0 = 1, each step

        u_k[t] = u_(k-1)[t + 1] + W u_(k-1)[t],    r_k = (I + W) r_(k-1)

    where r_k is the per-channel row sum of A^k. Both are divided by the same
    power of two each step, which keeps r below 1 and u / r unchanged; column
    k is then u / (r unit), exact in the unit because r unit stays normal.
    Raises DimensionError unless W is (p, p), and FloatRangeError on overflow
    or a row sum below _ROW_SUM_FLOOR. bound is a bound on |x|. As W >= 0,
    every u_k is r_k times a weighted average of x, so a step's values are at
    most bound max((I + W) r_(k-1)) before the rescale; only when twice that
    reaches 1e300 are they scanned for overflow. Float warnings are muted
    inside each step only, so the caller's numpy error state holds between
    yields.
    """
    n, p = time_major.shape
    if weights.shape[0] != p:
        raise DimensionError(f"signal has {p} channels but graph has {weights.shape[0]} vertices")
    u = np.ascontiguousarray(time_major)
    yield u / unit
    grow = np.eye(p) + weights
    r = np.ones(p)
    for k in range(1, min(m, n)):
        with np.errstate(over="ignore", invalid="ignore"):
            r = grow @ r
            if not np.isfinite(r).all():
                raise FloatRangeError(f"row sums of hop column {k} overflow float64")
            largest = float(r.max())
            scale = ldexp(1.0, -frexp(largest)[1])
            r *= scale
            if r.min() < _ROW_SUM_FLOOR:
                raise FloatRangeError(f"row sums of hop column {k} too far apart to normalize")
            step = u[: n - k] @ weights.T
            step += u[1 : n - k + 1]
            step *= scale
            if 2.0 * bound * largest >= 1e300 and not np.isfinite(step).all():
                raise FloatRangeError(f"hop column {k} overflows float64")
            u = step
            column = u / (r * unit)
        yield column


def apply_hop(
    signal: MultivariateSignal, graph: WeightedGraph, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Row-sum normalized k-hop aggregate in stacked layout.

    Returns (values, valid), column k of build_hop_basis(signal, graph, k + 1)
    and its horizon mask, both of length N * p: entry t p + ch is valid when
    t + k <= N - 1. Production does not call it.
    """
    if k < 0:
        raise DimensionError(f"hop order must be >= 0, got {k}")
    values = build_hop_basis(signal, graph, k + 1)[:, k].copy()
    return values, np.repeat(np.arange(signal.n_samples) + k < signal.n_samples, signal.p)


def build_hop_basis(signal: MultivariateSignal, graph: WeightedGraph, m: int) -> np.ndarray:
    """Hop columns 0 .. m-1 as an (N p, m) matrix, 0 past the horizon; production does not call it."""
    if m < 1:
        raise DimensionError(f"embedding needs m >= 1 columns, got {m}")
    values = np.zeros((signal.n_samples * signal.p, m))
    for k, column in enumerate(_hop_columns(signal.values.T, graph.weights, m)):
        values[: column.size, k] = column.ravel()
    return values
