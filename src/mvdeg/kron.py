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
product as it rounds the whole one (entropy._CHUNK_MIN_ROWS). On the edgeless
graph column k is column 0 shifted k samples, which mvdeg_single_scale slices.
build_hop_basis, HopBasis and apply_hop stack the whole columns as a view
for tests. The dense A and its binomial expansion live only in oracles.py.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from math import frexp, ldexp

import numpy as np

from .errors import DimensionError, FloatRangeError
from .graphs import WeightedGraph
from .signal import MultivariateSignal

# Smallest rescaled row sum accepted. Above it every hop value at least 2^-64
# times its row sum is a normal float, so u / r is exact; smaller ratios map
# where float64 rounds the normal CDF to exactly 0.5.
_ROW_SUM_FLOOR = 2.0 ** -958


def _hop_columns(time_major: np.ndarray, weights: np.ndarray, m: int) -> Iterator[np.ndarray]:
    """Yield hop columns k = 0 .. min(m, N) - 1 of time-major (N, p) samples.

    Column k is a fresh (N - k, p) array A^k x / A^k 1 over the times whose
    horizon t + k stays on the time axis. With u_0 = x and r_0 = 1, each step

        u_k[t] = u_(k-1)[t + 1] + W u_(k-1)[t],    r_k = (I + W) r_(k-1)

    where r_k is the per-channel row sum of A^k. Both are divided by the same
    power of two each step, which keeps r below 1 and u / r unchanged. Raises
    DimensionError unless W is (p, p), and FloatRangeError on overflow or a
    row sum below _ROW_SUM_FLOOR. Float warnings are muted inside each step
    only, so the caller's numpy error state holds between yields.
    """
    n, p = time_major.shape
    if weights.shape[0] != p:
        raise DimensionError(f"signal has {p} channels but graph has {weights.shape[0]} vertices")
    u = np.ascontiguousarray(time_major)
    yield u.copy()
    grow = np.eye(p) + weights
    r = np.ones(p)
    for k in range(1, min(m, n)):
        with np.errstate(over="ignore", invalid="ignore"):
            r = grow @ r
            if not np.isfinite(r).all():
                raise FloatRangeError(f"row sums of hop column {k} overflow float64")
            scale = ldexp(1.0, -frexp(float(r.max()))[1])
            r *= scale
            if r.min() < _ROW_SUM_FLOOR:
                raise FloatRangeError(f"row sums of hop column {k} too far apart to normalize")
            step = u[: n - k] @ weights.T
            step += u[1 : n - k + 1]
            step *= scale
            if not np.isfinite(step).all():
                raise FloatRangeError(f"hop column {k} overflows float64")
            u = step
            column = u / r
        yield column


def apply_hop(
    signal: MultivariateSignal, graph: WeightedGraph, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Row-sum normalized k-hop aggregate in stacked layout.

    Returns (values, valid), column k of build_hop_basis(signal, graph, k + 1)
    and its horizon mask, both of length N * p. Production does not call it.
    """
    if k < 0:
        raise DimensionError(f"hop order must be >= 0, got {k}")
    basis = build_hop_basis(signal, graph, k + 1)
    return basis.values[:, k].copy(), basis.valid[:, k]


@dataclass(frozen=True)
class HopBasis:
    """Embedding columns y_0 .. y_(m-1) for one signal and channel graph.

    values[:, k] is the k-hop aggregate in stacked layout. Entry (t p + ch, k)
    is valid when t + k <= N - 1, so the mask follows from (n_time, graph.n, m)
    and is not stored. Column 0 is the stacked signal, valid everywhere.
    Production does not build one.
    """

    values: np.ndarray
    n_time: int
    graph: WeightedGraph

    @property
    def m(self) -> int:
        return self.values.shape[1]

    @property
    def valid(self) -> np.ndarray:
        """(N p, m) flags of the entries inside their hop horizon."""
        time = np.repeat(np.arange(self.n_time), self.graph.n)
        return time[:, None] + np.arange(self.m) < self.n_time

    def row_mask(self) -> np.ndarray:
        """Rows valid in every column, the first (N - m + 1) p; these survive into the pattern set."""
        return self.valid[:, -1]


def build_hop_basis(signal: MultivariateSignal, graph: WeightedGraph, m: int) -> HopBasis:
    """Hop columns 0 .. m-1 as an (N p, m) matrix, 0 past the horizon; production does not call it."""
    if m < 1:
        raise DimensionError(f"embedding needs m >= 1 columns, got {m}")
    values = np.zeros((signal.n_samples * signal.p, m))
    for k, column in enumerate(_hop_columns(signal.values.T, graph.weights, m)):
        values[: column.size, k] = column.ravel()
    return HopBasis(values=values, n_time=signal.n_samples, graph=graph)
