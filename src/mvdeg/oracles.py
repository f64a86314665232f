"""Dense oracles for the product adjacency A of kron.py and its powers.

Production never builds them; tests and the benchmark's reference check
compare the matrix-free recurrence of kron.py against them, so this module
shares no code with it and imports neither kron nor entropy. Stacked layout:
entry (t * p) + ch of a vector is channel ch at time t, so a Kronecker
factor's left index is the time axis and its right index the channel axis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

import numpy as np

from .errors import DimensionError, SizeCapError
from .graphs import WeightedGraph

DENSE_CAP = 4096  # max side length for any dense oracle matrix


@dataclass(frozen=True)
class PathShift:
    """k-step successor matrix of the directed path on n time vertices.

    Entry (i, j) is 1 exactly when j = i + k; zero matrix when k >= n.
    """

    n: int
    k: int

    def __post_init__(self):
        if self.n < 1:
            raise DimensionError("path needs at least one vertex")
        if self.k < 0:
            raise DimensionError(f"hop order must be >= 0, got {self.k}")

    def to_dense(self) -> np.ndarray:
        return np.eye(self.n, k=self.k)


path_power = PathShift  # the k-step shift is the k-th power of the one-step shift


@dataclass(frozen=True)
class ProductPower:
    """Binomial expansion of the k-th power of the product adjacency.

    terms holds (coefficient, time shift, channel-graph power) triples whose
    Kronecker sum equals A^k.
    """

    n_time: int
    graph: WeightedGraph
    k: int
    terms: tuple[tuple[int, PathShift, np.ndarray], ...] = field(compare=False)

    def to_dense(self, dense_cap: int = DENSE_CAP) -> np.ndarray:
        side = self.n_time * self.graph.n
        if side > dense_cap:
            raise SizeCapError(side, dense_cap)
        out = np.zeros((side, side))
        for coef, shift, channel_power in self.terms:
            out += coef * np.kron(shift.to_dense(), channel_power)
        return out


def product_power_terms(n_time: int, graph: WeightedGraph, k: int) -> ProductPower:
    """Expand A^k as sum_j C(k, j) * shift^j (x) W^(k-j); the two summands of A commute."""
    if k < 0:
        raise DimensionError(f"power must be >= 0, got {k}")
    powers = [np.eye(graph.n)]  # W^0 .. W^k
    for _ in range(k):
        powers.append(powers[-1] @ graph.weights)
    terms = tuple((comb(k, j), PathShift(n_time, j), powers[k - j]) for j in range(k + 1))
    return ProductPower(n_time=n_time, graph=graph, k=k, terms=terms)


def product_adjacency(n_time: int, graph: WeightedGraph, dense_cap: int = DENSE_CAP) -> np.ndarray:
    """Dense product adjacency, capped at dense_cap side length."""
    side = n_time * graph.n
    if side > dense_cap:
        raise SizeCapError(side, dense_cap)
    shift = PathShift(n_time, 1).to_dense()
    return np.kron(shift, np.eye(graph.n)) + np.kron(np.eye(n_time), graph.weights)


def naive_power(matrix: np.ndarray, k: int, dense_cap: int = DENSE_CAP) -> np.ndarray:
    """Dense matrix power by repeated multiplication."""
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"matrix must be square, got shape {m.shape}")
    if m.shape[0] > dense_cap:
        raise SizeCapError(m.shape[0], dense_cap)
    if k < 0:
        raise DimensionError(f"power must be >= 0, got {k}")
    out = np.eye(m.shape[0])
    for _ in range(k):
        out = out @ m
    return out
