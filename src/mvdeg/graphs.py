"""Channel-interaction graphs and their constructors.

A channel graph has one vertex per signal channel; its weights control how much
neighbouring channels contribute when sample values are aggregated. All
constructors here produce undirected graphs with zero diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateChannelError, DimensionError
from .signal import MultivariateSignal, _as_readonly, _moments


@dataclass(frozen=True)
class WeightedGraph:
    """Nonnegative weighted adjacency over n vertices.

    Attributes:
        weights: (n, n) float array, nonnegative and finite; symmetric when
            directed is False. Read-only.
        directed: whether weights[i, j] and weights[j, i] may differ.
        kind: optional constructor tag ("zero", "complete", ...), metadata only.
    """

    weights: np.ndarray
    directed: bool = False
    kind: str | None = field(default=None, compare=False)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise DimensionError(f"adjacency must be square, got shape {w.shape}")
        if w.shape[0] < 1:
            raise DimensionError("graph needs at least one vertex")
        if not np.all(np.isfinite(w)):
            raise DimensionError("graph weights must be finite")
        if np.any(w < 0):
            raise DimensionError("graph weights must be nonnegative")
        if not self.directed and not np.array_equal(w, w.T):
            raise DimensionError("undirected graph requires symmetric weights")
        object.__setattr__(self, "weights", _as_readonly(w))

    @property
    def n(self) -> int:
        return self.weights.shape[0]

    def describe(self) -> str:
        """Short human-readable tag used in result records."""
        base = self.kind or ("directed" if self.directed else "custom")
        return f"{base}(n={self.n})"


@dataclass(frozen=True)
class StationLayout:
    """Planar coordinates for n measurement sites.

    Attributes:
        positions: (n, 2) finite float array, read-only.
        station_ids: optional site names.
    """

    positions: np.ndarray
    station_ids: tuple[str, ...] | None = field(default=None)

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        if pos.ndim != 2 or pos.shape[1] != 2:
            raise DimensionError(f"positions must have shape (n, 2), got {pos.shape}")
        if pos.shape[0] < 1:
            raise DimensionError("layout needs at least one station")
        if not np.all(np.isfinite(pos)):
            raise DimensionError("station coordinates must be finite")
        object.__setattr__(self, "positions", _as_readonly(pos))
        if self.station_ids is not None:
            ids = tuple(str(s) for s in self.station_ids)
            if len(ids) != pos.shape[0]:
                raise DimensionError(f"{len(ids)} station ids for {pos.shape[0]} stations")
            object.__setattr__(self, "station_ids", ids)

    @property
    def n(self) -> int:
        return self.positions.shape[0]


def build_zero_graph(p: int) -> WeightedGraph:
    """Graph with no edges: every channel evolves independently."""
    if p < 1:
        raise DimensionError("channel count must be >= 1")
    return WeightedGraph(np.zeros((p, p)), directed=False, kind="zero")


def build_complete_graph(p: int) -> WeightedGraph:
    """Unit weight between every pair of distinct channels."""
    if p < 1:
        raise DimensionError("channel count must be >= 1")
    w = np.ones((p, p)) - np.eye(p)
    return WeightedGraph(w, directed=False, kind="complete")


def build_gaussian_kernel_graph(
    layout: StationLayout,
    sigma1_sq: float,
    sigma2: float,
    include_self_loops: bool = False,
) -> WeightedGraph:
    """Distance-kernel graph over station coordinates.

    Weight between stations i and j is exp(-d_ij^2 / (2 * sigma1_sq)) when
    d_ij <= sigma2 and 0 otherwise. The diagonal is zeroed unless
    include_self_loops is set (a station is at distance 0 from itself, so a
    self-loop would always weigh 1).
    """
    if not (np.isfinite(sigma1_sq) and sigma1_sq > 0):
        raise DimensionError(f"sigma1_sq must be positive, got {sigma1_sq}")
    if not (np.isfinite(sigma2) and sigma2 >= 0):
        raise DimensionError(f"sigma2 must be nonnegative, got {sigma2}")
    diff = layout.positions[:, None, :] - layout.positions[None, :, :]
    dist = np.sqrt((diff ** 2).sum(axis=2))
    w = np.exp(-(dist ** 2) / (2.0 * sigma1_sq))
    w[dist > sigma2] = 0.0
    if not include_self_loops:
        np.fill_diagonal(w, 0.0)
    return WeightedGraph(w, directed=False, kind="gaussian_kernel")


def correlation_graph(corr: np.ndarray) -> WeightedGraph:
    """Graph of absolute correlations, clipped to [0, 1], diagonal zeroed."""
    w = np.abs(np.asarray(corr, dtype=float)).clip(0.0, 1.0)
    np.fill_diagonal(w, 0.0)
    return WeightedGraph(w, directed=False, kind="correlation")


def estimate_correlation_graph(signal: MultivariateSignal) -> WeightedGraph:
    """Absolute Pearson correlation between channels, diagonal zeroed.

    Requires p >= 2 channels and N >= 3 samples; a constant channel has no
    defined correlation and raises DegenerateChannelError naming it. A channel
    whose sd overflows, or whose variance underflows, raises FloatRangeError.
    """
    if signal.p < 2:
        raise DimensionError("correlation graph needs at least 2 channels")
    if signal.n_samples < 3:
        raise DimensionError("correlation graph needs at least 3 samples")
    constant = np.flatnonzero(_moments(signal.values)[1] == 0)
    if constant.size:
        raise DegenerateChannelError(int(constant[0]))
    r = np.corrcoef(signal.values)
    # corrcoef via gemm is symmetric only up to rounding; make it exact
    return correlation_graph((r + r.T) / 2.0)
