"""Container for multichannel time series.

Samples are stored channel-major: values[k, t] is channel k at time t. The
flattened ("stacked") layout used by the graph operators interleaves channels
within each time step, i.e. stacked[(t * p) + k] = values[k, t].
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, FloatRangeError


def _channel_sd(values: np.ndarray) -> np.ndarray:
    """Per-channel sd (denominator N-1) of (p, N) samples as a (p, 1) column, 0 only
    for a constant channel. Raises FloatRangeError for an sd that overflows float64
    or a varying channel whose variance underflows to 0; only channels with sd 0
    are scanned for that."""
    with np.errstate(over="ignore", invalid="ignore"):
        sd = values.std(axis=1, ddof=1, keepdims=True)
    if not np.isfinite(sd).all():
        raise FloatRangeError("channel mean or sd overflows float64")
    for k in np.flatnonzero(sd == 0):
        if (values[k] != values[k, 0]).any():
            raise FloatRangeError(f"channel {k} varies but its variance underflows float64")
    return sd


def _as_readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float, copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class MultivariateSignal:
    """p channels of N samples each, all finite.

    Attributes:
        values: float array of shape (p, N), read-only.
        labels: optional channel names; defaults to ch1..chp.
    """

    values: np.ndarray
    labels: tuple[str, ...] | None = field(default=None)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2:
            raise DimensionError(f"signal values must be 2-D (p, N), got shape {v.shape}")
        p, n = v.shape
        if p < 1:
            raise DimensionError("signal needs at least one channel")
        if n < 2:
            raise DimensionError(f"signal needs at least 2 samples per channel, got {n}")
        if not np.all(np.isfinite(v)):
            raise DimensionError("signal values must be finite")
        object.__setattr__(self, "values", _as_readonly(v))
        if self.labels is not None:
            labels = tuple(str(s) for s in self.labels)
            if len(labels) != p:
                raise DimensionError(
                    f"{len(labels)} channel labels for {p} channels"
                )
            object.__setattr__(self, "labels", labels)

    @property
    def p(self) -> int:
        """Channel count."""
        return self.values.shape[0]

    @property
    def n_samples(self) -> int:
        """Samples per channel."""
        return self.values.shape[1]

    def channel_labels(self) -> tuple[str, ...]:
        if self.labels is not None:
            return self.labels
        return tuple(f"ch{k + 1}" for k in range(self.p))

    def stacked(self) -> np.ndarray:
        """Flatten to the interleaved layout: entry (t * p) + k is channel k at time t."""
        return self.values.T.reshape(-1)
