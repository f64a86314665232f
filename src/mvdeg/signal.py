"""Container for multichannel time series.

Samples are stored channel-major: values[k, t] is channel k at time t. The
flattened ("stacked") layout used by the graph operators interleaves channels
within each time step, i.e. stacked[(t * p) + k] = values[k, t].
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, FloatRangeError


# Per-channel passes (moments here, window sums in entropy.coarse_grain) run over
# blocks of whole channels of about _BLOCK_SAMPLES samples, so that the passes
# over one block after the first run in cache.
_BLOCK_SAMPLES = 2 ** 16


def _moments(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-channel mean and sd (denominator N-1) of (p, N) samples, as (p, 1) columns;
    the sd is 0 only for a constant channel. Both are numpy's own, bit for bit: the
    mean is values.mean's, and the sd is taken from that mean in the steps np.std
    takes, a block of channels at a time. Raises FloatRangeError for a mean or sd
    that overflows float64 (z-scores NaN or 0) or a varying channel whose variance
    underflows to 0 (it would read as constant); only channels with sd 0 are
    scanned for that."""
    p, n = values.shape
    mean, sd = np.empty((p, 1)), np.empty((p, 1))
    step = max(1, _BLOCK_SAMPLES // n)  # channels per block
    with np.errstate(over="ignore", invalid="ignore"):
        for first in range(0, p, step):
            block = values[first : first + step]
            block_mean = mean[first : first + step]
            np.add.reduce(block, axis=1, keepdims=True, out=block_mean)
            block_mean /= n
            deviations = np.subtract(block, block_mean)
            np.multiply(deviations, deviations, out=deviations)
            np.add.reduce(deviations, axis=1, keepdims=True, out=sd[first : first + step])
        sd /= n - 1
        np.sqrt(sd, out=sd)
    if not np.isfinite(sd).all():
        raise FloatRangeError("channel mean or sd overflows float64")
    for k in np.flatnonzero(sd == 0):
        if (values[k] != values[k, 0]).any():
            raise FloatRangeError(f"channel {k} varies but its variance underflows float64")
    return mean, sd


def _as_readonly(a: np.ndarray) -> np.ndarray:
    """a as a read-only float array. An array that is read-only already and owns
    its data, as coarse_grain makes, is kept; any other is copied."""
    if a.dtype == float and not a.flags.writeable and a.flags.owndata:
        return a
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
        """Flatten to the interleaved layout: entry (t * p) + k is channel k at time t.

        Production does not call it; tests compare hop columns in this layout.
        """
        return self.values.T.reshape(-1)
