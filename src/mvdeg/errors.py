"""Exception types shared across the package.

Every error the library raises deliberately is a subclass of MvdegError, so the
CLI can map failure families onto exit codes without string matching.
"""

from __future__ import annotations


class MvdegError(Exception):
    """Base class for all deliberate errors raised by this package."""


class ParseError(MvdegError):
    """Malformed input file. Carries position info when available."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + where)
        self.line = line
        self.column = column


class DimensionError(MvdegError):
    """Shapes or sizes of otherwise well-formed inputs do not agree."""


class DegenerateChannelError(MvdegError):
    """A channel has zero variance where spread is required."""

    def __init__(self, channel: int):
        super().__init__(f"channel {channel} has zero variance")
        self.channel = channel


class ScaleUndefinedError(MvdegError):
    """The coarse-grained series at this scale is too short to use."""

    def __init__(self, tau: int, length: int):
        super().__init__(f"scale tau={tau} leaves only {length} coarse-grained samples")
        self.tau = tau
        self.length = length


class EmptyPatternError(MvdegError):
    """No embedding rows survived masking; the distribution is empty."""


class CapacityError(MvdegError):
    """A computation was refused because its exact pattern count exceeds the cap."""

    def __init__(self, count: int, cap: int):
        super().__init__(
            f"refusing to enumerate {count} dispersion patterns (cap {cap})"
        )
        self.count = count
        self.cap = cap


class SizeCapError(MvdegError):
    """A dense matrix would exceed the configured side-length cap.

    Dense construction is an oracle path; callers hitting this cap should use
    the matrix-free operations instead.
    """

    def __init__(self, side: int, cap: int):
        super().__init__(
            f"dense matrix of side {side} exceeds cap {cap}; use the matrix-free path"
        )
        self.side = side
        self.cap = cap


class FloatRangeError(MvdegError):
    """A value overflowed float64 or left the range where it stays exact."""


class FactorizationError(MvdegError):
    """A correlation matrix is not positive semidefinite."""

    def __init__(self, minor: int):
        super().__init__(
            f"correlation matrix is not positive semidefinite "
            f"(leading minor of order {minor} is negative)"
        )
        self.minor = minor


class BaselineError(MvdegError):
    """A reference measurement that is divided by is zero."""

    def __init__(self, electrode: int, measurement: int):
        super().__init__(
            f"baseline voltage is zero at electrode {electrode}, "
            f"measurement {measurement}"
        )
        self.electrode = electrode
        self.measurement = measurement
