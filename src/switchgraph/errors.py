"""Exception types shared across the package."""


class SwitchGraphError(Exception):
    """Base class for all package-specific errors."""


class InvalidSwitch(SwitchGraphError):
    """A switch was applied where its checkerboard precondition fails."""


class DimensionMismatch(SwitchGraphError):
    """Two matrices that must share a shape do not."""


class MarginMismatch(SwitchGraphError):
    """Two matrices that must share row/column sums do not."""


class MarginSumMismatch(SwitchGraphError):
    """Row sums and column sums add up to different totals."""


class InfeasibleMargins(SwitchGraphError):
    """No matrix of the requested kind exists for the given margins."""


class DegenerateGraph(SwitchGraphError):
    """An edge-normalised quantity was requested for an edgeless graph."""


class NonGraphical(SwitchGraphError):
    """A degree sequence is not realisable by a simple graph."""


class MatrixFormatError(SwitchGraphError):
    """A matrix text file deviates from the documented format."""


class InternalInvariantViolation(SwitchGraphError):
    """A path builder, motif finder, search or sampler contradicted its
    own invariant.

    This must never happen; it signals an implementation bug, not bad input.
    """
