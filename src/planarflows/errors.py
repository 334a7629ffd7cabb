"""Exception types shared across the package."""


class PlanarFlowsError(Exception):
    """Base class for all package errors."""


class EmptySumWithoutNeutral(PlanarFlowsError):
    """Sum of an empty sequence in a semiring with no additive neutral."""


class DivisionUnsupported(PlanarFlowsError):
    """The semiring does not support division."""


class NotInvertible(PlanarFlowsError):
    """The requested divisor has no multiplicative inverse."""


class ArityMismatch(PlanarFlowsError):
    """Sink/source counts do not line up for concatenation."""


class SizeMismatch(PlanarFlowsError):
    """Two index sets that must have equal size do not."""


class NotProper(PlanarFlowsError):
    """A pair (A, A') violates the parity condition for (Y, Y')."""


class BadParams(PlanarFlowsError):
    """Invalid parameters for a stock pattern or identity."""


class BadLength(PlanarFlowsError):
    """Partition length does not match the requested size."""


class PatternsBalanced(PlanarFlowsError):
    """A counterexample was requested for patterns that are balanced."""


class NotPlanarMatching(PlanarFlowsError):
    """The given couples are not a non-crossing perfect matching."""


class InconsistentSets(PlanarFlowsError):
    """(X, Y, X', Y') violate 2|X| + |Y| = 2|X'| + |Y'| or overlap."""


class RingRequired(PlanarFlowsError):
    """The operation needs additive inverses (a ring-like semiring)."""


class BadInput(PlanarFlowsError):
    """An input's JSON form is malformed; the message names the field."""


class WitnessGeometryError(PlanarFlowsError):
    """The witness layout hit a degenerate geometric configuration."""
