"""Exception types raised by the library.

Every domain error derives from :class:`LscatError` so callers (and the CLI)
can distinguish "the input is outside the operation's domain" from genuine
bugs, which surface as ordinary Python exceptions.
"""


class LscatError(Exception):
    """Base class for all domain errors raised by this package."""


class DimensionMismatch(LscatError):
    """Matrix sides do not match the declared space or each other, or a point of
    matching side has the wrong kind (classify, multiplicity_audit, factor_aii)."""


class NoConvergence(LscatError):
    """A kernel's result failed its final residual check."""


class NotInSpace(LscatError):
    """Matrix fails the membership laws of the requested space."""


class NotUnitary(NotInSpace):
    """Input is not unitary, so it fails the first law of either space."""


class ComponentObstruction(LscatError):
    """Input lies in the component with no special-unitary congruence factor.

    The skew-symmetric special unitary matrices of a given size form two
    disjoint congruence orbits under SU(2n); only the orbit of the structural
    matrix J admits a factorization X = P J tP with det(P) = 1.
    """


class BranchViolation(LscatError):
    """An eigenvalue sits within the branch margin of the cut point."""

    def __init__(self, message: str, margin: float | None = None):
        super().__init__(message)
        self.margin = margin


class MembershipDrift(LscatError):
    """A homotopy sample left the space; indicates an implementation bug."""


class OddMultiplicity(LscatError):
    """An eigenvalue cluster of a twisted-family member has odd size."""


class InvalidParams(LscatError):
    """Family parameters violate a side condition of the classification table."""
