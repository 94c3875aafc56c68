"""Constructive congruence factorizations of the two matrix families.

factor_symmetric writes a symmetric special unitary X as P tP, and
factor_skew writes a skew-symmetric special unitary X as P J tP, with
P special unitary in both cases; factor_aii composes the skew case with
the twist by J that defines the AII model.

Both take one principal square root Y = V diag(r) V* of a unitary matrix
from its eigendecomposition V diag(e^{i theta}) V*, with r = e^{i theta / 2}
and every theta lifted into one turn that starts in the middle of the
widest gap of the angles, the cut linalg_core's Cayley re-solve takes
too.  Y is a primary matrix function, so it is
unitary and keeps every similarity the transpose makes: tX = A X A^-1
gives tY = A Y A^-1 (Higham, Mackey, Mackey and Tisseur, SIAM J. Matrix
Anal. Appl. 26, 2005).

Symmetric case: Y is the root of X, so tY = Y and Y tY = X.  The cut is
at least pi/n from every angle, so no cluster of eigenvalues is split
between two branches, and det Y = prod r is +-1; on -1 negating the last
column of Y (a right factor Q with Q tQ = E) gives P with det P = 1.

Skew case: M = X tJ obeys tM = J M tJ and det M = 1, so M is a member of
AII(n), and its root S obeys tS = J S tJ, whence S J tS = -S S tJ = X.
Conversely M M* = X X*, det M = det X and tM - J M tJ = J (tX + X), so
M's AII residuals are X's skew ones, and factor_skew checks the M it roots.
The eigenvalues of M come in Kramers pairs, at most n points on the
circle, so the cut is at least pi/n from each and both eigenvalues of a
pair take the same root: det S is +-1.  A genuine obstruction lives here.
Any factor P of X gives Q = S^-1 P with Q J tQ = J; a complex symplectic
Q has det Q = 1, so det P = det S is a congruence invariant of X that
splits the skew special unitary matrices into two orbits.  Only the
orbit of J itself (the one containing every sampled AII pullback) admits
P in SU(2n): factor_skew returns P = S there and raises
ComponentObstruction when det S = -1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ComponentObstruction, DimensionMismatch, NoConvergence, NotInSpace
from .linalg_core import (MEMBERSHIP_TOL, TWO_PI, _spectral_product, _widest_gap_cut, as_matrix,
                          eig_normal)
from .spaces import Family, SpaceKind, SpacePoint, _membership, _swap_halves


@dataclass(frozen=True)
class FactorizationResult:
    """Special unitary factor P and the Frobenius reconstruction residual."""

    P: np.ndarray
    residual: float


def _principal_root(X) -> tuple[np.ndarray, complex]:
    """The square root Y of a unitary X, and det Y."""
    dec = eig_normal(X)
    angles = np.angle(dec.eigenvalues)
    cut = _widest_gap_cut(angles)
    roots = np.exp(0.5j * (cut + np.mod(angles - cut, TWO_PI)))
    return _spectral_product(dec.P, roots), np.prod(roots)


def factor_symmetric(X) -> FactorizationResult:
    """Factor a symmetric special unitary X as P tP with P in SU(n)."""
    X = as_matrix(X)
    report = _membership(SpaceKind.ai(len(X)), X)
    if not report.member:
        raise NotInSpace(
            "input is not a symmetric special unitary matrix "
            f"(max residual {report.max_residual:.3e})"
        )

    P, det = _principal_root(X)
    # det^2 = det X = 1, so det is +-1 up to roundoff.
    if det.real < 0.0:
        P[:, -1] = -P[:, -1]

    residual = float(np.linalg.norm(X - P @ P.T))
    if residual > 10.0 * MEMBERSHIP_TOL * max(np.linalg.norm(X), 1.0):
        raise NoConvergence(f"symmetric factorization residual {residual:.3e}")
    return FactorizationResult(P=P, residual=residual)


def factor_skew(X) -> FactorizationResult:
    """Factor a skew-symmetric special unitary X as P J tP with P in SU(2n).

    Raises ComponentObstruction when X lies in the congruence orbit not
    containing J, where no such P exists.
    """
    X = as_matrix(X)
    if X.shape[0] % 2:
        raise DimensionMismatch("skew special unitary matrices have even side")
    M = -_swap_halves(X, -1)  # X tJ
    report = _membership(SpaceKind.aii(len(X) // 2), M)
    if not report.member:
        raise NotInSpace(
            "input is not a skew-symmetric special unitary matrix (residuals "
            f"{report.unitarity:.3e}/{report.determinant:.3e}/{report.symmetry:.3e})"
        )

    P, det = _principal_root(M)
    if det.real < 0.0:
        raise ComponentObstruction(
            "the root of X tJ has det -1: the input lies in the skew "
            "congruence orbit that admits no factor P in SU(2n)"
        )

    residual = float(np.linalg.norm(X - _swap_halves(P, -1) @ P.T))
    if residual > 10.0 * MEMBERSHIP_TOL * max(np.linalg.norm(X), 1.0):
        raise NoConvergence(f"skew factorization residual {residual:.3e}")
    return FactorizationResult(P=P, residual=residual)


def factor_aii(point: SpacePoint) -> FactorizationResult:
    """Factor an AII member X as J P J tP by pulling back to the skew model.

    Y = tJ X is skew-symmetric special unitary exactly when X is a member,
    and since J is orthogonal the three skew residuals of Y equal the AII
    residuals of X and ||Y - P J tP|| = ||X - J P J tP||.  So factor_skew(Y)
    both checks the input and returns the factor with its residual.
    """
    if point.kind.family is not Family.AII:
        raise DimensionMismatch("factor_aii expects an AII point")
    return factor_skew(_swap_halves(point.matrix, -2))  # tJ X
