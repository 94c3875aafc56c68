"""Constructive congruence factorizations of the two matrix families.

factor_symmetric writes a symmetric special unitary X as P tP, and
factor_skew writes a skew-symmetric special unitary X as P J tP, with
P special unitary in both cases; factor_aii composes the skew case with
the twist by J that defines the AII model.

The symmetric algorithm takes the square root Y = V diag(r) V* of X from
its eigendecomposition X = V diag(e^{i theta}) V*, with r = e^{i theta / 2}
and every theta lifted into one turn that starts in the middle of the
widest gap of the angles.  The cut is at least pi/n from every angle, so
no cluster of eigenvalues is split between two branches.  Y is a function
of X, so it is symmetric and Y tY = X; det Y = prod r is +-1, and on -1
negating the last column of Y (a right factor Q with Q tQ = E) gives P
with det P = 1.

The skew algorithm pairs each eigenvector v (eigenvalue lam) with conj(v)
(eigenvalue -lam), keeping the one whose angle lies in the half circle
that starts in the middle of the widest gap of the angles folded mod pi.
From each kept v it builds the real orthonormal vectors
w = (v + conj(v))/sqrt(2) and w' = -i(v - conj(v))/sqrt(2), assembles them
into a rotation B, and scales by C = diag(c, c) with c_k^2 = i lam_k so
that tB X B = C J tC.

A genuine obstruction lives in the skew case: det(B C) = (prod c_k)^2 is
+-1 and a congruence invariant of X, and the skew special unitary matrices
split into two orbits accordingly.  Only the orbit of J itself (the one
containing every sampled AII pullback) admits P in SU(2n), so factor_skew
decides by the sign of det(B C) and raises ComponentObstruction on -1
before building any factor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ComponentObstruction,
    DimensionMismatch,
    NoConvergence,
    NotInSpace,
    OddPairingFailure,
)
from .linalg_core import (
    MEMBERSHIP_TOL,
    TWO_PI,
    as_matrix,
    eig_normal,
    frobenius,
)
from .spaces import Family, SpaceKind, SpacePoint, is_member, structural_J


@dataclass(frozen=True)
class FactorizationIntermediates:
    """Diagnostic record: basis B, diagonal factor C, chosen roots.

    Skew case: B is a real rotation and P = B C.  Symmetric case: B is the
    unitary eigenbasis of X and P = B C B*, up to the sign of one column.
    """

    B: np.ndarray
    C: np.ndarray
    roots: np.ndarray


@dataclass(frozen=True)
class FactorizationResult:
    """Special unitary factor P and the Frobenius reconstruction residual."""

    P: np.ndarray
    residual: float
    intermediates: FactorizationIntermediates | None = None


def _widest_gap_cut(angles, period: float) -> float:
    """Middle of the widest gap between the angles taken mod period.

    m points on a circle of length period leave a gap of at least
    period/m, so every angle lies at least period/(2m) from the cut.
    """
    folded = np.sort(np.mod(angles, period))
    gaps = np.diff(folded, append=folded[0] + period)
    widest = int(np.argmax(gaps))
    return folded[widest] + gaps[widest] / 2.0


def factor_symmetric(X) -> FactorizationResult:
    """Factor a symmetric special unitary X as P tP with P in SU(n)."""
    X = as_matrix(X)
    n = X.shape[0]
    report = is_member(SpaceKind.ai(n), X)
    if not report.member:
        raise NotInSpace(
            "input is not a symmetric special unitary matrix "
            f"(max residual {report.max_residual:.3e})"
        )

    dec = eig_normal(X)
    angles = np.angle(dec.eigenvalues)
    cut = _widest_gap_cut(angles, TWO_PI)
    roots = np.exp(0.5j * (cut + np.mod(angles - cut, TWO_PI)))
    P = (dec.P * roots) @ dec.P.conj().T
    # prod(roots)^2 = det X = 1, so prod(roots) is +-1 up to roundoff.
    if np.prod(roots).real < 0.0:
        P[:, -1] = -P[:, -1]

    residual = frobenius(X - P @ P.T)
    if residual > 10.0 * MEMBERSHIP_TOL * max(frobenius(X), 1.0):
        raise NoConvergence(f"symmetric factorization residual {residual:.3e}")
    return FactorizationResult(
        P=P,
        residual=residual,
        intermediates=FactorizationIntermediates(B=dec.P, C=np.diag(roots), roots=roots),
    )


def _conjugation_pairs(X, dec):
    """Pick one eigenvector per conjugation pair (v, conj v).

    The eigenvalues come in pairs lam, -lam whose angles agree mod pi, so
    up to roundoff the angles folded mod pi are at most n points on a
    circle of length pi, and their widest gap is at least pi/n.  Cutting
    in the middle of that gap and keeping the half circle [cut, cut + pi)
    picks exactly one eigenvalue of each pair, and every eigenvalue lies
    at least pi/(2n) from the cut, so roundoff never moves one across it.
    Returns the chosen eigenvalues and eigenvectors.
    """
    angles = np.angle(dec.eigenvalues)
    cut = _widest_gap_cut(angles, np.pi)
    vs = dec.P[:, np.mod(angles - cut, TWO_PI) < np.pi]
    lams = np.einsum("ij,ij->j", vs.conj(), X @ vs)
    return lams, vs


def factor_skew(X) -> FactorizationResult:
    """Factor a skew-symmetric special unitary X as P J tP with P in SU(2n).

    Raises ComponentObstruction when X lies in the congruence orbit not
    containing J, where no such P exists.
    """
    X = as_matrix(X)
    m = X.shape[0]
    if m % 2:
        raise DimensionMismatch("skew special unitary matrices have even side")
    n = m // 2
    unitarity = frobenius(X @ X.conj().T - np.eye(m))
    determinant = float(abs(np.linalg.det(X) - 1.0))
    skewness = frobenius(X.T + X)
    if max(unitarity, determinant, skewness) > MEMBERSHIP_TOL:
        raise NotInSpace(
            "input is not a skew-symmetric special unitary matrix "
            f"(residuals {unitarity:.3e}/{determinant:.3e}/{skewness:.3e})"
        )

    dec = eig_normal(X)
    lams, vs = _conjugation_pairs(X, dec)
    if lams.shape[0] != n:
        raise OddPairingFailure(f"expected {n} pairs, found {lams.shape[0]}")

    # Real orthonormal basis, one (w, w') pair per eigenvector.
    w = np.sqrt(2.0) * vs.real
    wp = np.sqrt(2.0) * vs.imag
    B = np.empty((m, m))
    B[:, :n] = w
    B[:, n:] = wp
    if frobenius(B.T @ B - np.eye(m)) > 100.0 * MEMBERSHIP_TOL:
        raise OddPairingFailure("paired basis lost orthonormality")

    if np.linalg.det(B) < 0.0:
        # Swapping v_1 with conj(v_1) negates lam_1 and the first w' column.
        lams[0] = -lams[0]
        B[:, n] = -B[:, n]

    roots = np.exp(0.5j * np.mod(np.angle(1j * lams), TWO_PI))
    if (np.prod(roots) ** 2).real < 0.0:
        raise ComponentObstruction(
            "det(B C) = -1: the input lies in the skew congruence orbit "
            "that admits no factor P in SU(2n)"
        )

    C = np.diag(np.concatenate([roots, roots]))
    J = structural_J(n)
    P = B @ C
    residual = frobenius(X - P @ J @ P.T)
    if residual > 10.0 * MEMBERSHIP_TOL * max(frobenius(X), 1.0):
        raise NoConvergence(f"skew factorization residual {residual:.3e}")
    return FactorizationResult(
        P=P,
        residual=residual,
        intermediates=FactorizationIntermediates(B=B, C=C, roots=roots),
    )


def factor_aii(point: SpacePoint) -> FactorizationResult:
    """Factor an AII member X as J P J tP by pulling back to the skew model.

    Y = tJ X is skew-symmetric special unitary exactly when X is a member,
    and since J is orthogonal the three skew residuals of Y equal the AII
    residuals of X and ||Y - P J tP|| = ||X - J P J tP||.  So factor_skew(Y)
    both checks the input and returns the factor with its residual.
    """
    if point.kind.family is not Family.AII:
        raise DimensionMismatch("factor_aii expects an AII point")
    return factor_skew(structural_J(point.kind.n).T @ point.matrix)
