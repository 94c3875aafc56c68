"""Branch-restricted matrix logarithm and the explicit contracting paths.

For a unitary X with no eigenvalue at e^{i alpha}, the branch logarithm
lifts every eigenvalue angle into the open interval (alpha, alpha + 2 pi)
and returns the skew-Hermitian H = P diag(i theta) P*.  For special
unitary X the lifted angles sum to an integer multiple of 2 pi; that
integer is the winding index, constant on connected components of the
branch domain.

The contraction exponentiates the linear path (1 - s) H + s (2 pi i k / m) E
(m is the ambient side) on the eigenbasis of H, which the scalar target
shares; the endpoint is the scalar matrix exp(2 pi i k / m) E.  Each
sample F(s) = P D(s) P* is a primary matrix function of the source, so it
keeps every similarity the transpose makes and stays inside the space
(Higham, Mackey, Mackey and Tisseur, SIAM J. Matrix Anal. Appl. 26, 2005).
_certificate turns that into a bound on each law's residual along the
whole path, read from one check of the basis P; a path whose bound
exceeds MEMBERSHIP_TOL is measured sample by sample with _membership,
is_member's formula, instead, as is every sample the CLI prints.
By default the branch is the default cover's witness: this module is
where a witness becomes a branch angle.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np

from .cover import classify, default_cover
from .errors import BranchViolation, MembershipDrift, NotInSpace
from .linalg_core import (BRANCH_MARGIN, MEMBERSHIP_TOL, TWO_PI, EigenDecomposition,
                          _finite_angle, _positive_int, _spectral_product, eig_normal)
from .spaces import (Family, MembershipReport, SpaceKind, SpacePoint, _made_point, _membership,
                     _swap_halves)

#: Unit roundoff of float64.
_UNIT_ROUNDOFF = 2.0**-53


@dataclass(frozen=True)
class BranchLog:
    """Skew-Hermitian logarithm with its branch data.

    H is the logarithm, alpha the branch angle in [0, 2 pi) (the avoided
    eigenvalue is e^{i alpha}), winding the integer nearest
    Im(tr H) / 2 pi, and margin the smallest angular distance of any
    eigenvalue of the source from alpha.
    """

    H: np.ndarray
    alpha: float
    winding: int
    margin: float


@dataclass(frozen=True)
class PathSample:
    """One point of a contraction path, with an upper bound on each law's residual.

    The source, at s = 0, carries its _membership report, the bits is_member
    gives its matrix.  Every later sample carries the path's certified
    bounds, or, where they do not certify the path, the residuals measured
    on the sample; member is whether every bound is at most MEMBERSHIP_TOL.
    """

    s: float
    point: SpacePoint
    residuals: MembershipReport


@dataclass(frozen=True)
class HomotopyPath:
    """Sampled contraction from source to the scalar target, cut at alpha in [0, 2 pi)."""

    alpha: float
    target_scalar: complex
    samples: tuple[PathSample, ...]


def _lift(dec: EigenDecomposition, alpha: float) -> tuple[np.ndarray, float, float, int]:
    """(theta, alpha mod 2 pi, margin, winding) of dec, where X = P diag(e^{i theta}) P*."""
    alpha = float(np.mod(_finite_angle(alpha), TWO_PI))
    rel = np.mod(np.angle(dec.eigenvalues) - alpha, TWO_PI)
    margin = float(np.min(np.minimum(rel, TWO_PI - rel)))
    if margin < BRANCH_MARGIN:
        raise BranchViolation(
            f"eigenvalue within {margin:.3e} of the branch point", margin=margin
        )
    theta = alpha + rel
    return theta, alpha, margin, int(round(float(np.sum(theta)) / TWO_PI))


def _branch_angle(point: SpacePoint, alpha: float | None) -> float:
    """The branch angle of point's logarithm: alpha, or if None the default cover's witness's."""
    if alpha is None:
        config = default_cover(point.kind)
        alpha = float(np.angle(config.lambdas[classify(config, point).witness]))
    return alpha


def branch_log(X, alpha: float) -> BranchLog:
    """Logarithm of a unitary X with eigenvalue angles in (alpha, alpha + 2 pi).

    Raises BranchViolation when some eigenvalue is closer than BRANCH_MARGIN
    to the branch point e^{i alpha}; that failure is exactly the signal that
    X lies outside the covering set avoiding e^{i alpha}.  An alpha that is
    not a finite real number raises ValueError.
    """
    dec = eig_normal(X)
    theta, alpha, margin, winding = _lift(dec, alpha)
    H = _spectral_product(dec.P, 1j * theta)
    H = (H - H.conj().T) / 2.0
    return BranchLog(H=H, alpha=alpha, winding=winding, margin=margin)


def _certificate(kind: SpaceKind, P: np.ndarray, theta: np.ndarray,
                 winding: int) -> Callable[[float], MembershipReport] | None:
    """Bounds on each law's residual at every s in (0, 1] of the path on P and theta.

    The sample at s is F = P D P*, D = diag(exp(i((1 - s) theta + s c))),
    c = 2 pi winding / m.  With delta = ||P* P - E|| and tau = 8 m (m + 16) u,
    which bounds the rounding of one product of near-unitary m x m factors
    (sqrt(2) gamma_{m+2} ||P||^2; Higham, Accuracy and Stability, 3.6) and
    of each sample phase (about 100 u), each bound is a + (1 - s) b:
      unitarity    2 delta + 3 tau, as F F* - E = (P P* - E) + P D (P* P - E) D* P*;
      determinant  ||det P|^2 - 1| + (1 - s)|sum theta - 2 pi winding| + 4 sqrt(m) tau,
                   as det F = |det P|^2 exp(i (1 - s)(sum theta - 2 pi winding)), and a
                   determinant moves by sqrt(m) times a perturbation, here the rounding
                   of F and of the LU factorizations of F and P, of modest growth;
      symmetry     (1 - s) ||W o (theta_i - theta_j)|| + 4 delta + 4 tau, with
                   W = tP P (AI) or tP tJ P (AII).
    For unitary P the symmetry defect of F is ||[W, D]||, whose entries are
    |W_ij| |d_i - d_j| = |W_ij| 2 |sin((1 - s)(theta_i - theta_j) / 2)|.
    P's unitary polar factor is within about delta / 2 of P, which moves F
    and W by about delta each; delta counts the Gram product's own rounding.
    Terms of second order in delta stay below tau wherever the bounds
    certify.  A real P, the eigenbasis of an AI point equal to its
    transpose, makes F, P* P, W and det P real computations: each entry of
    Re F and of Im F is one real dot product of length m, of a row of P with
    a column of tP scaled by cos or sin of the phase, so it rounds by at most
    gamma_{m+1} times the same sum of absolute terms, and |cos| + |sin| <=
    sqrt(2) gives sqrt(2) gamma_{m+1} ||P||^2 for F, below the complex
    product's bound; so tau bounds the real products too.  Returns None
    when a bound exceeds MEMBERSHIP_TOL as s -> 0, where each is largest:
    such a path is measured instead.
    """
    m = len(P)
    tau = 8.0 * m * (m + 16) * _UNIT_ROUNDOFF
    det_rounding = 4.0 * math.sqrt(m) * tau
    if det_rounding > MEMBERSHIP_TOL:  # true from m = 146 on: no product can certify
        return None
    G = P.conj().T @ P
    G.reshape(-1)[:: m + 1] -= 1.0  # matmul makes G C-ordered, so this is a view
    delta = float(np.linalg.norm(G)) + tau
    W = P.T @ (P if kind.family is Family.AI else _swap_halves(P, -2))
    unitarity = 2.0 * delta + 3.0 * tau
    determinant = (abs(abs(complex(np.linalg.det(P))) ** 2 - 1.0) + det_rounding,
                   abs(float(np.sum(theta)) - TWO_PI * winding))
    symmetry = (4.0 * (delta + tau), float(np.linalg.norm(W * (theta[:, None] - theta))))
    if not max(unitarity, sum(determinant), sum(symmetry)) <= MEMBERSHIP_TOL:
        return None
    return lambda s: MembershipReport(unitarity, determinant[0] + (1.0 - s) * determinant[1],
                                      symmetry[0] + (1.0 - s) * symmetry[1], True)


def _contraction(point: SpacePoint, alpha: float | None, steps: int, measure: bool = False
                 ) -> tuple[float, complex, Iterator[PathSample]]:
    """contract's (alpha, target_scalar, samples); the solve's and the log's errors come first.

    With measure, every sample carries its measured residuals, as where the
    path's bounds do not certify it.
    """
    dec = eig_normal(point.matrix)
    alpha = _branch_angle(point, alpha)
    steps = _positive_int("steps", steps)
    kind = point.kind
    theta, alpha, _, winding = _lift(dec, alpha)
    angle_target = TWO_PI * winding / kind.ambient_size

    def samples() -> Iterator[PathSample]:
        report = _membership(kind, point.matrix)
        if not report.member:
            raise NotInSpace(f"source is not a member of {kind.family.value}({kind.n}) "
                             f"(residual {report.max_residual:.3e})")
        yield PathSample(s=0.0, point=point, residuals=report)
        bounds = None if measure else _certificate(kind, dec.P, theta, winding)
        for i in range(1, steps + 1):
            s = i / steps
            F = _spectral_product(dec.P, np.exp(1j * ((1.0 - s) * theta + s * angle_target)))
            if bounds is not None:
                report = bounds(s)
            else:
                report = _membership(kind, F)
                if report.max_residual > 100.0 * MEMBERSHIP_TOL:
                    raise MembershipDrift(
                        f"path point at s={s:g} drifted out of the space "
                        f"(residual {report.max_residual:.3e})"
                    )
            # F is finite: a certified bound or a measured residual below the drift gate says so
            yield PathSample(s=s, point=_made_point(kind, F), residuals=report)

    return alpha, complex(np.exp(1j * angle_target)), samples()


def contract(point: SpacePoint, alpha: float | None = None, steps: int = 16) -> HomotopyPath:
    """Contract a member along the linear log path onto a scalar matrix.

    The logarithm is cut at alpha, a finite real number; None cuts it at the
    default cover's witness lambda_r, which keeps every eigenvalue at least
    pi/(2n) from the cut.  The target logarithm is (2 pi i k / m) E with m
    the ambient side.  It commutes with H = P diag(i theta) P*, so the
    sample at s is P diag(exp(i((1 - s) theta + s 2 pi k / m))) P*, formed
    on the same eigendecomposition.  The sample at s = 0 is the source
    itself, with its _membership report, is_member's bits; a rejected
    source raises NotInSpace.  Every later sample is a matrix function of the
    source, and carries upper bounds on its residuals, not measurements: one
    check of the basis P bounds each law at every s in (0, 1].  Where a
    bound exceeds MEMBERSHIP_TOL, as from side m = 146 on, or for a basis P
    far from unitary or mixing the columns of distant eigenvalues, every
    later sample is measured with _membership, is_member's formula, instead;
    past 100 * MEMBERSHIP_TOL, or non-finite, a measured sample raises
    MembershipDrift, which indicates an implementation bug, since the path
    from a member provably stays inside the space.  Verdicts and errors are
    those of measuring every sample.
    """
    alpha, target_scalar, samples = _contraction(point, alpha, steps)
    return HomotopyPath(alpha, target_scalar, tuple(samples))
