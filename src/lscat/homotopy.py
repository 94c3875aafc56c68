"""Branch-restricted matrix logarithm and the explicit contracting paths.

For a unitary X with no eigenvalue at e^{i alpha}, the branch logarithm
lifts every eigenvalue angle into the open interval (alpha, alpha + 2 pi)
and returns the skew-Hermitian H = P diag(i theta) P*.  For special
unitary X the lifted angles sum to an integer multiple of 2 pi; that
integer is the winding index, constant on connected components of the
branch domain.

The contraction exponentiates the linear path (1 - s) H + s (2 pi i k / m) E
(m is the ambient side) on the eigenbasis of H, which the scalar target
shares; the endpoint is the scalar matrix exp(2 pi i k / m) E and every
intermediate point stays inside the space, re-verified sample by sample
by is_member's residual kernel, called on each sample as formed.
By default the branch is the default cover's witness, read from the same
eigendecomposition: this module is where a witness becomes a branch angle.
The decomposition comes from eig_normal, which keeps the last matrix it
solved, so classify followed by contract on one point solves once.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np

from .cover import classify, default_cover
from .errors import BranchViolation, MembershipDrift, NotInSpace
from .linalg_core import (BRANCH_MARGIN, MEMBERSHIP_TOL, TWO_PI, EigenDecomposition,
                          _positive_int, eig_normal)
from .spaces import MembershipReport, SpacePoint, _membership, is_member


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
    if not np.isfinite(alpha):
        raise ValueError(f"branch angle must be finite, got {alpha!r}")
    alpha = float(np.mod(alpha, TWO_PI))
    rel = np.mod(np.angle(dec.eigenvalues) - alpha, TWO_PI)
    margin = float(np.min(np.minimum(rel, TWO_PI - rel)))
    if margin < BRANCH_MARGIN:
        raise BranchViolation(
            f"eigenvalue within {margin:.3e} of the branch point", margin=margin
        )
    theta = alpha + rel
    return theta, alpha, margin, int(round(float(np.sum(theta)) / TWO_PI))


def _spectrum(point: SpacePoint, alpha: float | None) -> tuple[EigenDecomposition, float]:
    """point's one eig_normal and the branch angle: alpha, or if None the cover witness's.

    classify reads the witness from the solve eig_normal has just kept.
    """
    dec = eig_normal(point.matrix)
    if alpha is None:
        config = default_cover(point.kind)
        alpha = float(np.angle(config.lambdas[classify(config, point).witness]))
    return dec, alpha


def branch_log(X, alpha: float) -> BranchLog:
    """Logarithm of a unitary X with eigenvalue angles in (alpha, alpha + 2 pi).

    Raises BranchViolation when some eigenvalue is closer than BRANCH_MARGIN
    to the branch point e^{i alpha}; that failure is exactly the signal that
    X lies outside the covering set avoiding e^{i alpha}.  A non-finite
    alpha raises ValueError.
    """
    return _branch_log(eig_normal(X), alpha)


def _branch_log(dec: EigenDecomposition, alpha: float) -> BranchLog:
    """branch_log of the matrix whose eig_normal is dec."""
    theta, alpha, margin, winding = _lift(dec, alpha)
    H = (dec.P * (1j * theta)) @ dec.P.conj().T
    H = (H - H.conj().T) / 2.0
    return BranchLog(H=H, alpha=alpha, winding=winding, margin=margin)


def _contraction(point: SpacePoint, alpha: float | None, steps: int) -> HomotopyPath:
    """contract's path, its samples a generator; the solve's and the log's errors come first."""
    dec, alpha = _spectrum(point, alpha)
    steps = _positive_int("steps", steps)
    kind = point.kind
    theta, alpha, _, winding = _lift(dec, alpha)
    angle_target = TWO_PI * winding / kind.ambient_size

    def samples() -> Iterator[PathSample]:
        report = is_member(kind, point.matrix)
        if not report.member:
            raise NotInSpace(f"source is not a member of {kind.family.value}({kind.n}) "
                             f"(residual {report.max_residual:.3e})")
        yield PathSample(s=0.0, point=point, residuals=report)
        P, Ph = dec.P, dec.P.conj().T
        for i in range(1, steps + 1):
            s = i / steps
            F = (P * np.exp(1j * ((1.0 - s) * theta + s * angle_target))) @ Ph
            report = _membership(kind, F)
            if report.max_residual > 100.0 * MEMBERSHIP_TOL:
                raise MembershipDrift(
                    f"path point at s={s:g} drifted out of the space "
                    f"(residual {report.max_residual:.3e})"
                )
            yield PathSample(s=s, point=SpacePoint(kind, F), residuals=report)

    return HomotopyPath(alpha, complex(np.exp(1j * angle_target)), samples())


def contract(point: SpacePoint, alpha: float | None = None, steps: int = 16) -> HomotopyPath:
    """Contract a member along the linear log path onto a scalar matrix.

    The logarithm is cut at alpha; None cuts it at the default cover's
    witness lambda_r, read from the point's one eigendecomposition, which
    keeps every eigenvalue at least pi/(2n) from the cut.  The target
    logarithm is (2 pi i k / m) E with m the ambient side.  It commutes
    with H = P diag(i theta) P*, so the sample at s is
    P diag(exp(i((1 - s) theta + s 2 pi k / m))) P*, formed on the same
    eigendecomposition.  The sample at s = 0 is the source itself, with
    its is_member report; a source that is_member rejects raises
    NotInSpace.  Every later sample carries the report is_member gives it,
    from the same residual kernel without is_member's input checks; past
    100 * MEMBERSHIP_TOL, or non-finite, it raises MembershipDrift, which
    indicates an implementation bug, since the path from a member provably
    stays inside the space.
    """
    path = _contraction(point, alpha, steps)
    return replace(path, samples=tuple(path.samples))
