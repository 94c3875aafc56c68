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
intermediate point stays inside the space, re-verified sample by sample.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import BranchViolation, MembershipDrift, NotInSpace
from .linalg_core import BRANCH_MARGIN, MEMBERSHIP_TOL, TWO_PI, EigenDecomposition, eig_normal
from .spaces import MembershipReport, SpacePoint, is_member


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
    """Sampled contraction from source to the scalar matrix target."""

    source: SpacePoint
    target_scalar: complex
    samples: tuple[PathSample, ...]


def _lift(dec: EigenDecomposition, alpha: float) -> tuple[np.ndarray, float, float]:
    """(theta, alpha mod 2 pi, margin) of X = P diag(e^{i theta}) P* for dec = eig_normal(X)."""
    if not np.isfinite(alpha):
        raise ValueError(f"branch angle must be finite, got {alpha!r}")
    alpha = float(np.mod(alpha, TWO_PI))
    rel = np.mod(np.angle(dec.eigenvalues) - alpha, TWO_PI)
    margin = float(np.min(np.minimum(rel, TWO_PI - rel)))
    if margin < BRANCH_MARGIN:
        raise BranchViolation(
            f"eigenvalue within {margin:.3e} of the branch point", margin=margin
        )
    return alpha + rel, alpha, margin


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
    theta, alpha, margin = _lift(dec, alpha)
    H = (dec.P * (1j * theta)) @ dec.P.conj().T
    H = (H - H.conj().T) / 2.0
    winding = int(round(float(np.trace(H).imag) / TWO_PI))
    return BranchLog(H=H, alpha=alpha, winding=winding, margin=margin)


def _contraction(
    point: SpacePoint, dec: EigenDecomposition, alpha: float, steps: int
) -> tuple[complex, Iterator[PathSample]]:
    """contract's target scalar and a generator of its samples, for dec = eig_normal(point.matrix).

    The logarithm is taken before returning, so its errors come first; the
    samples are formed and checked one at a time as they are drawn.
    """
    if steps < 1:
        raise ValueError("steps must be a positive integer")
    kind = point.kind
    theta, _, _ = _lift(dec, alpha)
    winding = int(round(float(np.sum(theta)) / TWO_PI))
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
            report = is_member(kind, F)
            if report.max_residual > 100.0 * MEMBERSHIP_TOL:
                raise MembershipDrift(
                    f"path point at s={s:g} drifted out of the space "
                    f"(residual {report.max_residual:.3e})"
                )
            yield PathSample(s=s, point=SpacePoint(kind, F), residuals=report)

    return complex(np.exp(1j * angle_target)), samples()


def contract(point: SpacePoint, alpha: float, steps: int = 16) -> HomotopyPath:
    """Contract a member along the linear log path onto a scalar matrix.

    The target logarithm is (2 pi i k / m) E with m the ambient side; for
    the symmetric family this is the scalar 2 pi i k / n and for the
    twisted family pi i k / n, both covered by the same formula.  The
    scalar target commutes with H = P diag(i theta) P*, so the sample at s
    is P diag(exp(i((1 - s) theta + s 2 pi k / m))) P*, formed on the
    logarithm's one eigendecomposition.  The sample at s = 0 is the source
    itself, with its is_member report; a source that is_member rejects
    raises NotInSpace.  Every later sample is re-checked at 100 *
    MEMBERSHIP_TOL, and MembershipDrift indicates an implementation bug,
    since the path from a member provably stays inside the space.
    """
    target_scalar, samples = _contraction(point, eig_normal(point.matrix), alpha, steps)
    return HomotopyPath(source=point, target_scalar=target_scalar, samples=tuple(samples))
