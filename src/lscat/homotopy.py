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
from .linalg_core import (
    BRANCH_MARGIN,
    MEMBERSHIP_TOL,
    TWO_PI,
    _eig_stack,
    _sorted_basis,
    as_matrix,
)
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


def _lift(X, alpha: float) -> tuple[np.ndarray, np.ndarray, float, float]:
    """(P, theta, alpha mod 2 pi, margin) of X = P diag(e^{i theta}) P*, as eig_normal finds P."""
    if not np.isfinite(alpha):
        raise ValueError(f"branch angle must be finite, got {alpha!r}")
    V, lam = _eig_stack(as_matrix(X)[None], unitary=True)
    P, lam = _sorted_basis(V[0], lam[0])
    alpha = float(np.mod(alpha, TWO_PI))
    rel = np.mod(np.angle(lam) - alpha, TWO_PI)
    margin = float(np.min(np.minimum(rel, TWO_PI - rel)))
    if margin < BRANCH_MARGIN:
        raise BranchViolation(
            f"eigenvalue within {margin:.3e} of the branch point", margin=margin
        )
    return P, alpha + rel, alpha, margin


def branch_log(X, alpha: float) -> BranchLog:
    """Logarithm of a unitary X with eigenvalue angles in (alpha, alpha + 2 pi).

    Raises BranchViolation when some eigenvalue is closer than BRANCH_MARGIN
    to the branch point e^{i alpha}; that failure is exactly the signal that
    X lies outside the covering set avoiding e^{i alpha}.  A non-finite
    alpha raises ValueError.
    """
    P, theta, alpha, margin = _lift(X, alpha)
    H = (P * (1j * theta)) @ P.conj().T
    H = (H - H.conj().T) / 2.0
    winding = int(round(float(np.trace(H).imag) / TWO_PI))
    return BranchLog(H=H, alpha=alpha, winding=winding, margin=margin)


def _contraction(
    point: SpacePoint, alpha: float, steps: int
) -> tuple[complex, Iterator[PathSample]]:
    """The target scalar of contract and a generator of its samples.

    The logarithm is taken before returning, so its errors come first; the
    samples are formed and checked one at a time as they are drawn.
    """
    if steps < 1:
        raise ValueError("steps must be a positive integer")
    kind = point.kind
    P, theta, _, _ = _lift(point.matrix, alpha)
    winding = int(round(float(np.sum(theta)) / TWO_PI))
    angle_target = TWO_PI * winding / kind.ambient_size

    def samples() -> Iterator[PathSample]:
        Ph = P.conj().T
        for i in range(steps + 1):
            s = i / steps
            F = (P * np.exp(1j * ((1.0 - s) * theta + s * angle_target))) @ Ph
            report = is_member(kind, F)
            if report.max_residual > 100.0 * MEMBERSHIP_TOL:
                if i == 0:  # the source re-formed: the input is not a member
                    raise NotInSpace(f"source is not a member of {kind.family.value}({kind.n}) "
                                     f"(residual {report.max_residual:.3e})")
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
    logarithm's one eigendecomposition.  Every sample is re-checked for
    membership: at s = 0, the source itself, a failure raises NotInSpace;
    later, MembershipDrift indicates an implementation bug, since the path
    from a member provably stays inside the space.
    """
    target_scalar, samples = _contraction(point, alpha, steps)
    return HomotopyPath(source=point, target_scalar=target_scalar, samples=tuple(samples))

