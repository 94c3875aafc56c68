"""Branch-restricted matrix logarithm and the explicit contracting paths.

For a unitary X with no eigenvalue at e^{i alpha}, the branch logarithm
lifts every eigenvalue angle into the open interval (alpha, alpha + 2 pi)
and returns the skew-Hermitian H = P diag(i theta) P*.  For special
unitary X the lifted angles sum to an integer multiple of 2 pi; that
integer is the winding index, constant on connected components of the
branch domain.

The contraction evaluates the linear path (1 - s) H + s (2 pi i k / m) E
inside the skew-Hermitian matrices (m is the ambient side) and exponentiates;
the endpoint is the scalar matrix exp(2 pi i k / m) E and every intermediate
point stays inside the space, which is re-verified sample by sample.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BranchViolation, MembershipDrift, NotUnitary
from .linalg_core import (
    BRANCH_MARGIN,
    MEMBERSHIP_TOL,
    TWO_PI,
    _near_unitary,
    as_matrix,
    eig_normal,
    exp_skew_hermitian,
)
from .spaces import MembershipReport, SpaceKind, SpacePoint, is_member


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

    kind: SpaceKind
    source: SpacePoint
    target_scalar: complex
    samples: tuple[PathSample, ...]


@dataclass(frozen=True)
class InconsistentWinding:
    """Distinct winding indices observed across the supplied points."""

    values: tuple[int, ...]


def branch_log(X, alpha: float) -> BranchLog:
    """Logarithm of a unitary X with eigenvalue angles in (alpha, alpha + 2 pi).

    Raises BranchViolation when some eigenvalue is closer than BRANCH_MARGIN
    to the branch point e^{i alpha}; that failure is exactly the signal that
    X lies outside the covering set avoiding e^{i alpha}.  A non-finite
    alpha raises ValueError.
    """
    if not np.isfinite(alpha):
        raise ValueError(f"branch angle must be finite, got {alpha!r}")
    X = as_matrix(X)
    if not _near_unitary(X):
        raise NotUnitary("branch logarithm is defined for unitary matrices only")
    alpha = float(np.mod(alpha, TWO_PI))
    dec = eig_normal(X)
    rel = np.mod(np.angle(dec.eigenvalues) - alpha, TWO_PI)
    margin = float(np.min(np.minimum(rel, TWO_PI - rel)))
    if margin < BRANCH_MARGIN:
        raise BranchViolation(
            f"eigenvalue within {margin:.3e} of the branch point", margin=margin
        )
    theta = alpha + rel
    H = (dec.P * (1j * theta)) @ dec.P.conj().T
    H = (H - H.conj().T) / 2.0
    winding = int(round(float(np.trace(H).imag) / TWO_PI))
    return BranchLog(H=H, alpha=alpha, winding=winding, margin=margin)


def contract(point: SpacePoint, alpha: float, steps: int = 16) -> HomotopyPath:
    """Contract a member along the linear log path onto a scalar matrix.

    The target logarithm is (2 pi i k / m) E with m the ambient side; for
    the symmetric family this is the scalar 2 pi i k / n and for the
    twisted family pi i k / n, both covered by the same formula.  Every
    sample is re-checked for membership; MembershipDrift indicates an
    implementation bug, since the path provably stays inside the space.
    """
    if steps < 1:
        raise ValueError("steps must be a positive integer")
    kind = point.kind
    m = kind.ambient_size
    bl = branch_log(point.matrix, alpha)
    log_target = TWO_PI * 1j * bl.winding / m
    target_scalar = complex(np.exp(log_target))
    E = np.eye(m)
    samples = []
    for i in range(steps + 1):
        s = i / steps
        A = (1.0 - s) * bl.H + s * log_target * E
        F = exp_skew_hermitian(A)
        report = is_member(kind, F)
        if report.max_residual > 100.0 * MEMBERSHIP_TOL:
            raise MembershipDrift(
                f"path point at s={s:g} drifted out of the space "
                f"(residual {report.max_residual:.3e})"
            )
        samples.append(PathSample(s=s, point=SpacePoint(kind, F), residuals=report))
    return HomotopyPath(
        kind=kind, source=point, target_scalar=target_scalar, samples=tuple(samples)
    )


def winding_of_component(points, alpha: float) -> int | InconsistentWinding:
    """Common winding index of the points at this branch, if they agree.

    Returns the shared integer, or InconsistentWinding listing the distinct
    values; disagreement means the points straddle different connected
    components of the covering set.
    """
    points = list(points)
    if not points:
        raise ValueError("winding_of_component needs at least one point")
    values = sorted({branch_log(p.matrix, alpha).winding for p in points})
    if len(values) == 1:
        return values[0]
    return InconsistentWinding(tuple(values))
