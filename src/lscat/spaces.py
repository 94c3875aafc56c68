"""Matrix models of the two quotient families.

A point of the symmetric family AI(n) is a transpose-symmetric special
unitary matrix in SU(n); a point of the twisted family AII(n) is a matrix
X in SU(2n) obeying tX = J X tJ for the structural block matrix J.
This module provides the membership predicates, J itself, and Haar
sampling through the transitive group actions.

Sampling is stacked: one draw forms a (c, m, m) array of points with
stacked QR, determinant, phase and products, at most 2^16 complex entries
per array, so a long run holds one chunk at a time.  It reproduces the
one-matrix draw bit for bit.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DimensionMismatch
from .linalg_core import (
    MEMBERSHIP_TOL,
    _json_side,
    as_matrix,
    frobenius,
    matrix_from_json,
    matrix_to_json,
)


class Family(str, Enum):
    AI = "AI"
    AII = "AII"


@dataclass(frozen=True)
class SpaceKind:
    """Tagged descriptor selecting the family and its parameter n.

    AI(n) lives in SU(n); AII(n) lives in SU(2n), so the ambient matrix
    side is n or 2n respectively.
    """

    family: Family
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be a positive integer")

    @property
    def ambient_size(self) -> int:
        return self.n if self.family is Family.AI else 2 * self.n

    @classmethod
    def ai(cls, n: int) -> "SpaceKind":
        return cls(Family.AI, n)

    @classmethod
    def aii(cls, n: int) -> "SpaceKind":
        return cls(Family.AII, n)


@dataclass(frozen=True)
class SpacePoint:
    """A kind together with an ambient matrix of the matching side.

    Construction checks only the dimension; run is_member for the laws.
    """

    kind: SpaceKind
    matrix: np.ndarray

    def __post_init__(self):
        m = as_matrix(self.matrix)
        if m.shape[0] != self.kind.ambient_size:
            raise DimensionMismatch(
                f"{self.kind.family.value}({self.kind.n}) needs side "
                f"{self.kind.ambient_size}, got {m.shape[0]}"
            )
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True)
class MembershipReport:
    """Per-law residuals and the resulting verdict."""

    unitarity: float
    determinant: float
    symmetry: float
    member: bool

    @property
    def max_residual(self) -> float:
        return max(self.unitarity, self.determinant, self.symmetry)


def structural_J(n: int) -> np.ndarray:
    """The 2n x 2n block matrix with -E in the upper right, E lower left.

    Satisfies J tJ = E, J^2 = -E and det(J) = 1.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    J = np.zeros((2 * n, 2 * n), dtype=complex)
    J[:n, n:] = -np.eye(n)
    J[n:, :n] = np.eye(n)
    return J


def _law_residuals(X, twin) -> tuple[float, ...]:
    """||X X* - E||, |det X - 1| and ||tX - twin|| of a finite X; inf where they overflow."""
    with np.errstate(over="ignore", invalid="ignore"):  # X is finite: a nan is an overflow
        r = (frobenius(X @ X.conj().T - np.eye(len(X))), float(abs(np.linalg.det(X) - 1.0)),
             frobenius(X.T - twin))
    return tuple(math.inf if math.isnan(x) else x for x in r)


def is_member(kind: SpaceKind, X) -> MembershipReport:
    """Check the three membership laws and report individual residuals.

    Unitarity ||X X* - E||, determinant |det X - 1|, and the family's
    symmetry law: ||tX - X|| for AI, ||tX - J X tJ|| for AII.  The verdict
    is true when all residuals, inf where they overflow, are at most MEMBERSHIP_TOL.
    """
    X = as_matrix(X)
    m = kind.ambient_size
    if X.shape[0] != m:
        raise DimensionMismatch(f"expected side {m}, got {X.shape[0]}")
    if kind.family is Family.AI:
        twin = X
    else:
        n = kind.n  # J X tJ is the signed block swap [[X22, -X21], [-X12, X11]]
        XJ = np.concatenate([X[:, n:], -X[:, :n]], axis=1)
        twin = np.concatenate([XJ[n:], -XJ[:n]])
    residuals = _law_residuals(X, twin)
    return MembershipReport(*residuals, max(residuals) <= MEMBERSHIP_TOL)


#: Complex entries per array of one stacked draw.
_CHUNK_ENTRIES = 2**16


def _haar_stack(m: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Draw count Haar-uniform elements of SU(m) as a (count, m, m) stack.

    QR of complex Ginibre matrices with the R-diagonal phases folded into
    Q gives Haar on U(m) (Mezzadri, Notices AMS 2007); dividing by an m-th
    root of the determinant lands in SU(m).  The draw takes the generator's
    stream in the order of count one-matrix draws, and the stacked QR,
    determinant and products round as the one-matrix calls do.  The root's
    phase divides the real angle by m before forming the complex number:
    numpy divides a complex scalar by m but multiplies a complex array by
    1/m, and only the real division rounds as the scalar path does.
    """
    g = rng.standard_normal((count, 2, m, m))
    z = (g[:, 0] + 1j * g[:, 1]) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=1, axis2=2)
    q = q * (d / np.abs(d))[:, None, :]
    phases = np.exp(-1j * (np.angle(np.linalg.det(q)) / m))
    return q * phases[:, None, None]


def haar_special_unitary(m: int, rng: np.random.Generator) -> np.ndarray:
    """Draw a Haar-uniform element of SU(m), the one-matrix stacked draw."""
    return _haar_stack(m, 1, rng)[0]


def _member_stacks(kind: SpaceKind, count: int, seed: int) -> Iterator[np.ndarray]:
    """The count points of sample_points as (c, m, m) stacks, one chunk at a time.

    AI: X = P tP and AII: X = J (P J tP) for Haar P; both formulas push the
    Haar measure through the transitive action, so every output passes
    is_member.  A chunk holds max(1, 2^16 // m^2) matrices.  J enters as
    signed block swaps, P J = [P2, -P1] and J W = [-W2; W1]; 0.0 - and
    + 0.0 keep the signed zeros of the dense products.
    """
    rng = np.random.default_rng(seed)
    m, n = kind.ambient_size, kind.n
    chunk = max(1, _CHUNK_ENTRIES // m**2)
    for start in range(0, count, chunk):
        P = _haar_stack(m, min(chunk, count - start), rng)
        if kind.family is Family.AI:
            yield P @ P.swapaxes(1, 2)
        else:
            W = np.concatenate([P[..., n:], -P[..., :n]], axis=2) @ P.swapaxes(1, 2)
            yield np.concatenate([0.0 - W[:, n:], W[:, :n] + 0.0], axis=1)


def sample_points(kind: SpaceKind, count: int, seed: int) -> list[SpacePoint]:
    """Draw count points of the space, deterministically from the seed."""
    return [SpacePoint(kind, X) for stack in _member_stacks(kind, count, seed) for X in stack]


def sample(kind: SpaceKind, seed: int) -> SpacePoint:
    """Draw a single point; equals sample_points(kind, 1, seed)[0]."""
    return sample_points(kind, 1, seed)[0]


def point_to_json(point: SpacePoint) -> dict:
    return {
        "family": point.kind.family.value,
        "n": int(point.kind.n),
        "matrix": matrix_to_json(point.matrix),
    }


def point_from_json(doc: dict) -> SpacePoint:
    kind = SpaceKind(Family(doc["family"]), _json_side(doc))
    return SpacePoint(kind, matrix_from_json(doc["matrix"]))
