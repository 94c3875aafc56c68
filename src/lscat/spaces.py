"""Matrix models of the two quotient families.

A point of the symmetric family AI(n) is a transpose-symmetric special
unitary matrix in SU(n); a point of the twisted family AII(n) is a matrix
X in SU(2n) obeying tX = J X tJ for the structural block matrix J.
This module provides the membership predicates, J itself, and Haar
sampling through the transitive group actions.

The AII laws cut out two components, each a copy of SU(2n)/Sp(n): the two
congruence orbits that factor_skew tells apart.  Samples, and the paper's
space, lie in J's component; is_member accepts both (for odd n, E is in the
other).  A member whose branch logarithm winds k times is in J's exactly
when k + n is even.

J's block layout and sign live in _swap_halves alone: here and in
factorizations every product with J is a signed swap of a matrix's halves,
and the AII twin J X tJ is two such swaps.

Membership is one formula, _membership: the norms of X X* - E, of the symmetry
defect tX - twin and of det X - 1.  is_member applies it to outside input;
contract, multiplicity_audit, lscat check and the factorizations to what they hold.

Sampling is stacked, and reproduces the one-matrix draw bit for bit: one
draw forms a (c, m, m) array of points with stacked QR, determinant, phase
and products, at most 2^16 complex entries per array, so a long run holds
one chunk at a time.  Draws and path samples skip SpacePoint's scan (_made_point);
matrix_to_json and eig_normal still scan what they get, so lscat sample scans
each draw once, when it writes it.  point_from_json checks each record field
once: _field, then SpaceKind, _json_matrix (the format) and SpacePoint (the scan).
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
    _field,
    _int_at_least,
    _json_matrix,
    _positive_int,
    as_matrix,
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
        object.__setattr__(self, "family", Family(self.family))
        object.__setattr__(self, "n", _positive_int("n", self.n))

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

    Construction runs as_matrix's shape and finite checks, then the side check,
    but no law (run is_member); it is the one scan of a JSON record's matrix.
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


def _made_point(kind: SpaceKind, X: np.ndarray) -> SpacePoint:
    """SpacePoint(kind, X) without as_matrix's scan, for a finite complex128 X the library made."""
    point = object.__new__(SpacePoint)
    object.__setattr__(point, "kind", kind)
    object.__setattr__(point, "matrix", X)
    return point


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
    n = _positive_int("n", n)
    J = np.zeros((2 * n, 2 * n), dtype=complex)
    J[:n, n:] = -np.eye(n)
    J[n:, :n] = np.eye(n)
    return J


def _swap_halves(X, axis: int) -> np.ndarray:
    """[X2, -X1] of X's halves along axis -1 (X J) or -2 (tJ X); X may be a stack."""
    n, tail = X.shape[axis] // 2, (slice(None),) * (-1 - axis)
    return np.concatenate([X[(..., slice(n, None), *tail)], -X[(..., slice(n), *tail)]], axis)


def _membership(kind: SpaceKind, X) -> MembershipReport:
    """is_member's report of a complex square X of kind's side; a non-finite X reads inf."""
    twin = X if kind.family is Family.AI else _swap_halves(_swap_halves(X, -1), -2)  # J X tJ
    with np.errstate(over="ignore", invalid="ignore"):  # a nan is an overflow
        G = X @ X.conj().T
        G.reshape(-1)[:: len(X) + 1] -= 1.0  # X X* - E: matmul makes G C-ordered, so this is a view
        residuals = [float(np.linalg.norm(G)), float(abs(np.linalg.det(X) - 1.0)),
                     float(np.linalg.norm(X.T - twin))]
    residuals = [math.inf if math.isnan(r) else r for r in residuals]
    return MembershipReport(*residuals, max(residuals) <= MEMBERSHIP_TOL)


def is_member(kind: SpaceKind, X) -> MembershipReport:
    """Check the three membership laws and report individual residuals.

    Unitarity ||X X* - E||, determinant |det X - 1|, and the family's
    symmetry law: ||tX - X|| for AI, ||tX - J X tJ|| for AII.  The verdict
    is true when all residuals, inf where they overflow, are at most
    MEMBERSHIP_TOL.  For outside input: X passes SpacePoint(kind, X)'s checks
    (ValueError, DimensionMismatch), then _membership, which held points call directly.
    """
    return _membership(kind, SpacePoint(kind, X).matrix)


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
    is_member.  A chunk holds max(1, 2^16 // m^2) matrices.  J W is
    0.0 - tJ W, so its zeros are +0 as in the dense product.  The seed must
    be an integer >= 0, not a bool; None or any other value raises ValueError.
    """
    rng = np.random.default_rng(_int_at_least(0, "seed", seed))
    m = kind.ambient_size
    chunk = max(1, _CHUNK_ENTRIES // m**2)
    for start in range(0, count, chunk):
        P = _haar_stack(m, min(chunk, count - start), rng)
        if kind.family is Family.AI:
            yield P @ P.swapaxes(1, 2)
        else:
            yield 0.0 - _swap_halves(_swap_halves(P, -1) @ P.swapaxes(1, 2), -2)


def sample_points(kind: SpaceKind, count: int, seed: int) -> list[SpacePoint]:
    """Draw count points of the space, deterministically from the seed."""
    count = _positive_int("count", count)
    return [_made_point(kind, X) for stack in _member_stacks(kind, count, seed) for X in stack]


def sample(kind: SpaceKind, seed: int) -> SpacePoint:
    """Draw a single point; equals sample_points(kind, 1, seed)[0]."""
    return sample_points(kind, 1, seed)[0]


def point_to_json(point: SpacePoint) -> dict:
    return {
        "family": point.kind.family.value,
        "n": point.kind.n,
        "matrix": matrix_to_json(point.matrix),
    }


def point_from_json(doc: dict) -> SpacePoint:
    return SpacePoint(SpaceKind(_field(doc, "family"), _field(doc, "n")),
                      _json_matrix(_field(doc, "matrix")))
