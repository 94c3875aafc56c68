"""Dense complex matrix kernels shared by the whole package.

One operation carries all the analytic weight elsewhere: the
eigendecomposition of unitary matrices, from which every spectrum of a
point, and every logarithm and path formed on it, is read.

It is reduced to Hermitian eigensolves: a unitary matrix splits into
commuting Hermitian parts, and a solve of a weighted combination recovers
a joint eigenbasis.  One solve of the fixed weight takes a whole
(T, m, m) stack, each matrix gated as near-unitary.  A stack whose every
matrix equals its transpose, as every sampled AI point does, has real
symmetric commuting parts Re X and Im X: its weighted combination is real,
so it is solved by a real eigh and its eigenbasis is real orthogonal, and
_spectral_product forms P diag(d) P* on such a basis as one real product.
The weight can fold two eigenvalues together, so a matrix failing its
residual check is solved again by its Cayley transform, Hermitian and
one-to-one on the spectrum, cut in the widest gap of the angles, in
complex arithmetic.  The cover audit's margins read a whole stack in the
solver's order.  Every one-matrix solve is eig_normal, which sorts the
eigenpairs and keeps the last matrix solved: the only carrier of a point's
decomposition.  classify, multiplicity_audit, branch_log, contract and
factor_symmetric share it, so any two of them on one point solve once.

Matrices are plain numpy complex arrays, save a real eigenbasis; operations
never modify their inputs.  The gates are the fixed constants MEMBERSHIP_TOL,
CLUSTER_TOL and BRANCH_MARGIN.  Residual thresholds are relative to the
Frobenius norm of the input, falling back to absolute for zero input.  Every
count the package takes (n, steps, trials, count) passes _positive_int, a
ValueError naming the value unless an integer >= 1; a seed must be >= 0.
A branch angle passes _finite_angle, a ValueError naming the value unless
a finite real number; the CLI applies these same rules to what it parses.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, NotUnitary

TWO_PI = 2.0 * np.pi

# Weight mu of the mixed Hermitian matrix H1 + mu H2 that _eig_stack solves.
_MIX_WEIGHT = 0.7853981633974483  # pi/4


#: Bound on the Frobenius-norm residual of each membership law.
MEMBERSHIP_TOL = 1e-9
#: Angular radius for grouping eigenvalues on the unit circle.
CLUSTER_TOL = 1e-6
#: Smallest angular distance an eigenvalue may have from a branch point.
BRANCH_MARGIN = 1e-8


@dataclass(frozen=True)
class EigenDecomposition:
    """Unitary eigenvector matrix P and eigenvalues with X = P D P*.

    Eigenvalues are sorted by ascending principal argument in (-pi, pi],
    ties broken by ascending imaginary part; P's columns follow the same
    order.  P is real orthogonal (float64) when X equals its transpose and
    the first solve passed its residual check, and complex otherwise.
    eig_normal returns both arrays read-only.
    """

    P: np.ndarray
    eigenvalues: np.ndarray


def as_matrix(x) -> np.ndarray:
    """Validate and normalize x into a square complex128 array."""
    a = np.asarray(x, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] < 1:
        raise ValueError("matrix side must be at least 1")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def _norms(a) -> np.ndarray:
    """Frobenius norm of each matrix of a stack: one product each, cheaper than an axis norm."""
    f = a.reshape(*a.shape[:-2], 1, a.shape[-2] * a.shape[-1])
    return np.sqrt((f.conj() @ f.swapaxes(-1, -2))[..., 0, 0].real)


def angular_distance(a, b):
    """Distance between angles on the circle, folded into [0, pi]."""
    return np.abs(np.mod(np.asarray(a) - b + np.pi, TWO_PI) - np.pi)


def _eig_stack(X) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvectors and eigenvalues of each matrix of a (T, m, m) unitary stack.

    Splits each X = H1 + i H2 into commuting Hermitian parts and solves
    H1 + mu H2 over the whole stack; the joint eigenbasis diagonalizes X.
    When every X equals its transpose, H1 = Re X and H2 = Im X, so the
    real symmetric Re X + mu Im X is solved instead, to a real V.
    Eigenvalues are Rayleigh quotients, accepted after a residual check.
    The weight folds the angles arctan(mu) +- delta onto one mixed
    eigenvalue, so a failing row is solved again by the Cayley transform,
    which folds nothing: with the cut e^{ic} in the widest gap of the
    angles from eigvals and Y = -e^{-ic} X, K = i (E + Y)^-1 (E - Y) is
    Hermitian and maps e^{i theta} one-to-one to tan((theta - c + pi)/2).

    Returns (V, lam) with X[t] V[t] = V[t] diag(lam[t]), V unitary to
    working precision; V is complex once a row is re-solved.  Raises
    NotUnitary unless every ||X X* - E|| is within
    100 * MEMBERSHIP_TOL * max(||X||, 1), which an overflow fails, and
    NoConvergence when a re-solved row fails the check, as a matrix too far
    from normal does.
    """
    Xh = X.conj().swapaxes(1, 2)
    E = np.eye(X.shape[-1])
    with np.errstate(over="ignore", invalid="ignore"):  # X is finite: a nan is an overflow
        s = _norms(X)
        if not (_norms(X @ Xh - E) / np.maximum(s, 1.0) <= 100.0 * MEMBERSHIP_TOL).all():
            raise NotUnitary("matrix is not unitary")

    if np.array_equal(X, X.swapaxes(1, 2)):  # the mixed matrix below is then this one, exactly
        V = np.linalg.eigh(X.real + _MIX_WEIGHT * X.imag)[1]
    else:
        V = np.linalg.eigh((X + Xh) / 2.0 + _MIX_WEIGHT * ((X - Xh) / 2.0j))[1]
    lam, r = _ritz(X, V)
    folded = np.flatnonzero(r > MEMBERSHIP_TOL * s)
    if folded.size:
        V = V.astype(complex, copy=False)
        Xf = X[folded]
        cut = _widest_gap_cut(np.angle(np.linalg.eigvals(Xf)))
        Y = -np.exp(-1j * cut)[:, None, None] * Xf
        K = 1j * np.linalg.solve(E + Y, E - Y)
        V[folded] = np.linalg.eigh(K)[1]  # reads the lower triangle of K
        lam[folded], r[folded] = _ritz(Xf, V[folded])
        if (r[folded] > MEMBERSHIP_TOL * s[folded]).any():
            raise NoConvergence("the Cayley re-solve failed the residual check")
    return V, lam


def _widest_gap_cut(angles) -> np.ndarray:
    """The middle of the widest gap of each row of m angles: at least pi/m from every angle."""
    wrapped = np.sort(np.mod(angles, TWO_PI), axis=-1)
    gaps = np.diff(wrapped, axis=-1, append=wrapped[..., :1] + TWO_PI)
    middles = wrapped + gaps / 2.0
    return np.take_along_axis(middles, np.argmax(gaps, axis=-1)[..., None], -1)[..., 0]


def _ritz(X, V) -> tuple[np.ndarray, np.ndarray]:
    """Rayleigh quotients of V's columns under X, and the residual ||X V - V diag(lam)||."""
    XV = X @ V
    lam = np.einsum("...ij,...ij->...j", V.conj(), XV)
    return lam, _norms(XV - V * lam[..., None, :])


def _spectral_product(P, d) -> np.ndarray:
    """P diag(d) P* for a square P and complex d: one real product on the float view if P is real."""
    if P.dtype.kind == "f":
        return (P @ np.multiply(d[:, None], P.T, order="C").view(float)).view(complex)
    return (P * d) @ P.conj().T


#: The bytes of the last matrix eig_normal solved, and its decomposition.
_kept: tuple[bytes, EigenDecomposition] | None = None


def eig_normal(X) -> EigenDecomposition:
    """Eigendecomposition of a unitary matrix: the one-matrix _eig_stack, sorted.

    A matrix with the bits of the last one solved (-0.0 is not 0.0) gets
    the kept decomposition, which is read-only, without a solve; the key is
    a copy, so writing into the caller's array cannot return a stale
    answer.  The old entry is dropped before a solve, one that raises keeps
    nothing, and the entry is swapped as one tuple, so a race between
    threads can only cause a miss.  Raises NotUnitary and NoConvergence as
    _eig_stack does.
    """
    global _kept
    X = as_matrix(X)
    key = X.tobytes()
    kept = _kept
    if kept is not None and kept[0] == key:
        return kept[1]
    _kept = None
    (V,), (lam,) = _eig_stack(X[None])
    order = np.lexsort((lam.imag, np.angle(lam)))
    dec = EigenDecomposition(V[:, order], lam[order])
    dec.P.flags.writeable = dec.eigenvalues.flags.writeable = False
    _kept = (key, dec)
    return dec


def matrix_to_json(m) -> dict:
    """Serialize a square complex matrix as {"n":..., "entries":[[re,im],...]}."""
    m = as_matrix(m)
    entries = np.ascontiguousarray(m).view(float).reshape(-1, 2).tolist()
    return {"n": int(m.shape[0]), "entries": entries}


def _field(doc, name: str):
    """doc[name]; ValueError unless doc is a JSON object, naming the field when doc lacks it."""
    if not isinstance(doc, dict):
        raise ValueError("expected a JSON object")
    if name not in doc:
        raise ValueError(f"record has no field {name!r}")
    return doc[name]


def _int_at_least(low: int, name: str, value) -> int:
    """value as an int; ValueError naming name and value unless an integer >= low, not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        word = "positive" if low else "non-negative"
        raise ValueError(f"{name} must be a {word} integer, got {value!r}")
    return int(value)


_positive_int = functools.partial(_int_at_least, 1)


def _finite_angle(value):
    """value unchanged; ValueError naming it unless a finite real number, not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise ValueError(f"branch angle must be a finite real number, got {value!r}")
    return value


def _json_matrix(doc) -> np.ndarray:
    """Matrix JSON as an n x n complex view; checks the format only, SpacePoint scans the entries."""
    n = _positive_int("n", _field(doc, "n"))
    entries = _field(doc, "entries")
    try:
        pairs = np.array(entries)
    except ValueError:  # ragged nesting
        pairs = np.empty(0)
    # np.array reads JSON booleans as 0 and 1, so only those entries can be one.
    if pairs.shape != (n * n, 2) or pairs.dtype.kind not in "iuf" or any(
        type(entries[k // 2][k % 2]) is bool for k in np.flatnonzero((pairs == 0) | (pairs == 1))
    ):
        raise ValueError(f"expected {n * n} [re, im] number pairs for side {n}")
    return pairs.astype(float, copy=False).view(complex).reshape(n, n)
