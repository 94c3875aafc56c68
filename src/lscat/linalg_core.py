"""Dense complex matrix kernels shared by the whole package.

Two operations carry all the analytic weight elsewhere: an
eigendecomposition for normal matrices (unitary and skew-Hermitian
inputs), from which every spectrum of a point is read, and the matrix
exponential of a skew-Hermitian matrix.

Everything is reduced to Hermitian eigensolves: a normal matrix splits into
commuting Hermitian parts, and a single solve of a generically weighted
combination recovers a joint eigenbasis.  The weight is drawn from a fixed
list of incommensurate constants, so results are deterministic and a
degenerate combination for one weight is broken by the next.

One loop over the weights solves a whole (T, m, m) stack: the first
weight takes every matrix, and each later weight retries only the
matrices the weight before it failed, gating X as near-unitary on request.
The cover's margins read a whole stack in the solver's order; eig_normal
and the branch logarithm sort the eigenpairs of a stack of one.

Matrices are plain numpy complex arrays; operations are pure and never
modify their inputs.  The gates are the fixed constants MEMBERSHIP_TOL,
CLUSTER_TOL and BRANCH_MARGIN.  Residual thresholds are relative to the
Frobenius norm of the input, falling back to absolute for zero input.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, NotNormal, NotSkewHermitian, NotUnitary

TWO_PI = 2.0 * np.pi

# Mixing weights for the generic-combination trick in _eig_stack.
# Irrational and pairwise incommensurate.
_MIX_WEIGHTS = (
    0.7853981633974483,   # pi/4
    1.618033988749895,    # golden ratio
    0.5772156649015329,   # Euler-Mascheroni
    2.302585092994046,    # ln 10
    0.36787944117144233,  # 1/e
    3.141592653589793,    # pi
)


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
    order.
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


def frobenius(a) -> float:
    return float(np.linalg.norm(a))


def _norms(a) -> np.ndarray:
    """Frobenius norm of each matrix of a stack: one product each, cheaper than an axis norm."""
    f = a.reshape(*a.shape[:-2], 1, a.shape[-2] * a.shape[-1])
    return np.sqrt((f.conj() @ f.swapaxes(-1, -2))[..., 0, 0].real)


def angular_distance(a, b):
    """Distance between angles on the circle, folded into [0, pi]."""
    return np.abs(np.mod(np.asarray(a) - b + np.pi, TWO_PI) - np.pi)


def cluster_angles(angles, tol: float) -> list[np.ndarray]:
    """Single-linkage clusters of angles on the circle, linking gaps <= tol.

    Returns index arrays into the input; the wrap-around gap links the first
    and last sorted groups.  Cluster order follows the sorted angles.
    """
    angles = np.asarray(angles, dtype=float)
    if angles.size == 0:
        return []
    order = np.argsort(angles, kind="stable")
    sorted_angles = angles[order]
    gaps = np.diff(sorted_angles)
    pieces = np.split(order, np.nonzero(gaps > tol)[0] + 1)
    if len(pieces) > 1 and TWO_PI - (sorted_angles[-1] - sorted_angles[0]) <= tol:
        pieces[0] = np.concatenate([pieces.pop(), pieces[0]])
    return pieces


def _sorted_basis(V, lam) -> tuple[np.ndarray, np.ndarray]:
    """One matrix's eigenpairs from _eig_stack, sorted into EigenDecomposition's order."""
    order = np.lexsort((lam.imag, np.angle(lam)))
    return V[:, order], lam[order]


def _eig_stack(X, unitary: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvectors and eigenvalues of each matrix of a (T, m, m) normal stack.

    Splits each X = H1 + i H2 with H1, H2 commuting Hermitian and solves
    the Hermitian problem for H1 + mu H2 with a generic weight mu; the
    joint eigenbasis diagonalizes X.  Eigenvalues are recovered as Rayleigh
    quotients and a matrix is accepted only after a residual check.  The
    first weight solves the whole stack; each later weight retries only
    the matrices that failed the weight before it.

    Returns (V, lam) with X[t] V[t] = V[t] diag(lam[t]), each row in the order
    of the mixed spectrum that accepted it; eigh keeps V unitary to working
    precision.  With unitary set, raises NotUnitary unless every ||X X* - E||
    is within 100 * MEMBERSHIP_TOL * max(||X||, 1), on the X X* the next gate
    reads; an overflowing X X* fails it quietly.  Raises NotNormal when some
    commutator residual exceeds 100 * MEMBERSHIP_TOL (relative), and
    NoConvergence when every weight fails the residual check for some matrix.
    """
    Xh = X.conj().swapaxes(1, 2)
    tol = 100.0 * MEMBERSHIP_TOL
    with np.errstate(over="ignore", invalid="ignore") if unitary else nullcontext():
        s = _norms(X)
        XXh = X @ Xh
        if unitary and not (_norms(XXh - np.eye(X.shape[-1])) <= tol * np.maximum(s, 1.0)).all():
            raise NotUnitary("matrix is not unitary")
    if (_norms(XXh - Xh @ X) > tol * s * s).any():
        raise NotNormal("matrix does not commute with its conjugate transpose")

    H1 = (X + Xh) / 2.0
    H2 = (X - Xh) / 2.0j
    rows = slice(None)  # the first weight takes the whole stack, without a gather
    V = lam = None
    for mu in _MIX_WEIGHTS:
        _, Vr = np.linalg.eigh(H1[rows] + mu * H2[rows])
        XVr = X[rows] @ Vr
        lr = np.einsum("tij,tij->tj", Vr.conj(), XVr)
        failed = _norms(XVr - Vr * lr[:, None, :]) > MEMBERSHIP_TOL * s[rows]
        if V is None:
            V, lam = Vr, lr
        else:
            V[rows], lam[rows] = Vr, lr
        rows = np.arange(len(X))[rows][failed]
        if rows.size == 0:
            return V, lam
    raise NoConvergence("no mixing weight separated the spectrum")


def eig_normal(X) -> EigenDecomposition:
    """Eigendecomposition of a normal matrix: the one-matrix _eig_stack, then _sorted_basis.

    Raises NotNormal and NoConvergence as _eig_stack does.
    """
    V, lam = _eig_stack(as_matrix(X)[None])
    return EigenDecomposition(*_sorted_basis(V[0], lam[0]))


def exp_skew_hermitian(H) -> np.ndarray:
    """Unitary exponential of a skew-Hermitian matrix.

    Diagonalizes -iH (Hermitian) and exponentiates the eigenvalues, so the
    result is unitary by construction up to roundoff.
    """
    H = as_matrix(H)
    if frobenius(H + H.conj().T) > 100.0 * MEMBERSHIP_TOL * (frobenius(H) or 1.0):
        raise NotSkewHermitian("matrix is not skew-Hermitian")
    w, V = np.linalg.eigh(-1j * H)
    return (V * np.exp(1j * w)) @ V.conj().T


def matrix_to_json(m) -> dict:
    """Serialize a square complex matrix as {"n":..., "entries":[[re,im],...]}."""
    m = as_matrix(m)
    entries = np.ascontiguousarray(m).view(float).reshape(-1, 2).tolist()
    return {"n": int(m.shape[0]), "entries": entries}


def _json_side(doc) -> int:
    """The field n of a JSON object record; ValueError unless an integer >= 1."""
    if not isinstance(doc, dict):
        raise ValueError("expected a JSON object")
    n = doc["n"]
    if type(n) is not int or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    return n


def matrix_from_json(doc: dict) -> np.ndarray:
    """Parse the matrix JSON format; ValueError unless it holds n*n [re, im] number pairs."""
    n = _json_side(doc)
    entries = doc["entries"]
    try:
        pairs = np.array(entries)
    except ValueError:  # ragged nesting
        pairs = np.empty(0)
    # np.array reads JSON booleans as 0 and 1, so only those entries can be one.
    if pairs.shape != (n * n, 2) or pairs.dtype.kind not in "iuf" or any(
        type(entries[k // 2][k % 2]) is bool for k in np.flatnonzero((pairs == 0) | (pairs == 1))
    ):
        raise ValueError(f"expected {n * n} [re, im] number pairs for side {n}")
    return as_matrix(pairs.astype(float, copy=False).view(complex).reshape(n, n))
