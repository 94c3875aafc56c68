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

Callers that need only the spectra of many unitary matrices (the cover's
margins) solve a whole (T, m, m) stack at once with the same gates, and
hand a matrix to the one-matrix solver only when the first weight fails
for it.

Matrices are plain numpy complex arrays; operations are pure and never
modify their inputs.  The gates are the fixed constants MEMBERSHIP_TOL,
CLUSTER_TOL and BRANCH_MARGIN.  Residual thresholds are relative to the
Frobenius norm of the input, falling back to absolute for zero input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, NotInSpace, NotNormal, NotSkewHermitian

TWO_PI = 2.0 * np.pi

# Mixing weights for the generic-combination trick in eig_normal.
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


def _scale(a) -> float:
    """Frobenius norm of the input, or 1 for the zero matrix."""
    nrm = frobenius(a)
    return nrm if nrm > 0.0 else 1.0


def _near_unitary(X) -> bool:
    """Whether ||X X* - E|| is within 100 MEMBERSHIP_TOL, relative to ||X||."""
    residual = frobenius(X @ X.conj().T - np.eye(X.shape[0]))
    return residual <= 100.0 * MEMBERSHIP_TOL * max(frobenius(X), 1.0)


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


def eig_normal(X) -> EigenDecomposition:
    """Eigendecomposition of a normal matrix via its Hermitian parts.

    Splits X = H1 + i H2 with H1, H2 commuting Hermitian and solves the
    Hermitian problem for H1 + mu H2 with a generic weight mu; the joint
    eigenbasis diagonalizes X.  Eigenvalues are recovered as Rayleigh
    quotients and the decomposition is accepted only after a residual
    check, retrying with the next weight on failure.

    Raises NotNormal when the commutator residual of X exceeds
    100 * MEMBERSHIP_TOL (relative), and NoConvergence when every weight
    fails the residual check.
    """
    X = as_matrix(X)
    s = _scale(X)
    Xh = X.conj().T
    if frobenius(X @ Xh - Xh @ X) > 100.0 * MEMBERSHIP_TOL * s * s:
        raise NotNormal("matrix does not commute with its conjugate transpose")

    H1 = (X + Xh) / 2.0
    H2 = (X - Xh) / 2.0j
    E = np.eye(X.shape[0])
    for mu in _MIX_WEIGHTS:
        _, V = np.linalg.eigh(H1 + mu * H2)
        lam = np.einsum("ij,ij->j", V.conj(), X @ V)
        order = np.lexsort((lam.imag, np.angle(lam)))
        V = V[:, order]
        lam = lam[order]
        if frobenius(X @ V - V * lam) <= MEMBERSHIP_TOL * s:
            if frobenius(V @ V.conj().T - E) > MEMBERSHIP_TOL:
                V, _ = np.linalg.qr(V)
            return EigenDecomposition(P=V, eigenvalues=lam)
    raise NoConvergence("no mixing weight separated the spectrum")


def _unitary_eigvals(X) -> np.ndarray:
    """Eigenvalues of each matrix of a (T, m, m) stack of unitary matrices.

    The stacked, eigenvalues-only form of eig_normal, with its gates per
    matrix: NotInSpace unless every matrix passes the near-unitary
    pre-check, NotNormal as in eig_normal, then one stacked Hermitian solve
    with the first mixing weight, Rayleigh quotients and the residual
    check.  A matrix that fails the check takes eig_normal's eigenvalues,
    retries included.  Returns a (T, m) array; the order within a row is
    unspecified.
    """
    Xh = X.conj().swapaxes(1, 2)
    XXh = X @ Xh
    s = np.linalg.norm(X, axis=(1, 2))
    if np.any(
        np.linalg.norm(XXh - np.eye(X.shape[1]), axis=(1, 2))
        > 100.0 * MEMBERSHIP_TOL * np.maximum(s, 1.0)
    ):
        raise NotInSpace("classification needs a unitary matrix")
    if np.any(np.linalg.norm(XXh - Xh @ X, axis=(1, 2)) > 100.0 * MEMBERSHIP_TOL * s * s):
        raise NotNormal("matrix does not commute with its conjugate transpose")
    _, V = np.linalg.eigh((X + Xh) / 2.0 + _MIX_WEIGHTS[0] * ((X - Xh) / 2.0j))
    XV = X @ V
    lam = np.einsum("tij,tij->tj", V.conj(), XV)
    residual = np.linalg.norm(XV - V * lam[:, None, :], axis=(1, 2))
    for t in np.flatnonzero(residual > MEMBERSHIP_TOL * s):
        lam[t] = eig_normal(X[t]).eigenvalues
    return lam


def exp_skew_hermitian(H) -> np.ndarray:
    """Unitary exponential of a skew-Hermitian matrix.

    Diagonalizes -iH (Hermitian) and exponentiates the eigenvalues, so the
    result is unitary by construction up to roundoff.
    """
    H = as_matrix(H)
    if frobenius(H + H.conj().T) > 100.0 * MEMBERSHIP_TOL * _scale(H):
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
