"""Output checks against the paper's identities, in plain numpy.

Each check raises CheckFailed when an identity does not hold, and the
checks on matrices return the largest residual they saw.  Thresholds:

* MEMBERSHIP_TOL = 1e-9 is the library's membership gate and the acceptance
  suite's round-trip gate.  The runner counts and lists the ops whose
  residual exceeds it (per-layer check.over_tol_ratio); they are not
  failed ops, since the library's own gates for these outputs are wider.
* WRONG_TOL = 100 x MEMBERSHIP_TOL is the widest gate the library applies to
  its own results (MembershipDrift, RootProductFailure).  A residual above
  it raises CheckFailed, a wrong answer, as does any exact identity that
  fails.
* BRANCH_MARGIN = 1e-8 is the library's branch margin for the cover.
"""

from __future__ import annotations

import json

import numpy as np

from gen import structural_j

MEMBERSHIP_TOL = 1e-9
WRONG_TOL = 100 * MEMBERSHIP_TOL
BRANCH_MARGIN = 1e-8


class CheckFailed(Exception):
    """An op returned an answer that violates one of the identities."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _norm(a) -> float:
    return float(np.linalg.norm(a))


def matrix_from_record(doc: dict) -> np.ndarray:
    """Parse {"n": m, "entries": [[re, im], ...]} into an m x m complex array."""
    m = int(doc["n"])
    flat = np.asarray(doc["entries"], dtype=float)
    require(flat.shape == (m * m, 2), f"matrix record has shape {flat.shape}")
    return (flat[:, 0] + 1j * flat[:, 1]).reshape(m, m)


def membership_residual(family: str, X: np.ndarray) -> float:
    """Largest of the unitarity, determinant and symmetry residuals."""
    m = X.shape[0]
    unitarity = _norm(X @ X.conj().T - np.eye(m))
    determinant = float(abs(np.linalg.det(X) - 1.0))
    if family == "AI":
        symmetry = _norm(X.T - X)
    else:
        J = structural_j(m // 2)
        symmetry = _norm(X.T - J @ X @ J.T)
    return max(unitarity, determinant, symmetry)


def cover_lambdas(n: int) -> np.ndarray:
    """The default cover's avoided eigenvalues e^{i pi/(2n)} e^{2 pi i r/n}."""
    r = np.arange(1, n + 1)
    return np.exp(1j * (np.pi / (2 * n) + 2 * np.pi * r / n))


def check_classification(X: np.ndarray, n: int, witness: int) -> None:
    """The witness set avoids the spectrum and has the largest margin."""
    angles = np.angle(np.linalg.eigvals(X))
    diff = np.abs(np.mod(angles[:, None] - np.angle(cover_lambdas(n))[None, :] + np.pi,
                         2 * np.pi) - np.pi)
    margins = diff.min(axis=0)
    require(margins[witness] >= BRANCH_MARGIN, f"witness margin {margins[witness]:.3e}")
    require(margins[witness] >= margins.max() - BRANCH_MARGIN, "witness is not the widest set")


def check_path(family: str, X: np.ndarray, samples, target_scalar: complex) -> float:
    """Endpoints X and target_scalar E; every sample a member of the space."""
    m = X.shape[0]
    start = _norm(samples[0] - X)
    end = _norm(samples[-1] - target_scalar * np.eye(m))
    require(start <= WRONG_TOL, f"path starts {start:.3e} from the source")
    require(end <= WRONG_TOL, f"path ends {end:.3e} from the scalar target")
    worst = max(start, end)
    for F in samples:
        r = membership_residual(family, F)
        require(r <= WRONG_TOL, f"path sample residual {r:.3e}")
        worst = max(worst, r)
    return worst


def check_factor(family: str, X: np.ndarray, P: np.ndarray) -> float:
    """P special unitary and X = P tP (AI) or X = J P J tP (AII)."""
    m = X.shape[0]
    require(P.shape == X.shape, f"factor has shape {P.shape}")
    unitarity = _norm(P @ P.conj().T - np.eye(m))
    determinant = float(abs(np.linalg.det(P) - 1.0))
    if family == "AI":
        recon = _norm(X - P @ P.T)
    else:
        J = structural_j(m // 2)
        recon = _norm(X - J @ P @ J @ P.T)
    for name, r in (("unitarity", unitarity), ("det", determinant), ("reconstruction", recon)):
        require(r <= WRONG_TOL, f"factor {name} residual {r:.3e}")
    return max(unitarity, determinant, recon)


def check_factor_output(records: list[dict], stdout: str, code: int) -> float:
    """One {"P", "residual"} line per factored record, in input order.

    The CLI stops at the first record it cannot factor, so a non-zero exit
    leaves fewer lines than records; the lines it did write must still hold.
    """
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    expected = len(records) if code == 0 else None
    require(expected is None or len(lines) == expected, f"{len(lines)} lines for {expected} records")
    require(len(lines) <= len(records), "more output lines than records")
    worst = 0.0
    for rec, line in zip(records, lines):
        X = matrix_from_record(rec["matrix"])
        P = matrix_from_record(json.loads(line)["P"])
        worst = max(worst, check_factor(rec["family"], X, P))
    return worst


def check_cover_output(stdout: str, n: int, trials: int) -> None:
    """The audit covered every trial, and its witness margins clear the branch margin."""
    doc = json.loads(stdout)
    require(doc["trials"] == trials, f"audit ran {doc['trials']} trials")
    require(doc["covered_fraction"] == 1.0, f"covered fraction {doc['covered_fraction']}")
    require(len(doc["occupancy"]) == n, "occupancy has the wrong length")
    require(doc["min_witness_margin"] >= BRANCH_MARGIN, "witness margin below the branch margin")


def check_describe_output(stdout: str, family: str, n: int) -> None:
    """cat_lower == cat_upper == cat_exact == n - 1, with the family's dimension."""
    doc = json.loads(stdout)
    dimension = (n - 1) * (n + 2) // 2 if family == "AI" else (n - 1) * (2 * n + 1)
    require(doc["family"] == family and doc["params"] == [n], "wrong row")
    require(doc["dimension"] == dimension, f"dimension {doc['dimension']} != {dimension}")
    cats = (doc["cat_lower"], doc["cat_upper"], doc["cat_exact"])
    require(cats == (n - 1,) * 3, f"category bounds {cats} != {n - 1}")
