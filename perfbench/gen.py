"""Seeded benchmark inputs, built with plain numpy and no lscat code.

Haar points come from this file's own QR sampler, so a change to the
library's sampler cannot change any workload's inputs.  Every matrix
written here is a member of its space by construction.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

# Sizes and pool lengths of the four workloads.  One pass over a pool is the
# unit the runner repeats, so every count per op is taken over whole pools.
CONTRACT_AI_N = 64    # AI(64): side 64
CONTRACT_AII_N = 32   # AII(32): side 64
CONTRACT_POOL = 8
FACTOR_AI_N = 32      # AI(32): side 32
FACTOR_AII_N = 16     # AII(16): side 32
FACTOR_POOL = 256
PM1_PROBE = 32        # AII(16) records with a +-1 skew pullback, factored once per run
COVER_POOL = 8
DESCRIBE_POOL = 8


def _rng(seed: int, stream: int) -> np.random.Generator:
    """One independent generator per workload; any integer seed is accepted."""
    return np.random.default_rng([seed % 2**64, stream])


def haar_su(m: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-uniform element of SU(m) from a phase-corrected Ginibre QR."""
    z = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    q = q * (d / np.abs(d))
    return q * np.exp(-1j * np.angle(np.linalg.det(q)) / m)


def haar_so(m: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-uniform element of SO(m) from a sign-corrected real Ginibre QR."""
    q, r = np.linalg.qr(rng.standard_normal((m, m)))
    q = q * np.sign(np.diagonal(r))
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    return q


def structural_j(n: int) -> np.ndarray:
    """The 2n x 2n block matrix [[0, -E], [E, 0]]."""
    J = np.zeros((2 * n, 2 * n), dtype=complex)
    J[:n, n:] = -np.eye(n)
    J[n:, :n] = np.eye(n)
    return J


def ai_point(n: int, rng: np.random.Generator) -> np.ndarray:
    """X = P tP for Haar P in SU(n)."""
    P = haar_su(n, rng)
    return P @ P.T


def aii_point(n: int, rng: np.random.Generator) -> np.ndarray:
    """X = J P J tP for Haar P in SU(2n)."""
    P = haar_su(2 * n, rng)
    J = structural_j(n)
    return J @ P @ J @ P.T


def aii_pm1_point(n: int, rng: np.random.Generator) -> np.ndarray:
    """An AII(n) member whose skew pullback tJ X has only the eigenvalues +-1.

    X = J B C J tC tB with B Haar in SO(2n) and C = diag(c, c), where
    c_k^2 = -i lam_k for lam_k in {1, -1} and prod c_k = 1, so P = B C lies
    in SU(2n).  The last lam fixes (-i)^n prod lam = 1, which needs even n.
    """
    if n % 2:
        raise ValueError("a +-1 pullback with det P = 1 needs even n")
    lam = rng.choice([1.0, -1.0], size=n)
    lam[-1] = (1j**n).real / np.prod(lam[:-1])
    c = np.sqrt(-1j * lam)
    if np.prod(c).real < 0.0:
        c[-1] = -c[-1]
    B = haar_so(2 * n, rng)
    C = np.diag(np.concatenate([c, c]))
    J = structural_j(n)
    return J @ B @ C @ J @ C.T @ B.T


def point_record(family: str, n: int, X: np.ndarray) -> dict:
    """The library's NDJSON point record, written without the library."""
    entries = [[float(z.real), float(z.imag)] for z in X.ravel()]
    return {"family": family, "n": n, "matrix": {"n": X.shape[0], "entries": entries}}


def contract_inputs(seed: int, pool: int = CONTRACT_POOL) -> dict:
    """Per op, one AI(64) and one AII(32) Haar point."""
    rng = _rng(seed, 1)
    ai = np.stack([ai_point(CONTRACT_AI_N, rng) for _ in range(pool)])
    aii = np.stack([aii_point(CONTRACT_AII_N, rng) for _ in range(pool)])
    return {"ai": ai, "aii": aii}


def factor_inputs(seed: int, pool: int = FACTOR_POOL) -> list[list[dict]]:
    """Per op, an AI(32) and an AII(16) Haar record."""
    rng = _rng(seed, 2)
    return [[point_record("AI", FACTOR_AI_N, ai_point(FACTOR_AI_N, rng)),
             point_record("AII", FACTOR_AII_N, aii_point(FACTOR_AII_N, rng))]
            for _ in range(pool)]


def pm1_inputs(seed: int, count: int = PM1_PROBE) -> np.ndarray:
    """AII(16) members with a +-1 skew pullback, for the pairing-defect probe."""
    rng = _rng(seed, 4)
    return np.stack([aii_pm1_point(FACTOR_AII_N, rng) for _ in range(count)])


def cover_inputs(seed: int, pool: int = COVER_POOL) -> list[int]:
    """Per op, the seed handed to both cover audits."""
    rng = _rng(seed, 3)
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=pool)]


def write_inputs(workload: str, seed: int, out: Path, pool: int | None = None) -> None:
    """Generate one workload's pool into the directory out."""
    out.mkdir(parents=True, exist_ok=True)
    size = {} if pool is None else {"pool": pool}
    if workload == "contract":
        arrays = contract_inputs(seed, **size)
        np.save(out / "ai.npy", arrays["ai"])
        np.save(out / "aii.npy", arrays["aii"])
    elif workload == "factor_cli":
        for i, records in enumerate(factor_inputs(seed, **size)):
            with open(out / f"op{i:04d}.ndjson", "w", encoding="utf-8") as fh:
                for rec in records:
                    fh.write(json.dumps(rec) + "\n")
        np.save(out / "pm1.npy", pm1_inputs(seed))
    elif workload == "cover_audit":
        (out / "seeds.json").write_text(json.dumps(cover_inputs(seed, **size)))
    elif workload == "describe":
        # The op is fixed (n = 13 for both families); only the pool length matters.
        (out / "pool.json").write_text(json.dumps(pool or DESCRIBE_POOL))
    else:
        raise ValueError(f"unknown workload {workload!r}")
