"""Eigenvalue-avoidance covers of the two families.

The cover for parameter n consists of the n open sets
A_r = { members X : lambda_r is not an eigenvalue of X } for unit-modulus
lambda_1, ..., lambda_n.  The default choice lambda_r = e^{i pi/(2n)}
e^{2 pi i r/n} keeps the lambdas equally spaced and certifies both
non-unit-product conditions at once: the plain product is +-i (symmetric
family) and the squared product is -1 (twisted family), so no member can
have all the lambdas as eigenvalues and the A_r cover the space.  The
same products give a floor: every member keeps some lambda_r at least
pi/(2n) from its spectrum, so the witness's branch logarithm cannot meet
BRANCH_MARGIN while pi/(2n) > BRANCH_MARGIN.  The audit reports that floor
as margin_floor and gates every sampled witness margin against it.

Classification needs only the eigenvalue angles of a point.  One function
of the angles gives the margins of a whole stack of spectra, and the audit
draws, solves and classifies its samples as (c, m, m) stacks of at most
2^16 complex entries per array, so its memory does not grow with the
number of trials.  The eigensolver forms the spectra of a whole stack in
one solve and gates each matrix as near-unitary, raising NotUnitary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NoConvergence, NotInSpace, OddMultiplicity
from .linalg_core import (
    BRANCH_MARGIN,
    CLUSTER_TOL,
    MEMBERSHIP_TOL,
    _eig_stack,
    angular_distance,
    cluster_angles,
)
from .spaces import Family, SpaceKind, SpacePoint, _member_stacks, is_member


@dataclass(frozen=True)
class CoverConfig:
    """Avoided eigenvalues and the non-unit-product certificate."""

    kind: SpaceKind
    lambdas: tuple[complex, ...]
    certificate: complex


@dataclass(frozen=True)
class CoverClassification:
    """Per-set membership, angular margins, and the recommended set index."""

    memberships: tuple[bool, ...]
    margins: tuple[float, ...]
    witness: int


@dataclass(frozen=True)
class CoverAuditReport:
    kind: SpaceKind
    trials: int
    covered_fraction: float
    occupancy: tuple[int, ...]
    min_witness_margin: float
    margin_floor: float


def default_cover(kind: SpaceKind) -> CoverConfig:
    """The standard cover lambda_r = e^{i pi/(2n)} e^{2 pi i r/n}, r = 1..n."""
    n = kind.n
    lambdas = tuple(
        complex(np.exp(1j * (np.pi / (2 * n) + 2 * np.pi * r / n)))
        for r in range(1, n + 1)
    )
    product = complex(np.prod(np.array(lambdas)))
    certificate = product if kind.family is Family.AI else product**2
    return CoverConfig(kind=kind, lambdas=lambdas, certificate=certificate)


def classify(config: CoverConfig, point: SpacePoint) -> CoverClassification:
    """Angular margins of the spectrum against each avoided eigenvalue.

    memberships[r] holds when the margin is at least BRANCH_MARGIN; the
    witness is the lowest index whose margin is within MEMBERSHIP_TOL of
    the largest.  Works for any unitary of the right side, member or not,
    so impossibility certificates can be classified too.
    """
    if point.kind != config.kind:
        raise DimensionMismatch(
            f"point kind {point.kind} does not match cover kind {config.kind}"
        )
    return _classify_angles(config, np.angle(_eig_stack(point.matrix[None])[1][0]))


def _classify_angles(config: CoverConfig, angles: np.ndarray) -> CoverClassification:
    """classify on one point's eigenvalue angles: the only place a witness is chosen."""
    (row,) = _margins(config, angles[None])
    margins = tuple(float(margin) for margin in row)
    memberships = tuple(margin >= BRANCH_MARGIN for margin in margins)
    witness = int(np.argmax(row >= row.max() - MEMBERSHIP_TOL))
    return CoverClassification(memberships=memberships, margins=margins, witness=witness)


def _margins(config: CoverConfig, angles: np.ndarray) -> np.ndarray:
    """(T, n) margins of each (T, m) row of eigenvalue angles against each lambda."""
    distances = angular_distance(angles[:, :, None], np.angle(np.array(config.lambdas)))
    return np.min(distances, axis=1)


def multiplicity_audit(point: SpacePoint) -> list[tuple[complex, int]]:
    """Clustered spectrum of a twisted-family member with multiplicities.

    Every eigenvalue of an AII member has even multiplicity (conjugating an
    eigenvector by J yields an independent one).  Raises NoConvergence when
    single linkage chains distinct eigenvalues into one cluster wider than
    10 CLUSTER_TOL, and OddMultiplicity when a cluster has odd size.
    """
    if point.kind.family is not Family.AII:
        raise DimensionMismatch("multiplicity audit applies to AII points")
    report = is_member(point.kind, point.matrix)
    if not report.member:
        raise NotInSpace(
            f"input fails the membership laws (max residual {report.max_residual:.3e})"
        )
    eig = _eig_stack(point.matrix[None])[1][0]
    angles = np.angle(eig)
    out = []
    for cluster in cluster_angles(angles, CLUSTER_TOL):
        spread = float(np.max(angular_distance(angles[cluster][:, None], angles[cluster])))
        if spread > 10.0 * CLUSTER_TOL:
            raise NoConvergence(
                f"cluster spread {spread:.3e} exceeds 10x CLUSTER_TOL"
            )
        if len(cluster) % 2:
            raise OddMultiplicity(
                f"eigenvalue cluster of odd size {len(cluster)} found"
            )
        rep = complex(np.mean(eig[cluster]))
        rep /= abs(rep)
        out.append((rep, int(len(cluster))))
    return out


def cover_audit(kind: SpaceKind, trials: int, seed: int) -> CoverAuditReport:
    """Sample members and classify each against the default cover.

    Reports the covered fraction (provably 1.0; anything less is a bug),
    how many samples landed in each set, the smallest witness margin
    observed and the floor pi/(2n) that the product certificate puts under
    it.  Raises NoConvergence when a witness margin falls below the floor
    by more than 10 MEMBERSHIP_TOL, the slack left for the eigensolver's
    angle error.
    """
    if trials < 1:
        raise ValueError("trials must be a positive integer")
    config = default_cover(kind)
    occupancy = np.zeros(kind.n, dtype=int)
    covered = 0
    min_witness_margin = np.inf
    for stack in _member_stacks(kind, trials, seed):
        margins = _margins(config, np.angle(_eig_stack(stack)[1]))
        hits = margins >= BRANCH_MARGIN
        covered += int(np.count_nonzero(hits.any(axis=1)))
        occupancy += hits.sum(axis=0)
        min_witness_margin = min(min_witness_margin, float(margins.max(axis=1).min()))
    margin_floor = np.pi / (2 * kind.n)
    if min_witness_margin < margin_floor - 10.0 * MEMBERSHIP_TOL:
        raise NoConvergence(
            f"witness margin {min_witness_margin:.3e} is below the floor {margin_floor:.3e}"
        )
    return CoverAuditReport(
        kind=kind,
        trials=trials,
        covered_fraction=covered / trials,
        occupancy=tuple(int(count) for count in occupancy),
        min_witness_margin=min_witness_margin,
        margin_floor=margin_floor,
    )
