"""Eigenvalue-avoidance covers of the two families.

The cover for parameter n consists of the n open sets
A_r = { members X : lambda_r is not an eigenvalue of X }, where
lambda_r = e^{i pi/(2n)} e^{2 pi i r/n}, r = 1..n; a kind fixes its cover.
The lambdas are equally spaced and certify both non-unit-product
conditions at once: the plain product is +-i (symmetric family) and the
squared product is -1 (twisted family), so no member can have all the
lambdas as eigenvalues and the A_r cover the space.  The same products
give a floor: every member keeps some lambda_r at least pi/(2n) from its
spectrum, so the witness's branch logarithm cannot meet BRANCH_MARGIN
while pi/(2n) > BRANCH_MARGIN.  The audit reports that floor as
margin_floor and gates every sampled witness margin against it.

Classification needs only the eigenvalue angles of a point.  One function
of the angles gives the margins of a whole stack of spectra, and the audit
draws, solves and classifies its samples as (c, m, m) stacks of at most
2^16 complex entries per array, so its memory does not grow with the
number of trials.  The eigensolver forms the spectra of a whole stack in
one solve and gates each matrix as near-unitary, raising NotUnitary.
classify and multiplicity_audit read eig_normal's sorted spectrum; a margin
is a minimum over the spectrum, so the sort changes none, and the audit
splits clusters along that order, with no second sort, summing each
cluster's mean in it.  default_cover is memoized: a kind's lambdas are
formed once, and every call for that kind returns the same config.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, NoConvergence, NotInSpace, OddMultiplicity
from .linalg_core import (
    BRANCH_MARGIN,
    CLUSTER_TOL,
    MEMBERSHIP_TOL,
    TWO_PI,
    _eig_stack,
    _positive_int,
    angular_distance,
    eig_normal,
)
from .spaces import Family, SpaceKind, SpacePoint, _member_stacks, _membership


@dataclass(frozen=True)
class CoverConfig:
    """The cover of kind, with its avoided eigenvalues lambda_1, ..., lambda_n."""

    kind: SpaceKind
    lambdas: tuple[complex, ...] = field(init=False)

    def __post_init__(self):
        n = self.kind.n
        lambdas = tuple(
            complex(np.exp(1j * (np.pi / (2 * n) + 2 * np.pi * r / n)))
            for r in range(1, n + 1)
        )
        object.__setattr__(self, "lambdas", lambdas)


@dataclass(frozen=True)
class CoverClassification:
    """Per-set membership, angular margins, and the recommended set index."""

    memberships: tuple[bool, ...]
    margins: tuple[float, ...]
    witness: int


@dataclass(frozen=True)
class CoverAuditReport:
    trials: int
    covered_fraction: float
    occupancy: tuple[int, ...]
    min_witness_margin: float
    margin_floor: float


@functools.lru_cache(maxsize=16)
def default_cover(kind: SpaceKind) -> CoverConfig:
    """The cover of kind, one shared config per kind."""
    return CoverConfig(kind)


def classify(config: CoverConfig, point: SpacePoint) -> CoverClassification:
    """Angular margins of the spectrum against each avoided eigenvalue.

    memberships[r] holds when the margin is at least BRANCH_MARGIN; the
    witness is the lowest index whose margin is within MEMBERSHIP_TOL of
    the largest; this is the only place a witness is chosen.  Works for any
    unitary of the right side, member or not, so impossibility certificates
    can be classified too.
    """
    if point.kind != config.kind:
        raise DimensionMismatch(
            f"point kind {point.kind} does not match cover kind {config.kind}"
        )
    (row,) = _margins(config, np.angle(eig_normal(point.matrix).eigenvalues)[None])
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
    eigenvector by J yields an independent one).  A cluster is a
    single-linkage group of angles at radius CLUSTER_TOL, linked across the
    cut at pi, reported as the normalized mean of its eigenvalues in
    sorted-angle order and its size; chained distinct eigenvalues form one.
    Every cluster is even exactly when one neighbour matching of the sorted
    angles, (0, 1), (2, 3), ... or (1, 2), ..., (2n - 1, 0), pairs each
    within CLUSTER_TOL; OddMultiplicity is raised otherwise.
    """
    if point.kind.family is not Family.AII:
        raise DimensionMismatch("multiplicity audit applies to AII points")
    report = _membership(point.kind, point.matrix)
    if not report.member:
        raise NotInSpace(
            f"input fails the membership laws (max residual {report.max_residual:.3e})"
        )
    eig = eig_normal(point.matrix).eigenvalues
    angles = np.angle(eig)  # ascending: eig_normal's order
    clusters = np.split(eig, np.nonzero(np.diff(angles) > CLUSTER_TOL)[0] + 1)
    if len(clusters) > 1 and TWO_PI - (angles[-1] - angles[0]) <= CLUSTER_TOL:
        clusters[0] = np.concatenate([clusters.pop(), clusters[0]])  # linked across the cut
    out = []
    for cluster in clusters:
        if len(cluster) % 2:
            raise OddMultiplicity(f"eigenvalue cluster of odd size {len(cluster)} found")
        rep = complex(np.mean(cluster))
        rep /= abs(rep)
        out.append((rep, int(len(cluster))))
    return out


def cover_audit(kind: SpaceKind, trials: int, seed: int) -> CoverAuditReport:
    """Sample members and classify each against the default cover.

    Reports how many samples landed in each set, the smallest witness
    margin observed and the floor pi/(2n) that the lambdas' product puts
    under it.  Raises NoConvergence when a witness margin falls below the
    floor by more than 10 MEMBERSHIP_TOL, the slack left for the
    eigensolver's angle error; past that gate every sample lies in some
    set (n < 7.8e7), so covered_fraction is 1.0.
    """
    trials = _positive_int("trials", trials)
    config = default_cover(kind)
    occupancy = np.zeros(kind.n, dtype=int)
    min_witness_margin = np.inf
    for stack in _member_stacks(kind, trials, seed):
        margins = _margins(config, np.angle(_eig_stack(stack)[1]))
        occupancy += (margins >= BRANCH_MARGIN).sum(axis=0)
        min_witness_margin = min(min_witness_margin, float(margins.max(axis=1).min()))
    margin_floor = np.pi / (2 * kind.n)
    if min_witness_margin < margin_floor - 10.0 * MEMBERSHIP_TOL:
        raise NoConvergence(
            f"witness margin {min_witness_margin:.3e} is below the floor {margin_floor:.3e}"
        )
    return CoverAuditReport(
        trials=trials,
        covered_fraction=1.0,
        occupancy=tuple(int(count) for count in occupancy),
        min_witness_margin=min_witness_margin,
        margin_floor=margin_floor,
    )
