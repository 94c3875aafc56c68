"""Tests for the eigenvalue-avoidance cover, classification, and audits."""

import json
import tracemalloc

import numpy as np
import pytest

from lscat.cli import run
from lscat.cover import (
    classify,
    cover_audit,
    default_cover,
    multiplicity_audit,
)
from lscat.errors import BranchViolation, DimensionMismatch, NoConvergence, NotInSpace
from lscat.homotopy import branch_log, contract
from lscat.linalg_core import MEMBERSHIP_TOL
from lscat.spaces import (
    Family,
    SpaceKind,
    SpacePoint,
    is_member,
    point_to_json,
    sample,
    sample_points,
)

TWO_PI = 2 * np.pi


def diagonal_aii_member(halves):
    """AII member diag(w, w) for unit-modulus halves with product +-1."""
    w = np.asarray(halves, dtype=complex)
    return SpacePoint(SpaceKind.aii(len(w)), np.diag(np.concatenate([w, w])))


def test_default_cover_small_values():
    cfg = default_cover(SpaceKind.ai(1))
    assert cfg.lambdas == (pytest.approx(1j),)
    assert cfg.certificate == pytest.approx(1j)
    cfg = default_cover(SpaceKind.aii(2))
    assert np.allclose(cfg.lambdas, [np.exp(1.25j * np.pi), np.exp(0.25j * np.pi)])
    assert cfg.certificate == pytest.approx(-1.0)


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("family", list(Family))
def test_default_cover_certificate_properties(family, n):
    cfg = default_cover(SpaceKind(family, n))
    lam = np.array(cfg.lambdas)
    assert np.max(np.abs(np.abs(lam) - 1.0)) <= 1e-12
    # pairwise distinct with angular gaps of 2 pi / n
    angles = np.sort(np.mod(np.angle(lam), TWO_PI))
    if n > 1:
        assert np.min(np.diff(angles)) > 1e-6
    assert abs(cfg.certificate) == pytest.approx(1.0)
    assert abs(cfg.certificate - 1.0) >= 0.5
    if family is Family.AII:
        assert cfg.certificate == pytest.approx(-1.0)


def test_classify_identity_margins():
    kind = SpaceKind.ai(3)
    cls = classify(default_cover(kind), SpacePoint(kind, np.eye(3)))
    assert cls.memberships == (True, True, True)
    expected = (5 * np.pi / 6, np.pi / 2, np.pi / 6)
    assert cls.margins == pytest.approx(expected)
    assert cls.witness == 0


def test_classify_impossibility_certificate():
    # doubled avoided eigenvalues give det = -1: not a member, yet the
    # classification itself still works and reports every set missed
    kind = SpaceKind.aii(2)
    cfg = default_cover(kind)
    pt = diagonal_aii_member(cfg.lambdas)
    rep = is_member(kind, pt.matrix)
    assert not rep.member
    assert rep.determinant >= 1.0
    cls = classify(cfg, pt)
    assert cls.memberships == (False, False)
    assert max(cls.margins) < 1e-12


def test_classify_random_member_is_covered():
    for seed in range(20):
        pt = sample(SpaceKind.aii(2), seed=seed)
        cls = classify(default_cover(pt.kind), pt)
        assert any(cls.memberships)


def test_classify_kind_mismatch_and_nonunitary():
    cfg = default_cover(SpaceKind.ai(2))
    with pytest.raises(DimensionMismatch):
        classify(cfg, SpacePoint(SpaceKind.aii(2), np.eye(4)))
    with pytest.raises(NotInSpace):
        classify(cfg, SpacePoint(SpaceKind.ai(2), 2.0 * np.eye(2)))


def test_classify_consistency_with_branch_log():
    # memberships[r] true  <=> branch_log succeeds at arg(lambda_r)
    kind = SpaceKind.ai(3)
    cfg = default_cover(kind)
    boundary = SpacePoint(
        kind, np.diag([cfg.lambdas[1], np.conj(cfg.lambdas[1]), 1.0 + 0j])
    )
    assert is_member(kind, boundary.matrix).member
    cls = classify(cfg, boundary)
    assert cls.memberships[1] is False
    for r, ok in enumerate(cls.memberships):
        alpha = float(np.mod(np.angle(cfg.lambdas[r]), TWO_PI))
        if ok:
            branch_log(boundary.matrix, alpha)
        else:
            with pytest.raises(BranchViolation):
                branch_log(boundary.matrix, alpha)


def test_multiplicity_audit_scalar_cases():
    for n in (1, 2, 3):
        out = multiplicity_audit(SpacePoint(SpaceKind.aii(n), np.eye(2 * n)))
        assert out == [(pytest.approx(1.0 + 0j), 2 * n)]
        out = multiplicity_audit(SpacePoint(SpaceKind.aii(n), -np.eye(2 * n)))
        assert out == [(pytest.approx(-1.0 + 0j), 2 * n)]


def test_multiplicity_audit_generic_sample():
    out = multiplicity_audit(sample(SpaceKind.aii(2), seed=11))
    assert [c for _, c in out] == [2, 2]
    assert all(count % 2 == 0 for _, count in out)


def test_multiplicity_audit_prescribed_spectrum():
    # halves with product 1 give a diagonal member with three doubled pairs
    pt = diagonal_aii_member([1j, -1j, 1.0])
    out = multiplicity_audit(pt)
    assert sorted(c for _, c in out) == [2, 2, 2]


def test_multiplicity_audit_rejects_nonmember():
    from lscat.spaces import structural_J

    with pytest.raises(NotInSpace):
        multiplicity_audit(SpacePoint(SpaceKind.aii(2), structural_J(2)))
    with pytest.raises(DimensionMismatch):
        multiplicity_audit(SpacePoint(SpaceKind.ai(2), np.eye(2)))
    # an undoubled diagonal unitary has det 1 but breaks the twist law
    X = np.diag(np.exp(1j * np.array([0.2, 0.9, -1.1, -0.2, -0.9, 1.1])))
    with pytest.raises(NotInSpace):
        multiplicity_audit(SpacePoint(SpaceKind.aii(3), X))


def test_multiplicity_audit_chained_cluster_is_no_convergence():
    # 13 doubled eigenvalues 0.9e-6 apart: single linkage chains them into
    # one cluster of even size whose spread exceeds 10 CLUSTER_TOL
    pt = diagonal_aii_member(np.exp(1j * (np.arange(13) - 6) * 0.9e-6))
    assert is_member(pt.kind, pt.matrix).member
    with pytest.raises(NoConvergence, match="cluster spread"):
        multiplicity_audit(pt)


def test_cover_audit_full_coverage():
    report = cover_audit(SpaceKind.ai(3), trials=500, seed=2)
    assert report.covered_fraction == 1.0
    assert report.min_witness_margin > 0.0
    assert len(report.occupancy) == 3
    report = cover_audit(SpaceKind.aii(2), trials=500, seed=3)
    assert report.covered_fraction == 1.0
    # every audited sample also has even multiplicities
    for pt in sample_points(SpaceKind.aii(2), 100, seed=3):
        assert all(c % 2 == 0 for _, c in multiplicity_audit(pt))


def test_cover_audit_one_point_space():
    report = cover_audit(SpaceKind.ai(1), trials=50, seed=4)
    assert report.covered_fraction == 1.0
    assert report.occupancy == (50,)
    with pytest.raises(ValueError, match="trials"):
        cover_audit(SpaceKind.ai(1), 0, 4)


@pytest.mark.parametrize(
    "kind, trials",
    # 300 trials at side 16 cross the 256-matrix chunk of the stacked audit
    [(SpaceKind.ai(16), 300), (SpaceKind.aii(8), 300), (SpaceKind.ai(1), 50),
     (SpaceKind.aii(2), 50)],
)
def test_cover_audit_equals_classify_loop(kind, trials):
    config = default_cover(kind)
    classes = [classify(config, p) for p in sample_points(kind, trials, seed=4)]
    report = cover_audit(kind, trials, seed=4)
    assert report.covered_fraction == sum(any(c.memberships) for c in classes) / trials
    assert report.occupancy == tuple(
        sum(c.memberships[r] for c in classes) for r in range(kind.n)
    )
    assert report.min_witness_margin == min(c.margins[c.witness] for c in classes)


def test_cover_audit_memory_is_flat():
    # the audit holds one chunk of at most 4096 samples at side 4, not every
    # sample: ten times the trials at most adds the rest of that chunk
    # (about 2x the peak), where holding every sample costs 5x
    peaks = []
    for trials in (2000, 20000):
        tracemalloc.start()
        try:
            cover_audit(SpaceKind.ai(4), trials, seed=3)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 3 * peaks[0]


@pytest.mark.parametrize("n", [1, 2, 3, 7, 16])
@pytest.mark.parametrize("family", list(Family))
def test_cover_audit_passes_the_margin_floor_gate(capsys, family, n):
    report = cover_audit(SpaceKind(family, n), trials=200, seed=n)
    assert report.margin_floor == np.pi / (2 * n)
    assert report.min_witness_margin >= report.margin_floor - 10 * MEMBERSHIP_TOL
    # the CLI prints the floor after the smallest witness margin
    argv = ["cover", "--space", family.value.lower(), "--n", str(n), "--trials", "200",
            "--seed", str(n)]
    assert run(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert list(doc)[-2:] == ["min_witness_margin", "margin_floor"]
    assert doc["min_witness_margin"] == report.min_witness_margin
    assert doc["margin_floor"] == report.margin_floor


@pytest.mark.parametrize("below, raises", [(5e-9, False), (2e-8, True), (np.pi / 12, True)])
def test_cover_audit_gates_margins_below_the_floor(monkeypatch, below, raises):
    # each eigenvalue sits pi/(2n) - below past its own lambda_r, so every margin
    # is pi/(2n) - below: each set still clears BRANCH_MARGIN and the fraction
    # stays 1.0, but the gate allows only 10 MEMBERSHIP_TOL under the floor
    n = 3
    kind = SpaceKind.ai(n)
    spectrum = np.array(default_cover(kind).lambdas) * np.exp(1j * (np.pi / (2 * n) - below))
    monkeypatch.setattr(
        "lscat.cover._eig_stack",
        lambda stack: (None, np.broadcast_to(spectrum, (len(stack), n))),
    )
    if raises:
        with pytest.raises(NoConvergence, match="below the floor"):
            cover_audit(kind, trials=10, seed=1)
    else:
        report = cover_audit(kind, trials=10, seed=1)
        assert report.covered_fraction == 1.0
        assert report.min_witness_margin == pytest.approx(np.pi / (2 * n) - below, abs=1e-15)


@pytest.mark.parametrize("n", [2, 3, 4, 6, 7, 10])
def test_extremal_points_sit_on_the_margin_floor(capsys, tmp_path, n):
    # Some lambda_r of the default cover is at least pi/(2n) from every
    # eigenvalue of a member, and these points attain that floor.
    floor = np.pi / (2 * n)
    r = np.arange(n)
    ai = np.exp(1j * np.pi * (2 * r if n % 2 else 2 * r + 1) / n)
    D = np.exp(2j * np.pi * r / n)
    O, _ = np.linalg.qr(np.random.default_rng(n).standard_normal((n, n)))
    points = [
        SpacePoint(SpaceKind.ai(n), np.diag(ai)),
        SpacePoint(SpaceKind.ai(n), (O * ai) @ O.T),
        SpacePoint(SpaceKind.aii(n), np.diag(np.concatenate([D, D]))),
    ]
    path = tmp_path / "extremal.ndjson"
    path.write_text("".join(json.dumps(point_to_json(p)) + "\n" for p in points))
    for point in points:
        assert is_member(point.kind, point.matrix).member
        config = default_cover(point.kind)
        cls = classify(config, point)
        assert abs(cls.margins[cls.witness] - floor) < 1e-12
        assert cls.witness == 0
        alpha = float(np.angle(config.lambdas[cls.witness]))
        assert abs(branch_log(point.matrix, alpha).margin - floor) < 1e-12
    assert run(["contract", "--alpha-from-cover", "--steps", "4", "--input", str(path)]) == 0
    assert capsys.readouterr().out.count("\n") == len(points)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 13])
@pytest.mark.parametrize("family", list(Family))
def test_one_set_witnesses(family, n):
    # Every set of the default cover is needed: the member with every
    # lambda_s, s != r, as an eigenvalue and mu = conj(prod_{s != r} lambda_s)
    # (so det 1) lies in A_r alone, since mu = -+i lambda_r is pi/2 from lambda_r.
    config = default_cover(SpaceKind(family, n))
    rng = np.random.default_rng(n)
    for r in range(n):
        others = [lam for s, lam in enumerate(config.lambdas) if s != r]
        spectrum = np.array(others + [np.conj(np.prod(others))])
        if family is Family.AI:
            O, _ = np.linalg.qr(rng.standard_normal((n, n)))
            X = (O * spectrum) @ O.T
        else:
            # Kramers pairs diag(D, D), conjugated by the real orthogonal
            # Q = [[A, -B], [B, A]] of a unitary A + iB, which commutes with J
            U, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
            Q = np.block([[U.real, -U.imag], [U.imag, U.real]])
            X = (Q * np.concatenate([spectrum, spectrum])) @ Q.T
        point = SpacePoint(config.kind, X)
        assert is_member(point.kind, X).member
        cls = classify(config, point)
        assert cls.memberships == tuple(s == r for s in range(n))
        assert cls.witness == r
        assert contract(point, steps=1).alpha == np.mod(np.angle(config.lambdas[r]), TWO_PI)
