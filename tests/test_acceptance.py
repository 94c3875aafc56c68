"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import itertools
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from lscat.catbounds import (
    ClassicalFamily,
    GradedAlgebraSpec,
    ai_cohomology_generators,
    aii_cohomology_generators,
    cover_upper_bound,
    cup_length,
    describe,
)
from lscat.cli import run
from lscat.cover import classify, default_cover, multiplicity_audit
from lscat.errors import BranchViolation, ComponentObstruction
from lscat.factorizations import factor_aii, factor_skew, factor_symmetric
from lscat.homotopy import branch_log, contract
from lscat.spaces import (
    Family,
    SpaceKind,
    SpacePoint,
    haar_special_unitary,
    is_member,
    sample_points,
    structural_J,
)

GOLDEN = Path(__file__).parent / "data" / "table.csv"
TWO_PI = 2 * np.pi


def report(name: str, ok: bool):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}")
    assert ok


def test_criterion_1_table_reproduction(capsys):
    start = time.perf_counter()
    code = run(["table", "--format", "csv"])
    out = capsys.readouterr().out
    elapsed = time.perf_counter() - start
    golden = GOLDEN.read_text()
    rows = out.splitlines()[1:]
    ok = (
        code == 0
        and out == golden
        and len(rows) == 8
        and "?" in rows[3]
        and elapsed < 1.0
    )
    with capsys.disabled():
        report("criterion 1: table reproduction (golden file, runtime < 1 s)", ok)


def test_criterion_2_exact_category_consistency():
    ok = True
    for n in range(3, 9):
        ai = describe(ClassicalFamily.AI, n)
        aii = describe(ClassicalFamily.AII, n)
        lower_ai = cup_length(ai_cohomology_generators(n))
        lower_aii = cup_length(aii_cohomology_generators(n))
        upper = cover_upper_bound(n)
        ok &= ai.cat_exact == n - 1 and aii.cat_exact == n - 1
        ok &= lower_ai == upper == n - 1 and lower_aii == upper
        ok &= ai.cat_lower == ai.cat_upper == n - 1
        ok &= aii.cat_lower == aii.cat_upper == n - 1
    report("criterion 2: exact category n-1 from lower = upper, n in 3..8", ok)


def test_criterion_3_constructive_contraction_witness():
    start = time.perf_counter()
    ok = True
    for family in Family:
        for n in range(1, 6):
            kind = SpaceKind(family, n)
            config = default_cover(kind)
            m = kind.ambient_size
            covered = 0
            for pt in sample_points(kind, 100, seed=4000 + 10 * n):
                cls = classify(config, pt)
                covered += int(any(cls.memberships))
                alpha = float(np.mod(np.angle(config.lambdas[cls.witness]), TWO_PI))
                path = contract(pt, alpha, steps=16)
                ok &= np.linalg.norm(path.samples[0].point.matrix - pt.matrix) <= 1e-9
                last = path.samples[-1].point.matrix
                ok &= np.linalg.norm(last - path.target_scalar * np.eye(m)) <= 1e-9
                for s in path.samples:
                    ok &= s.residuals.max_residual <= 1e-8
                    ok &= s.residuals.determinant <= 1e-9
            ok &= covered == 100
    elapsed = time.perf_counter() - start
    ok &= elapsed < 30.0
    report(
        f"criterion 3: 100 samples/kind/n covered and contracted ({elapsed:.1f} s < 30 s)",
        ok,
    )


def _check_factor(ok, X, result, J=None):
    P = result.P
    m = P.shape[0]
    recon = P @ P.T if J is None else P @ J @ P.T
    ok &= np.linalg.norm(X - recon) <= 1e-9
    ok &= result.residual <= 1e-9
    ok &= np.linalg.norm(P @ P.conj().T - np.eye(m)) <= 1e-10
    ok &= abs(np.linalg.det(P) - 1.0) <= 1e-10
    return ok


def test_criterion_4_factorization_roundtrips():
    start = time.perf_counter()
    rng = np.random.default_rng(77)
    ok = True

    for i in range(200):
        n = 1 + i % 8
        Q = haar_special_unitary(n, rng)
        X = Q @ Q.T
        ok = _check_factor(ok, X, factor_symmetric(X))
    for i in range(200):
        n = 1 + i % 4
        J = structural_J(n)
        Q = haar_special_unitary(2 * n, rng)
        X = Q @ J @ Q.T
        ok = _check_factor(ok, X, factor_skew(X), J=J)
    for i in range(200):
        n = 1 + i % 4
        kind = SpaceKind.aii(n)
        pt = sample_points(kind, 1, seed=6000 + i)[0]
        res = factor_aii(pt)
        ok &= res.residual <= 1e-9
        P = res.P
        ok &= np.linalg.norm(P @ P.conj().T - np.eye(2 * n)) <= 1e-10
        ok &= abs(np.linalg.det(P) - 1.0) <= 1e-10

    # degenerate inputs, wherever they lie in the representable orbit
    for n in range(1, 9):
        ok = _check_factor(ok, np.eye(n), factor_symmetric(np.eye(n)))
        if n % 2 == 0:
            ok = _check_factor(ok, -np.eye(n), factor_symmetric(-np.eye(n)))
    for n in range(1, 5):
        J = structural_J(n)
        ok = _check_factor(ok, J, factor_skew(J), J=J)
        res = factor_aii(SpacePoint(SpaceKind.aii(n), -np.eye(2 * n)))
        ok &= res.residual <= 1e-9
        if n % 2 == 0:
            ok = _check_factor(ok, -J, factor_skew(-J), J=J)
            res = factor_aii(SpacePoint(SpaceKind.aii(n), np.eye(2 * n)))
            ok &= res.residual <= 1e-9
        else:
            # the remaining degenerate inputs sit in the orbit without a
            # special-unitary factor; the library reports that honestly
            with pytest.raises(ComponentObstruction):
                factor_skew(-J)
            with pytest.raises(ComponentObstruction):
                factor_aii(SpacePoint(SpaceKind.aii(n), np.eye(2 * n)))

    elapsed = time.perf_counter() - start
    ok &= elapsed < 20.0
    report(
        f"criterion 4: 600 factorization round trips + degenerate inputs ({elapsed:.1f} s < 20 s)",
        ok,
    )


def test_criterion_5_branch_log_contract():
    ok = True
    alpha0 = np.pi / 3

    # exp(log) identity and winding integrality over 1000 members
    points = []
    for family in Family:
        for n in (1, 2, 3):
            kind = SpaceKind(family, n)
            points.extend(sample_points(kind, 167, seed=5000 + n))
    points = points[:1000]
    assert len(points) == 1000
    for pt in points:
        bl = branch_log(pt.matrix, alpha0)
        ok &= np.linalg.norm(scipy.linalg.expm(bl.H) - pt.matrix) <= 1e-9
        tr = np.trace(bl.H)
        ok &= abs(tr.imag / TWO_PI - bl.winding) <= 1e-8

    # BranchViolation exactly when the classify margin is below the margin
    rng = np.random.default_rng(55)
    checked = 0
    for pt in points:
        config = default_cover(pt.kind)
        cls = classify(config, pt)
        r = int(rng.integers(pt.kind.n))
        alpha = float(np.mod(np.angle(config.lambdas[r]), TWO_PI))
        raised = False
        try:
            branch_log(pt.matrix, alpha)
        except BranchViolation:
            raised = True
        ok &= raised == (cls.margins[r] < 1e-8)
        ok &= cls.memberships[r] == (not raised)
        checked += 1
    ok &= checked >= 1000

    # boundary members force the violation side of the equivalence
    kind = SpaceKind.ai(3)
    config = default_cover(kind)
    lam = config.lambdas[2]
    boundary = SpacePoint(kind, np.diag([lam, np.conj(lam), 1.0 + 0j]))
    ok &= is_member(kind, boundary.matrix).member
    cls = classify(config, boundary)
    ok &= cls.memberships[2] is False
    try:
        branch_log(boundary.matrix, float(np.mod(np.angle(lam), TWO_PI)))
        ok = False
    except BranchViolation:
        pass
    report("criterion 5: exp/log identity, integral winding, violation iff margin", ok)


def test_criterion_6_even_multiplicities():
    ok = True
    audited = 0
    for n in range(1, 5):
        kind = SpaceKind.aii(n)
        for pt in sample_points(kind, 2500, seed=7000 + n):
            clusters = multiplicity_audit(pt)
            ok &= all(count % 2 == 0 for _, count in clusters)
            audited += 1
    ok &= audited == 10_000
    report("criterion 6: 10^4 twisted samples, all multiplicities even", ok)


def test_criterion_7_cup_length_oracle():
    ok = True
    for m in range(0, 7):
        spec = GradedAlgebraSpec(tuple(range(1, m + 1)))
        engine = cup_length(spec)
        brute = 0
        for length in range(1, m + 2):
            if any(
                len(set(seq)) == length
                for seq in itertools.product(range(m), repeat=length)
            ):
                brute = length
        ok &= engine == brute == m
    report("criterion 7: nilpotent-product engine equals brute force for m <= 6", ok)


def test_criterion_8_dimension_nine_improvement():
    d = describe(ClassicalFamily.AI, 4)
    ok = (
        d.dimension == 9
        and d.cat_exact == 3
        and d.cat_lower == 3
        and d.cat_upper == 3
    )
    report("criterion 8: AI n=4 row has dimension 9 and category 3", ok)
