"""Tests for the branch logarithm, winding indices, and contractions."""

import numpy as np
import pytest
import scipy.linalg

from lscat.errors import BranchViolation, NotUnitary
from lscat.homotopy import (
    InconsistentWinding,
    branch_log,
    contract,
    winding_of_component,
)
from lscat.linalg_core import exp_skew_hermitian
from lscat.spaces import Family, SpaceKind, SpacePoint, is_member, sample, sample_points


def test_branch_log_identity_at_pi():
    # the unique lift of angle 0 into (pi, 3 pi) is 2 pi, per eigenvalue
    bl = branch_log(np.eye(3), np.pi)
    assert np.allclose(bl.H, 2j * np.pi * np.eye(3), atol=1e-12)
    assert bl.winding == 3
    assert bl.margin == pytest.approx(np.pi)


def test_branch_log_diag_case():
    bl = branch_log(np.diag([1j, -1j]), 0.0)
    assert np.allclose(bl.H, np.diag([0.5j * np.pi, 1.5j * np.pi]), atol=1e-12)
    assert bl.winding == 1
    assert np.trace(bl.H) == pytest.approx(2j * np.pi, abs=1e-12)


def test_branch_log_negative_identity():
    bl = branch_log(-np.eye(2), 0.5 * np.pi)
    assert np.allclose(bl.H, 1j * np.pi * np.eye(2), atol=1e-12)
    assert bl.winding == 1


def test_branch_log_violation_and_margin():
    with pytest.raises(BranchViolation) as info:
        branch_log(np.eye(3), 0.0)
    assert info.value.margin == pytest.approx(0.0, abs=1e-15)
    near = np.diag([np.exp(1j * 5e-9), np.exp(-1j * 5e-9), 1.0 + 0j])
    with pytest.raises(BranchViolation):
        branch_log(near, 0.0)


def test_branch_log_rejects_nonunitary():
    with pytest.raises(NotUnitary):
        branch_log(2.0 * np.eye(2), np.pi)


def test_branch_log_rejects_non_finite_alpha():
    for alpha in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            branch_log(np.eye(2), alpha)


def test_branch_log_matches_principal_log_shifted():
    # at alpha = pi the lifts are the principal angles plus 2 pi
    pt = sample(SpaceKind.ai(4), seed=15)
    bl = branch_log(pt.matrix, np.pi)
    assert bl.margin > 1e-3
    principal = scipy.linalg.logm(pt.matrix)
    assert np.linalg.norm(bl.H - (principal + 2j * np.pi * np.eye(4))) < 1e-8


def test_exp_log_identity_and_winding_integrality():
    count = 0
    for family in Family:
        for n in (1, 2, 3):
            kind = SpaceKind(family, n)
            for pt in sample_points(kind, 170, seed=300 + n):
                bl = branch_log(pt.matrix, np.pi / 3)
                assert np.linalg.norm(exp_skew_hermitian(bl.H) - pt.matrix) <= 1e-9
                tr = np.trace(bl.H)
                assert abs(tr.imag / (2 * np.pi) - bl.winding) <= 1e-8
                assert abs(tr.real) <= 1e-8
                count += 1
    assert count >= 1000


def test_log_is_twist_equivariant():
    # tH = J H tJ holds for logs of AII members; tH = H for AI members
    from lscat.spaces import structural_J

    pt = sample(SpaceKind.aii(2), seed=21)
    bl = branch_log(pt.matrix, np.pi / 5)
    J = structural_J(2)
    assert np.linalg.norm(bl.H.T - J @ bl.H @ J.T) < 1e-10
    pt = sample(SpaceKind.ai(4), seed=22)
    bl = branch_log(pt.matrix, np.pi / 5)
    assert np.linalg.norm(bl.H.T - bl.H) < 1e-10


def test_contract_constant_path_identity():
    path = contract(SpacePoint(SpaceKind.ai(3), np.eye(3)), np.pi, steps=4)
    assert path.target_scalar == pytest.approx(1.0)
    for s in path.samples:
        assert np.allclose(s.point.matrix, np.eye(3), atol=1e-12)


def test_contract_midpoint_hand_case():
    path = contract(SpacePoint(SpaceKind.ai(2), np.diag([1j, -1j])), 0.0, steps=16)
    assert path.target_scalar == pytest.approx(-1.0)
    mid = path.samples[8]
    assert mid.s == pytest.approx(0.5)
    expected = np.diag([np.exp(0.75j * np.pi), np.exp(1.25j * np.pi)])
    assert np.allclose(mid.point.matrix, expected, atol=1e-12)
    last = path.samples[-1].point.matrix
    assert np.allclose(last, -np.eye(2), atol=1e-12)


def test_contract_aii_scalar_fixed_point():
    n = 3
    path = contract(SpacePoint(SpaceKind.aii(n), -np.eye(2 * n)), np.pi / 2, steps=4)
    assert path.target_scalar == pytest.approx(-1.0)
    for s in path.samples:
        assert np.allclose(s.point.matrix, -np.eye(2 * n), atol=1e-12)


def test_contract_endpoints_and_membership():
    for family in Family:
        kind = SpaceKind(family, 3)
        for seed in range(10):
            pt = sample(kind, seed=seed)
            path = contract(pt, np.pi / 7, steps=16)
            m = kind.ambient_size
            assert np.linalg.norm(path.samples[0].point.matrix - pt.matrix) <= 1e-9
            last = path.samples[-1].point.matrix
            assert np.linalg.norm(last - path.target_scalar * np.eye(m)) <= 1e-9
            for s in path.samples:
                assert s.residuals.member
                assert s.residuals.max_residual <= 1e-8
                assert s.residuals.determinant <= 1e-9


def test_contract_propagates_branch_violation():
    with pytest.raises(BranchViolation):
        contract(SpacePoint(SpaceKind.ai(2), np.eye(2)), 0.0)


def test_winding_of_component_agreement():
    assert winding_of_component([SpacePoint(SpaceKind.ai(3), np.eye(3))], np.pi) == 3
    pts = [
        SpacePoint(SpaceKind.ai(2), np.diag([1j, -1j])),
        SpacePoint(SpaceKind.ai(2), np.diag([-1j, 1j])),
    ]
    assert winding_of_component(pts, 0.0) == 1


def test_winding_of_component_propagates_violation():
    pts = [SpacePoint(SpaceKind.ai(2), np.diag([1j, -1j])),
           SpacePoint(SpaceKind.ai(2), np.eye(2))]
    with pytest.raises(BranchViolation):
        winding_of_component(pts, 0.0)


def test_winding_of_component_inconsistent():
    eps = 0.3
    low = np.diag(np.exp(1j * np.array([eps, eps, 2 * np.pi - 2 * eps])))
    high = np.diag(np.exp(1j * np.array([2 * np.pi - eps, 2 * np.pi - eps, 2 * eps])))
    pts = [SpacePoint(SpaceKind.ai(3), low), SpacePoint(SpaceKind.ai(3), high)]
    for p in pts:
        assert is_member(p.kind, p.matrix).member
    result = winding_of_component(pts, 0.0)
    assert isinstance(result, InconsistentWinding)
    assert result.values == (1, 2)
    with pytest.raises(ValueError):
        winding_of_component([], 0.0)
