"""Tests for the branch logarithm, winding indices, and contractions."""

import numpy as np
import pytest
import scipy.linalg
import scipy.stats

from lscat.errors import BranchViolation, NotInSpace, NotUnitary
from lscat.homotopy import branch_log, contract
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
    # the contraction takes the same gate; its error is also a NotInSpace
    with pytest.raises(NotUnitary) as info:
        contract(SpacePoint(SpaceKind.ai(2), 2.0 * np.eye(2)), np.pi)
    assert isinstance(info.value, NotInSpace)


def test_contract_rejects_unitary_nonmember():
    # diag(i, i) is unitary and symmetric with det -1: the branch log exists,
    # and the re-formed source at s = 0 fails the laws of AI(2)
    point = SpacePoint(SpaceKind.ai(2), np.diag([1j, 1j]))
    with pytest.raises(NotInSpace, match=r"source is not a member of AI\(2\)"):
        contract(point, 0.3)


def test_contract_source_is_the_first_sample():
    # a unitary, det-1 rotation by 1e-8 fails is_member on its symmetry law
    # (2.8e-8), well inside the 100 * MEMBERSHIP_TOL drift bound of later samples
    rotated = SpacePoint(SpaceKind.ai(2), np.array([[1.0, -1e-8], [1e-8, 1.0]]))
    assert not is_member(rotated.kind, rotated.matrix).member
    with pytest.raises(NotInSpace, match=r"member of AI\(2\) \(residual 2.828e-08\)"):
        contract(rotated, 0.3)
    point = sample(SpaceKind.aii(2), seed=5)
    first = contract(point, 0.3, steps=4).samples[0]
    assert first.s == 0.0 and first.point is point
    assert first.residuals == is_member(point.kind, point.matrix)


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


def _unitary_symplectic(n, rng):
    # exp of [[A, -conj B], [B, conj A]], A skew-Hermitian, B symmetric
    g = rng.standard_normal((2, n, n)) + 1j * rng.standard_normal((2, n, n))
    A = (g[0] - g[0].conj().T) / 2.0
    B = (g[1] + g[1].T) / 2.0
    return scipy.linalg.expm(np.block([[A, -B.conj()], [B, A.conj()]]))


def _structured_phases(k, kind, rng):
    """k unit phases with the structure kind names; their product is 1."""
    values = {
        "pm1": lambda: rng.choice([1.0, -1.0], k),
        "pmi": lambda: rng.choice([1.0, -1.0, 1j, -1j], k),
        "cluster": lambda: rng.choice(np.exp(1j * rng.uniform(-np.pi, np.pi, 2)), k),
    }[kind]().astype(complex)
    values[-1] = 1.0 / np.prod(values[:-1])
    return values


def _contract_cases():
    """(point, alpha) pairs: Haar, scalar and structured-spectrum members."""
    rng = np.random.default_rng(71)
    for seed in range(2):
        for n in (1, 2, 3, 8, 32, 64):
            yield sample(SpaceKind.ai(n), seed=seed), np.pi / 7
        for n in (1, 2, 4, 16, 32):
            yield sample(SpaceKind.aii(n), seed=seed), 4.0
    for n in (1, 2, 3, 4):
        yield SpacePoint(SpaceKind.ai(n), np.eye(n)), np.pi / 2
        yield SpacePoint(SpaceKind.aii(n), np.eye(2 * n)), np.pi / 2
        yield SpacePoint(SpaceKind.aii(n), -np.eye(2 * n)), np.pi / 2
        if n % 2 == 0:
            yield SpacePoint(SpaceKind.ai(n), -np.eye(n)), np.pi / 2
    for kind in ("pm1", "pmi", "cluster"):
        for n in (2, 3, 8, 32):
            O = scipy.stats.special_ortho_group.rvs(2 * n, random_state=rng)
            X = (O * _structured_phases(2 * n, kind, rng)) @ O.T
            yield SpacePoint(SpaceKind.ai(2 * n), X), np.pi / 4
            # diag(d, d) commutes with J; conjugating by Sp(n) keeps tX = J X tJ
            U = _unitary_symplectic(n, rng)
            d = _structured_phases(n, kind, rng)
            X = (U * np.concatenate([d, d])) @ U.conj().T
            yield SpacePoint(SpaceKind.aii(n), X), np.pi / 4


def test_contract_samples_match_exponential_oracle():
    # each sample is exp((1 - s) H + s c E) with H = branch_log, c = 2 pi i k / m
    count = 0
    for point, alpha in _contract_cases():
        assert is_member(point.kind, point.matrix).member
        m = point.kind.ambient_size
        bl = branch_log(point.matrix, alpha)
        c = 2j * np.pi * bl.winding / m
        path = contract(point, alpha, steps=16)
        assert path.target_scalar == np.exp(c)
        for smp in path.samples:
            oracle = exp_skew_hermitian((1.0 - smp.s) * bl.H + smp.s * c * np.eye(m))
            assert np.linalg.norm(smp.point.matrix - oracle) <= 1e-11
        count += 1
    assert count == 60


def test_contract_makes_one_eigensolve(monkeypatch):
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(*args, **kwargs):
        calls.append(None)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    for kind in (SpaceKind.ai(16), SpaceKind.aii(8)):
        point = sample(kind, seed=5)
        calls.clear()
        contract(point, np.pi / 7, steps=16)
        assert len(calls) == 1


def test_contract_propagates_branch_violation():
    with pytest.raises(BranchViolation):
        contract(SpacePoint(SpaceKind.ai(2), np.eye(2)), 0.0)
    with pytest.raises(ValueError, match="steps"):
        contract(SpacePoint(SpaceKind.ai(2), np.eye(2)), np.pi, steps=0)


def test_branch_log_winding_agrees_within_a_component():
    # points of one component of the branch domain share a winding
    assert branch_log(np.eye(3), np.pi).winding == 3
    for X in (np.diag([1j, -1j]), np.diag([-1j, 1j])):
        assert branch_log(X, 0.0).winding == 1


def test_branch_log_winding_undefined_on_the_cut():
    # E has its eigenvalue on the cut, so it lies in no component
    with pytest.raises(BranchViolation):
        branch_log(np.eye(2), 0.0)


def test_branch_log_winding_differs_across_components():
    # low and high lie in different components at alpha = 0
    eps = 0.3
    low = np.diag(np.exp(1j * np.array([eps, eps, 2 * np.pi - 2 * eps])))
    high = np.diag(np.exp(1j * np.array([2 * np.pi - eps, 2 * np.pi - eps, 2 * eps])))
    for X in (low, high):
        assert is_member(SpaceKind.ai(3), X).member
    assert [branch_log(X, 0.0).winding for X in (low, high)] == [1, 2]
