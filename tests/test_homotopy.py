"""Tests for the branch logarithm, winding indices, and contractions."""

import json

import numpy as np
import pytest
import scipy.linalg
import scipy.stats

from lscat import linalg_core
from lscat.cli import run
from lscat.cover import classify, default_cover
from lscat.errors import BranchViolation, MembershipDrift, NotInSpace, NotUnitary
from lscat.homotopy import _branch_angle, _lift, branch_log, contract
from lscat.linalg_core import MEMBERSHIP_TOL, EigenDecomposition, eig_normal
from lscat.spaces import (Family, SpaceKind, SpacePoint, is_member, point_to_json, sample,
                          sample_points)


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
    for alpha in (np.nan, np.inf, -np.inf, True, "0.3", None):
        with pytest.raises(ValueError, match="finite") as info:
            branch_log(np.eye(2), alpha)
        assert str(info.value).endswith(f"got {alpha!r}")
    with pytest.raises(ValueError, match="finite real number, got True"):
        contract(sample(SpaceKind.ai(3), seed=1), True)


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
                assert np.linalg.norm(scipy.linalg.expm(bl.H) - pt.matrix) <= 1e-9
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
            oracle = scipy.linalg.expm((1.0 - smp.s) * bl.H + smp.s * c * np.eye(m))
            assert np.linalg.norm(smp.point.matrix - oracle) <= 1e-11
        count += 1
    assert count == 60


def test_contract_samples_carry_is_member_reports():
    # each sample's residuals bound is_member's, law by law, with its verdict;
    # the source's report is is_member's own
    for point, alpha in _contract_cases():
        samples = contract(point, alpha, steps=8).samples
        assert samples[0].residuals == is_member(point.kind, point.matrix)
        for smp in samples:
            measured = is_member(point.kind, smp.point.matrix)
            assert measured.member == smp.residuals.member
            for law in ("unitarity", "determinant", "symmetry"):
                assert getattr(measured, law) <= getattr(smp.residuals, law)


@pytest.mark.parametrize("kind", [SpaceKind.ai(3), SpaceKind.aii(2)], ids=["AI3", "AII2"])
def test_a_drifting_path_raises_membership_drift(monkeypatch, capsys, tmp_path, kind):
    # eig_normal keeps the point's solve with P scaled by 1 + 1e-6, so every
    # sample past the source has residuals near 1e-5, past 100 * MEMBERSHIP_TOL
    point = sample(kind, seed=9)
    dec = eig_normal(point.matrix)
    drifted = EigenDecomposition(dec.P * (1.0 + 1e-6), dec.eigenvalues)
    monkeypatch.setattr(linalg_core, "_kept", (point.matrix.tobytes(), drifted))
    with pytest.raises(MembershipDrift, match=r"path point at s=0\.25 drifted out of the space"):
        contract(point, steps=4)
    record = tmp_path / "point.ndjson"
    record.write_text(json.dumps(point_to_json(point)) + "\n")
    assert run(["contract", "--alpha-from-cover", "--steps", "4", "--input", str(record)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: path point at s=0.25 drifted out of the space (residual ")


def _mixed(point, angle):
    """point's eig_normal with two columns mixed by [[cos, i sin], [i sin, cos]] of angle.

    The columns are those of the lowest and highest lifted angle at the
    witness; the mix breaks tP P = E.
    """
    dec, alpha = eig_normal(point.matrix), _branch_angle(point, None)
    theta = _lift(dec, alpha)[0]
    i, j = np.argmin(theta), np.argmax(theta)
    c, s = np.cos(angle), 1j * np.sin(angle)
    V = np.eye(point.kind.ambient_size, dtype=complex)
    V[[i, i, j, j], [i, j, i, j]] = c, s, s, c
    return EigenDecomposition(dec.P @ V, dec.eigenvalues)


@pytest.mark.parametrize("kind", [SpaceKind.ai(4), SpaceKind.aii(3)], ids=["AI4", "AII3"])
def test_a_perturbed_basis_stays_within_its_bound(monkeypatch, kind):
    # eig_normal keeps the point's solve with P scaled by 1 + 1e-12, which the
    # unitarity and determinant bounds meet to first order, or with two columns
    # mixed by 1e-11, which breaks the symmetry law by about that much; a member
    # turned by exp(1e-11 i / m) has det exp(1e-11 i), which the path carries
    # towards s = 1: the bounds certify each path, and hold
    point = sample(kind, seed=9)
    dec = eig_normal(point.matrix)
    turned = np.exp(1e-11j / kind.ambient_size) * point.matrix
    for X, kept in ((point.matrix, EigenDecomposition(dec.P * (1.0 + 1e-12), dec.eigenvalues)),
                    (point.matrix, _mixed(point, 1e-11)),
                    (turned, eig_normal(turned))):
        monkeypatch.setattr(linalg_core, "_kept", (X.tobytes(), kept))
        for smp in contract(SpacePoint(kind, X), steps=16).samples[1:]:
            measured = is_member(kind, smp.point.matrix)
            assert smp.residuals != measured and smp.residuals.member
            for law in ("unitarity", "determinant", "symmetry"):
                assert getattr(measured, law) <= getattr(smp.residuals, law)


def test_contract_makes_one_eigensolve(eigh_calls):
    for kind in (SpaceKind.ai(16), SpaceKind.aii(8)):
        point = sample(kind, seed=5)
        eigh_calls.clear()
        contract(point, np.pi / 7, steps=16)
        assert len(eigh_calls) == 1


def test_contract_makes_one_eigensolve_and_two_determinants(eigh_calls, det_calls):
    # the source's is_member and det P: the later samples are bounded, not measured
    for kind in (SpaceKind.ai(16), SpaceKind.aii(8)):
        point = sample(kind, seed=5)
        eigh_calls.clear()
        det_calls.clear()
        contract(point, np.pi / 7, steps=16)
        assert (len(eigh_calls), len(det_calls)) == (1, 2)


@pytest.mark.parametrize("kind", [SpaceKind.ai(4), SpaceKind.aii(3)], ids=["AI4", "AII3"])
def test_a_basis_mixed_across_the_cut_is_measured(monkeypatch, kind):
    # eig_normal keeps the point's solve with two columns mixed by 1e-9: the
    # symmetry bound passes MEMBERSHIP_TOL, so every sample carries is_member's
    # report, which finds a defect of about that size
    point = sample(kind, seed=9)
    monkeypatch.setattr(linalg_core, "_kept", (point.matrix.tobytes(), _mixed(point, 1e-9)))
    samples = contract(point, steps=16).samples
    for smp in samples:
        assert smp.residuals == is_member(kind, smp.point.matrix)
    assert max(smp.residuals.symmetry for smp in samples) > MEMBERSHIP_TOL


def test_a_large_point_is_measured():
    # from side 146 the determinant's rounding term alone passes MEMBERSHIP_TOL
    point = sample(SpaceKind.ai(150), seed=5)
    for smp in contract(point, steps=4).samples:
        assert smp.residuals == is_member(point.kind, smp.point.matrix)


def _haar_cases():
    """(point, alpha) pairs: Haar points of both families, cut at the witness and at pi/7."""
    for family, sizes in ((Family.AI, [*range(1, 9), 64, 256]), (Family.AII, [*range(1, 7), 32])):
        for n in sizes:
            for point in sample_points(SpaceKind(family, n), 3 if n <= 8 else 1, seed=60 + n):
                yield point, None
                yield point, np.pi / 7


def _near_cut_cases():
    """Haar points cut 5e-7 from an eigenvalue, on either side."""
    for kind in (SpaceKind.ai(4), SpaceKind.ai(16), SpaceKind.aii(2), SpaceKind.aii(8)):
        for point in sample_points(kind, 3, seed=80):
            angle = float(np.angle(eig_normal(point.matrix).eigenvalues[0]))
            for alpha in (angle - 5e-7, angle + 5e-7):
                assert branch_log(point.matrix, alpha).margin == pytest.approx(5e-7, rel=1e-6)
                yield point, alpha


def _floor_cases():
    """Members whose witness margin is within 1e-6 of the floor pi/(2n), cut at the witness.

    The extremal spectra of test_extremal_points_sit_on_the_margin_floor,
    each angle moved by under 1e-6 with the sum kept, conjugated as a member.
    """
    rng = np.random.default_rng(90)
    for n in range(1, 9):
        r = np.arange(n)
        eps = rng.uniform(-4e-7, 4e-7, n)
        eps -= eps.mean()
        O = np.linalg.qr(rng.standard_normal((n, n)))[0]
        theta = np.pi * (2 * r + (n % 2 == 0)) / n + eps
        points = [SpacePoint(SpaceKind.ai(n), (O * np.exp(1j * theta)) @ O.T)]
        if n <= 6:
            # Kramers pairs diag(D, D), conjugated by a real orthogonal Q commuting with J
            U = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
            Q = np.block([[U.real, -U.imag], [U.imag, U.real]])
            D = np.exp(1j * (2 * np.pi * r / n + eps))
            points.append(SpacePoint(SpaceKind.aii(n), (Q * np.concatenate([D, D])) @ Q.T))
        for point in points:
            cls = classify(default_cover(point.kind), point)
            assert abs(cls.margins[cls.witness] - np.pi / (2 * n)) <= 1e-6
            yield point, None


@pytest.mark.parametrize("cases", [_haar_cases, _contract_cases, _near_cut_cases, _floor_cases],
                         ids=["haar", "structured", "near_cut", "floor"])
def test_every_measured_residual_is_within_its_bound(cases):
    # a sample's residuals bound the ones is_member measures on its matrix, law by law,
    # and carry its verdict; a measured path carries them exactly
    for point, alpha in cases():
        for smp in contract(point, alpha, steps=16).samples:
            measured = is_member(point.kind, smp.point.matrix)
            assert measured.member == smp.residuals.member
            for law in ("unitarity", "determinant", "symmetry"):
                assert getattr(measured, law) <= getattr(smp.residuals, law)


def test_contract_at_the_cover_witness_makes_one_eigensolve(eigh_calls):
    # contract(point) reads the witness from the spectrum that forms the path,
    # and runs the path of the witness's angle, given explicitly
    witnesses = []
    for kind in (SpaceKind.ai(64), SpaceKind.aii(32)):
        point = sample(kind, seed=5)
        config = default_cover(kind)
        alpha = float(np.mod(np.angle(config.lambdas[classify(config, point).witness]), 2 * np.pi))
        witnesses.append((point, alpha, contract(point, alpha, steps=16)))
    for point, alpha, explicit in witnesses:
        eig_normal(np.diag([1j, -1j]))  # an unrelated solve: eig_normal no longer keeps the point
        eigh_calls.clear()
        path = contract(point, steps=16)
        assert len(eigh_calls) == 1
        assert path.alpha == alpha and 0.0 <= alpha < 2 * np.pi
        assert explicit.alpha == alpha and path.target_scalar == explicit.target_scalar
        assert len(path.samples) == len(explicit.samples) == 17
        for got, want in zip(path.samples, explicit.samples):
            assert got.s == want.s and got.residuals == want.residuals
            assert np.array_equal(got.point.matrix, want.point.matrix)


def test_classify_then_contract_makes_one_eigensolve(eigh_calls):
    # the README's two calls on one point share eig_normal's kept solve, and
    # the path equals the one a cold solve gives
    for kind in (SpaceKind.ai(16), SpaceKind.aii(8)):
        point = sample(kind, seed=6)
        eigh_calls.clear()
        config = default_cover(kind)
        alpha = float(np.angle(config.lambdas[classify(config, point).witness]))
        path = contract(point, alpha, steps=4)
        assert len(eigh_calls) == 1
        eig_normal(np.diag([1j, -1j]))
        cold = contract(point, alpha, steps=4)
        assert len(eigh_calls) == 3
        for got, want in zip(path.samples, cold.samples, strict=True):
            assert got.point.matrix.tobytes() == want.point.matrix.tobytes()


@pytest.mark.parametrize("n", [4, 5, 7])
def test_log_and_contract_ignore_the_basis_inside_an_exact_cluster(n):
    # X = O diag(e^{i theta}) tO with an exact triple in theta, rebuilt from
    # O R for a rotation R inside the triple's eigenspace: H and the path are
    # matrix functions of X, so both bases give O diag(i theta) tO and its path
    rng = np.random.default_rng(40 + n)
    theta = rng.uniform(-np.pi, np.pi, n)
    theta[1:3] = theta[0]
    theta[-1] = -np.sum(theta[:-1])
    O = np.linalg.qr(rng.standard_normal((n, n)))[0]
    O[:, 0] *= np.sign(np.linalg.det(O))
    R = np.eye(n)
    R[:3, :3] = scipy.stats.special_ortho_group.rvs(3, random_state=rng)
    kind = SpaceKind.ai(n)
    bases = (O, O @ R)
    points = [SpacePoint(kind, (B * np.exp(1j * theta)) @ B.T) for B in bases]
    assert not np.array_equal(points[0].matrix, points[1].matrix)
    # cut in the middle of the widest gap of the exact angles
    wrapped = np.sort(np.mod(theta, 2 * np.pi))
    gaps = np.diff(wrapped, append=wrapped[0] + 2 * np.pi)
    alpha = np.mod(wrapped[np.argmax(gaps)] + gaps.max() / 2.0, 2 * np.pi)
    lifted = alpha + np.mod(theta - alpha, 2 * np.pi)
    winding = int(round(np.sum(lifted) / (2 * np.pi)))
    H = (O * (1j * lifted)) @ O.T
    paths = []
    for point in points:
        bl = branch_log(point.matrix, alpha)
        assert bl.winding == winding
        assert np.linalg.norm(bl.H - H) <= 1e-12
        paths.append(contract(point, alpha, steps=8))
    for first, second in zip(*(path.samples for path in paths), strict=True):
        exact = (O * np.exp(1j * ((1.0 - first.s) * lifted + first.s * 2 * np.pi * winding / n))) @ O.T
        assert np.linalg.norm(first.point.matrix - second.point.matrix) <= 1e-12
        assert np.linalg.norm(first.point.matrix - exact) <= 1e-12


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


@pytest.mark.parametrize(
    "kind", [SpaceKind.ai(n) for n in (3, 5, 8)] + [SpaceKind.aii(n) for n in (2, 3, 4)],
    ids=lambda kind: f"{kind.family.value}({kind.n})",
)
def test_contract_is_continuous_in_its_point(kind):
    # X' = g X tg (AI) or g X J tg tJ (AII) with g = exp(eps A) near E; cut at X's witness,
    # the paths share the winding and stay within 10 eps ||A|| / margin at every sample
    from lscat.spaces import structural_J

    m = kind.ambient_size
    twist = np.eye(m) if kind.family is Family.AI else structural_J(kind.n)
    for seed in range(10):
        X = sample(kind, seed).matrix
        x, y = np.random.default_rng(seed + 1000).standard_normal((2, m, m))
        A = (x - x.T) / 2.0 + 1j * (y + y.T) / 2.0
        A -= np.trace(A) / m * np.eye(m)
        path = contract(SpacePoint(kind, X))
        bl = branch_log(X, path.alpha)
        for eps in (1e-7, 1e-5):
            g = scipy.linalg.expm(eps * A)
            moved = contract(SpacePoint(kind, g @ X @ twist @ g.T @ twist.T), path.alpha)
            assert branch_log(moved.samples[0].point.matrix, path.alpha).winding == bl.winding
            gap = max(np.linalg.norm(a.point.matrix - b.point.matrix)
                      for a, b in zip(path.samples, moved.samples))
            assert gap <= 10.0 * eps * np.linalg.norm(A) / bl.margin
