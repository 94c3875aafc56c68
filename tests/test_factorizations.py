"""Round-trip tests for the congruence factorizations."""

import numpy as np
import pytest

from lscat.errors import ComponentObstruction, DimensionMismatch, NotInSpace
from lscat.factorizations import factor_aii, factor_skew, factor_symmetric
from lscat.spaces import (
    SpaceKind,
    SpacePoint,
    haar_special_unitary,
    sample_points,
    structural_J,
)


def assert_special_unitary(P, tol=1e-10):
    m = P.shape[0]
    assert np.linalg.norm(P @ P.conj().T - np.eye(m)) <= tol
    assert abs(np.linalg.det(P) - 1.0) <= tol


def test_factor_symmetric_identity():
    res = factor_symmetric(np.eye(4))
    assert res.residual <= 1e-12
    assert_special_unitary(res.P)


def test_factor_symmetric_hand_case():
    X = np.diag([1j, -1j])
    res = factor_symmetric(X)
    assert np.linalg.norm(res.P @ res.P.T - X) <= 1e-12
    assert_special_unitary(res.P)
    expected = np.diag([np.exp(0.25j * np.pi), np.exp(-0.25j * np.pi)])
    # the diagonal solution is determined up to a global sign
    assert min(
        np.linalg.norm(res.P - expected), np.linalg.norm(res.P + expected)
    ) <= 1e-12


def test_factor_symmetric_roundtrips():
    rng = np.random.default_rng(41)
    for i in range(200):
        n = 1 + i % 8
        Q = haar_special_unitary(n, rng)
        X = Q @ Q.T
        res = factor_symmetric(X)
        assert res.residual <= 1e-9
        assert np.linalg.norm(X - res.P @ res.P.T) <= 1e-9
        assert_special_unitary(res.P)
        # reported residual matches an independent recomputation
        assert abs(res.residual - np.linalg.norm(X - res.P @ res.P.T)) <= 1e-12


def test_factor_symmetric_negative_identity():
    # -E_n is symmetric special unitary only for even n
    res = factor_symmetric(-np.eye(4))
    assert res.residual <= 1e-10
    assert_special_unitary(res.P)
    with pytest.raises(NotInSpace):
        factor_symmetric(-np.eye(3))


def test_factor_symmetric_rejects_nonmembers():
    rng = np.random.default_rng(4)
    U = haar_special_unitary(3, rng)
    if np.linalg.norm(U.T - U) < 1e-3:
        U = haar_special_unitary(3, rng)
    with pytest.raises(NotInSpace):
        factor_symmetric(U)


def _structured_angles(m, kind, spread, rng):
    """m eigenvalue angles summing to 0 mod 2 pi, with the structure kind names."""
    if kind == "free":
        # a near-degenerate cluster straddling pi, completed by one free angle
        head = np.pi + spread * rng.standard_normal(m - 1)
        return np.append(head, -head.sum())
    h = m // 2
    half = {
        "pm1": lambda: rng.choice([0.0, np.pi], h),
        "pmi": lambda: rng.choice([0.0, np.pi, 0.5 * np.pi, -0.5 * np.pi], h),
        "exact": lambda: rng.choice(rng.uniform(-np.pi, np.pi, 2), h),
        "near": lambda: rng.uniform(-np.pi, np.pi) + spread * rng.standard_normal(h),
        "straddle0": lambda: spread * rng.standard_normal(h),
        "straddlepi": lambda: np.pi + spread * rng.standard_normal(h),
    }[kind]()
    # each angle with its negative, so det is 1; -(pi + d) is pi - d mod 2 pi
    return np.concatenate([half, -half, np.zeros(m % 2)])


def test_factor_symmetric_structured_spectra():
    # X = O diag(e^{i theta}) tO with O Haar in SO(m)
    rng = np.random.default_rng(59)
    for m in range(1, 33):
        for kind in ("pm1", "pmi", "exact", "near", "straddle0", "straddlepi", "free"):
            for spread in (1e-12, 1e-9, 2e-6):
                theta = _structured_angles(m, kind, spread, rng)
                O, r = np.linalg.qr(rng.standard_normal((m, m)))
                O = O * np.sign(np.diagonal(r))
                O[:, 0] *= np.linalg.det(O)
                X = (O * np.exp(1j * theta)) @ O.T
                res = factor_symmetric(X)
                assert np.linalg.norm(X - res.P @ res.P.T) <= 1e-9
                assert_special_unitary(res.P)


def test_factor_skew_structural_cases():
    for n in (1, 2, 3, 4):
        J = structural_J(n)
        res = factor_skew(J)
        assert res.residual <= 1e-10
        assert_special_unitary(res.P)
    for n in (2, 4):
        res = factor_skew(-structural_J(n))
        assert res.residual <= 1e-10
        assert_special_unitary(res.P)


def test_factor_skew_component_obstruction_odd_n():
    # -J is skew special unitary for every n but factors over SU only for
    # even n; det(B C) = -1 detects the second congruence orbit, which
    # also holds the non-diagonal congruences Q(-J)tQ with Q in SU(2n).
    rng = np.random.default_rng(53)
    for n in (1, 3, 5):
        with pytest.raises(ComponentObstruction):
            factor_skew(-structural_J(n))
        for _ in range(5):
            Q = haar_special_unitary(2 * n, rng)
            with pytest.raises(ComponentObstruction):
                factor_skew(Q @ -structural_J(n) @ Q.T)


def test_factor_skew_roundtrips():
    rng = np.random.default_rng(43)
    for i in range(200):
        n = 1 + i % 4
        Q = haar_special_unitary(2 * n, rng)
        J = structural_J(n)
        X = Q @ J @ Q.T
        res = factor_skew(X)
        assert res.residual <= 1e-9
        assert np.linalg.norm(X - res.P @ J @ res.P.T) <= 1e-9
        assert_special_unitary(res.P)


def test_factor_skew_block_identity():
    # the rotated input equals the diagonal congruence of J: tB X B = C J tC
    rng = np.random.default_rng(99)
    for n in (1, 2, 3):
        Q = haar_special_unitary(2 * n, rng)
        J = structural_J(n)
        X = Q @ J @ Q.T
        inter = factor_skew(X).intermediates
        assert np.linalg.norm(inter.B.T @ X @ inter.B - inter.C @ J @ inter.C.T) <= 1e-9


def test_factor_skew_det_certificate():
    rng = np.random.default_rng(47)
    for i in range(50):
        n = 1 + i % 4
        Q = haar_special_unitary(2 * n, rng)
        X = Q @ structural_J(n) @ Q.T
        res = factor_skew(X)
        det_c = np.prod(res.intermediates.roots) ** 2
        assert min(abs(det_c - 1.0), abs(det_c + 1.0)) <= 1e-8


def test_factor_skew_rejects_bad_inputs():
    with pytest.raises(DimensionMismatch):
        factor_skew(np.zeros((3, 3)))
    with pytest.raises(NotInSpace):
        factor_skew(np.eye(4))


def test_factor_aii_scalar_cases():
    # -E pulls back to J (factorable for every n); E pulls back to -J
    # (factorable only for even n).
    for n in (1, 2, 3):
        res = factor_aii(SpacePoint(SpaceKind.aii(n), -np.eye(2 * n)))
        assert res.residual <= 1e-10
        assert_special_unitary(res.P)
    res = factor_aii(SpacePoint(SpaceKind.aii(2), np.eye(4)))
    assert res.residual <= 1e-10
    with pytest.raises(ComponentObstruction):
        factor_aii(SpacePoint(SpaceKind.aii(3), np.eye(6)))


def test_factor_aii_sampled_roundtrips():
    J_by_n = {n: structural_J(n) for n in range(1, 5)}
    for n in range(1, 5):
        kind = SpaceKind.aii(n)
        for pt in sample_points(kind, 125, seed=900 + n):
            res = factor_aii(pt)
            assert res.residual <= 1e-9
            J = J_by_n[n]
            assert np.linalg.norm(pt.matrix - J @ res.P @ J @ res.P.T) <= 1e-9
            assert_special_unitary(res.P)


def haar_special_orthogonal(m, rng):
    q, r = np.linalg.qr(rng.standard_normal((m, m)))
    q = q * np.sign(np.diagonal(r))
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    return q


def test_factor_aii_plus_minus_one_pullback():
    # X = J B C J tC tB with c_k^2 = -i lam_k, lam_k in {1, -1}, prod c = 1:
    # the skew pullback tJ X = (B C) J t(B C) has only the eigenvalues +-1,
    # each n times, which sit on the real axis where the pairing must not
    # depend on roundoff.  (-i)^n prod lam = 1 needs even n.
    for n in (2, 4, 8, 16):
        J = structural_J(n)
        for seed in range(8):
            rng = np.random.default_rng(1000 * n + seed)
            lam = rng.choice([1.0, -1.0], size=n)
            lam[-1] = (1j**n).real / np.prod(lam[:-1])
            c = np.sqrt(-1j * lam)
            if np.prod(c).real < 0.0:
                c[-1] = -c[-1]
            BC = haar_special_orthogonal(2 * n, rng) * np.concatenate([c, c])
            X = J @ BC @ J @ BC.T
            assert np.allclose(np.linalg.eigvals(J.T @ X) ** 2, 1.0, atol=1e-12)
            res = factor_aii(SpacePoint(SpaceKind.aii(n), X))
            assert res.residual <= 1e-9
            assert np.linalg.norm(X - J @ res.P @ J @ res.P.T) <= 1e-9
            assert_special_unitary(res.P)


def test_factor_aii_rejects_nonmember():
    with pytest.raises(NotInSpace):
        factor_aii(SpacePoint(SpaceKind.aii(2), structural_J(2)))
    with pytest.raises(DimensionMismatch):
        factor_aii(SpacePoint(SpaceKind.ai(2), np.eye(2)))
