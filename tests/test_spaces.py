"""Tests for membership predicates, the structural matrix, and sampling."""

import numpy as np
import pytest

from lscat.errors import DimensionMismatch
from lscat.linalg_core import eig_normal
from lscat.spaces import (
    Family,
    SpaceKind,
    SpacePoint,
    haar_special_unitary,
    is_member,
    point_from_json,
    point_to_json,
    sample,
    sample_points,
    structural_J,
)


def test_structural_J_small():
    assert np.array_equal(structural_J(1), np.array([[0, -1], [1, 0]], dtype=complex))
    with pytest.raises(ValueError):
        structural_J(0)


def test_structural_J_identities():
    for n in (1, 2, 3):
        J = structural_J(n)
        assert np.allclose(J @ J.T, np.eye(2 * n))
        assert np.allclose(J @ J, -np.eye(2 * n))
        assert np.linalg.det(J) == pytest.approx(1.0, abs=1e-12)


def test_kind_ambient_size():
    assert SpaceKind.ai(4).ambient_size == 4
    assert SpaceKind.aii(4).ambient_size == 8
    with pytest.raises(ValueError):
        SpaceKind.ai(0)


def test_is_member_identity_cases():
    rep = is_member(SpaceKind.ai(3), np.eye(3))
    assert rep.member and rep.max_residual == 0.0
    rep = is_member(SpaceKind.aii(2), np.eye(4))
    assert rep.member and rep.max_residual < 1e-15


def test_is_member_J_is_not_aii_member():
    # tJ = -J while J J tJ = +J, so the twist law fails by 2||J||
    rep = is_member(SpaceKind.aii(2), structural_J(2))
    assert not rep.member
    assert rep.symmetry > 1.0
    assert rep.unitarity < 1e-15 and rep.determinant < 1e-12


def test_is_member_aii_symmetry_equals_J_conjugation_reference():
    rng = np.random.default_rng(31)
    for n in (1, 2, 3, 8, 16):
        kind = SpaceKind.aii(n)
        J = structural_J(n)
        for pt in sample_points(kind, 3, seed=n):
            noise = rng.standard_normal((2 * n, 2 * n)) + 1j * rng.standard_normal((2 * n, 2 * n))
            for X in (pt.matrix, pt.matrix + 1e-6 * noise, noise):
                rep = is_member(kind, X)
                assert rep.symmetry == np.linalg.norm(X.T - J @ X @ J.T)
                assert rep.member == (X is pt.matrix)


def test_is_member_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        is_member(SpaceKind.ai(3), np.eye(4))
    with pytest.raises(DimensionMismatch):
        SpacePoint(SpaceKind.aii(2), np.eye(3))


def test_sampler_formula_boundary_cases():
    # P = E: AI gives E; AII gives J (E J tE) = J J = -E, a member of det 1
    assert is_member(SpaceKind.ai(3), np.eye(3) @ np.eye(3).T).member
    n = 3
    J = structural_J(n)
    X = J @ (np.eye(2 * n) @ J @ np.eye(2 * n).T)
    assert np.allclose(X, -np.eye(2 * n))
    rep = is_member(SpaceKind.aii(n), X)
    assert rep.member and rep.determinant < 1e-12


def test_sample_seed_42_is_member():
    pt = sample(SpaceKind.ai(4), seed=42)
    rep = is_member(pt.kind, pt.matrix)
    assert rep.member and rep.max_residual <= 1e-10


def test_sampler_closure_and_determinant():
    for family in Family:
        for n in range(1, 7):
            kind = SpaceKind(family, n)
            for pt in sample_points(kind, 500, seed=1000 + n):
                rep = is_member(kind, pt.matrix)
                assert rep.member, (family, n, rep)
                assert rep.max_residual <= 1e-9
                assert rep.determinant <= 1e-10


def test_sample_determinism():
    a = sample(SpaceKind.aii(2), seed=5)
    b = sample(SpaceKind.aii(2), seed=5)
    c = sample(SpaceKind.aii(2), seed=6)
    assert np.array_equal(a.matrix, b.matrix)
    assert not np.allclose(a.matrix, c.matrix)
    assert np.array_equal(a.matrix, sample_points(SpaceKind.aii(2), 1, 5)[0].matrix)


def test_haar_special_unitary_lands_in_su():
    rng = np.random.default_rng(3)
    for m in (1, 2, 5):
        P = haar_special_unitary(m, rng)
        assert np.linalg.norm(P @ P.conj().T - np.eye(m)) < 1e-12
        assert abs(np.linalg.det(P) - 1) < 1e-12


def _one_matrix_points(kind, count, seed):
    """Reference sampler: one Ginibre draw, QR and phase fix per point."""
    rng = np.random.default_rng(seed)
    m = kind.ambient_size
    out = []
    for _ in range(count):
        z = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) / np.sqrt(2.0)
        q, r = np.linalg.qr(z)
        d = np.diagonal(r)
        q = q * (d / np.abs(d))
        P = q * np.exp(-1j * np.angle(np.linalg.det(q)) / m)
        if kind.family is Family.AI:
            out.append(P @ P.T)
        else:
            J = structural_J(kind.n)
            out.append(J @ (P @ J @ P.T))
    return out


@pytest.mark.parametrize("family", list(Family))
def test_sample_points_match_one_matrix_draws(family):
    # the stacked draw keeps every byte of the one-matrix draw, signed zeros included
    per_n = 1 if family is Family.AI else 2
    cases = [(SpaceKind(family, n), 3) for n in range(1, 40 // per_n + 1)]
    # 20 points at side 64 cross the 16-matrix chunk of one stacked draw
    cases.append((SpaceKind(family, 64 // per_n), 20))
    for kind, count in cases:
        for seed in (0, 1):
            got = [p.matrix.tobytes() for p in sample_points(kind, count, seed)]
            assert got == [X.tobytes() for X in _one_matrix_points(kind, count, seed)]


def test_haar_special_unitary_is_one_matrix_draw():
    for m in (1, 2, 7, 16):
        rng = np.random.default_rng(m)
        z = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) / np.sqrt(2.0)
        q, r = np.linalg.qr(z)
        q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
        want = q * np.exp(-1j * np.angle(np.linalg.det(q)) / m)
        assert haar_special_unitary(m, np.random.default_rng(m)).tobytes() == want.tobytes()


def test_eigenvector_twist_pairing_on_samples():
    # X v = lam v implies X (J conj v) = lam (J conj v) for AII members
    for seed in range(5):
        pt = sample(SpaceKind.aii(3), seed=seed)
        J = structural_J(3)
        dec = eig_normal(pt.matrix)
        for j in range(6):
            v = dec.P[:, j]
            lam = dec.eigenvalues[j]
            twisted = J @ v.conj()
            assert np.linalg.norm(pt.matrix @ twisted - lam * twisted) < 1e-9


def test_point_json_roundtrip():
    pt = sample(SpaceKind.aii(2), seed=77)
    doc = point_to_json(pt)
    assert doc["family"] == "AII" and doc["n"] == 2
    back = point_from_json(doc)
    assert back.kind == pt.kind
    assert np.array_equal(back.matrix, pt.matrix)
