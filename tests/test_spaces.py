"""Tests for membership predicates, the structural matrix, and sampling."""

import math
import re

import numpy as np
import pytest

from lscat.errors import DimensionMismatch, NotInSpace
from lscat.factorizations import factor_skew
from lscat.linalg_core import eig_normal, matrix_to_json
from lscat.spaces import (
    Family,
    SpaceKind,
    SpacePoint,
    _swap_halves,
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


def _same_bits(a, b):
    """Equal values and equal signs in both parts, so equal bits: array_equal has -0.0 == 0.0."""
    return np.array_equal(a, b) and all(
        np.array_equal(np.signbit(part(a)), np.signbit(part(b))) for part in (np.real, np.imag)
    )


def _with_signed_zeros(shape, seed):
    """A complex array with +0.0 and -0.0 planted in about a third of each part."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    for part in (X.real, X.imag):
        planted = rng.random(shape) < 0.35
        part[planted] = np.copysign(0.0, rng.standard_normal(np.count_nonzero(planted)))
    return X


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("stack", [(), (3,)], ids=["matrix", "stack"])
def test_swap_halves_is_every_J_product(n, stack):
    X = _with_signed_zeros((*stack, 2 * n, 2 * n), seed=n + len(stack))
    J = structural_J(n)
    XJ, tJX = _swap_halves(X, -1), _swap_halves(X, -2)
    # the values of the dense products X J, tJ X, X tJ, J X tJ and J X
    assert np.array_equal(XJ, X @ J)
    assert np.array_equal(tJX, J.T @ X)
    assert np.array_equal(-XJ, X @ J.T)
    assert np.array_equal(_swap_halves(XJ, -2), J @ X @ J.T)
    assert np.array_equal(0.0 - tJX, J @ X)
    # bit for bit the blocks [X2, -X1], planted zeros included
    want = np.empty_like(X)
    want[..., :n], want[..., n:] = X[..., n:], -X[..., :n]
    assert _same_bits(XJ, want)
    want[..., :n, :], want[..., n:, :] = X[..., n:, :], -X[..., :n, :]
    assert _same_bits(tJX, want)
    # The dense J X gives either sign of zero as its BLAS kernel sums (with numpy
    # 2.4's OpenBLAS, J E has -0 entries at odd n), so the sampler takes J W as
    # 0.0 - tJ W: +0 for either zero, where a bare negation turns +0 into -0.
    for part in (np.real, np.imag):
        zeros = part(tJX) == 0.0
        assert not np.signbit(part(0.0 - tJX))[zeros].any()
        assert np.signbit(part(-tJX))[zeros].any()


def test_kind_ambient_size():
    assert SpaceKind.ai(4).ambient_size == 4
    assert SpaceKind.aii(4).ambient_size == 8
    with pytest.raises(ValueError):
        SpaceKind.ai(0)


def test_kind_rejects_non_integer_n():
    for n in (2.5, 3.0, True, "3", None, np.float64(3.0)):
        with pytest.raises(ValueError, match=re.escape(f"got {n!r}")):
            SpaceKind.ai(n)
    kind = SpaceKind.aii(np.int64(3))
    assert type(kind.n) is int and kind == SpaceKind.aii(3)


def test_kind_coerces_its_family():
    # a plain string acted as AII wherever the family was tested with `is`
    kind = SpaceKind("AI", 3)
    assert kind == SpaceKind.ai(3) and kind.family is Family.AI and kind.ambient_size == 3
    for family in ("AIII", None):
        with pytest.raises(ValueError):
            SpaceKind(family, 3)


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


def norm_formula(X, twin):
    """The residuals as three norms of dense temporaries: the oracle of is_member."""
    with np.errstate(over="ignore", invalid="ignore"):
        r = (float(np.linalg.norm(X @ X.conj().T - np.eye(len(X)))),
             float(abs(np.linalg.det(X) - 1.0)), float(np.linalg.norm(X.T - twin)))
    return tuple(math.inf if math.isnan(x) else x for x in r)


def layouts(X):
    """X as a C-ordered array, a Fortran-ordered one and two strided views."""
    m = len(X)
    big = np.zeros((2 * m, 2 * m), dtype=complex)
    big[::2, ::2] = X
    reversed_rows = np.zeros((2 * m, m), dtype=complex)
    reversed_rows[::-2] = X
    return [X, np.asfortranarray(X), big[::2, ::2], reversed_rows[::-2]]


@pytest.mark.parametrize("kind", [SpaceKind.ai(n) for n in (*range(1, 9), 64)]
                         + [SpaceKind.aii(n) for n in (*range(1, 7), 32)],
                         ids=lambda k: f"{k.family.value}{k.n}")
def test_law_residuals_equal_the_norm_formula_bit_for_bit(kind):
    # warnings are errors in this suite: an overflow, also one of tX - twin, reads inf quietly
    rng = np.random.default_rng(kind.ambient_size)
    m = kind.ambient_size
    huge = (np.full((m, m), 1e160 + 0j), np.tile([1.7e308 + 0j, -1.7e308], (m, m))[:, :m])
    for point in sample_points(kind, 3, seed=m):
        noise = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        for X0 in (point.matrix, point.matrix + 1e-7 * noise, noise, *huge):
            for X in layouts(X0):
                twin = X if kind.family is Family.AI else _swap_halves(_swap_halves(X, -1), -2)
                report = is_member(kind, X)
                assert (report.unitarity, report.determinant, report.symmetry) == norm_formula(X, twin)
                assert report.member == (X0 is point.matrix)
                assert (report.unitarity == math.inf) == any(X0 is h for h in huge)
                assert [type(r) for r in vars(report).values()] == [float, float, float, bool]
                if m % 2 == 0:
                    for Y in (X, _swap_halves(X, -2)):  # tJ X is skew for an AII member X
                        assert_factor_skew_checks_y_tj(Y)


def assert_factor_skew_checks_y_tj(Y):
    """factor_skew rejects Y exactly when is_member rejects Y tJ, with that report's residuals."""
    report = is_member(SpaceKind.aii(len(Y) // 2), -_swap_halves(Y, -1))
    if report.member:
        factor_skew(Y)
    else:
        residuals = f"{report.unitarity:.3e}/{report.determinant:.3e}/{report.symmetry:.3e}"
        with pytest.raises(NotInSpace, match=re.escape(f"(residuals {residuals})")):
            factor_skew(Y)


def test_is_member_dimension_mismatch():
    # is_member takes its side check, and so its message, from SpacePoint
    for kind, side, message in ((SpaceKind.ai(3), 4, "AI(3) needs side 3, got 4"),
                                (SpaceKind.aii(2), 3, "AII(2) needs side 4, got 3")):
        for check in (is_member, SpacePoint):
            with pytest.raises(DimensionMismatch, match=re.escape(message)):
                check(kind, np.eye(side))


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


@pytest.mark.parametrize("doc, shown", [
    pytest.param(5, "5", id="5"), pytest.param(None, "None", id="None"),
    pytest.param(["family"], "['family']", id="doc2"), pytest.param("x", "'x'", id="x"),
    pytest.param([1, 2], "[1, 2]", id="doc4"),
    pytest.param({"family": "AI", "n": 1, "matrix": [[1.0, 0.0]]}, "[[1.0, 0.0]]", id="doc5"),
    pytest.param("m" * 50, "'" + "m" * 39, id="long"),  # the value is shown to 40 characters
])
def test_point_from_json_takes_only_objects(doc, shown):
    # 5, None and ["family"] escaped as TypeError; "x" and [1, 2] read as lacking a field
    with pytest.raises(ValueError) as info:
        point_from_json(doc)
    assert str(info.value) == f"expected a JSON object, got {shown}"


def test_point_from_json_reads_a_bare_matrix_with_its_kind():
    X = sample(SpaceKind.ai(3), seed=5).matrix
    doc = matrix_to_json(X)
    point = point_from_json({"family": "AI", "n": doc["n"], "matrix": doc})
    assert point.matrix.dtype == np.complex128 and np.array_equal(point.matrix, X)
