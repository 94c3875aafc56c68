"""Tests for the eigen kernels, the skew exponential, and matrix JSON."""

import json

import numpy as np
import pytest
import scipy.linalg

from lscat.errors import NotInSpace, NotNormal, NotSkewHermitian
from lscat.linalg_core import (
    _MIX_WEIGHTS,
    BRANCH_MARGIN,
    CLUSTER_TOL,
    MEMBERSHIP_TOL,
    _eig_stack,
    angular_distance,
    as_matrix,
    cluster_angles,
    eig_normal,
    exp_skew_hermitian,
    matrix_from_json,
    matrix_to_json,
)
from lscat.spaces import SpaceKind, is_member, sample


def random_unitary(m, rng):
    z = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def test_gate_constants():
    assert (MEMBERSHIP_TOL, CLUSTER_TOL, BRANCH_MARGIN) == (1e-9, 1e-6, 1e-8)


def test_eig_normal_diagonal_ordering():
    dec = eig_normal(np.diag([1j, -1j]))
    # ascending principal argument: -i (arg -pi/2) before i (arg pi/2)
    assert np.allclose(dec.eigenvalues, [-1j, 1j], atol=1e-12)
    X = dec.P @ np.diag(dec.eigenvalues) @ dec.P.conj().T
    assert np.allclose(X, np.diag([1j, -1j]), atol=1e-12)


def test_eig_normal_identity():
    dec = eig_normal(np.eye(3))
    assert np.allclose(dec.eigenvalues, np.ones(3), atol=1e-12)
    assert np.allclose(dec.P @ dec.P.conj().T, np.eye(3), atol=1e-12)


def test_eig_normal_construct_then_recover():
    rng = np.random.default_rng(101)
    values = np.array([np.exp(1j * np.pi / 3), np.exp(2j * np.pi / 3)])
    Q = random_unitary(2, rng)
    X = Q @ np.diag(values) @ Q.conj().T
    dec = eig_normal(X)
    assert np.allclose(sorted(dec.eigenvalues, key=np.angle),
                       sorted(values, key=np.angle), atol=1e-10)
    assert np.linalg.norm(X - dec.P @ np.diag(dec.eigenvalues) @ dec.P.conj().T) < 1e-10


def test_eig_normal_random_unitaries_residuals():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        m = int(rng.integers(1, 9))
        X = random_unitary(m, rng)
        dec = eig_normal(X)
        assert np.linalg.norm(X - dec.P @ np.diag(dec.eigenvalues) @ dec.P.conj().T) <= 1e-9
        assert np.linalg.norm(dec.P @ dec.P.conj().T - np.eye(m)) <= 1e-10


def test_eig_normal_skew_hermitian_input():
    rng = np.random.default_rng(12)
    A = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    H = A - A.conj().T
    dec = eig_normal(H)
    assert np.linalg.norm(H - dec.P @ np.diag(dec.eigenvalues) @ dec.P.conj().T) < 1e-12
    assert np.max(np.abs(dec.eigenvalues.real)) < 1e-12


def test_eig_normal_rejects_nonnormal():
    with pytest.raises(NotNormal):
        eig_normal(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_eig_stack_falls_back_on_near_collision(monkeypatch):
    # H1 + mu H2 maps e^{i theta} to sqrt(1 + mu^2) cos(theta - arctan mu), so
    # the angles arctan mu +- 0.7 nearly meet in the first weight's spectrum
    # and its eigenvectors mix them; only that matrix may take the second weight
    rng = np.random.default_rng(29)
    m = 8
    phi = np.arctan(_MIX_WEIGHTS[0])
    theta = np.concatenate([[phi + 0.7, phi - 0.7 - 1e-10], rng.uniform(-np.pi, np.pi, m - 2)])
    O, _ = np.linalg.qr(rng.standard_normal((m, m)))
    collide = (O * np.exp(1j * theta)) @ O.T
    stack = np.array([random_unitary(m, rng), random_unitary(m, rng), collide,
                      random_unitary(m, rng)])
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(H):
        calls.append(H)
        return eigh(H)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    lam = _eig_stack(stack, unitary=True)[1]
    H1 = (collide + collide.conj().T) / 2.0
    H2 = (collide - collide.conj().T) / 2.0j
    assert [len(H) for H in calls] == [4, 1]
    assert np.array_equal(calls[1][0], H1 + _MIX_WEIGHTS[1] * H2)
    monkeypatch.undo()
    # a retried row keeps the solver's order; eig_normal sorts it by argument
    order = np.lexsort((lam[2].imag, np.angle(lam[2])))
    assert np.array_equal(lam[2][order], eig_normal(collide).eigenvalues)
    assert np.allclose(np.sort(np.angle(lam[2])), np.sort(np.angle(np.exp(1j * theta))),
                       atol=1e-12)
    for X, row in zip(stack, lam):
        assert np.allclose(np.sort(np.angle(row)),
                           np.sort(np.angle(eig_normal(X).eigenvalues)), atol=1e-12)


def test_eig_stack_unitary_gate_checks_every_matrix():
    stack = np.array([np.eye(3), 2.0 * np.eye(3)], dtype=complex)
    with pytest.raises(NotInSpace):
        _eig_stack(stack, unitary=True)
    # the near-unitary gate runs before the normality gate
    with pytest.raises(NotInSpace):
        _eig_stack(np.array([[[1.0, 1.0], [0.0, 1.0]]], dtype=complex), unitary=True)
    lam = _eig_stack(np.array([np.eye(2), np.diag([1j, -1j])], dtype=complex), unitary=True)[1]
    assert np.array_equal(lam[0], [1, 1]) and np.array_equal(np.sort_complex(lam[1]), [-1j, 1j])


def test_exp_skew_zero_and_period():
    assert np.allclose(exp_skew_hermitian(np.zeros((3, 3))), np.eye(3))
    assert np.allclose(exp_skew_hermitian(2j * np.pi * np.eye(4)), np.eye(4), atol=1e-12)


def test_exp_skew_diagonal_values():
    U = exp_skew_hermitian(np.diag([0.5j * np.pi, 1.5j * np.pi]))
    assert np.allclose(U, np.diag([1j, -1j]), atol=1e-12)


def test_exp_skew_rejects_hermitian():
    with pytest.raises(NotSkewHermitian):
        exp_skew_hermitian(np.eye(2))


def test_exp_skew_matches_scipy_and_preserves_unitarity():
    rng = np.random.default_rng(23)
    for _ in range(50):
        m = int(rng.integers(1, 7))
        A = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        H = A - A.conj().T
        U = exp_skew_hermitian(H)
        assert np.linalg.norm(U - scipy.linalg.expm(H)) < 1e-10
        assert np.linalg.norm(U @ U.conj().T - np.eye(m)) <= 1e-9
        # det(exp H) = exp(tr H)
        assert abs(np.linalg.det(U) - np.exp(np.trace(H))) < 1e-9 * abs(np.exp(np.trace(H)))


def test_angular_distance_folding():
    assert angular_distance(0.1, 2 * np.pi - 0.1) == pytest.approx(0.2)
    assert angular_distance(np.pi, 0.0) == pytest.approx(np.pi)
    assert angular_distance(1.0, 1.0) == 0.0


def test_cluster_angles_wraparound():
    angles = np.array([0.01, -0.01, np.pi / 2])
    clusters = cluster_angles(angles, 0.1)
    sizes = sorted(len(c) for c in clusters)
    assert sizes == [1, 2]
    merged = next(c for c in clusters if len(c) == 2)
    assert set(merged) == {0, 1}
    assert cluster_angles([], CLUSTER_TOL) == []


def test_matrix_json_roundtrip():
    rng = np.random.default_rng(2)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    doc = matrix_to_json(m)
    assert doc["n"] == 3 and len(doc["entries"]) == 9
    back = matrix_from_json(doc)
    assert np.array_equal(back, m)


def test_matrix_to_json_bytes_match_per_entry_reference():
    tiny = np.finfo(float).smallest_subnormal
    m = np.array([[-0.0 + 0.0j, complex(tiny, -tiny), 1e300 - 1e-300j],
                  [complex(-0.0, -0.0), 5e-324 + 2.5e-310j, -1e300 + 0.1j],
                  [1.0, 1j, complex(np.pi, -np.e)]])
    tall = np.zeros((6, 3), dtype=complex)
    tall[::2] = m
    for matrix in (m, m[::-1], tall[::2]):  # C-ordered, row-reversed and row-strided
        reference = [[float(z.real), float(z.imag)] for z in matrix.ravel()]
        assert json.dumps(matrix_to_json(matrix)) == json.dumps({"n": 3, "entries": reference})


def test_as_matrix_takes_views_whose_last_axis_is_strided():
    X = sample(SpaceKind.ai(3), seed=4).matrix
    assert is_member(SpaceKind.ai(3), X.T).member
    wide = np.arange(18, dtype=float).reshape(3, 6) * (1 - 2j)
    view = wide[:, ::2]  # column-strided
    entries = [[float(z.real), float(z.imag)] for z in view.ravel()]
    assert matrix_to_json(view) == {"n": 3, "entries": entries}
    for z in (complex(np.inf, 0), complex(0, -np.inf), complex(np.nan, 0)):
        wide[1, 2] = z
        with pytest.raises(ValueError, match="finite"):
            as_matrix(view)


def test_matrix_json_rejects_bad_shape():
    with pytest.raises(ValueError):
        matrix_from_json({"n": 2, "entries": [[1.0, 0.0]]})
    with pytest.raises(ValueError, match="square"):
        as_matrix(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="at least 1"):
        as_matrix(np.zeros((0, 0)))
