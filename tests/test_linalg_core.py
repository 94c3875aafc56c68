"""Tests for the eigen kernels, the skew exponential, and matrix JSON."""

import numpy as np
import pytest
import scipy.linalg

from lscat.errors import NotNormal, NotSkewHermitian
from lscat.linalg_core import (
    BRANCH_MARGIN,
    CLUSTER_TOL,
    MEMBERSHIP_TOL,
    angular_distance,
    cluster_angles,
    eig_normal,
    exp_skew_hermitian,
    matrix_from_json,
    matrix_to_json,
)


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


def test_matrix_json_roundtrip():
    rng = np.random.default_rng(2)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    doc = matrix_to_json(m)
    assert doc["n"] == 3 and len(doc["entries"]) == 9
    back = matrix_from_json(doc)
    assert np.array_equal(back, m)


def test_matrix_json_rejects_bad_shape():
    with pytest.raises(ValueError):
        matrix_from_json({"n": 2, "entries": [[1.0, 0.0]]})
