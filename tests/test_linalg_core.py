"""Tests for the eigen kernels, the skew exponential, and matrix JSON."""

import json
import warnings

import numpy as np
import pytest
import scipy.linalg

from lscat.errors import NotInSpace, NotNormal, NotSkewHermitian, NotUnitary
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
from lscat.cover import classify, default_cover, multiplicity_audit
from lscat.factorizations import factor_aii, factor_symmetric
from lscat.homotopy import contract
from lscat.spaces import Family, SpaceKind, SpacePoint, is_member, sample


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


def raises_not_unitary_quietly(X):
    """eig_normal(X) raises NotUnitary, and numpy emits no warning on the way."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotUnitary):
            eig_normal(X)


def test_eig_normal_skew_hermitian_input():
    # skew-Hermitian and Hermitian matrices are normal but not unitary
    rng = np.random.default_rng(12)
    A = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    raises_not_unitary_quietly(A - A.conj().T)
    raises_not_unitary_quietly(A + A.conj().T)


def test_eig_normal_rejects_nonnormal():
    # the near-unitary gate runs first, so a far non-normal matrix fails it
    raises_not_unitary_quietly(np.array([[1.0, 1.0], [0.0, 1.0]]))
    # U (E + diag(k, -k)), U the swap: ||X X* - E|| = 2 sqrt(2) k passes the
    # unitary gate, and the commutator 4 sqrt(2) k fails the normality gate
    k = 4e-8
    with pytest.raises(NotNormal):
        eig_normal(np.array([[0.0, 1.0 - k], [1.0 + k, 0.0]]))


def test_eig_stack_falls_back_on_near_collision(monkeypatch):
    # H1 + mu H2 maps e^{i theta} to sqrt(1 + mu^2) cos(theta - arctan mu), so
    # the angles arctan mu +- 0.7 nearly meet in the first weight's spectrum
    # and its eigenvectors mix them; only that matrix may be refined, block by block
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
    lam = _eig_stack(stack)[1]
    assert calls[0].shape == (4, m, m)
    blocks = [H.shape for H in calls[1:]]
    # one row's columns, split into square blocks each smaller than m
    assert blocks and all(a == b < m for a, b in blocks) and sum(a for a, _ in blocks) == m
    monkeypatch.undo()
    # a refined row keeps the solver's order; eig_normal sorts it by argument
    order = np.lexsort((lam[2].imag, np.angle(lam[2])))
    assert np.array_equal(lam[2][order], eig_normal(collide).eigenvalues)
    assert np.allclose(np.sort(np.angle(lam[2])), np.sort(np.angle(np.exp(1j * theta))),
                       atol=1e-12)
    for X, row in zip(stack, lam):
        assert np.allclose(np.sort(np.angle(row)),
                           np.sort(np.angle(eig_normal(X).eigenvalues)), atol=1e-12)


@pytest.mark.parametrize("delta", [1e-8, 1e-7, 1e-6])
def test_refinement_keeps_a_close_pair_the_first_weight_resolved(delta):
    # the pair arctan(mu) +- 0.7 makes the first weight fail the matrix, and the
    # close pair astride arctan(mu') is folded by the second weight alone
    rng = np.random.default_rng(3)
    m = 8
    phi, psi = np.arctan(_MIX_WEIGHTS[0]), np.arctan(_MIX_WEIGHTS[1])
    theta = np.concatenate([[phi + 0.7, phi - 0.7, psi + delta / 2, psi - delta / 2],
                            rng.uniform(-np.pi, np.pi, m - 4)])
    theta[-1] -= theta.sum()
    O, _ = np.linalg.qr(rng.standard_normal((m, m)))
    X = (O * np.exp(1j * theta)) @ O.T
    dec = eig_normal(X)
    assert np.linalg.norm(X - (dec.P * dec.eigenvalues) @ dec.P.conj().T) <= 1e-12


#: Six incommensurate weights, the solver's two among them.  A spectrum can
#: fold one pair for each weight of any finite list.
_FOLD_WEIGHTS = _MIX_WEIGHTS + (0.5772156649015329, 2.302585092994046, 0.36787944117144233,
                                np.pi)


def planted_fold(kind, seed):
    """A member of kind whose spectrum holds arctan(mu) +- delta for every mu of _FOLD_WEIGHTS.

    AI(n): O diag(e^{i theta}) tO with O real orthogonal and sum(theta) = 0.
    AII(n): Q diag(D, D) tQ with Q = [[A, -B], [B, A]] for a Haar U(n) =
    A + iB, which is real orthogonal and commutes with J, and det D =
    (-1)^n, the orbit factor_aii factors.  Needs n > 12.
    """
    rng = np.random.default_rng(seed)
    n = kind.n
    pairs = [np.arctan(mu) + np.array([d, -d])
             for mu, d in zip(_FOLD_WEIGHTS, rng.uniform(0.2, 2.5, len(_FOLD_WEIGHTS)))]
    theta = np.concatenate(pairs + [rng.uniform(-np.pi, np.pi, n - 2 * len(pairs))])
    theta[-1] -= theta.sum() - (np.pi * n if kind.family is Family.AII else 0.0)
    if kind.family is Family.AI:
        O, _ = np.linalg.qr(rng.standard_normal((n, n)))
        return (O * np.exp(1j * theta)) @ O.T
    U = random_unitary(n, rng)
    Q = np.block([[U.real, -U.imag], [U.imag, U.real]])
    return (Q * np.exp(1j * np.concatenate([theta, theta]))) @ Q.T


@pytest.mark.parametrize("kind", [SpaceKind.ai(13), SpaceKind.ai(16), SpaceKind.ai(32),
                                  SpaceKind.ai(64), SpaceKind.aii(13), SpaceKind.aii(16),
                                  SpaceKind.aii(32)],
                         ids=lambda kind: f"{kind.family.value}{kind.n}")
def test_planted_folds_are_solved(kind):
    # every weight of _FOLD_WEIGHTS, both of the solver's included, folds a pair
    X = planted_fold(kind, seed=kind.n)
    assert is_member(kind, X).member
    dec = eig_normal(X)
    assert np.linalg.norm(X - (dec.P * dec.eigenvalues) @ dec.P.conj().T) <= 1e-10
    point = SpacePoint(kind, X)
    config = default_cover(kind)
    alpha = float(np.angle(config.lambdas[classify(config, point).witness]))
    assert len(contract(point, alpha, steps=16).samples) == 17
    if kind.family is Family.AI:
        assert factor_symmetric(X).residual <= 1e-10
    else:
        assert factor_aii(point).residual <= 1e-10
        assert sum(count for _, count in multiplicity_audit(point)) == 2 * kind.n


def test_eig_normal_gates_overflowing_input():
    # X X* overflows: the unitary gate reads the overflow as a failure, and
    # numpy's overflow warning is not raised
    raises_not_unitary_quietly(np.array([[1e160, 1e160], [0.0, 1e160]]))
    raises_not_unitary_quietly(1e160 * np.eye(2))


def test_eig_stack_unitary_gate_checks_every_matrix():
    stack = np.array([np.eye(3), 2.0 * np.eye(3)], dtype=complex)
    with pytest.raises(NotInSpace):
        _eig_stack(stack)
    # the near-unitary gate runs before the normality gate
    with pytest.raises(NotInSpace):
        _eig_stack(np.array([[[1.0, 1.0], [0.0, 1.0]]], dtype=complex))
    lam = _eig_stack(np.array([np.eye(2), np.diag([1j, -1j])], dtype=complex))[1]
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
