"""Tests for the eigen kernels and matrix JSON."""

import json
import re
import warnings

import numpy as np
import pytest

from lscat.errors import NoConvergence, NotInSpace, NotUnitary
from lscat.linalg_core import (
    _MIX_WEIGHT,
    BRANCH_MARGIN,
    CLUSTER_TOL,
    MEMBERSHIP_TOL,
    _eig_stack,
    _json_matrix,
    _spectral_product,
    angular_distance,
    as_matrix,
    eig_normal,
    matrix_to_json,
)
from lscat.cover import cover_audit, multiplicity_audit
from lscat.factorizations import factor_aii, factor_symmetric
from lscat.homotopy import contract
from lscat.spaces import (Family, SpaceKind, SpacePoint, is_member, sample, sample_points,
                          structural_J)


#: Six incommensurate weights, the solver's weight among them.  A spectrum can
#: fold one pair for each weight of any finite list.
_FOLD_WEIGHTS = (_MIX_WEIGHT, 1.618033988749895, 0.5772156649015329, 2.302585092994046,
                 0.36787944117144233, np.pi)


def random_unitary(m, rng):
    z = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_rotation(m, rng):
    """A Haar element of SO(m): sign-corrected real Ginibre QR, its first column turned to det 1."""
    q, r = np.linalg.qr(rng.standard_normal((m, m)))
    q = q * np.sign(np.diagonal(r))
    q[:, 0] *= np.sign(np.linalg.det(q))
    return q


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


def solved_once(eigh_calls, X, dtype):
    """eig_normal(X) makes one eigh call, on an argument of dtype, and returns P of dtype.

    P is orthonormal to 1e-13 m, and P diag(lam) P* is X within
    MEMBERSHIP_TOL ||X||.
    """
    eig_normal(np.diag([1j, -1j]))  # an unrelated solve: eig_normal no longer keeps X
    eigh_calls.clear()
    dec = eig_normal(X)
    ((arg,),) = eigh_calls
    assert arg.dtype == dtype and dec.P.dtype == dtype
    m = len(X)
    assert np.linalg.norm(dec.P.conj().T @ dec.P - np.eye(m)) <= 1e-13 * m
    assert np.linalg.norm(X - (dec.P * dec.eigenvalues) @ dec.P.conj().T) <= (
        MEMBERSHIP_TOL * np.linalg.norm(X))


def symmetric_unitaries():
    """Haar AI points of n = 1...8 and 64, and diagonal unitaries: each equals its transpose."""
    for n in range(1, 9):
        yield from (p.matrix for p in sample_points(SpaceKind.ai(n), 1 if n == 1 else 3, seed=n))
    yield sample(SpaceKind.ai(64), seed=64).matrix
    theta = np.random.default_rng(5).uniform(-np.pi, np.pi, 6)
    yield np.diag(np.exp(1j * theta))
    yield np.diag(np.exp(1j * np.array([0.5, 0.5, 0.5, -1.5])))  # an exact cluster
    yield np.diag([1.0, -1.0, -1.0]).astype(complex)
    yield np.eye(5, dtype=complex)


def test_a_symmetric_unitary_is_solved_in_real_arithmetic(eigh_calls):
    # Re X and Im X commute and are real symmetric, so the mixed matrix
    # Re X + mu Im X is real and its eigh returns a real orthogonal P
    for X in symmetric_unitaries():
        assert X.tobytes() == np.ascontiguousarray(X.T).tobytes()
        solved_once(eigh_calls, X, np.float64)


def test_a_matrix_unequal_to_its_transpose_is_solved_in_complex_arithmetic(eigh_calls):
    # an AI member with one off-diagonal entry moved by 1 ulp is still a member,
    # but takes the complex solve, as every AII point does
    for n in (2, 3, 8, 64):
        X = sample(SpaceKind.ai(n), seed=n).matrix
        solved_once(eigh_calls, X, np.float64)
        nudged = X.copy()
        nudged.real[0, 1] = np.nextafter(X.real[0, 1], np.inf)
        assert is_member(SpaceKind.ai(n), nudged).member
        solved_once(eigh_calls, nudged, np.complex128)
    for n in (1, 2, 3, 8, 32):
        solved_once(eigh_calls, sample(SpaceKind.aii(n), seed=n).matrix, np.complex128)


def test_a_folded_row_of_a_symmetric_stack_is_solved_again_in_complex_arithmetic(eigh_calls):
    # X = Q diag(e^{i theta}) tQ, formed as P tP with P = Q diag(e^{i theta / 2}),
    # so it equals its transpose; the real mixed matrix folds its pair
    # arctan(mu) +- 1e-4, so its row is solved again by the Cayley transform,
    # and the whole stack's basis becomes complex
    rng = np.random.default_rng(31)
    m = 8
    phi = np.arctan(_MIX_WEIGHT)
    theta = np.concatenate([[phi + 1e-4, phi - 1e-4], rng.uniform(-np.pi, np.pi, m - 2)])
    theta[-1] -= theta.sum()
    P = random_rotation(m, rng) * np.exp(0.5j * theta)
    X = P @ P.T
    assert np.array_equal(X, X.T) and is_member(SpaceKind.ai(m), X).member
    stack = np.array([sample(SpaceKind.ai(m), seed=1).matrix, X])
    eigh_calls.clear()
    V, lam = _eig_stack(stack)
    (first,), (second,) = eigh_calls
    assert first.dtype == np.float64 and second.dtype == np.complex128 and len(second) == 1
    assert V.dtype == np.complex128
    for Y, W, w in zip(stack, V, lam):
        assert np.linalg.norm(W.conj().T @ W - np.eye(m)) <= 1e-13 * m
        assert np.linalg.norm(Y - (W * w) @ W.conj().T) <= 1e-12
    assert np.allclose(np.sort(np.angle(lam[1])), np.sort(np.angle(np.exp(1j * theta))),
                       atol=1e-12)
    dec = eig_normal(X)
    assert dec.P.dtype == np.complex128
    assert np.linalg.norm(X - (dec.P * dec.eigenvalues) @ dec.P.conj().T) <= 1e-12


@pytest.mark.parametrize("m", [1, 4, 64])
def test_spectral_product_of_a_real_basis_matches_the_complex_formula(m):
    rng = np.random.default_rng(m)
    Q = random_rotation(m, rng)
    d = np.exp(1j * rng.uniform(-np.pi, np.pi, m))
    Qc = Q.astype(complex)
    want = (Qc * d) @ Qc.conj().T
    got = _spectral_product(Q, d)
    assert got.dtype == np.complex128 and got.shape == (m, m) and got.flags.c_contiguous
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)
    assert np.array_equal(_spectral_product(Qc, d), want)  # a complex basis takes the formula


def test_eig_normal_solves_once_per_matrix_when_points_alternate(eigh_calls):
    a, b = (p.matrix for p in sample_points(SpaceKind.ai(6), 2, 8))
    decs = []
    for X in (a, b, a, b):
        eigh_calls.clear()
        decs.append(eig_normal(X))
        assert len(eigh_calls) == 1
    eigh_calls.clear()
    assert eig_normal(b.copy()) is decs[-1] and eigh_calls == []
    for cold, warm in ((decs[0], decs[2]), (decs[1], decs[3])):
        assert cold.P.tobytes() == warm.P.tobytes()
        assert cold.eigenvalues.tobytes() == warm.eigenvalues.tobytes()


def test_eig_normal_solves_a_matrix_changed_in_place(eigh_calls):
    # the key is a copy of the bits: an entry written in place, or a +0.0
    # turned into -0.0 (which np.array_equal cannot see), is a new matrix
    theta = np.array([0.3, -1.1, 2.0, -1.2])
    X = np.diag(np.exp(1j * theta))
    eig_normal(X)

    def nudge(X):
        X[0, 1] += 1e-13

    def negate_zero(X):
        X.real[1, 0] = -0.0

    for change in (nudge, negate_zero):
        before = X.copy()
        change(X)
        assert X.tobytes() != before.tobytes()
        eigh_calls.clear()
        warm = eig_normal(X)
        assert len(eigh_calls) == 1
        eig_normal(np.eye(3))
        cold = eig_normal(X.copy())
        assert warm.P.tobytes() == cold.P.tobytes()
        assert warm.eigenvalues.tobytes() == cold.eigenvalues.tobytes()


def test_eig_normal_keeps_nothing_from_a_raising_call(eigh_calls):
    X = sample(SpaceKind.ai(3), seed=2).matrix
    eig_normal(X)
    for _ in range(2):
        with pytest.raises(NotUnitary):
            eig_normal(2.0 * np.eye(3))
    eigh_calls.clear()
    eig_normal(X)  # the raising call dropped X's entry
    assert len(eigh_calls) == 1


def test_eig_normal_decomposition_is_read_only():
    dec = eig_normal(sample(SpaceKind.aii(2), seed=3).matrix)
    with pytest.raises(ValueError, match="read-only"):
        dec.P[0, 0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        dec.eigenvalues[0] = 1.0


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
    # U (E + diag(k, -k)) and its m = 3 extension, U the swap, pass the unitary
    # gate.  A unitary V with residual r = ||X V - V diag(lam)|| puts X within r
    # of a normal matrix, so ||X X* - X* X|| <~ 4 r; here it is 4 sqrt(2) k, far
    # above 4 r at the residual check, so no basis passes
    for k, X in ((4e-8, [[0.0, 1.0], [1.0, 0.0]]),
                 (5.8e-8, [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])):
        X = np.array(X)
        X[1, 0], X[0, 1] = 1.0 + k, 1.0 - k
        with pytest.raises(NoConvergence):
            eig_normal(X)


def test_eig_stack_falls_back_on_near_collision(monkeypatch):
    # H1 + mu H2 maps e^{i theta} to sqrt(1 + mu^2) cos(theta - arctan mu), so
    # the angles arctan mu +- 0.7 nearly meet in the mixed spectrum and its
    # eigenvectors mix them; only that row is re-solved, and the other rows
    # keep exactly what a stack without it gives them
    rng = np.random.default_rng(29)
    m = 8
    phi = np.arctan(_MIX_WEIGHT)
    theta = np.concatenate([[phi + 0.7, phi - 0.7 - 1e-10], rng.uniform(-np.pi, np.pi, m - 2)])
    O, _ = np.linalg.qr(rng.standard_normal((m, m)))
    collide = (O * np.exp(1j * theta)) @ O.T
    stack = np.array([random_unitary(m, rng), random_unitary(m, rng), collide,
                      random_unitary(m, rng)])
    resolved = []
    eigvals = np.linalg.eigvals

    def recording_eigvals(A):
        resolved.append(A)
        return eigvals(A)

    monkeypatch.setattr(np.linalg, "eigvals", recording_eigvals)
    V, lam = _eig_stack(stack)
    rest = _eig_stack(np.delete(stack, 2, axis=0))
    assert len(resolved) == 1 and np.array_equal(resolved[0], stack[2:3])
    monkeypatch.undo()
    assert np.array_equal(np.delete(V, 2, axis=0), rest[0])
    assert np.array_equal(np.delete(lam, 2, axis=0), rest[1])
    # a re-solved row keeps the solver's order; eig_normal sorts it by argument
    order = np.lexsort((lam[2].imag, np.angle(lam[2])))
    assert np.array_equal(lam[2][order], eig_normal(collide).eigenvalues)
    assert np.allclose(np.sort(np.angle(lam[2])), np.sort(np.angle(np.exp(1j * theta))),
                       atol=1e-12)
    assert np.linalg.norm(collide - (V[2] * lam[2]) @ V[2].conj().T) <= 1e-12


def close_pair_and_partner(m, delta, seed):
    """An AI(m) member with a close pair folded onto its mirror image by the solver's weight.

    The pair psi +- delta/2 sits astride psi = arctan of the golden ratio, and
    the weight mu maps its mirror 2 arctan(mu) - psi -+ delta/2 onto it.
    """
    rng = np.random.default_rng(seed)
    phi, psi = np.arctan(_MIX_WEIGHT), np.arctan(_FOLD_WEIGHTS[1])
    theta = np.concatenate([psi + np.array([delta, -delta]) / 2,
                            2 * phi - psi + np.array([-delta, delta]) / 2,
                            rng.uniform(-np.pi, np.pi, m - 4)])
    theta[-1] -= theta.sum()
    O, _ = np.linalg.qr(rng.standard_normal((m, m)))
    return (O * np.exp(1j * theta)) @ O.T


@pytest.mark.parametrize("delta", [1e-8, 1e-7, 1e-6])
def test_refinement_keeps_a_close_pair_the_first_weight_resolved(delta):
    # the pair arctan(mu) +- 0.7 makes the weight fail the matrix beside a
    # close pair astride arctan(mu'); then a close pair folded onto its
    # mirror image, for m in {8, 32} and four seeds each
    rng = np.random.default_rng(3)
    m = 8
    phi, psi = np.arctan(_MIX_WEIGHT), np.arctan(_FOLD_WEIGHTS[1])
    theta = np.concatenate([[phi + 0.7, phi - 0.7, psi + delta / 2, psi - delta / 2],
                            rng.uniform(-np.pi, np.pi, m - 4)])
    theta[-1] -= theta.sum()
    O, _ = np.linalg.qr(rng.standard_normal((m, m)))
    members = [(O * np.exp(1j * theta)) @ O.T]
    members += [close_pair_and_partner(m, delta, seed) for m in (8, 32) for seed in range(4, 8)]
    for X in members:
        assert is_member(SpaceKind.ai(X.shape[0]), X).member
        dec = eig_normal(X)
        assert np.linalg.norm(X - (dec.P * dec.eigenvalues) @ dec.P.conj().T) <= 1e-12


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
    # every weight of _FOLD_WEIGHTS, the solver's included, folds a pair
    X = planted_fold(kind, seed=kind.n)
    assert is_member(kind, X).member
    dec = eig_normal(X)
    assert np.linalg.norm(X - (dec.P * dec.eigenvalues) @ dec.P.conj().T) <= 1e-10
    point = SpacePoint(kind, X)
    assert len(contract(point).samples) == 17
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
    # a far non-normal matrix fails the near-unitary gate
    with pytest.raises(NotInSpace):
        _eig_stack(np.array([[[1.0, 1.0], [0.0, 1.0]]], dtype=complex))
    lam = _eig_stack(np.array([np.eye(2), np.diag([1j, -1j])], dtype=complex))[1]
    assert np.array_equal(lam[0], [1, 1]) and np.array_equal(np.sort_complex(lam[1]), [-1j, 1j])


def test_angular_distance_folding():
    assert angular_distance(0.1, 2 * np.pi - 0.1) == pytest.approx(0.2)
    assert angular_distance(np.pi, 0.0) == pytest.approx(np.pi)
    assert angular_distance(1.0, 1.0) == 0.0


def test_matrix_json_roundtrip():
    rng = np.random.default_rng(2)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    doc = matrix_to_json(m)
    assert doc["n"] == 3 and len(doc["entries"]) == 9
    back = _json_matrix(doc)
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
        _json_matrix({"n": 2, "entries": [[1.0, 0.0]]})
    with pytest.raises(ValueError, match="square"):
        as_matrix(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="at least 1"):
        as_matrix(np.zeros((0, 0)))


_COUNT_TAKERS = {
    "structural_J": structural_J,
    "contract": lambda v: contract(SpacePoint(SpaceKind.ai(2), np.eye(2)), np.pi, v),
    "cover_audit": lambda v: json.dumps(vars(cover_audit(SpaceKind.ai(2), v, 1))),
    "sample_points": lambda v: sample_points(SpaceKind.ai(2), v, 1),
}


@pytest.mark.parametrize("take", _COUNT_TAKERS.values(), ids=_COUNT_TAKERS.keys())
def test_counts_take_only_positive_integers(take):
    # one check for every count: a ValueError naming the value, never a TypeError or an answer
    for v in (2.5, True, 0, -3, "3", np.float64(2.0)):
        with pytest.raises(ValueError, match=re.escape(f"got {v!r}")):
            take(v)
    take(np.int64(2))  # a numpy integer is a count; cover_audit's record stays JSON


_SEED_TAKERS = {
    "sample_points": lambda v: sample_points(SpaceKind.ai(2), 2, v),
    "sample": lambda v: sample(SpaceKind.aii(1), v),
    "cover_audit": lambda v: cover_audit(SpaceKind.ai(2), 2, v),
}


@pytest.mark.parametrize("take", _SEED_TAKERS.values(), ids=_SEED_TAKERS.keys())
def test_seeds_take_only_non_negative_integers(take):
    # None would draw from OS entropy; the others escaped as bare TypeErrors
    for v in (None, 2.5, "x", True, -1):
        with pytest.raises(ValueError, match=re.escape(f"seed must be a non-negative integer, got {v!r}")):
            take(v)
    take(0)
    take(np.int64(3))
