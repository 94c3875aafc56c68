"""Property tests on structured spectra: the stacked cover pipeline and the factorizations."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from lscat.cover import _margins, classify, default_cover
from lscat.errors import ComponentObstruction
from lscat.factorizations import factor_aii, factor_symmetric
from lscat.homotopy import branch_log
from lscat.linalg_core import (
    _MIX_WEIGHTS,
    CLUSTER_TOL,
    MEMBERSHIP_TOL,
    _eig_stack,
    angular_distance,
    eig_normal,
    exp_skew_hermitian,
)
from lscat.spaces import Family, SpaceKind, SpacePoint, is_member, structural_J


def _parent_margins(config, X):
    """Margins as classify formed them one matrix at a time, from eig_normal."""
    angles = np.angle(eig_normal(X).eigenvalues)
    return [float(np.min(angular_distance(angles, np.angle(lam)))) for lam in config.lambdas]


@st.composite
def _phases(draw, k):
    """k unit phases with product 1 and a drawn shape of spectrum.

    The shapes: +-1, +-i, scalar, exact clusters, near-degenerate clusters,
    pairs folded together by the first mixing weight, and free angles.
    """
    shape = draw(st.sampled_from(["pm1", "pmi", "scalar", "cluster", "near", "fold", "free"]))
    angle = st.floats(-np.pi, np.pi)
    if shape == "pm1":
        theta = draw(st.lists(st.sampled_from([0.0, np.pi]), min_size=k, max_size=k))
    elif shape == "pmi":
        quarter = st.sampled_from([0.0, np.pi, np.pi / 2, -np.pi / 2])
        theta = draw(st.lists(quarter, min_size=k, max_size=k))
    elif shape == "scalar":
        theta = [2 * np.pi * draw(st.integers(0, k - 1)) / k] * k
    elif shape == "cluster":
        values = draw(st.lists(angle, min_size=1, max_size=2))
        theta = draw(st.lists(st.sampled_from(values), min_size=k, max_size=k))
    elif shape == "near":
        # spreads on both sides of CLUSTER_TOL, down to roundoff
        spread = draw(st.sampled_from([1e-14, 1e-10, 0.5 * CLUSTER_TOL, 2 * CLUSTER_TOL]))
        base = draw(angle)
        theta = [base + spread * draw(st.integers(-2, 2)) for _ in range(k)]
    elif shape == "fold":
        # arctan(mu) +- delta meet in the spectrum of H1 + mu H2 for the first
        # weight mu, so the stacked solve must refine the matrix by Rayleigh-Ritz
        phi = np.arctan(_MIX_WEIGHTS[0])
        delta = draw(st.floats(0.1, 3.0))
        eps = draw(st.sampled_from([0.0, 1e-12, 1e-8]))
        theta = [phi + delta, phi - delta - eps] + draw(st.lists(angle, min_size=k, max_size=k))
        theta = theta[:k]
    else:
        theta = draw(st.lists(angle, min_size=k, max_size=k))
    phases = np.exp(1j * np.asarray(theta, dtype=float))
    if shape != "scalar":
        phases[-1] = 1.0 / np.prod(phases[:-1])
    return phases


@st.composite
def _member_stacks(draw):
    """A kind, a stack of its members with structured spectra, and each member's det d.

    An AII member is U diag(d, d) U* for U in Sp(n); an AI member has no d, and None.
    """
    kind = SpaceKind(draw(st.sampled_from(list(Family))), draw(st.integers(1, 6)))
    m = kind.ambient_size
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stack, dets = [], []
    for _ in range(draw(st.integers(1, 5))):
        if kind.family is Family.AI:
            O, _ = np.linalg.qr(rng.standard_normal((m, m)))
            stack.append((O * draw(_phases(m))) @ O.T)
            dets.append(None)
        else:
            # diag(d, d) commutes with J; conjugating by Sp(n) keeps tX = J X tJ
            n = kind.n
            g = rng.standard_normal((2, n, n)) + 1j * rng.standard_normal((2, n, n))
            A = (g[0] - g[0].conj().T) / 2.0
            B = (g[1] + g[1].T) / 2.0
            U = scipy.linalg.expm(np.block([[A, -B.conj()], [B, A.conj()]]))
            d = draw(_phases(n))
            d[0] *= draw(st.sampled_from([1, -1]))  # det d = -1 reaches the other orbit
            stack.append((U * np.concatenate([d, d])) @ U.conj().T)
            dets.append(round(float(np.prod(d).real)))
    return kind, np.array(stack), dets


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(_member_stacks())
def test_stacked_margins_equal_per_point_classify(case):
    kind, stack, _ = case
    config = default_cover(kind)
    margins = _margins(config, np.angle(_eig_stack(stack)[1]))
    for X, row in zip(stack, margins):
        assert is_member(kind, X).member
        cls = classify(config, SpacePoint(kind, X))
        assert list(row) == list(cls.margins) == _parent_margins(config, X)
        assert int(np.argmax(row)) == cls.witness


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(_member_stacks())
def test_factorization_round_trip_and_orbit_invariant(case):
    # AII(n) = Sp-orbits of diag(d, d): factor_aii factors exactly the orbit of J,
    # where det d = (-1)^n, and raises ComponentObstruction on the other
    kind, stack, dets = case
    for X, det_d in zip(stack, dets):
        if kind.family is Family.AI:
            result = factor_symmetric(X)
            product = result.P @ result.P.T
        elif det_d != (-1) ** kind.n:
            with pytest.raises(ComponentObstruction):
                factor_aii(SpacePoint(kind, X))
            continue
        else:
            result = factor_aii(SpacePoint(kind, X))
            J = structural_J(kind.n)
            product = J @ result.P @ J @ result.P.T
        assert np.linalg.norm(X - product) <= 1e-10
        assert abs(np.linalg.det(result.P) - 1.0) <= 1e-10


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(_member_stacks())
def test_witness_margin_floor_and_log_at_the_witness(case):
    # every member keeps some lambda_r at least pi/(2n) from its spectrum,
    # so the logarithm at the witness's angle never meets its cut
    kind, stack, _ = case
    config = default_cover(kind)
    for X in stack:
        cls = classify(config, SpacePoint(kind, X))
        assert cls.margins[cls.witness] >= np.pi / (2 * kind.n) - 10 * MEMBERSHIP_TOL
        bl = branch_log(X, float(np.angle(config.lambdas[cls.witness])))
        scale = max(np.linalg.norm(X), 1.0)
        assert np.linalg.norm(exp_skew_hermitian(bl.H) - X) <= 10 * MEMBERSHIP_TOL * scale
        turns = np.trace(bl.H).imag / (2 * np.pi)
        assert abs(turns - round(turns)) <= 1e-9
