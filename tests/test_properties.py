"""Property tests on structured spectra: the stacked cover pipeline and the factorizations."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from lscat.cover import _margins, classify, default_cover, multiplicity_audit
from lscat.errors import ComponentObstruction
from lscat.factorizations import factor_aii, factor_symmetric
from lscat.homotopy import _branch_angle, _lift, branch_log, contract
from lscat.linalg_core import (
    _MIX_WEIGHT,
    CLUSTER_TOL,
    MEMBERSHIP_TOL,
    _eig_stack,
    angular_distance,
    eig_normal,
)
from lscat.spaces import (
    Family,
    SpaceKind,
    SpacePoint,
    haar_special_unitary,
    is_member,
    sample_points,
    structural_J,
)


def _parent_margins(config, X):
    """Margins as classify formed them one matrix at a time, from eig_normal."""
    angles = np.angle(eig_normal(X).eigenvalues)
    return [float(np.min(angular_distance(angles, np.angle(lam)))) for lam in config.lambdas]


@st.composite
def _phases(draw, k):
    """k unit phases with product 1 and a drawn shape of spectrum.

    The shapes: +-1, +-i, scalar, exact clusters, near-degenerate clusters,
    pairs folded together by the mixing weight, and free angles.
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
        # arctan(mu) +- delta meet in the spectrum of H1 + mu H2 for the solver's
        # weight mu, so the stacked solve must re-solve the matrix by the Cayley transform
        phi = np.arctan(_MIX_WEIGHT)
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
def _member_stacks(draw, families=tuple(Family), max_n=6):
    """A kind, a stack of its members with structured spectra, and each member's det d.

    An AII member is U diag(d, d) U* for U in Sp(n); an AI member has no d, and None.
    """
    kind = SpaceKind(draw(st.sampled_from(families)), draw(st.integers(1, max_n)))
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
        # the witness is the lowest index within MEMBERSHIP_TOL of the largest margin
        assert cls.witness == min(r for r, m in enumerate(row) if m >= max(row) - MEMBERSHIP_TOL)


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
        assert np.linalg.norm(scipy.linalg.expm(bl.H) - X) <= 10 * MEMBERSHIP_TOL * scale
        turns = np.trace(bl.H).imag / (2 * np.pi)
        assert abs(turns - round(turns)) <= 1e-9


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_member_stacks(families=(Family.AII,), max_n=8))
def test_aii_multiplicities_are_even(case):
    # conjugation by J pairs the eigenvectors of an AII member, so every
    # cluster of its spectrum is even and the clusters hold all 2n eigenvalues
    kind, stack, _ = case
    for X in stack:
        sizes = [size for _, size in multiplicity_audit(SpacePoint(kind, X))]
        assert all(size % 2 == 0 for size in sizes)
        assert sum(sizes) == kind.ambient_size


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_member_stacks(max_n=8), st.integers(0), st.floats(0.0, 1.0))
def test_every_path_sample_is_within_its_certified_bounds(case, gap, place):
    # each sample past the source carries bounds read from one check of the basis;
    # is_member of its matrix stays within them, law by law, with the same verdict.
    # The cut lies in a drawn gap of the spectrum, at least 1e-6 from both ends.
    kind, stack, _ = case
    for X in stack:
        angles = np.sort(np.angle(eig_normal(X).eigenvalues))
        gaps = np.diff(angles, append=angles[0] + 2 * np.pi)
        j = gap % len(gaps) if gaps[gap % len(gaps)] >= 2e-6 else int(np.argmax(gaps))
        alpha = angles[j] + 1e-6 + place * (gaps[j] - 2e-6)
        for smp in contract(SpacePoint(kind, X), alpha, steps=8).samples:
            measured = is_member(kind, smp.point.matrix)
            assert measured.member == smp.residuals.member
            for law in ("unitarity", "determinant", "symmetry"):
                assert getattr(measured, law) <= getattr(smp.residuals, law)


@pytest.mark.parametrize("n", range(1, 7))
def test_aii_component_is_the_parity_of_winding_plus_n(n):
    # along exp(tH) the Pfaffian of tJ X turns by (-1)^k, so a member whose
    # logarithm winds k times lies in J's component, where factor_aii finds a
    # factor, exactly when k + n is even.  Haar points lie there; X -> g X J tg tJ
    # keeps X's component, and the starts reach both of them for every n.
    kind, J = SpaceKind.aii(n), structural_J(n)
    rng = np.random.default_rng(100 + n)
    d = np.ones(n)
    d[0] = -1.0
    points = sample_points(kind, 10, seed=n)
    for X in (np.eye(2 * n), -np.eye(2 * n), np.diag(np.concatenate([d, d]))):
        for _ in range(10):
            g = haar_special_unitary(2 * n, rng)
            points.append(SpacePoint(kind, g @ X @ J @ g.T @ J.T))
    odd_seen = set()
    for point in points:
        assert is_member(kind, point.matrix).member
        odd = (_lift(eig_normal(point.matrix), _branch_angle(point, None))[3] + n) % 2 == 1
        if odd:
            with pytest.raises(ComponentObstruction):
                factor_aii(point)
        else:
            factor_aii(point)
        odd_seen.add(odd)
    assert odd_seen == {False, True}


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16])
@pytest.mark.parametrize("family", list(Family))
def test_first_leg_keeps_the_source_margin(family, n):
    # the lifted angles theta_i sum to 2 pi k, so the target angle 2 pi k / m is
    # their mean and every sample's angles (1 - s) theta_i + s 2 pi k / m lie in
    # [min theta, max theta]: each sample is at least the source's margin from
    # e^{i alpha}, so each component of A_r contracts inside A_r
    kind = SpaceKind(family, n)
    for point in sample_points(kind, 40, seed=600 + n):
        path = contract(point, steps=8)
        margins = [np.min(angular_distance(np.angle(np.linalg.eigvals(smp.point.matrix)),
                                           path.alpha)) for smp in path.samples]
        assert min(margins[1:]) >= margins[0] - 1e-12  # margins[0] is the source's


@settings(max_examples=3, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), _phases(256))
def test_factor_round_trip_and_margin_floor_at_m_256(seed, phases):
    kind = SpaceKind.ai(256)
    O, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((256, 256)))
    X = (O * phases) @ O.T
    assert is_member(kind, X).member
    result = factor_symmetric(X)
    gate = 10 * MEMBERSHIP_TOL * max(np.linalg.norm(X), 1.0)
    assert result.residual <= gate
    assert np.linalg.norm(X - result.P @ result.P.T) <= gate
    assert abs(np.linalg.det(result.P) - 1.0) <= 1e-10
    cls = classify(default_cover(kind), SpacePoint(kind, X))
    assert cls.margins[cls.witness] >= np.pi / (2 * kind.n) - 10 * MEMBERSHIP_TOL
