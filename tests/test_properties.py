"""Property tests: the stacked cover pipeline against one-matrix classification."""

import numpy as np
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from lscat.cover import _margins, classify, default_cover
from lscat.linalg_core import (
    _MIX_WEIGHTS,
    CLUSTER_TOL,
    _eig_stack,
    angular_distance,
    eig_normal,
)
from lscat.spaces import Family, SpaceKind, SpacePoint, is_member


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
        # weight mu, so the stacked solve must hand the matrix to eig_normal
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
    """A kind and a stack of its members with structured spectra."""
    kind = SpaceKind(draw(st.sampled_from(list(Family))), draw(st.integers(1, 6)))
    m = kind.ambient_size
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stack = []
    for _ in range(draw(st.integers(1, 5))):
        if kind.family is Family.AI:
            O, _ = np.linalg.qr(rng.standard_normal((m, m)))
            stack.append((O * draw(_phases(m))) @ O.T)
        else:
            # diag(d, d) commutes with J; conjugating by Sp(n) keeps tX = J X tJ
            n = kind.n
            g = rng.standard_normal((2, n, n)) + 1j * rng.standard_normal((2, n, n))
            A = (g[0] - g[0].conj().T) / 2.0
            B = (g[1] + g[1].T) / 2.0
            U = scipy.linalg.expm(np.block([[A, -B.conj()], [B, A.conj()]]))
            d = draw(_phases(n))
            stack.append((U * np.concatenate([d, d])) @ U.conj().T)
    return kind, np.array(stack)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(_member_stacks())
def test_stacked_margins_equal_per_point_classify(case):
    kind, stack = case
    config = default_cover(kind)
    margins = _margins(config, np.angle(_eig_stack(stack, unitary=True)[1]))
    for X, row in zip(stack, margins):
        assert is_member(kind, X).member
        cls = classify(config, SpacePoint(kind, X))
        assert list(row) == list(cls.margins) == _parent_margins(config, X)
        assert int(np.argmax(row)) == cls.witness
