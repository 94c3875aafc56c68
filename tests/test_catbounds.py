"""Tests for cup lengths, the two upper-bound rules, and the table."""

import itertools
import json
import time
from pathlib import Path

import numpy as np
import pytest

from lscat import SpaceKind, sample, structural_J
from lscat.catbounds import (
    ClassicalFamily,
    GradedAlgebraSpec,
    KahlerFlag,
    ai_cohomology_generators,
    aii_cohomology_generators,
    cover_upper_bound,
    cup_length,
    describe,
    ganea_upper,
    kahler_cat,
    render_table,
    table_rows,
)
from lscat.errors import InvalidParams

GOLDEN = Path(__file__).parent / "data" / "table.csv"


def brute_force_cup_length(m: int) -> int:
    """Longest nonzero product by enumerating every generator sequence."""
    best = 0
    for length in range(1, m + 2):
        nonzero = any(
            len(set(seq)) == length
            for seq in itertools.product(range(m), repeat=length)
        )
        if nonzero:
            best = length
    return best


def test_cup_length_generator_specs():
    for n in range(2, 9):
        assert cup_length(ai_cohomology_generators(n)) == n - 1
        assert cup_length(aii_cohomology_generators(n)) == n - 1
    assert tuple(ai_cohomology_generators(5).generators) == (2, 3, 4, 5)
    assert tuple(aii_cohomology_generators(4).generators) == (5, 9, 13)


def test_cup_length_unit_algebra():
    assert cup_length(GradedAlgebraSpec(())) == 0


def test_cup_length_matches_brute_force():
    for m in range(0, 7):
        spec = GradedAlgebraSpec(tuple(range(2, 2 + m)))
        assert cup_length(spec) == brute_force_cup_length(m) == m


def test_graded_algebra_spec_validation():
    with pytest.raises(ValueError):
        GradedAlgebraSpec((0, 2))
    # a range is checked at its ends, whichever way it runs
    for degrees in (range(0, 3), range(3, -1, -1), range(5, -4, -4)):
        with pytest.raises(ValueError):
            GradedAlgebraSpec(degrees)
    for degrees in ((True, 2.5), (2, 2.0), (False,)):
        with pytest.raises(ValueError):
            GradedAlgebraSpec(degrees)
    assert cup_length(GradedAlgebraSpec(range(5, 1))) == 0
    assert cup_length(GradedAlgebraSpec((np.int64(2), 3))) == 2
    for generators in (ai_cohomology_generators, aii_cohomology_generators):
        for n in (0, 3.5, True):
            with pytest.raises(InvalidParams):
                generators(n)
        assert tuple(generators(np.int64(3)).generators) == tuple(generators(3).generators)


def test_ganea_upper():
    assert ganea_upper(8, 4) == 2
    for n in range(2, 9):
        assert ganea_upper(n, n) == 1
    assert ganea_upper(0, 1) == 0
    for r in (0, -1):
        with pytest.raises(InvalidParams, match="^connectivity parameter r must be at least 1$"):
            ganea_upper(4, r)
    with pytest.raises(InvalidParams):
        ganea_upper(-1, 1)
    for args in ((4, 1.5), (4.0, 2), (True, 1)):
        with pytest.raises(InvalidParams):
            ganea_upper(*args)
    assert ganea_upper(np.int64(8), np.int32(4)) == 2


def test_kahler_cat():
    assert kahler_cat(6) == 6
    assert kahler_cat(0) == 0
    for complex_dimension in (-1, 2.5, True):
        with pytest.raises(InvalidParams):
            kahler_cat(complex_dimension)
    assert kahler_cat(np.int64(6)) == 6


def test_cover_upper_bound():
    assert cover_upper_bound(1) == 0
    assert cover_upper_bound(5) == 4
    for n_sets in (0, 2.5, True):
        with pytest.raises(InvalidParams):
            cover_upper_bound(n_sets)
    assert cover_upper_bound(np.int64(5)) == 4


def test_describe_ai_row():
    d = describe(ClassicalFamily.AI, 4)
    assert d.dimension == 9
    assert d.cat_lower == d.cat_upper == d.cat_exact == 3
    assert d.kahler is KahlerFlag.NO
    d = describe(ClassicalFamily.AI, 200)
    assert d.cat_lower == d.cat_upper == d.cat_exact == 199
    with pytest.raises(InvalidParams):
        describe(ClassicalFamily.AI, 2)


def test_describe_aii_row():
    d = describe(ClassicalFamily.AII, 3)
    assert d.dimension == 14
    assert d.cat_exact == 2
    d = describe(ClassicalFamily.AII, 30)
    assert d.cat_lower == d.cat_upper == d.cat_exact == 29
    with pytest.raises(InvalidParams):
        describe(ClassicalFamily.AII, 1)


def test_describe_cost_does_not_grow_with_n():
    start = time.perf_counter()
    for n in (10**12, 10**30):  # 10^30 is past the largest len() of a range
        for family in (ClassicalFamily.AI, ClassicalFamily.AII):
            d = describe(family, n)
            assert d.cat_lower == d.cat_exact == n - 1
            assert d.dimension == hardcoded_row(family, (n,))[0]
    assert time.perf_counter() - start < 1.0


def test_describe_kahler_rows():
    d = describe(ClassicalFamily.AIII, (1, 1))
    assert d.dimension == 2 and d.cat_exact == 1 and d.kahler is KahlerFlag.YES
    d = describe(ClassicalFamily.DIII, 4)
    assert d.dimension == 12 and d.cat_exact == 6
    d = describe(ClassicalFamily.CI, 3)
    assert d.dimension == 12 and d.cat_exact == 6
    d = describe(ClassicalFamily.BDI, (4, 2))
    assert d.dimension == 8 and d.cat_exact == 4 and d.kahler is KahlerFlag.YES
    with pytest.raises(InvalidParams, match="got True$"):
        describe(ClassicalFamily.AIII, (True, True))


def test_describe_bdi_open_problem():
    d = describe(ClassicalFamily.BDI, (5, 3))
    assert d.dimension == 15
    assert d.cat_lower is None and d.cat_upper is None and d.cat_exact is None
    assert d.kahler is KahlerFlag.NO
    with pytest.raises(InvalidParams):
        describe(ClassicalFamily.BDI, (2, 2))
    with pytest.raises(InvalidParams):
        describe(ClassicalFamily.BDI, (3, 1))


def test_describe_bdii_sphere_row():
    d = describe(ClassicalFamily.BDII, 5)
    assert d.dimension == 5 and d.cat_exact == 1
    assert d.cat_lower == d.cat_upper == 1
    assert d.connectivity == 5
    assert describe(ClassicalFamily.BDII, 2).kahler is KahlerFlag.YES
    assert describe(ClassicalFamily.BDII, 3).kahler is KahlerFlag.NO


def test_describe_cii_row():
    d = describe(ClassicalFamily.CII, (2, 1))
    assert d.dimension == 8
    assert d.cat_lower == 2 and d.cat_upper == 2 and d.cat_exact == 2
    assert d.connectivity == 4 and d.kahler is KahlerFlag.NO
    with pytest.raises(InvalidParams):
        describe(ClassicalFamily.CII, (1, 2))


@pytest.mark.parametrize(
    "params, shown",
    [((3.7,), "3.7"), (("5",), "'5'"), (3.7, "3.7"), ("5", "'5'"), (None, "None"),
     (True, "True"), ((3, False), "False")],
)
def test_describe_rejects_non_integer_params(params, shown):
    with pytest.raises(InvalidParams, match=f"got {shown}$"):
        describe(ClassicalFamily.AI, params)


def test_describe_param_arity():
    with pytest.raises(InvalidParams):
        describe(ClassicalFamily.AI, (3, 3))
    with pytest.raises(InvalidParams):
        describe(ClassicalFamily.AIII, 3)


def sandwich_grid():
    yield from ((ClassicalFamily.AI, (n,)) for n in range(3, 11))
    yield from ((ClassicalFamily.AII, (n,)) for n in range(2, 11))
    yield from (
        (ClassicalFamily.AIII, (p, q))
        for p in range(1, 5)
        for q in range(1, p + 1)
    )
    yield from (
        (ClassicalFamily.BDI, (p, q))
        for p in range(2, 7)
        for q in range(2, p + 1)
        if p + q != 4
    )
    yield from ((ClassicalFamily.BDII, (n,)) for n in range(2, 9))
    yield from ((ClassicalFamily.DIII, (l,)) for l in range(4, 9))
    yield from ((ClassicalFamily.CI, (n,)) for n in range(3, 9))
    yield from (
        (ClassicalFamily.CII, (p, q))
        for p in range(1, 5)
        for q in range(1, p + 1)
    )


def hardcoded_row(family, params):
    """Table constants as published, for cross-checking the recomputation."""
    if family is ClassicalFamily.AI:
        (n,) = params
        return (n - 1) * (n + 2) // 2, n - 1
    if family is ClassicalFamily.AII:
        (n,) = params
        return (n - 1) * (2 * n + 1), n - 1
    if family is ClassicalFamily.AIII:
        p, q = params
        return 2 * p * q, p * q
    if family is ClassicalFamily.BDI:
        p, q = params
        return p * q, (p if q == 2 else None)
    if family is ClassicalFamily.BDII:
        (n,) = params
        return n, 1
    if family is ClassicalFamily.DIII:
        (l,) = params
        return l * (l - 1), l * (l - 1) // 2
    if family is ClassicalFamily.CI:
        (n,) = params
        return n * (n + 1), n * (n + 1) // 2
    p, q = params
    return 4 * p * q, p * q


def test_sandwich_consistency_against_hardcoded_table():
    for family, params in sandwich_grid():
        d = describe(family, params)
        dim, cat = hardcoded_row(family, params)
        assert d.dimension == dim, (family, params)
        assert d.cat_exact == cat, (family, params)
        if d.cat_exact is not None:
            assert d.cat_lower == d.cat_exact == d.cat_upper, (family, params)
        else:
            assert d.cat_lower is None and d.cat_upper is None


def _su_basis(m):
    """A real basis of su(m), the traceless skew-Hermitian m x m matrices."""
    basis = []
    for i, j in itertools.combinations(range(m), 2):
        for z in (1, 1j):
            A = np.zeros((m, m), dtype=complex)
            A[i, j], A[j, i] = z, -np.conj(z)
            basis.append(A)
    for k in range(m - 1):
        A = np.zeros((m, m), dtype=complex)
        A[k, k], A[k + 1, k + 1] = 1j, -1j
        basis.append(A)
    return basis


def test_model_tangent_dimension_is_the_table_dimension():
    """The kernel of the linearized symmetry law at a sampled point is the top degree.

    A curve X exp(sA), A in su(m), stays in the space to first order exactly
    when t(XA) = XA (AI) or t(XA) = J XA tJ (AII), so that kernel is the
    space's tangent space.  The top degree of the cohomology spec, the sum of
    its generator degrees, must equal its real dimension, and so must
    describe's dimension wherever the table has a row.
    """
    kinds = [SpaceKind.ai(n) for n in range(2, 7)] + [SpaceKind.aii(n) for n in range(1, 7)]
    for kind in kinds:
        family, n = ClassicalFamily(kind.family.value), kind.n
        X = sample(kind, seed=n).matrix
        if family is ClassicalFamily.AI:
            spec, has_row = ai_cohomology_generators(n), n >= 3
            images = [(X @ A).T - X @ A for A in _su_basis(n)]
        else:
            spec, has_row, J = aii_cohomology_generators(n), n >= 2, structural_J(n)
            images = [(X @ A).T - J @ X @ A @ J.T for A in _su_basis(2 * n)]
        L = np.array([np.concatenate([Y.real.ravel(), Y.imag.ravel()]) for Y in images]).T
        s = np.linalg.svd(L, compute_uv=False)
        kernel = len(images) - int(np.count_nonzero(s > 1e-9 * s[0]))
        assert kernel == sum(spec.generators), kind
        if has_row:
            assert kernel == describe(family, n).dimension, kind


def test_theorem_rows_for_matrix_families():
    for n in range(3, 9):
        assert describe(ClassicalFamily.AI, n).cat_exact == n - 1
        assert describe(ClassicalFamily.AII, n).cat_exact == n - 1


def test_table_csv_matches_golden():
    assert render_table("csv") == GOLDEN.read_text()


def test_table_formats():
    rows = table_rows()
    assert len(rows) == 8
    assert [r["family"] for r in rows] == [
        "AI", "AII", "AIII", "BDI", "BDII", "DIII", "CI", "CII",
    ]
    assert "?" in rows[3]["cat"]
    md = render_table("md")
    assert md.count("\n") == 10  # header + rule + 8 rows
    parsed = json.loads(render_table("json"))
    assert len(parsed) == 8
    with pytest.raises(ValueError):
        render_table("html")


def test_descriptor_json_shape():
    doc = json.loads(json.dumps(vars(describe(ClassicalFamily.BDI, (5, 3)))))
    assert doc["cat_exact"] is None
    assert doc["family"] == "BDI" and doc["params"] == [5, 3]
