"""Category bounds and the classification table of the classical families.

Three rules produce every bound in the table:

* cup_length: the longest nonzero product of positive-degree classes is a
  lower bound for the category; in an exterior algebra the product of all
  m generators is the top class, so the cup length is exactly m.
* ganea_upper: an (r-1)-connected complex of dimension d has category at
  most floor(d / r).
* kahler_cat: a simply connected complex d-manifold carrying a Kahler
  metric has category exactly d.

describe() assembles one row of the table for concrete parameters,
recomputing the bounds from these rules wherever the source cohomology is
on record.  A row's category is exact where its lower bound meets its upper
bound, and None where both are unknown.  render_table() emits the symbolic
eight-family table.
Everything in this module is exact integer arithmetic.
"""

from __future__ import annotations

import json
import numbers
import operator
from dataclasses import dataclass
from enum import Enum

from .errors import InvalidConnectivity, InvalidParams


class ClassicalFamily(str, Enum):
    AI = "AI"
    AII = "AII"
    AIII = "AIII"
    BDI = "BDI"
    BDII = "BDII"
    DIII = "DIII"
    CI = "CI"
    CII = "CII"


class KahlerFlag(str, Enum):
    YES = "yes"
    NO = "no"


@dataclass(frozen=True)
class GradedAlgebraSpec:
    """Exterior algebra on generators of the given positive degrees.

    generators is a tuple, or a range for the arithmetic degrees of the
    matrix families: its count and its check then cost O(1) for any n.
    The cup length of an exterior algebra does not depend on its
    coefficients, so the spec does not record them.
    """

    generators: tuple[int, ...] | range

    def __post_init__(self):
        degrees = self.generators
        if isinstance(degrees, range) and degrees:
            degrees = (degrees[0], degrees[-1])  # a range is monotone
        if any(d < 1 for d in degrees):
            raise ValueError("generator degrees must be positive")


@dataclass(frozen=True)
class SpaceDescriptor:
    """One concrete row of the classification table.

    connectivity is the r with the space (r-1)-connected where the table
    relies on it, and None where no dimension bound is invoked.  A None in
    the cat fields means the value is genuinely unknown.
    """

    family: ClassicalFamily
    params: tuple[int, ...]
    dimension: int
    kahler: KahlerFlag
    connectivity: int | None
    cat_lower: int | None
    cat_upper: int | None
    cat_exact: int | None


def cup_length(spec: GradedAlgebraSpec) -> int:
    """Longest nonzero product of generators: the generator count.

    Every generator squares to zero, so a nonzero product uses each at most
    once, and the product of all m of them is the nonzero top class.
    """
    degrees = spec.generators
    if isinstance(degrees, range) and degrees:  # len() of a range stops at sys.maxsize
        return (degrees[-1] - degrees[0]) // degrees.step + 1
    return len(degrees)


def ganea_upper(dimension: int, connectivity_r: int) -> int:
    """Category upper bound floor(dimension / r) for an (r-1)-connected space."""
    if connectivity_r < 1:
        raise InvalidConnectivity("connectivity parameter r must be at least 1")
    if dimension < 0:
        raise InvalidParams("dimension must be nonnegative")
    return dimension // connectivity_r


def kahler_cat(complex_dimension: int) -> int:
    """Exact category of a simply connected Kahler manifold: its complex dimension."""
    if complex_dimension < 0:
        raise InvalidParams("complex dimension must be nonnegative")
    return complex_dimension


def cover_upper_bound(n_sets: int) -> int:
    """Category bound from a cover by n contractible open sets: n - 1."""
    if n_sets < 1:
        raise InvalidParams("a cover needs at least one set")
    return n_sets - 1


def ai_cohomology_generators(n: int) -> GradedAlgebraSpec:
    """Mod-2 cohomology of the symmetric family: exterior on degrees 2..n."""
    if n < 1:
        raise InvalidParams("n must be positive")
    return GradedAlgebraSpec(range(2, n + 1))


def aii_cohomology_generators(n: int) -> GradedAlgebraSpec:
    """Integral cohomology of the twisted family: exterior on degrees 5, 9, ..., 4n-3."""
    if n < 1:
        raise InvalidParams("n must be positive")
    return GradedAlgebraSpec(range(5, 4 * n - 2, 4))


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise InvalidParams(message)


def _integer(value) -> int:
    try:
        return operator.index(value)
    except TypeError:
        raise InvalidParams(f"parameters must be integers, got {value!r}") from None


def _params_tuple(family: ClassicalFamily, params) -> tuple[int, ...]:
    if isinstance(params, (numbers.Number, str)):
        params = (params,)
    params = tuple(_integer(p) for p in params)
    expected = 2 if family in (ClassicalFamily.AIII, ClassicalFamily.BDI, ClassicalFamily.CII) else 1
    _require(
        len(params) == expected,
        f"{family.value} takes {expected} parameter(s), got {len(params)}",
    )
    return params


def describe(family: ClassicalFamily | str, params) -> SpaceDescriptor:
    """Fill one table row for concrete parameters, recomputing the bounds.

    Raises InvalidParams naming the violated side condition.  The category
    is exact where the lower bound meets the upper bound; cat fields are
    None exactly where the classification is an open problem.
    """
    family = ClassicalFamily(family)
    params = _params_tuple(family, params)
    kahler, connectivity = KahlerFlag.NO, None

    if family is ClassicalFamily.AI:
        (n,) = params
        _require(n > 2, "AI requires n > 2")
        dimension = (n - 1) * (n + 2) // 2
        lower, upper = cup_length(ai_cohomology_generators(n)), cover_upper_bound(n)
    elif family is ClassicalFamily.AII:
        (n,) = params
        _require(n > 1, "AII requires n > 1")
        dimension = (n - 1) * (2 * n + 1)
        lower, upper = cup_length(aii_cohomology_generators(n)), cover_upper_bound(n)
    elif family is ClassicalFamily.AIII:
        p, q = params
        _require(p >= q >= 1, "AIII requires p >= q >= 1")
        dimension, kahler = 2 * p * q, KahlerFlag.YES
        lower = upper = kahler_cat(p * q)
    elif family is ClassicalFamily.BDI:
        p, q = params
        _require(p >= q >= 2, "BDI requires p >= q >= 2")
        _require(p + q != 4, "BDI requires p + q != 4")
        dimension, lower, upper = p * q, None, None
        if q == 2:
            kahler = KahlerFlag.YES
            lower = upper = kahler_cat(p)
    elif family is ClassicalFamily.BDII:
        (n,) = params
        _require(n >= 2, "BDII requires n >= 2")
        dimension = connectivity = n
        kahler = KahlerFlag.YES if n == 2 else KahlerFlag.NO
        lower, upper = cup_length(GradedAlgebraSpec((n,))), ganea_upper(n, n)
    elif family is ClassicalFamily.DIII:
        (l,) = params
        _require(l >= 4, "DIII requires l >= 4")
        dimension, kahler = l * (l - 1), KahlerFlag.YES
        lower = upper = kahler_cat(l * (l - 1) // 2)
    elif family is ClassicalFamily.CI:
        (n,) = params
        _require(n >= 3, "CI requires n >= 3")
        dimension, kahler = n * (n + 1), KahlerFlag.YES
        lower = upper = kahler_cat(n * (n + 1) // 2)
    else:
        # CII: the cohomology ring matches the complex Grassmannian's, so the
        # cup-length lower bound equals that Kahler space's category; the
        # upper bound is the dimension bound with 3-connectedness.
        p, q = params
        _require(p >= q >= 1, "CII requires p >= q >= 1")
        dimension, connectivity = 4 * p * q, 4
        lower, upper = kahler_cat(p * q), ganea_upper(dimension, connectivity)

    cat_exact = lower if lower == upper else None
    return SpaceDescriptor(
        family, params, dimension, kahler, connectivity, lower, upper, cat_exact
    )


_TABLE_COLUMNS = ("family", "space", "kahler", "dimension", "cat")

#: The symbolic rows, one string per column of _TABLE_COLUMNS.
_TABLE_ROWS = (
    ("AI", "SU(n)/SO(n) (n > 2)", "no", "(n-1)(n+2)/2", "n-1"),
    ("AII", "SU(2n)/Sp(n) (n > 1)", "no", "(n-1)(2n+1)", "n-1"),
    ("AIII", "U(p+q)/(U(p) x U(q)) (p >= q >= 1)", "yes", "2pq", "pq"),
    ("BDI", "SO(p+q)/(SO(p) x SO(q)) (p >= q >= 2; p+q != 4)",
     "yes (q = 2); no (q != 2)", "pq", "p (q = 2); ? (q != 2)"),
    ("BDII", "SO(n+1)/SO(n) (n >= 2)", "yes (n = 2); no (n != 2)", "n", "1"),
    ("DIII", "SO(2l)/U(l) (l >= 4)", "yes", "l(l-1)", "l(l-1)/2"),
    ("CI", "Sp(n)/U(n) (n >= 3)", "yes", "n(n+1)", "n(n+1)/2"),
    ("CII", "Sp(p+q)/(Sp(p) x Sp(q)) (p >= q >= 1)", "no", "4pq", "pq"),
)


def table_rows() -> tuple[dict, ...]:
    """The eight symbolic rows of the classification table."""
    return tuple(dict(zip(_TABLE_COLUMNS, row)) for row in _TABLE_ROWS)


def render_table(fmt: str = "md") -> str:
    """Render the table as 'csv', 'md', or 'json' text."""
    if fmt == "csv":
        return "".join(",".join(row) + "\n" for row in (_TABLE_COLUMNS, *_TABLE_ROWS))
    if fmt == "md":
        rule = tuple("---" for _ in _TABLE_COLUMNS)
        rows = (_TABLE_COLUMNS, rule, *_TABLE_ROWS)
        return "".join("| " + " | ".join(row) + " |\n" for row in rows)
    if fmt == "json":
        return json.dumps(list(table_rows()), indent=None) + "\n"
    raise ValueError(f"unknown table format {fmt!r}")

