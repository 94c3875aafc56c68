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
on record, and render_table() emits the symbolic eight-family table.
Everything in this module is exact integer arithmetic.
"""

from __future__ import annotations

import io
import json
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
    coefficient_tag is metadata only ("mod2" or "integer"); the cup length
    of an exterior algebra does not depend on it.
    """

    generators: tuple[int, ...] | range
    coefficient_tag: str = "integer"

    def __post_init__(self):
        degrees = self.generators
        if isinstance(degrees, range) and degrees:
            degrees = (degrees[0], degrees[-1])  # a range is monotone
        if any(d < 1 for d in degrees):
            raise ValueError("generator degrees must be positive")
        if self.coefficient_tag not in ("mod2", "integer"):
            raise ValueError("coefficient_tag must be 'mod2' or 'integer'")


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
    return GradedAlgebraSpec(range(2, n + 1), coefficient_tag="mod2")


def aii_cohomology_generators(n: int) -> GradedAlgebraSpec:
    """Integral cohomology of the twisted family: exterior on degrees 5, 9, ..., 4n-3."""
    if n < 1:
        raise InvalidParams("n must be positive")
    return GradedAlgebraSpec(range(5, 4 * n - 2, 4), coefficient_tag="integer")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise InvalidParams(message)


def _params_tuple(family: ClassicalFamily, params) -> tuple[int, ...]:
    if isinstance(params, int):
        params = (params,)
    params = tuple(int(p) for p in params)
    expected = 2 if family in (ClassicalFamily.AIII, ClassicalFamily.BDI, ClassicalFamily.CII) else 1
    _require(
        len(params) == expected,
        f"{family.value} takes {expected} parameter(s), got {len(params)}",
    )
    return params


def describe(family: ClassicalFamily | str, params) -> SpaceDescriptor:
    """Fill one table row for concrete parameters, recomputing the bounds.

    Raises InvalidParams naming the violated side condition.  cat fields
    are None exactly where the classification is an open problem.
    """
    family = ClassicalFamily(family)
    params = _params_tuple(family, params)

    if family is ClassicalFamily.AI:
        (n,) = params
        _require(n > 2, "AI requires n > 2")
        lower = cup_length(ai_cohomology_generators(n))
        upper = cover_upper_bound(n)
        return SpaceDescriptor(
            family, params, (n - 1) * (n + 2) // 2, KahlerFlag.NO, None,
            lower, upper, n - 1,
        )

    if family is ClassicalFamily.AII:
        (n,) = params
        _require(n > 1, "AII requires n > 1")
        lower = cup_length(aii_cohomology_generators(n))
        upper = cover_upper_bound(n)
        return SpaceDescriptor(
            family, params, (n - 1) * (2 * n + 1), KahlerFlag.NO, None,
            lower, upper, n - 1,
        )

    if family is ClassicalFamily.AIII:
        p, q = params
        _require(p >= q >= 1, "AIII requires p >= q >= 1")
        exact = kahler_cat(p * q)
        return SpaceDescriptor(
            family, params, 2 * p * q, KahlerFlag.YES, None, exact, exact, exact
        )

    if family is ClassicalFamily.BDI:
        p, q = params
        _require(p >= q >= 2, "BDI requires p >= q >= 2")
        _require(p + q != 4, "BDI requires p + q != 4")
        if q == 2:
            exact = kahler_cat(p)
            return SpaceDescriptor(
                family, params, p * q, KahlerFlag.YES, None, exact, exact, exact
            )
        return SpaceDescriptor(
            family, params, p * q, KahlerFlag.NO, None, None, None, None
        )

    if family is ClassicalFamily.BDII:
        (n,) = params
        _require(n >= 2, "BDII requires n >= 2")
        lower = cup_length(GradedAlgebraSpec((n,)))
        upper = ganea_upper(n, n)
        kahler = KahlerFlag.YES if n == 2 else KahlerFlag.NO
        return SpaceDescriptor(family, params, n, kahler, n, lower, upper, 1)

    if family is ClassicalFamily.DIII:
        (l,) = params
        _require(l >= 4, "DIII requires l >= 4")
        exact = kahler_cat(l * (l - 1) // 2)
        return SpaceDescriptor(
            family, params, l * (l - 1), KahlerFlag.YES, None, exact, exact, exact
        )

    if family is ClassicalFamily.CI:
        (n,) = params
        _require(n >= 3, "CI requires n >= 3")
        exact = kahler_cat(n * (n + 1) // 2)
        return SpaceDescriptor(
            family, params, n * (n + 1), KahlerFlag.YES, None, exact, exact, exact
        )

    # CII: the cohomology ring matches the complex Grassmannian's, so the
    # cup-length lower bound equals that space's exact category; the upper
    # bound is the dimension bound with 3-connectedness.
    p, q = params
    _require(p >= q >= 1, "CII requires p >= q >= 1")
    lower = describe(ClassicalFamily.AIII, (p, q)).cat_exact
    upper = ganea_upper(4 * p * q, 4)
    return SpaceDescriptor(
        family, params, 4 * p * q, KahlerFlag.NO, 4, lower, upper, p * q
    )


_TABLE_ROWS = (
    {
        "family": "AI",
        "space": "SU(n)/SO(n) (n > 2)",
        "kahler": "no",
        "dimension": "(n-1)(n+2)/2",
        "cat": "n-1",
    },
    {
        "family": "AII",
        "space": "SU(2n)/Sp(n) (n > 1)",
        "kahler": "no",
        "dimension": "(n-1)(2n+1)",
        "cat": "n-1",
    },
    {
        "family": "AIII",
        "space": "U(p+q)/(U(p) x U(q)) (p >= q >= 1)",
        "kahler": "yes",
        "dimension": "2pq",
        "cat": "pq",
    },
    {
        "family": "BDI",
        "space": "SO(p+q)/(SO(p) x SO(q)) (p >= q >= 2; p+q != 4)",
        "kahler": "yes (q = 2); no (q != 2)",
        "dimension": "pq",
        "cat": "p (q = 2); ? (q != 2)",
    },
    {
        "family": "BDII",
        "space": "SO(n+1)/SO(n) (n >= 2)",
        "kahler": "yes (n = 2); no (n != 2)",
        "dimension": "n",
        "cat": "1",
    },
    {
        "family": "DIII",
        "space": "SO(2l)/U(l) (l >= 4)",
        "kahler": "yes",
        "dimension": "l(l-1)",
        "cat": "l(l-1)/2",
    },
    {
        "family": "CI",
        "space": "Sp(n)/U(n) (n >= 3)",
        "kahler": "yes",
        "dimension": "n(n+1)",
        "cat": "n(n+1)/2",
    },
    {
        "family": "CII",
        "space": "Sp(p+q)/(Sp(p) x Sp(q)) (p >= q >= 1)",
        "kahler": "no",
        "dimension": "4pq",
        "cat": "pq",
    },
)

_TABLE_COLUMNS = ("family", "space", "kahler", "dimension", "cat")


def table_rows() -> tuple[dict, ...]:
    """The eight symbolic rows of the classification table."""
    return tuple(dict(row) for row in _TABLE_ROWS)


def render_table(fmt: str = "md") -> str:
    """Render the table as 'csv', 'md', or 'json' text."""
    if fmt == "csv":
        buf = io.StringIO()
        buf.write(",".join(_TABLE_COLUMNS) + "\n")
        for row in _TABLE_ROWS:
            buf.write(",".join(row[c] for c in _TABLE_COLUMNS) + "\n")
        return buf.getvalue()
    if fmt == "md":
        lines = [
            "| " + " | ".join(_TABLE_COLUMNS) + " |",
            "| " + " | ".join("---" for _ in _TABLE_COLUMNS) + " |",
        ]
        for row in _TABLE_ROWS:
            lines.append("| " + " | ".join(row[c] for c in _TABLE_COLUMNS) + " |")
        return "\n".join(lines) + "\n"
    if fmt == "json":
        return json.dumps(list(table_rows()), indent=None) + "\n"
    raise ValueError(f"unknown table format {fmt!r}")


def descriptor_to_json(d: SpaceDescriptor) -> dict:
    return {
        "family": d.family.value,
        "params": list(d.params),
        "dimension": d.dimension,
        "kahler": d.kahler.value,
        "connectivity": d.connectivity,
        "cat_lower": d.cat_lower,
        "cat_upper": d.cat_upper,
        "cat_exact": d.cat_exact,
    }
