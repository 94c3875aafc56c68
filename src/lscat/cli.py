"""Command-line front end.

JSON records go to stdout (one document per line), human-readable summaries
go to stderr.  Exit codes: 0 success, 1 domain errors, 2 usage errors.
All randomness comes from --seed; there is no ambient entropy.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Iterator

import numpy as np

from .catbounds import ClassicalFamily, describe, descriptor_to_json, render_table
from .cover import classify, cover_audit, default_cover
from .errors import LscatError
from .factorizations import factor_aii, factor_symmetric
from .homotopy import branch_log, contract
from .linalg_core import matrix_from_json, matrix_to_json
from .spaces import (
    Family,
    SpaceKind,
    SpacePoint,
    is_member,
    point_from_json,
    point_to_json,
    sample_points,
)


def _emit(obj) -> None:
    print(json.dumps(obj))


def _note(msg: str) -> None:
    print(msg, file=sys.stderr)


def _positive_int(text: str) -> int:
    """argparse type of --n, --count, --steps and --trials: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _finite_float(text: str) -> float:
    """argparse type of --alpha: a finite number."""
    try:
        value = float(text)
    except ValueError:
        value = np.nan
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _int_tuple(text: str) -> tuple[int, ...]:
    """argparse type of --params: comma-separated integers."""
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected integers, got {text!r}") from None


def _kind_from_flags(parser, args) -> SpaceKind:
    if args.space is None or args.n is None:
        parser.error("--space and --n are required here")
    return SpaceKind(Family(args.space.upper()), args.n)


def _read_records(path: str) -> Iterator:
    """Yield the JSON document of each non-blank line as it is read."""
    stream = sys.stdin if path == "-" else open(path, "r", encoding="utf-8")
    try:
        for line in stream:
            if line.strip():
                yield json.loads(line)
    finally:
        if stream is not sys.stdin:
            stream.close()


def _points_from_input(parser, args) -> Iterator[SpacePoint]:
    """Yield one point per input record, parsing each only when it is needed."""
    for rec in _read_records(args.input):
        if not isinstance(rec, dict):
            raise ValueError(f"record must be a JSON object, got {rec!r:.40}")
        if "matrix" in rec:
            yield point_from_json(rec)
        elif "entries" in rec:
            yield SpacePoint(_kind_from_flags(parser, args), matrix_from_json(rec))
        else:
            raise ValueError("record is neither a point nor a bare matrix")


def _membership_json(point: SpacePoint, report) -> dict:
    return {
        "family": point.kind.family.value,
        "n": point.kind.n,
        "member": report.member,
        "unitarity": report.unitarity,
        "determinant": report.determinant,
        "symmetry": report.symmetry,
    }


def _resolve_alpha(parser, args, point: SpacePoint) -> float:
    if args.alpha is not None:
        return args.alpha
    if args.alpha_from_cover:
        config = default_cover(point.kind)
        cls = classify(config, point)
        return float(np.angle(config.lambdas[cls.witness])) % (2.0 * np.pi)
    parser.error("provide --alpha or --alpha-from-cover")


def _cmd_sample(parser, args) -> int:
    kind = _kind_from_flags(parser, args)
    points = sample_points(kind, args.count, args.seed)
    for point in points:
        _emit(point_to_json(point))
    _note(f"sampled {len(points)} point(s) of {kind.family.value}({kind.n})")
    return 0


def _cmd_check(parser, args) -> int:
    worst = 0.0
    for point in _points_from_input(parser, args):
        report = is_member(point.kind, point.matrix)
        worst = max(worst, report.max_residual)
        _emit(_membership_json(point, report))
    _note(f"checked membership; worst residual {worst:.3e}")
    return 0


def _cmd_factor(parser, args) -> int:
    for point in _points_from_input(parser, args):
        if point.kind.family is Family.AI:
            result = factor_symmetric(point.matrix)
        else:
            result = factor_aii(point)
        _emit({"P": matrix_to_json(result.P), "residual": result.residual})
        _note(f"factored with residual {result.residual:.3e}")
    return 0


def _cmd_log(parser, args) -> int:
    for point in _points_from_input(parser, args):
        alpha = _resolve_alpha(parser, args, point)
        bl = branch_log(point.matrix, alpha)
        _emit(
            {
                "H": matrix_to_json(bl.H),
                "alpha": bl.alpha,
                "winding": bl.winding,
                "margin": bl.margin,
            }
        )
        _note(f"branch log at alpha={bl.alpha:.6f}: winding {bl.winding}")
    return 0


def _cmd_contract(parser, args) -> int:
    for point in _points_from_input(parser, args):
        alpha = _resolve_alpha(parser, args, point)
        path = contract(point, alpha, steps=args.steps)
        _emit(
            [
                {
                    "s": s.s,
                    "matrix": matrix_to_json(s.point.matrix),
                    "residuals": {
                        "unitarity": s.residuals.unitarity,
                        "determinant": s.residuals.determinant,
                        "symmetry": s.residuals.symmetry,
                        "member": s.residuals.member,
                    },
                }
                for s in path.samples
            ]
        )
        worst = max(s.residuals.max_residual for s in path.samples)
        _note(
            f"contracted in {args.steps} steps to scalar "
            f"{path.target_scalar:.6f}; max residual {worst:.3e}"
        )
    return 0


def _cmd_cover(parser, args) -> int:
    if args.trials is not None:
        if args.seed is None:
            parser.error("--seed is required for a cover audit")
        kind = _kind_from_flags(parser, args)
        report = cover_audit(kind, args.trials, args.seed)
        _emit(
            {
                "trials": report.trials,
                "covered_fraction": report.covered_fraction,
                "occupancy": list(report.occupancy),
                "min_witness_margin": report.min_witness_margin,
            }
        )
        _note(f"cover audit: fraction {report.covered_fraction}")
        return 0
    if args.input is None:
        parser.error("cover needs --input (classify) or --trials (audit)")
    for point in _points_from_input(parser, args):
        cls = classify(default_cover(point.kind), point)
        _emit(
            {
                "memberships": list(cls.memberships),
                "margins": list(cls.margins),
                "witness": cls.witness,
            }
        )
        _note(f"classified; witness set {cls.witness}")
    return 0


def _cmd_table(parser, args) -> int:
    sys.stdout.write(render_table(args.format))
    return 0


def _cmd_describe(parser, args) -> int:
    descriptor = describe(ClassicalFamily(args.family.upper()), args.params)
    _emit(descriptor_to_json(descriptor))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lscat",
        description="Sample, check, factor, contract, and classify points of the "
        "symmetric (AI) and twisted (AII) special-unitary families; emit the "
        "category table of the classical families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_space(p):
        p.add_argument("--space", choices=["ai", "aii"], help="family of bare-matrix input")
        p.add_argument("--n", type=_positive_int, help="family parameter n")

    def add_common(p, input_default="-"):
        add_space(p)
        p.add_argument("--input", default=input_default,
                       help="path to NDJSON records, '-' for stdin")

    p = sub.add_parser("sample", help="draw seeded points of a space")
    add_space(p)
    p.add_argument("--count", type=_positive_int, default=1)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("check", help="membership report for each input record")
    add_common(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("factor", help="congruence factorization of each input record")
    add_common(p)
    p.set_defaults(func=_cmd_factor)

    p = sub.add_parser("log", help="branch-restricted logarithm of each input record")
    add_common(p)
    p.add_argument("--alpha", type=_finite_float, default=None, help="branch angle in radians")
    p.add_argument("--alpha-from-cover", action="store_true")
    p.set_defaults(func=_cmd_log)

    p = sub.add_parser("contract", help="contracting path of each input record")
    add_common(p)
    p.add_argument("--alpha", type=_finite_float, default=None, help="branch angle in radians")
    p.add_argument("--alpha-from-cover", action="store_true")
    p.add_argument("--steps", type=_positive_int, default=16)
    p.set_defaults(func=_cmd_contract)

    p = sub.add_parser("cover", help="classify records or audit the default cover")
    add_common(p, input_default=None)
    p.add_argument("--trials", type=_positive_int, default=None,
                   help="run an audit with this many samples")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_cover)

    p = sub.add_parser("table", help="emit the eight-family classification table")
    p.add_argument("--format", choices=["csv", "md", "json"], default="md")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("describe", help="one concrete table row as JSON")
    p.add_argument("--family", required=True,
                   choices=["ai", "aii", "aiii", "bdi", "bdii", "diii", "ci", "cii"])
    p.add_argument("--params", type=_int_tuple, required=True,
                   help="comma-separated integers, e.g. '2,1'")
    p.set_defaults(func=_cmd_describe)

    return parser


def run(argv: list[str]) -> int:
    """Dispatch one command; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(parser, args)
    except SystemExit as exc:  # parser.error inside a command
        return int(exc.code or 0)
    except (LscatError, ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        _note(f"error: {exc}")
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
