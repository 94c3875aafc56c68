"""Command-line front end.

JSON records go to stdout (one document per line), human-readable summaries
go to stderr.  Exit codes: 0 success, 1 domain errors, 2 usage errors.
All randomness comes from --seed; there is no ambient entropy.  The
records of log, contract, cover and describe are the fields of the
library's result dataclasses, in their declared order.

The commands live in one table, _COMMANDS.  A run whose first argument
names a command parses the rest with that command's parser alone and hands
it to the command to report usage errors.  The full parser, with a
subparser per command, is used only when the first argument names no
command (none, -h, a typo), and to report arguments the command leaves
unparsed with the usage line of every command.  A process builds each
parser at most once and reuses it: the parsers keep no state between
parses, and argparse looks up sys.stdout and sys.stderr when it prints.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from collections.abc import Iterator

import numpy as np

from .catbounds import ClassicalFamily, describe, render_table
from .cover import classify, cover_audit, default_cover
from .errors import LscatError
from .factorizations import factor_aii, factor_symmetric
from .homotopy import _branch_log, _contraction, _spectrum
from .linalg_core import matrix_from_json, matrix_to_json
from .spaces import (
    Family,
    SpaceKind,
    SpacePoint,
    _member_stacks,
    is_member,
    point_from_json,
    point_to_json,
)


#: Largest ambient matrix side --space/--n may name: n for ai, 2n for aii.
_MAX_SIDE = 4096


def _emit(obj) -> None:
    print(json.dumps(obj, allow_nan=False))


def _note(msg: str) -> None:
    print(msg, file=sys.stderr)


def _int_at_least(low: int, text: str) -> int:
    """argparse type, bound to low by functools.partial: an integer >= low (0 or 1)."""
    try:
        value = int(text)
    except ValueError:
        value = low - 1
    if value < low:
        word = "positive" if low else "non-negative"
        raise argparse.ArgumentTypeError(f"expected a {word} integer, got {text!r}")
    return value


#: argparse types of --n, --count, --steps and --trials, and of --seed.
_positive_int = functools.partial(_int_at_least, 1)
_seed = functools.partial(_int_at_least, 0)


def _finite_float(text: str) -> float:
    """argparse type of --alpha: a finite number."""
    try:
        value = float(text)
    except ValueError:
        value = np.nan
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _attach_alpha(argv: list[str]) -> list[str]:
    """Rewrite `--alpha X` as `--alpha=X` when X parses as a float.

    argparse reads only plain negative decimals such as -1.5 as option
    values; without this, `--alpha -1e-3` fails as a missing argument.
    _finite_float still validates the value.
    """
    out = []
    for token in argv:
        if out and out[-1] == "--alpha" and _is_float(token):
            out[-1] = f"--alpha={token}"
        else:
            out.append(token)
    return out


def _int_tuple(text: str) -> tuple[int, ...]:
    """argparse type of --params: comma-separated integers."""
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected integers, got {text!r}") from None


def _kind_from_flags(parser, args) -> SpaceKind:
    if args.space is None or args.n is None:
        parser.error("--space and --n are required here")
    kind = SpaceKind(Family(args.space.upper()), args.n)
    if kind.ambient_size > _MAX_SIDE:
        parser.error(f"matrix side {kind.ambient_size} is above the ceiling {_MAX_SIDE}")
    return kind


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
    """The report as RFC 8259 JSON, which has no infinity: an overflowed residual is null."""
    doc = {"family": point.kind.family.value, "n": point.kind.n, "member": report.member}
    for law in ("unitarity", "determinant", "symmetry"):
        residual = getattr(report, law)
        doc[law] = residual if math.isfinite(residual) else None
    return doc


def _cmd_sample(parser, args) -> int:
    """Print each chunk of points as it is drawn, so memory does not grow with --count."""
    kind = _kind_from_flags(parser, args)
    for stack in _member_stacks(kind, args.count, args.seed):
        for X in stack:
            _emit(point_to_json(SpacePoint(kind, X)))
    _note(f"sampled {args.count} point(s) of {kind.family.value}({kind.n})")
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
        bl = _branch_log(*_spectrum(point, args.alpha))
        _emit({**vars(bl), "H": matrix_to_json(bl.H)})
        _note(f"branch log at alpha={bl.alpha:.6f}: winding {bl.winding}")
    return 0


def _cmd_contract(parser, args) -> int:
    """One JSON list of samples per point, written element by element."""
    for point in _points_from_input(parser, args):
        path = _contraction(point, args.alpha, args.steps)
        worst = 0.0
        separator = "["
        for s in path.samples:
            # vars(report) holds unitarity, determinant, symmetry and member, in that order
            record = {"s": s.s, "matrix": matrix_to_json(s.point.matrix),
                      "residuals": vars(s.residuals)}
            sys.stdout.write(separator + json.dumps(record, allow_nan=False))
            separator = ", "
            worst = max(worst, s.residuals.max_residual)
        sys.stdout.write("]\n")
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
        report = vars(cover_audit(kind, args.trials, args.seed))
        _emit({field: value for field, value in report.items() if field != "kind"})
        _note(f"cover audit: fraction {report['covered_fraction']}")
        return 0
    if args.input is None:
        parser.error("cover needs --input (classify) or --trials (audit)")
    for point in _points_from_input(parser, args):
        cls = classify(default_cover(point.kind), point)
        _emit(vars(cls))
        _note(f"classified; witness set {cls.witness}")
    return 0


def _cmd_table(parser, args) -> int:
    sys.stdout.write(render_table(args.format))
    return 0


def _cmd_describe(parser, args) -> int:
    _emit(vars(describe(ClassicalFamily(args.family.upper()), args.params)))
    return 0


def _add_space(p) -> None:
    p.add_argument("--space", choices=["ai", "aii"], help="family of bare-matrix input")
    p.add_argument("--n", type=_positive_int,
                   help=f"family parameter n; the matrix side (n for ai, 2n for aii) "
                   f"is at most {_MAX_SIDE}")


def _add_common(p, input_default="-") -> None:
    _add_space(p)
    p.add_argument("--input", default=input_default,
                   help="path to NDJSON records, '-' for stdin")


def _log_args(p) -> None:
    _add_common(p)
    branch = p.add_mutually_exclusive_group(required=True)
    branch.add_argument("--alpha", type=_finite_float, help="branch angle in radians")
    branch.add_argument("--alpha-from-cover", action="store_true")


def _sample_args(p) -> None:
    _add_space(p)
    p.add_argument("--count", type=_positive_int, default=1)
    p.add_argument("--seed", type=_seed, required=True)


def _contract_args(p) -> None:
    _log_args(p)
    p.add_argument("--steps", type=_positive_int, default=16)


def _cover_args(p) -> None:
    _add_common(p, input_default=None)
    p.add_argument("--trials", type=_positive_int, default=None,
                   help="run an audit with this many samples")
    p.add_argument("--seed", type=_seed, default=None)


def _table_args(p) -> None:
    p.add_argument("--format", choices=["csv", "md", "json"], default="md")


def _describe_args(p) -> None:
    p.add_argument("--family", required=True,
                   choices=["ai", "aii", "aiii", "bdi", "bdii", "diii", "ci", "cii"])
    p.add_argument("--params", type=_int_tuple, required=True,
                   help="comma-separated integers, e.g. '2,1'")


#: Each command's help line, the function adding its arguments, and its handler,
#: in the order `lscat --help` lists them.
_COMMANDS = {
    "sample": ("draw seeded points of a space", _sample_args, _cmd_sample),
    "check": ("membership report for each input record", _add_common, _cmd_check),
    "factor": ("congruence factorization of each input record", _add_common, _cmd_factor),
    "log": ("branch-restricted logarithm of each input record", _log_args, _cmd_log),
    "contract": ("contracting path of each input record", _contract_args, _cmd_contract),
    "cover": ("classify records or audit the default cover", _cover_args, _cmd_cover),
    "table": ("emit the eight-family classification table", _table_args, _cmd_table),
    "describe": ("one concrete table row as JSON", _describe_args, _cmd_describe),
}


def _command(parser: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    """Add command name's arguments to parser and bind its handler to parser."""
    _, add_arguments, handler = _COMMANDS[name]
    add_arguments(parser)
    parser.set_defaults(func=functools.partial(handler, parser))
    return parser


@functools.cache
def _command_parser(name: str) -> argparse.ArgumentParser:
    """The parser of command name alone."""
    return _command(argparse.ArgumentParser(prog=f"lscat {name}"), name)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The lscat parser with the subparser of every command."""
    parser = argparse.ArgumentParser(
        prog="lscat",
        description="Sample, check, factor, contract, and classify points of the "
        "symmetric (AI) and twisted (AII) special-unitary families; emit the "
        "category table of the classical families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in _COMMANDS.items():
        _command(sub.add_parser(name, help=help_text), name)
    return parser


def run(argv: list[str]) -> int:
    """Dispatch one command; returns the process exit code."""
    argv = _attach_alpha(argv)
    try:
        if argv and argv[0] in _COMMANDS:
            args, extra = _command_parser(argv[0]).parse_known_args(argv[1:])
            if extra:  # reported by the full parser, as its subparser would
                _build_parser().error(f"unrecognized arguments: {' '.join(extra)}")
        else:
            args = _build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # a usage error, in parsing or from a command's parser
        return int(exc.code or 0)
    except (LscatError, ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        _note(f"error: {exc}")
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
