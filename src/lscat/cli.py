"""Command-line front end.

JSON records go to stdout (one document per line), human-readable summaries
go to stderr.  Exit codes, set by run alone: 0 success, 2 usage errors, and 1
for an LscatError, ValueError (a malformed record) or OSError from a handler;
any other exception propagates.  All randomness comes from --seed.  The records
of log, contract, cover and describe hold their result dataclass's fields, in order.

The commands live in one table, _COMMANDS.  Each declares its arguments
once, on its own parser, which parses a run whose first argument names the
command, so its usage errors print its usage; the full parser, whose
subparsers take their arguments from the command parsers, parses any other
argv (none, -h, a typo).  Each parser is built once per process: parsers
keep no state, and argparse looks up sys.stdout and sys.stderr to print.

The CLI owns I/O, flags and one value rule, the side ceiling _MAX_SIDE; the library owns
the rest: spaces decides what a record is, counts, seeds and --alpha pass its checks, whose
ValueError is the usage error's text, and the family choices are Family's and ClassicalFamily's.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from collections.abc import Iterator

from .catbounds import ClassicalFamily, describe, render_table
from .cover import classify, cover_audit, default_cover
from .errors import LscatError
from .factorizations import factor_aii, factor_symmetric
from .homotopy import _branch_angle, _contraction, branch_log
from .linalg_core import _finite_angle, _int_at_least, matrix_to_json
from .spaces import (
    Family,
    SpaceKind,
    SpacePoint,
    _made_point,
    _member_stacks,
    _membership,
    _point_of_record,
    point_to_json,
)


#: Largest ambient matrix side --space/--n may name: n for ai, 2n for aii.
_MAX_SIDE = 4096


def _emit(obj) -> None:
    print(json.dumps(obj, allow_nan=False))


def _note(msg: str) -> None:
    print(msg, file=sys.stderr)


def _checked(convert, rule, *args):
    """argparse type: rule(*args, convert(text)), or rule(*args, text) when convert fails."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = text
        try:
            return rule(*args, value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


def _attach_alpha(argv: list[str]) -> list[str]:
    """Rewrite `--alpha X` as `--alpha=X` for any token X.

    argparse reads only plain negative decimals such as -1.5 as option
    values; without this, `--alpha -1e-3` fails as a missing argument.
    The library's angle rule then checks X.
    """
    out = []
    for token in argv:
        if out and out[-1] == "--alpha":
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
    kind = SpaceKind(args.space.upper(), args.n)
    if kind.ambient_size > _MAX_SIDE:
        parser.error(f"matrix side {kind.ambient_size} is above the ceiling {_MAX_SIDE}")
    return kind


def _points_from_input(parser, args) -> Iterator[SpacePoint]:
    """Yield the point of each non-blank input line as it is read."""
    stream = sys.stdin if args.input == "-" else open(args.input, "r", encoding="utf-8")
    try:
        for line in stream:
            if line.strip():
                try:
                    record = json.loads(line)
                except RecursionError:
                    raise ValueError("record nests too deeply") from None
                yield _point_of_record(record, lambda: _kind_from_flags(parser, args))
    finally:
        if stream is not sys.stdin:
            stream.close()


def _membership_json(point: SpacePoint, report) -> dict:
    """The report as RFC 8259 JSON, which has no infinity: an overflowed residual is null."""
    doc = {"family": point.kind.family.value, "n": point.kind.n, "member": report.member}
    for law in ("unitarity", "determinant", "symmetry"):
        residual = getattr(report, law)
        doc[law] = residual if math.isfinite(residual) else None
    return doc


def _cmd_sample(parser, args) -> None:
    """Print each chunk of points as it is drawn, so memory does not grow with --count."""
    kind = _kind_from_flags(parser, args)
    for stack in _member_stacks(kind, args.count, args.seed):
        for X in stack:
            _emit(point_to_json(_made_point(kind, X)))
    _note(f"sampled {args.count} point(s) of {kind.family.value}({kind.n})")


def _cmd_check(parser, args) -> None:
    worst = 0.0
    for point in _points_from_input(parser, args):
        report = _membership(point.kind, point.matrix)
        worst = max(worst, report.max_residual)
        _emit(_membership_json(point, report))
    _note(f"checked membership; worst residual {worst:.3e}")


def _cmd_factor(parser, args) -> None:
    for point in _points_from_input(parser, args):
        if point.kind.family is Family.AI:
            result = factor_symmetric(point.matrix)
        else:
            result = factor_aii(point)
        _emit({"P": matrix_to_json(result.P), "residual": result.residual})
        _note(f"factored with residual {result.residual:.3e}")


def _cmd_log(parser, args) -> None:
    for point in _points_from_input(parser, args):
        bl = branch_log(point.matrix, _branch_angle(point, args.alpha))
        _emit({**vars(bl), "H": matrix_to_json(bl.H)})
        _note(f"branch log at alpha={bl.alpha:.6f}: winding {bl.winding}")


def _cmd_contract(parser, args) -> None:
    """One JSON list of samples per point, written element by element."""
    for point in _points_from_input(parser, args):
        _, target_scalar, samples = _contraction(point, args.alpha, args.steps, measure=True)
        worst = 0.0
        separator = "["
        for s in samples:
            # vars(report) holds unitarity, determinant, symmetry and member, in that order
            record = {"s": s.s, "matrix": matrix_to_json(s.point.matrix),
                      "residuals": vars(s.residuals)}
            sys.stdout.write(separator + json.dumps(record, allow_nan=False))
            separator = ", "
            worst = max(worst, s.residuals.max_residual)
        sys.stdout.write("]\n")
        _note(
            f"contracted in {args.steps} steps to scalar "
            f"{target_scalar:.6f}; max residual {worst:.3e}"
        )


def _cmd_cover(parser, args) -> None:
    if args.trials is not None:
        if args.seed is None:
            parser.error("--seed is required for a cover audit")
        kind = _kind_from_flags(parser, args)
        report = vars(cover_audit(kind, args.trials, args.seed))
        _emit(report)
        _note(f"cover audit: fraction {report['covered_fraction']}")
        return
    if args.seed is not None:
        parser.error("--seed applies only to a cover audit")
    for point in _points_from_input(parser, args):
        cls = classify(default_cover(point.kind), point)
        _emit(vars(cls))
        _note(f"classified; witness set {cls.witness}")


def _cmd_table(parser, args) -> None:
    sys.stdout.write(render_table(args.format))


def _cmd_describe(parser, args) -> None:
    _emit(vars(describe(ClassicalFamily(args.family.upper()), args.params)))


def _add_space(p) -> None:
    p.add_argument("--space", choices=[f.value.lower() for f in Family],
                   help="family of bare-matrix input")
    p.add_argument("--n", type=_checked(int, _int_at_least, 1, "n"),
                   help=f"family parameter n; the matrix side (n for ai, 2n for aii) "
                   f"is at most {_MAX_SIDE}")


def _add_common(p) -> None:
    _add_space(p)
    p.add_argument("--input", default="-", help="path to NDJSON records, '-' for stdin")


def _log_args(p) -> None:
    _add_common(p)
    branch = p.add_mutually_exclusive_group(required=True)
    branch.add_argument("--alpha", type=_checked(float, _finite_angle),
                        help="branch angle in radians")
    branch.add_argument("--alpha-from-cover", action="store_true")


def _sample_args(p) -> None:
    _add_space(p)
    p.add_argument("--count", type=_checked(int, _int_at_least, 1, "count"), default=1)
    p.add_argument("--seed", type=_checked(int, _int_at_least, 0, "seed"), required=True)


def _contract_args(p) -> None:
    _log_args(p)
    p.add_argument("--steps", type=_checked(int, _int_at_least, 1, "steps"), default=16)


def _cover_args(p) -> None:
    _add_space(p)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--input", help="path to NDJSON records, '-' for stdin")
    mode.add_argument("--trials", type=_checked(int, _int_at_least, 1, "trials"),
                      help="run an audit with this many samples")
    p.add_argument("--seed", type=_checked(int, _int_at_least, 0, "seed"))


def _table_args(p) -> None:
    p.add_argument("--format", choices=["csv", "md", "json"], default="md")


def _describe_args(p) -> None:
    p.add_argument("--family", required=True, choices=[f.value.lower() for f in ClassicalFamily])
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


@functools.cache
def _command_parser(name: str) -> argparse.ArgumentParser:
    """The parser of command name alone, with its arguments and its handler bound to it."""
    parser = argparse.ArgumentParser(prog=f"lscat {name}")
    _, add_arguments, handler = _COMMANDS[name]
    add_arguments(parser)
    parser.set_defaults(func=functools.partial(handler, parser))
    return parser


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
        sub.add_parser(name, help=help_text, parents=[_command_parser(name)], add_help=False)
    return parser


def run(argv: list[str]) -> int:
    """Dispatch one command; returns the process exit code."""
    argv = _attach_alpha(argv)
    try:
        if argv and argv[0] in _COMMANDS:
            args = _command_parser(argv[0]).parse_args(argv[1:])
        else:
            args = _build_parser().parse_args(argv)
        args.func(args)
    except SystemExit as exc:  # a usage error, in parsing or from a command's parser
        return int(exc.code or 0)
    except (LscatError, ValueError, OSError) as exc:
        _note(f"error: {exc}")
        return 1
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
