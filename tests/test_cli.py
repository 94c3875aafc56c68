"""End-to-end tests of the command-line interface."""

import argparse
import contextlib
import json
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from lscat import cli, linalg_core, spaces
from lscat.cli import run
from lscat.cover import classify, default_cover, multiplicity_audit
from lscat.errors import NotInSpace
from lscat.homotopy import branch_log, contract
from lscat.linalg_core import _finite_angle, _int_at_least, matrix_to_json
from lscat.spaces import (MembershipReport, SpaceKind, SpacePoint, is_member, point_from_json, sample,
                          sample_points)

GOLDEN = Path(__file__).parent / "data" / "table.csv"


def invoke(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def sample_to_file(capsys, tmp_path, argv_extra, name="points.ndjson"):
    code, out, _ = invoke(capsys, ["sample", *argv_extra])
    assert code == 0
    path = tmp_path / name
    path.write_text(out)
    return path, out


def test_sample_then_check_pipe(capsys, tmp_path):
    path, out = sample_to_file(
        capsys, tmp_path, ["--space", "ai", "--n", "3", "--count", "2", "--seed", "7"]
    )
    records = [json.loads(line) for line in out.splitlines()]
    assert len(records) == 2
    assert all(r["family"] == "AI" and r["n"] == 3 for r in records)
    code, out, _ = invoke(capsys, ["check", "--input", str(path)])
    assert code == 0
    verdicts = [json.loads(line) for line in out.splitlines()]
    assert all(v["member"] for v in verdicts)


def test_sample_determinism(capsys):
    argv = ["sample", "--space", "aii", "--n", "2", "--count", "3", "--seed", "11"]
    _, first, _ = invoke(capsys, argv)
    _, second, _ = invoke(capsys, argv)
    assert first == second
    _, third, _ = invoke(capsys, ["sample", "--space", "aii", "--n", "2",
                                  "--count", "3", "--seed", "12"])
    assert third != first


def test_factor_pipe(capsys, tmp_path):
    for space, n in (("ai", "4"), ("aii", "2")):
        path, _ = sample_to_file(
            capsys, tmp_path, ["--space", space, "--n", n, "--count", "2", "--seed", "5"],
            name=f"{space}.ndjson",
        )
        code, out, _ = invoke(capsys, ["factor", "--input", str(path)])
        assert code == 0
        for line in out.splitlines():
            rec = json.loads(line)
            assert rec["residual"] <= 1e-9
            assert rec["P"]["n"] == int(n) * (1 if space == "ai" else 2)


def test_log_and_contract_pipe(capsys, tmp_path):
    path, _ = sample_to_file(
        capsys, tmp_path, ["--space", "aii", "--n", "2", "--count", "1", "--seed", "9"]
    )
    code, out, _ = invoke(capsys, ["log", "--input", str(path), "--alpha-from-cover"])
    assert code == 0
    rec = json.loads(out)
    assert isinstance(rec["winding"], int)
    assert rec["margin"] > 0

    code, out, _ = invoke(
        capsys,
        ["contract", "--input", str(path), "--alpha-from-cover", "--steps", "8"],
    )
    assert code == 0
    samples = json.loads(out)
    assert len(samples) == 9
    assert samples[0]["s"] == 0.0 and samples[-1]["s"] == 1.0
    worst = max(
        max(s["residuals"]["unitarity"], s["residuals"]["determinant"],
            s["residuals"]["symmetry"])
        for s in samples
    )
    assert worst <= 1e-8
    assert all(s["residuals"]["member"] for s in samples)


@pytest.mark.parametrize("record", ["ai", "aii", "fold_ai13"])
def test_log_prints_branch_log_at_the_given_or_the_witness_angle(capsys, tmp_path, record):
    if record == "fold_ai13":
        path = Path(__file__).parent / "data" / "fold_ai13.ndjson"
    else:
        path, _ = sample_to_file(capsys, tmp_path, ["--space", record, "--n", "3", "--seed", "4"])
    point = point_from_json(json.loads(path.read_text()))
    config = default_cover(point.kind)
    witness_angle = float(np.angle(config.lambdas[classify(config, point).witness]))
    for flags, alpha in ((["--alpha-from-cover"], witness_angle), (["--alpha", "0.3"], 0.3)):
        code, out, _ = invoke(capsys, ["log", *flags, "--input", str(path)])
        bl = branch_log(point.matrix, alpha)
        assert code == 0
        assert out == json.dumps({**vars(bl), "H": matrix_to_json(bl.H)}, allow_nan=False) + "\n"


def test_explicit_alpha(capsys, tmp_path):
    path, _ = sample_to_file(
        capsys, tmp_path, ["--space", "ai", "--n", "3", "--count", "1", "--seed", "13"]
    )
    code, out, _ = invoke(capsys, ["log", "--input", str(path), "--alpha", "3.14159"])
    assert code == 0
    assert json.loads(out)["alpha"] == pytest.approx(3.14159)


def test_alpha_takes_negative_exponent_form(capsys, tmp_path):
    path, _ = sample_to_file(
        capsys, tmp_path, ["--space", "ai", "--n", "3", "--count", "1", "--seed", "13"]
    )
    for command in ("log", "contract"):
        code, joined, _ = invoke(capsys, [command, "--input", str(path), "--alpha=-1e-3"])
        assert code == 0
        code, spaced, _ = invoke(capsys, [command, "--input", str(path), "--alpha", "-1e-3"])
        assert code == 0 and spaced == joined


def test_cover_classify_and_audit(capsys, tmp_path):
    path, _ = sample_to_file(
        capsys, tmp_path, ["--space", "aii", "--n", "2", "--count", "1", "--seed", "3"]
    )
    code, out, _ = invoke(capsys, ["cover", "--input", str(path)])
    assert code == 0
    rec = json.loads(out)
    assert any(rec["memberships"])
    assert rec["witness"] == int(np.argmax(rec["margins"]))

    code, out, _ = invoke(
        capsys,
        ["cover", "--space", "ai", "--n", "3", "--trials", "50", "--seed", "21"],
    )
    assert code == 0
    rec = json.loads(out)
    assert rec["covered_fraction"] == 1.0
    assert len(rec["occupancy"]) == 3


def test_bare_matrix_input_with_flags(capsys, tmp_path):
    path = tmp_path / "matrix.ndjson"
    path.write_text(json.dumps({"n": 2, "entries": [[1, 0], [0, 0], [0, 0], [1, 0]]}) + "\n")
    code, out, _ = invoke(
        capsys, ["check", "--input", str(path), "--space", "ai", "--n", "2"]
    )
    assert code == 0
    assert json.loads(out)["member"] is True
    code, out, err = invoke(capsys, ["check", "--input", str(path)])
    assert code == 2 and out == ""
    assert err.endswith("lscat check: error: --space and --n are required here\n")


def test_table_formats_and_golden(capsys):
    code, out, _ = invoke(capsys, ["table", "--format", "csv"])
    assert code == 0
    assert out == GOLDEN.read_text()
    assert len(out.splitlines()) == 9  # header + 8 data rows
    code, md, _ = invoke(capsys, ["table", "--format", "md"])
    assert code == 0 and md.startswith("| family |")
    code, js, _ = invoke(capsys, ["table", "--format", "json"])
    assert code == 0 and len(json.loads(js)) == 8
    _, again, _ = invoke(capsys, ["table", "--format", "csv"])
    assert again == out


def test_describe_command(capsys):
    code, out, _ = invoke(capsys, ["describe", "--family", "cii", "--params", "2,1"])
    assert code == 0
    rec = json.loads(out)
    assert rec["dimension"] == 8 and rec["cat_exact"] == 2
    code, out, _ = invoke(capsys, ["describe", "--family", "bdi", "--params", "5,3"])
    assert code == 0
    assert json.loads(out)["cat_exact"] is None


# The exact bytes `lscat describe` writes for rows of all eight families.
_DESCRIBE_RECORDS = [
    ("ai", "3",
     '{"family": "AI", "params": [3], "dimension": 5, "kahler": "no", "connectivity": null, "cat_lower": 2, "cat_upper": 2, "cat_exact": 2}'),
    ("aii", "2",
     '{"family": "AII", "params": [2], "dimension": 5, "kahler": "no", "connectivity": null, "cat_lower": 1, "cat_upper": 1, "cat_exact": 1}'),
    ("aiii", "3,2",
     '{"family": "AIII", "params": [3, 2], "dimension": 12, "kahler": "yes", "connectivity": null, "cat_lower": 6, "cat_upper": 6, "cat_exact": 6}'),
    ("bdi", "4,2",
     '{"family": "BDI", "params": [4, 2], "dimension": 8, "kahler": "yes", "connectivity": null, "cat_lower": 4, "cat_upper": 4, "cat_exact": 4}'),
    ("bdi", "5,3",
     '{"family": "BDI", "params": [5, 3], "dimension": 15, "kahler": "no", "connectivity": null, "cat_lower": null, "cat_upper": null, "cat_exact": null}'),
    ("bdii", "5",
     '{"family": "BDII", "params": [5], "dimension": 5, "kahler": "no", "connectivity": 5, "cat_lower": 1, "cat_upper": 1, "cat_exact": 1}'),
    ("diii", "4",
     '{"family": "DIII", "params": [4], "dimension": 12, "kahler": "yes", "connectivity": null, "cat_lower": 6, "cat_upper": 6, "cat_exact": 6}'),
    ("ci", "3",
     '{"family": "CI", "params": [3], "dimension": 12, "kahler": "yes", "connectivity": null, "cat_lower": 6, "cat_upper": 6, "cat_exact": 6}'),
    ("cii", "2,1",
     '{"family": "CII", "params": [2, 1], "dimension": 8, "kahler": "no", "connectivity": 4, "cat_lower": 2, "cat_upper": 2, "cat_exact": 2}'),
]


@pytest.mark.parametrize("family, params, record", _DESCRIBE_RECORDS)
def test_describe_record_bytes(capsys, family, params, record):
    code, out, _ = invoke(capsys, ["describe", "--family", family, "--params", params])
    assert code == 0 and out == record + "\n"


def test_fixed_gate_rejects_near_member(capsys, tmp_path):
    # a slightly perturbed member fails at the fixed membership gate
    path = tmp_path / "near.ndjson"
    X = np.eye(2) * np.exp(1e-6j)  # unitary, symmetric, det = e^{2e-6 i}
    entries = [[float(z.real), float(z.imag)] for z in X.ravel()]
    path.write_text(json.dumps({"n": 2, "entries": entries}) + "\n")
    code, out, _ = invoke(capsys, ["check", "--input", str(path),
                                   "--space", "ai", "--n", "2"])
    assert code == 0 and json.loads(out)["member"] is False


def test_usage_errors_exit_2(capsys):
    code, _, _ = invoke(capsys, ["sample", "--space", "ai", "--n", "3"])  # no seed
    assert code == 2
    code, _, _ = invoke(capsys, ["frobnicate"])
    assert code == 2
    code, _, _ = invoke(capsys, ["cover", "--space", "ai", "--n", "2"])  # no mode
    assert code == 2
    code, _, _ = invoke(capsys, ["cover", "--spa", "ai", "--n", "2"])  # abbreviated
    assert code == 2
    code, _, _ = invoke(capsys, ["cover", "--bogus"])
    assert code == 2
    # counts below 1 are rejected by the parser, before any input is read
    for argv in (
        ["sample", "--space", "ai", "--n", "3", "--seed", "1", "--count", "-2"],
        ["sample", "--space", "ai", "--n", "3", "--seed", "1", "--count", "0"],
        ["contract", "--input", "missing.ndjson", "--alpha", "1", "--steps", "0"],
        ["cover", "--space", "ai", "--n", "3", "--seed", "1", "--trials", "0"],
        ["cover", "--spa", "ai", "--n", "3", "--se", "1", "--tri", "0"],
        ["sample", "--space", "ai", "--n", "3", "--seed", "1", "--tol", "1e-3"],
        ["check", "--input", "missing.ndjson", "--tol", "1e-3"],
        ["sample", "--space", "ai", "--n", "0", "--seed", "1"],
        ["sample", "--space", "ai", "--n", "-3", "--seed", "1"],
        ["describe", "--family", "ai", "--params", "x"],
        ["describe", "--family", "ai", "--params", "3,"],
        ["log", "--input", "missing.ndjson", "--alpha", "nan"],
        ["log", "--input", "missing.ndjson", "--alpha", "inf"],
        ["contract", "--input", "missing.ndjson", "--alpha=-inf"],
        ["contract", "--input", "missing.ndjson", "--alpha", "-inf"],
        ["contract", "--input", "missing.ndjson", "--alpha", "NaN"],
        # matrix sides above 4096
        ["sample", "--space", "ai", "--n", "4097", "--seed", "1"],
        ["sample", "--space", "aii", "--n", "2049", "--seed", "1"],
        ["cover", "--space", "ai", "--n", "100000", "--trials", "1", "--seed", "1"],
        # exactly one branch choice, checked before any input is read
        ["log", "--input", os.devnull],
        ["contract", "--input", "missing.ndjson"],
        ["log", "--input", os.devnull, "--alpha", "1", "--alpha-from-cover"],
        ["log", "--input", os.devnull, "--alpha", "--alpha-from-cover"],
        # seeds are non-negative
        ["sample", "--space", "ai", "--n", "2", "--seed", "-1"],
        ["cover", "--space", "ai", "--n", "1", "--trials", "3", "--seed", "-5"],
    ):
        code, out, _ = invoke(capsys, argv)
        assert code == 2 and out == ""


def test_usage_errors_inside_a_command_print_its_usage(capsys):
    for argv, message in (
        (["sample", "--space", "aii", "--n", "2049", "--seed", "1"],
         "lscat sample: error: matrix side 4098 is above the ceiling 4096"),
        (["cover", "--space", "ai", "--n", "2"],
         "lscat cover: error: one of the arguments --input --trials is required"),
        # given both modes, cover neither audits nor opens the input
        (["cover", "--space", "ai", "--n", "3", "--input", "missing.ndjson",
          "--trials", "5", "--seed", "1"],
         "lscat cover: error: argument --trials: not allowed with argument --input"),
        (["cover", "--space", "ai", "--n", "3", "--trials", "5"],
         "lscat cover: error: --seed is required for a cover audit"),
        (["cover", "--space", "ai", "--n", "3", "--input", "-", "--seed", "5"],
         "lscat cover: error: --seed applies only to a cover audit"),
        (["sample", "--space", "ai", "--n", "x", "--seed", "1"],
         "lscat sample: error: argument --n: n must be a positive integer, got 'x'"),
        (["sample", "--space", "ai", "--n", "3", "--seed", "1", "--count", "1.5"],
         "lscat sample: error: argument --count: count must be a positive integer, got '1.5'"),
        (["log", "--input", "missing.ndjson", "--alpha", "abc"],
         "lscat log: error: argument --alpha: "
         "branch angle must be a finite real number, got 'abc'"),
        (["contract", "--input", os.devnull],
         "lscat contract: error: one of the arguments --alpha --alpha-from-cover is required"),
        (["sample", "--space", "ai", "--n", "2", "--seed", "-1"],
         "lscat sample: error: argument --seed: seed must be a non-negative integer, got -1"),
    ):
        code, out, err = invoke(capsys, argv)
        assert code == 2 and out == ""
        assert err.startswith(f"usage: lscat {argv[0]} [-h] ")
        assert err.endswith(message + "\n")


@pytest.mark.parametrize("argv, option, rule", [
    (["sample", "--space", "ai", "--n", "0", "--seed", "1"], "n", lambda: _int_at_least(1, "n", 0)),
    (["sample", "--space", "ai", "--n", "x", "--seed", "1"],
     "n", lambda: _int_at_least(1, "n", "x")),
    (["sample", "--space", "ai", "--n", "3", "--seed", "1", "--count", "1.5"],
     "count", lambda: _int_at_least(1, "count", "1.5")),
    (["contract", "--input", "missing.ndjson", "--alpha", "1", "--steps", "-2"],
     "steps", lambda: _int_at_least(1, "steps", -2)),
    (["cover", "--space", "ai", "--n", "3", "--seed", "1", "--trials", "0"],
     "trials", lambda: _int_at_least(1, "trials", 0)),
    (["sample", "--space", "ai", "--n", "2", "--seed", "-1"],
     "seed", lambda: _int_at_least(0, "seed", -1)),
    (["log", "--input", "missing.ndjson", "--alpha", "abc"], "alpha", lambda: _finite_angle("abc")),
    (["log", "--input", "missing.ndjson", "--alpha", "inf"],
     "alpha", lambda: _finite_angle(np.inf)),
    (["contract", "--input", "missing.ndjson", "--alpha", "nan"],
     "alpha", lambda: _finite_angle(np.nan)),
], ids=["n_0", "n_x", "count_1.5", "steps_-2", "trials_0", "seed_-1",
        "alpha_abc", "alpha_inf", "alpha_nan"])
def test_usage_errors_carry_the_library_rule_text(capsys, argv, option, rule):
    # the CLI converts the text and applies the library's rule; its ValueError is the message
    with pytest.raises(ValueError) as rule_error:
        rule()
    code, out, err = invoke(capsys, argv)
    assert code == 2 and out == ""
    assert err.endswith(f"argument --{option}: {rule_error.value}\n")


def test_run_builds_only_the_parser_it_runs(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._command_parser.cache_clear()
    cli._build_parser.cache_clear()
    runs = (
        (["describe", "--family", "ai", "--params", "3"], "cat_exact", 2),
        (["cover", "--space", "aii", "--n", "2", "--trials", "20", "--seed", "1"],
         "trials", 20),
        (["sample", "--space", "ai", "--n", "3", "--count", "2", "--seed", "1"],
         "family", "AI"),
    )
    # the first run of a command builds its own parser alone, a repeat builds none
    for first in (True, False):
        for argv, key, value in runs:
            built.clear()
            code, out, _ = invoke(capsys, argv)
            assert code == 0 and json.loads(out.splitlines()[0])[key] == value
            assert built == ([f"lscat {argv[0]}"] if first else [])


def test_repeat_runs_are_identical_around_failed_runs(capsys, tmp_path):
    # a failed run leaves nothing in the parsers a later run reuses
    nonmember = tmp_path / "nonmember.ndjson"
    nonmember.write_text(json.dumps(
        {"family": "AI", "n": 2, "matrix": {"n": 2, "entries": [[2, 0], [0, 0], [0, 0], [2, 0]]}}
    ) + "\n")
    for good, usage, domain in (
        (["cover", "--space", "aii", "--n", "2", "--trials", "20", "--seed", "1"],
         ["cover", "--space", "ai", "--n", "2"],
         ["cover", "--input", str(nonmember)]),
        (["describe", "--family", "aii", "--params", "5"],
         ["describe", "--family", "aii"],
         ["describe", "--family", "bdi", "--params", "1,1"]),
    ):
        first = invoke(capsys, good)
        assert first[0] == 0
        assert invoke(capsys, usage)[0] == 2
        assert invoke(capsys, domain)[0] == 1
        assert invoke(capsys, [good[0], "--help"])[0] == 0
        assert invoke(capsys, good) == first


def test_help_lists_every_command(capsys):
    code, out, _ = invoke(capsys, ["--help"])
    assert code == 0
    choices = "{" + ",".join(cli._COMMANDS) + "}"
    assert out.startswith(f"usage: lscat [-h] {choices} ...\n")
    assert len(cli._COMMANDS) == 8
    for name, (help_text, _, _) in cli._COMMANDS.items():
        assert f"    {name}" in out and help_text in out
        code, out_cmd, _ = invoke(capsys, [name, "--help"])
        assert code == 0 and out_cmd.startswith(f"usage: lscat {name} [-h]")
    # tokens a command leaves unparsed print that command's usage line
    for name, *argv in (["table"], ["cover", "--input", os.devnull]):
        code, _, err = invoke(capsys, [name, *argv, "--bogus"])
        assert code == 2
        assert err.startswith(f"usage: lscat {name} [-h] ")
        assert err.endswith(f"lscat {name}: error: unrecognized arguments: --bogus\n")
    # the full parser's subparsers take every argument from the command parsers
    for name in cli._COMMANDS:
        with pytest.raises(SystemExit):
            cli._build_parser().parse_args([name, "--help"])
        assert capsys.readouterr().out == invoke(capsys, [name, "--help"])[1]
    args = cli._build_parser().parse_args(["table", "--format", "csv"])
    args.func(args)
    assert capsys.readouterr().out == invoke(capsys, ["table", "--format", "csv"])[1]
    # a command's options take abbreviations, --help among them
    assert invoke(capsys, ["cover", "--he"]) == invoke(capsys, ["cover", "--help"])
    # errors about the command itself name the argument "command"
    assert invoke(capsys, [])[2].endswith("required: command\n")
    assert "argument command: invalid choice: 'frobnicate'" in invoke(capsys, ["frobnicate"])[2]


def test_domain_errors_exit_1(capsys, tmp_path):
    bad = tmp_path / "bad.ndjson"
    doc = {
        "family": "AI",
        "n": 2,
        "matrix": {"n": 2, "entries": [[1, 0], [1, 0], [0, 0], [1, 0]]},
    }
    bad.write_text(json.dumps(doc) + "\n")
    code, _, err = invoke(capsys, ["factor", "--input", str(bad)])
    assert code == 1
    assert "error:" in err
    code, _, err = invoke(capsys, ["describe", "--family", "ai", "--params", "2"])
    assert code == 1
    missing = tmp_path / "missing.ndjson"
    code, _, _ = invoke(capsys, ["check", "--input", str(missing)])
    assert code == 1
    # malformed records end in a domain error, never a traceback
    for record in (
        5,
        None,
        {"n": 1, "entries": 5},
        {"n": 1, "entries": [["a", 0]]},
        {"n": 1.5, "entries": [[1, 0]]},
        {"family": "AI", "n": 1.5, "matrix": {"n": 1, "entries": [[1, 0]]}},
        {"family": "AI", "n": 1, "matrix": [[1, 0]]},
        {"n": 1, "entries": [[True, 0]]},
        {"n": 1, "entries": [[1.5, True]]},
        {"n": 1, "entries": [[1, 0], [1]]},
        {"n": 1},  # neither a point nor a bare matrix
    ):
        bad.write_text(json.dumps(record) + "\n")
        code, out, err = invoke(capsys, ["check", "--space", "ai", "--n", "1",
                                         "--input", str(bad)])
        assert code == 1 and out == "" and err.startswith("error:")


@pytest.mark.parametrize("record, field", [
    ({"family": "AI", "n": 1, "matrix": {"n": 1}}, "entries"),
    ({"family": "AI", "n": 1, "matrix": {"entries": [[1, 0]]}}, "n"),
    ({"n": 1, "matrix": {"n": 1, "entries": [[1, 0]]}}, "family"),
])
def test_record_errors_name_the_missing_field(capsys, tmp_path, record, field):
    path = tmp_path / "missing_field.ndjson"
    path.write_text(json.dumps(record) + "\n")
    assert invoke(capsys, ["check", "--input", str(path)]) == (
        1, "", f"error: record has no field {field!r}\n"
    )


def test_run_lets_an_unexpected_error_propagate(capsys, monkeypatch):
    # exit 1 is for the errors a command raises on bad input; a KeyError is a bug
    def broken(*args):
        raise KeyError("family")

    monkeypatch.setattr(cli, "describe", broken)
    with pytest.raises(KeyError):
        run(["describe", "--family", "ai", "--params", "3"])


def _bits(report):
    laws = (report.unitarity, report.determinant, report.symmetry)
    return (*(float.hex(r) for r in laws), report.member)


def test_held_and_made_points_are_scanned_only_where_they_enter(capsys, tmp_path, monkeypatch):
    # SpacePoint validates a matrix with as_matrix; a point the library holds is
    # checked by the membership formula alone, and one it makes is not scanned
    points = [sample(SpaceKind.ai(4), 3), sample(SpaceKind.aii(3), 3)]
    nonmember = SpacePoint(points[1].kind, points[1].matrix + 1e-6)
    argv = ["sample", "--space", "aii", "--n", "3", "--count", "3", "--seed", "5"]
    path, drawn = sample_to_file(capsys, tmp_path, argv[1:])
    records = [*drawn.splitlines(), json.dumps({"family": "AII", "n": 3,
                                                "matrix": matrix_to_json(nonmember.matrix)})]
    path.write_text("\n".join(records) + "\n")
    scans, as_matrix = [], spaces.as_matrix

    def counting(x):
        scans.append(x)
        return as_matrix(x)

    monkeypatch.setattr(spaces, "as_matrix", counting)

    def scans_of(call):
        scans.clear()
        result = call()
        return len(scans), result

    for point in points:
        count, path_ = scans_of(lambda: contract(point))
        assert count == 0
        assert _bits(path_.samples[0].residuals) == _bits(is_member(point.kind, point.matrix))
    assert scans_of(lambda: multiplicity_audit(points[1]))[0] == 0
    report = is_member(nonmember.kind, nonmember.matrix)
    with pytest.raises(NotInSpace, match=f"{report.max_residual:.3e}"):
        scans_of(lambda: multiplicity_audit(nonmember))
    assert scans == []
    count, made = scans_of(lambda: sample_points(SpaceKind.aii(3), 5, 5))
    assert count == 0 and [p.matrix.dtype for p in made] == [np.complex128] * 5
    count, (code, out, _) = scans_of(lambda: invoke(capsys, argv))
    assert (count, code, out) == (0, 0, drawn)
    count, (code, out, _) = scans_of(lambda: invoke(capsys, ["check", "--input", str(path)]))
    assert code == 0 and count == len(records) == 4
    for record, line in zip(records, out.splitlines()):
        point, doc = point_from_json(json.loads(record)), json.loads(line)
        printed = MembershipReport(doc["unitarity"], doc["determinant"], doc["symmetry"],
                                   doc["member"])
        assert _bits(printed) == _bits(is_member(point.kind, point.matrix))


def test_each_record_is_scanned_once(capsys, tmp_path, monkeypatch):
    # the record readers parse the matrix format only; SpacePoint's as_matrix is the one scan
    path, drawn = sample_to_file(capsys, tmp_path, ["--space", "aii", "--n", "2",
                                                    "--count", "4", "--seed", "3"])
    docs = [json.loads(line) for line in drawn.splitlines()]
    bare = tmp_path / "bare.ndjson"
    bare.write_text("".join(json.dumps(doc["matrix"]) + "\n" for doc in docs))
    scans, as_matrix = [], spaces.as_matrix

    def counting(x):
        scans.append(x)
        return as_matrix(x)

    monkeypatch.setattr(spaces, "as_matrix", counting)
    monkeypatch.setattr(linalg_core, "as_matrix", counting)
    point_from_json(docs[0])
    assert len(scans) == 1
    for argv in (["check", "--input", str(path)],
                 ["check", "--space", "aii", "--n", "2", "--input", str(bare)]):
        scans.clear()
        code, out, _ = invoke(capsys, argv)
        assert code == 0 and len(out.splitlines()) == len(scans) == len(docs)


_RECORD_COMMANDS = [["check"], ["factor"], ["log", "--alpha", "0.3"],
                    ["contract", "--alpha", "0.3"], ["cover"]]


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e400"])
@pytest.mark.parametrize("bare", [False, True], ids=["point", "bare"])
def test_records_with_non_finite_entries_are_rejected(capsys, tmp_path, token, bare):
    # the JSON reader takes NaN and the infinities, and reads 1e400 as inf
    good = json.loads(invoke(capsys, ["sample", "--space", "ai", "--n", "2", "--seed", "3"])[1])
    entries = [["@", 0.0], *good["matrix"]["entries"][1:]]
    bad = json.dumps({**good["matrix"], "entries": entries}).replace('"@"', token)
    if bare:
        good = good["matrix"]
    else:
        bad = f'{{"family": "AI", "n": 2, "matrix": {bad}}}'
    flags = ["--space", "ai", "--n", "2"] if bare else []
    only_good, both = tmp_path / "good.ndjson", tmp_path / "both.ndjson"
    only_good.write_text(json.dumps(good) + "\n")
    both.write_text(json.dumps(good) + "\n" + bad + "\n")
    for command in _RECORD_COMMANDS:
        code, want, _ = invoke(capsys, [*command, *flags, "--input", str(only_good)])
        assert code == 0 and want
        code, out, err = invoke(capsys, [*command, *flags, "--input", str(both)])
        assert (code, out, err.splitlines()[-1]) == (1, want, "error: matrix entries must be finite")


def test_records_of_the_wrong_side_are_rejected(capsys, tmp_path):
    path = tmp_path / "side.ndjson"
    path.write_text(json.dumps({"family": "AI", "n": 2,
                                "matrix": {"n": 1, "entries": [[1.0, 0.0]]}}) + "\n")
    for command in _RECORD_COMMANDS:
        assert invoke(capsys, [*command, "--input", str(path)]) == (
            1, "", "error: AI(2) needs side 2, got 1\n")


def test_contract_rejects_unitary_nonmember(capsys, tmp_path):
    # diag(i, i) has det -1: an input error, not a drifting path
    bad = tmp_path / "bad.ndjson"
    doc = {"family": "AI", "n": 2, "matrix": {"n": 2, "entries": [[0, 1], [0, 0], [0, 0], [0, 1]]}}
    bad.write_text(json.dumps(doc) + "\n")
    code, out, err = invoke(capsys, ["contract", "--alpha", "0.3", "--input", str(bad)])
    assert code == 1 and out == ""
    assert err == "error: source is not a member of AI(2) (residual 2.000e+00)\n"


def test_contract_rejects_a_source_check_rejects(capsys, tmp_path):
    # a unitary, det-1 rotation by 1e-8: symmetry residual 2.8e-8 fails check,
    # and contract gates its s = 0 sample, the source, by the same verdict
    bad = tmp_path / "bad.ndjson"
    doc = {"family": "AI", "n": 2,
           "matrix": {"n": 2, "entries": [[1.0, 0], [-1e-08, 0], [1e-08, 0], [1.0, 0]]}}
    bad.write_text(json.dumps(doc) + "\n")
    code, out, _ = invoke(capsys, ["check", "--input", str(bad)])
    assert code == 0 and json.loads(out)["member"] is False
    code, out, err = invoke(capsys, ["contract", "--alpha", "0.3", "--input", str(bad)])
    assert code == 1 and out == ""
    assert err == "error: source is not a member of AI(2) (residual 2.828e-08)\n"


def test_branch_commands_solve_each_record_once(capsys, tmp_path, eigh_calls):
    path, _ = sample_to_file(
        capsys, tmp_path, ["--space", "ai", "--n", "5", "--count", "3", "--seed", "17"]
    )
    for argv in (["log", "--alpha-from-cover"], ["log", "--alpha", "0.3"],
                 ["contract", "--alpha-from-cover", "--steps", "4"]):
        eigh_calls.clear()
        code, _, _ = invoke(capsys, [*argv, "--input", str(path)])
        assert code == 0 and len(eigh_calls) == 3


def test_input_records_are_streamed(capsys, tmp_path):
    path, first = sample_to_file(
        capsys, tmp_path, ["--space", "ai", "--n", "2", "--count", "1", "--seed", "4"]
    )
    path.write_text(first + "{not json\n")
    code, out, err = invoke(capsys, ["check", "--input", str(path)])
    assert code == 1 and "error:" in err
    assert len(out.splitlines()) == 1 and json.loads(out)["member"] is True


def test_deeply_nested_record_is_a_domain_error(capsys, tmp_path):
    path, first = sample_to_file(
        capsys, tmp_path, ["--space", "ai", "--n", "2", "--count", "1", "--seed", "4"]
    )
    path.write_text(first + "[" * 200000 + "\n")
    code, out, err = invoke(capsys, ["check", "--input", str(path)])
    assert code == 1 and err == "error: record nests too deeply\n"
    assert len(out.splitlines()) == 1 and json.loads(out)["member"] is True


def test_contract_streams_the_path_list(capsys, tmp_path):
    path, out = sample_to_file(
        capsys, tmp_path, ["--space", "aii", "--n", "2", "--count", "2", "--seed", "3"]
    )
    code, streamed, _ = invoke(capsys, ["contract", "--input", str(path), "--alpha", "0.3",
                                        "--steps", "5"])
    assert code == 0
    # the library's samples, each record with the residuals is_member measures on its matrix
    lines = []
    for line in out.splitlines():
        point = point_from_json(json.loads(line))
        samples = contract(point, 0.3, steps=5).samples
        measured = [is_member(point.kind, s.point.matrix) for s in samples]
        lines.append(json.dumps([
            {
                "s": s.s,
                "matrix": {"n": 4, "entries": [[z.real, z.imag] for z in s.point.matrix.ravel()]},
                "residuals": {
                    "unitarity": r.unitarity,
                    "determinant": r.determinant,
                    "symmetry": r.symmetry,
                    "member": r.member,
                },
            }
            for s, r in zip(samples, measured)
        ]))
    assert streamed == "\n".join(lines) + "\n"


def test_contract_memory_is_flat_in_steps(tmp_path, capsys):
    # each sample is written as it is formed: ten times the steps must not
    # double the traced peak, where holding every sample grows it about 6x
    path, _ = sample_to_file(
        capsys, tmp_path, ["--space", "ai", "--n", "8", "--count", "1", "--seed", "2"]
    )
    peaks = []
    for steps in ("100", "1000"):
        tracemalloc.start()
        try:
            with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                assert run(["contract", "--input", str(path), "--alpha-from-cover",
                            "--steps", steps]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 2 * peaks[0]


def test_sample_memory_is_flat_in_count():
    # points are printed chunk by chunk as they are drawn: ten times the count
    # must stay under 3x the traced peak, where holding every point grows it ~3.7x
    peaks = []
    for count in ("2000", "20000"):
        tracemalloc.start()
        try:
            with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                assert run(["sample", "--space", "ai", "--n", "4", "--count", count,
                            "--seed", "1"]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 3 * peaks[0]


@pytest.mark.parametrize("record", [
    # every entry squares past the float range
    {"family": "AI", "n": 2, "matrix": {"n": 2, "entries": [[1e160, 0]] * 4}},
    {"family": "AII", "n": 1,
     "matrix": {"n": 2, "entries": [[1e160, 1e160], [-1e300, 0], [1.7e308, 0], [1e160, -1e160]]}},
])
def test_overflowing_record_is_rejected_quietly(capsys, tmp_path, record):
    # a unitary matrix has no entry above 1 in modulus, so each residual of such
    # a record overflows: the verdicts stand, with inf residuals and no numpy warning
    path = tmp_path / "huge.ndjson"
    path.write_text(json.dumps(record) + "\n")
    code, out, err = invoke(capsys, ["check", "--input", str(path)])
    assert code == 0
    report = json.loads(out)
    assert report["member"] is False
    # an overflowed residual is null on stdout and inf in the summary
    residuals = [report[law] for law in ("unitarity", "determinant", "symmetry")]
    assert report["unitarity"] is None
    assert not np.isnan([np.inf if r is None else r for r in residuals]).any()
    assert err == "checked membership; worst residual inf\n"
    code, out, err = invoke(capsys, ["factor", "--input", str(path)])
    assert (code, out) == (1, "")
    assert err.startswith("error: input is not a") and "nan" not in err
    assert err.count("\n") == 1
    for argv in (["cover"], ["log", "--alpha", "0"], ["log", "--alpha-from-cover"],
                 ["contract", "--alpha-from-cover"]):
        assert invoke(capsys, [*argv, "--input", str(path)]) == (
            1, "", "error: matrix is not unitary\n"
        )


def strict_json_lines(text):
    """One document per line, refusing NaN and Infinity, which RFC 8259 JSON does not have."""
    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return [json.loads(line, parse_constant=refuse) for line in text.splitlines()]


def test_stdout_is_standard_json(capsys, tmp_path):
    huge = tmp_path / "huge.ndjson"
    huge.write_text(json.dumps({"family": "AI", "n": 2,
                                "matrix": {"n": 2, "entries": [[1e160, 0]] * 4}}) + "\n")
    code, out, _ = invoke(capsys, ["check", "--input", str(huge)])
    assert code == 0
    assert strict_json_lines(out) == [{"family": "AI", "n": 2, "member": False,
                                       "unitarity": None, "determinant": 1.0, "symmetry": 0.0}]
    path, out = sample_to_file(capsys, tmp_path, ["--space", "aii", "--n", "2", "--count", "2",
                                                  "--seed", "3"])
    outputs = [out]
    for argv in (["check"], ["factor"], ["log", "--alpha-from-cover"], ["cover"],
                 ["contract", "--alpha-from-cover", "--steps", "3"]):
        code, out, _ = invoke(capsys, [*argv, "--input", str(path)])
        assert code == 0
        outputs.append(out)
    for argv in (["cover", "--space", "ai", "--n", "3", "--trials", "50", "--seed", "1"],
                 ["describe", "--family", "aii", "--params", "13"],
                 ["table", "--format", "json"]):
        code, out, _ = invoke(capsys, argv)
        assert code == 0
        outputs.append(out)
    for out in outputs:
        assert strict_json_lines(out)


def test_planted_fold_record_is_solved(capsys):
    # an AI(13) member with one eigenvalue pair folded by each of six mixing
    # weights, the solver's among them (planted_fold in test_linalg_core), and
    # an AI(8) member whose close pair the weight folds onto its mirror image
    # (close_pair_and_partner(8, 1e-7, 4) there)
    for name in ("fold_ai13.ndjson", "closepair_ai8.ndjson"):
        path = str(Path(__file__).parent / "data" / name)
        code, out, _ = invoke(capsys, ["check", "--input", path])
        assert code == 0 and json.loads(out)["member"]
        for argv in (["cover"], ["contract", "--alpha-from-cover", "--steps", "4"], ["factor"]):
            code, out, err = invoke(capsys, [*argv, "--input", path])
            assert code == 0 and out and not err.startswith("error")
