"""End-to-end tests of the command-line interface."""

import json
from pathlib import Path

import numpy as np
import pytest

from lscat.cli import run

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


def test_explicit_alpha(capsys, tmp_path):
    path, _ = sample_to_file(
        capsys, tmp_path, ["--space", "ai", "--n", "3", "--count", "1", "--seed", "13"]
    )
    code, out, _ = invoke(capsys, ["log", "--input", str(path), "--alpha", "3.14159"])
    assert code == 0
    assert json.loads(out)["alpha"] == pytest.approx(3.14159)


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


def test_tol_override_changes_verdict(capsys, tmp_path):
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
    # counts below 1 are rejected by the parser, before any input is read
    for argv in (
        ["sample", "--space", "ai", "--n", "3", "--seed", "1", "--count", "-2"],
        ["sample", "--space", "ai", "--n", "3", "--seed", "1", "--count", "0"],
        ["contract", "--input", "missing.ndjson", "--alpha", "1", "--steps", "0"],
        ["cover", "--space", "ai", "--n", "3", "--seed", "1", "--trials", "0"],
        ["sample", "--space", "ai", "--n", "3", "--seed", "1", "--tol", "1e-3"],
        ["check", "--input", "missing.ndjson", "--tol", "1e-3"],
        ["sample", "--space", "ai", "--n", "0", "--seed", "1"],
        ["sample", "--space", "ai", "--n", "-3", "--seed", "1"],
        ["describe", "--family", "ai", "--params", "x"],
        ["describe", "--family", "ai", "--params", "3,"],
        ["log", "--input", "missing.ndjson", "--alpha", "nan"],
        ["log", "--input", "missing.ndjson", "--alpha", "inf"],
        ["contract", "--input", "missing.ndjson", "--alpha=-inf"],
        ["contract", "--input", "missing.ndjson", "--alpha", "NaN"],
    ):
        code, out, _ = invoke(capsys, argv)
        assert code == 2 and out == ""


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
    ):
        bad.write_text(json.dumps(record) + "\n")
        code, out, err = invoke(capsys, ["check", "--space", "ai", "--n", "1",
                                         "--input", str(bad)])
        assert code == 1 and out == "" and err.startswith("error:")


def test_input_records_are_streamed(capsys, tmp_path):
    path, first = sample_to_file(
        capsys, tmp_path, ["--space", "ai", "--n", "2", "--count", "1", "--seed", "4"]
    )
    path.write_text(first + "{not json\n")
    code, out, err = invoke(capsys, ["check", "--input", str(path)])
    assert code == 1 and "error:" in err
    assert len(out.splitlines()) == 1 and json.loads(out)["member"] is True
