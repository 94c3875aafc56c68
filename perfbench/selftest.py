"""Self-test of the benchmark itself; not part of the library's test suite.

    python3 perfbench/selftest.py

Checks BENCHMARK.json against its schema, runs one op of each workload
with its output check, checks that the tracer restores every function it
patches, and runs run.py briefly in both modes to check the result line.
Exits non-zero on the first failure.
"""

from __future__ import annotations

import os

os.environ.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))

import json  # noqa: E402
import re  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise SystemExit(f"selftest FAILED: {message}")


def check_spec() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect(set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
           "BENCHMARK.json keys")
    expect(1 <= spec["run_seconds"] <= 60 and isinstance(spec["run_seconds"], int), "run_seconds")
    expect(2 <= len(spec["workloads"]) <= 8, "workload count")
    for w in spec["workloads"]:
        expect(set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"],
               f"workload {w.get('name')}")
    names = []
    for group in ("end_to_end", "per_layer"):
        for m in spec[group]:
            keys = {"name", "unit", "better"} | ({"bound"} if group == "end_to_end" else set())
            expect(set(m) == keys, f"{group} metric keys {m}")
            expect(m["better"] in ("higher", "lower"), f"better of {m['name']}")
            expect(UNIT.fullmatch(m["unit"]) is not None, f"unit of {m['name']}")
            if group == "end_to_end":
                expect(0 < m["bound"] <= 0.25, f"bound of {m['name']}")
            names.append(m["name"])
    names += [w["name"] for w in spec["workloads"]]
    expect(all(NAME.fullmatch(n) for n in names) and len(names) == len(set(names)), "metric names")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    expect(setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower", "setup_s metric")
    expect(setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]), "setup_s has the largest bound")
    return spec


def check_one_op_each() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import lscat
    import lscat.cli

    import gen
    from spans import Tracer
    from workloads import WORKLOADS

    rng = np.random.default_rng(0)
    X = gen.aii_pm1_point(gen.FACTOR_AII_N, rng)
    expect(lscat.is_member(lscat.SpaceKind.aii(gen.FACTOR_AII_N), X).member, "+-1 record is a member")
    skew = gen.structural_j(gen.FACTOR_AII_N).T @ X
    expect(np.allclose(np.sort(np.abs(np.linalg.eigvals(skew).real)), 1.0), "+-1 pullback spectrum")

    work = ROOT / ".perfbench_work" / f"selftest-{os.getpid()}"
    try:
        for name, cls in WORKLOADS.items():
            gen.write_inputs(name, 0, work / name, pool=1)
            wl = cls(lscat, lscat.cli, work / name)
            expect(wl.size == 1, f"{name} pool size")
            exit_ok, residual = wl.check(0, wl.op(0))
            expect(residual <= 1e-9, f"{name} residual {residual}")
            print(f"selftest: one {name} op, exit ok {exit_ok}, residual {residual:.2e}")
            if hasattr(wl, "defect_probe"):
                probe = wl.defect_probe()
                expect(probe["attempted"] == gen.PM1_PROBE and not probe["wrong"], f"{name} probe {probe}")
                print(f"selftest: {name} +-1 probe raised on {probe['failed']} of {probe['attempted']}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    original, original_eigh = lscat.cli.factor_aii, np.linalg.eigh
    tracer = Tracer()
    tracer.install()
    expect(lscat.cli.factor_aii is not original, "tracer patches names cli imported directly")
    expect(lscat.factorizations.factor_aii is lscat.cli.factor_aii, "one wrapper per function")
    tracer.uninstall()
    expect(lscat.cli.factor_aii is original and np.linalg.eigh is original_eigh, "tracer restores")


def check_result_lines(spec: dict) -> None:
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "describe", "--seed", "3",
             "--seconds", "0.2", "--trace", str(trace)],
            capture_output=True, text=True, timeout=170, cwd=ROOT)
        expect(proc.returncode == 0, f"run.py --trace {trace} exited {proc.returncode}: {proc.stderr}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        expect(set(result) == {"correct", "attempted", "failed", "metrics"}, "result keys")
        expect(result["correct"] is True, "describe output is correct")
        expect(isinstance(result["attempted"], int) and result["attempted"] >= 1, "attempted")
        expect(isinstance(result["failed"], int) and result["failed"] == 0, "failed")
        expect(list(result["metrics"]) == [m["name"] for m in spec[group]], f"{group} metric names")
        for m in spec[group]:
            got = result["metrics"][m["name"]]
            expect(got["unit"] == m["unit"] and isinstance(got["value"], (int, float)),
                   f"metric {m['name']}")
        print(f"selftest: run.py --trace {trace} prints every {group} metric")


def main() -> int:
    spec = check_spec()
    print("selftest: BENCHMARK.json schema ok")
    check_one_op_each()
    check_result_lines(spec)
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
