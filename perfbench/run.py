"""Run one workload of the lscat benchmark and print its metrics.

    python3 perfbench/run.py --workload contract --seed 1 --seconds 20 --trace 0

Inputs are generated from --seed (plain numpy, see gen.py) into a work
directory of the checkout, which is removed at exit.  With --trace 0 the
runner first starts SETUP_PROBES processes that stop at their first timed
op, then one process that runs the closed loop for --seconds; it prints the
end-to-end metrics named in BENCHMARK.json.  With --trace 1 a single process
alternates untraced and traced passes and the runner prints the per-layer
metrics.  Spans and a result record with the environment go to
.perfbench_out/.  The last stdout line is the JSON result.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update(dict.fromkeys(THREAD_VARS, "1"))

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import gen  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REQUIRED = ("BENCHMARK.json", "src/lscat/__init__.py", "tests/data/table.csv")
WORKLOADS = ("contract", "factor_cli", "cover_audit", "describe")
SETUP_PROBES = 4
PROBE_TIMEOUT_S = 30


def git_commit() -> str:
    """HEAD of the checkout, read without starting git; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "git_commit": git_commit(),
        "machine": platform.machine(),
    }


def spawn_worker(args: list[str], timeout: float) -> dict:
    """Run worker.py to completion and return its JSON summary line."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args, "--t0"]
    t0 = time.monotonic()
    proc = subprocess.run(cmd + [repr(t0)], capture_output=True, text=True,
                          timeout=timeout, cwd=ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        raise SystemExit(f"not an lscat checkout: missing {', '.join(missing)}")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics_spec = spec["per_layer" if args.trace else "end_to_end"]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir = ROOT / ".perfbench_out"
    work = ROOT / ".perfbench_work" / f"{tag}-{os.getpid()}"
    common = ["--workload", args.workload, "--inputs", str(work), "--seconds", str(args.seconds)]
    try:
        gen.write_inputs(args.workload, args.seed, work)
        probes = [] if args.trace else [
            spawn_worker(common + ["--probe", "1"], PROBE_TIMEOUT_S) for _ in range(SETUP_PROBES)
        ]
        extra = ["--trace", "1", "--trace-file", str(out_dir / f"spans-{tag}.json.gz")] if args.trace else []
        summary = spawn_worker(common + extra, 3 * args.seconds + 90)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        measured = summary["per_layer"]
        sample_note = f"traced ops {measured['traced_ops']}"
    else:
        measured = dict(summary["end_to_end"])
        setups = probes + [summary]
        measured["setup_s"] = statistics.median(p["setup_s"] for p in setups)
        measured["setup_wall_s"] = statistics.median(p["setup_wall_s"] for p in setups)
        summary["end_to_end"] = measured
        summary["setup_probes"] = probes
        sample_note = (f"latency samples {measured['samples']} (p90 has "
                       f"{measured['samples'] // 10} beyond it); setup samples {len(setups)}")
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in metrics_spec}
    result = {
        "correct": not summary["wrong"] and summary["table_ok"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }

    env = environment()
    out_dir.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "summary": summary, "result": result}
    (out_dir / f"result-{tag}.json").write_text(json.dumps(record, indent=1))

    print(f"# workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print(f"# environment {json.dumps(env)}")
    print(f"# ops attempted {summary['attempted']}, failed {summary['failed']}, "
          f"passes {summary['passes']} of {summary['pool']}; {sample_note}")
    print(f"# golden table {'matches' if summary['table_ok'] else 'DIFFERS'}")
    print(f"# median speed factor {summary['speed_factor_median']:.4f} (reference speed / measured)")
    if not args.trace:
        print(f"# unscaled wall: latency p50 {measured['wall_latency_p50_ms']:.4g} ms, "
              f"p90 {measured['wall_latency_p90_ms']:.4g} ms, throughput "
              f"{measured['wall_throughput_ops_s']:.4g} 1/s, setup {measured['setup_wall_s']:.4g} s")
    for line in summary["wrong"]:
        print(f"# wrong output: {line}")
    if summary["over_tol_ops"]:
        print(f"# {summary['over_tol_ops']} ops with a residual above 1e-9 but within the "
              f"library's own gates (first ten listed)")
    for line in summary["over_tol"]:
        print(f"# residual above 1e-9: {line}")
    probe = summary["defect_probe"]
    if probe:
        print(f"# +-1 pairing probe: factor_aii raised on {probe['failed']} of "
              f"{probe['attempted']} records {json.dumps(probe['errors'])}")
    for name, m in metrics.items():
        print(f"{name:44s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
