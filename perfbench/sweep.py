"""Run every workload over several seeds, interleaved, and summarise the spread.

    python3 perfbench/sweep.py --seeds 1-10 --seconds 20 [--trace 0|1] [--json out.json]

For each seed in turn it runs run.py once per workload, so a slow phase of
the machine falls on all workloads alike.  It then prints, per workload and
metric, the median of the runs and the quartile spread of the runs as a
share of that median (statistics.quantiles, n=4).  It also checks the
spread against the metric's bound in BENCHMARK.json.  --json keeps every
run's values for comparing two sweeps.  It exits non-zero if any run fails,
returns a wrong answer or has a failed op.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", required=True, help="'1-10' or '3,5,8'")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--json", type=Path, help="write every run's metric values here")
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    values: dict[str, dict[str, list[float]]] = {w: {} for w in workloads}
    failed_ops = 0
    for seed in parse_seeds(args.seeds):
        for w in workloads:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                capture_output=True, text=True, cwd=ROOT)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                raise SystemExit(f"{w} seed {seed}: run.py exited {proc.returncode}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                raise SystemExit(f"{w} seed {seed}: wrong output\n{proc.stdout}")
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            failed_ops += result["failed"]
            print(f"# {w} seed {seed}: attempted {result['attempted']}, failed {result['failed']}",
                  flush=True)

    for w in workloads:
        for name, vals in values[w].items():
            med = statistics.median(vals)
            line = f"{w:12s} {name:44s} median {med:12.6g}"
            if len(vals) >= 2 and med:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med
                line += f"  spread {spread:.4f}"
                if bounds.get(name) is not None:
                    line += f"  bound {bounds[name]}  {'ok' if spread <= bounds[name] else 'OVER'}"
            print(line)
    if args.json:
        args.json.write_text(json.dumps(values, indent=1))
    if failed_ops:
        print(f"# {failed_ops} failed ops: every op of every workload must succeed")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
