"""The measured process: import lscat, load one workload's inputs, warm up,
then run the closed loop (one client, one op at a time) for the given time.

Run by run.py, which passes --t0, its monotonic clock just before starting
this process, so that setup_s covers interpreter start, the numpy and lscat
imports, input loading and warm-up.  With --probe 1 the process stops at
the first timed op and reports only its set-up time.

Times are reported at a reference machine speed (see Speed).  The last
stdout line is a JSON summary; everything the CLI prints is captured
inside the op.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update(dict.fromkeys(THREAD_VARS, "1"))

import argparse  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from check import MEMBERSHIP_TOL, CheckFailed  # noqa: E402
from spans import COUNTED_NUMPY, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_TABLE = ROOT / "tests" / "data" / "table.csv"
WARMUP_OPS = 3

# Per-layer metrics and the span names summed into each.  "calls" metrics
# count spans per op; "self_ms" metrics add the self time of the spans.
SELF_MS = {
    "homotopy.contract": ["homotopy.contract"],
    "homotopy.branch_log": ["homotopy.branch_log"],
    "linalg_core.exp_skew_hermitian": ["linalg_core.exp_skew_hermitian"],
    "linalg_core.eig_normal": ["linalg_core.eig_normal"],
    "linalg_core.simdiag_real_symmetric": ["linalg_core.simdiag_real_symmetric"],
    "linalg_core.matrix_json": ["linalg_core.matrix_to_json", "linalg_core.matrix_from_json"],
    "spaces.is_member": ["spaces.is_member"],
    "spaces.sample_points": ["spaces.sample_points"],
    "spaces.haar_special_unitary": ["spaces.haar_special_unitary"],
    "spaces.point_json": ["spaces.point_to_json", "spaces.point_from_json"],
    "cover.classify": ["cover.classify"],
    "cover.cover_audit": ["cover.cover_audit"],
    "cli.run": ["cli.run"],
    "factorizations.factor_symmetric": ["factorizations.factor_symmetric"],
    "factorizations.factor_aii": ["factorizations.factor_aii"],
    "factorizations.factor_skew": ["factorizations.factor_skew"],
    "catbounds.cup_length": ["catbounds.cup_length"],
    "catbounds.describe": ["catbounds.describe"],
}
CALLS = ("linalg_core.exp_skew_hermitian", "spaces.is_member", "linalg_core.eig_normal")


class Speed:
    """Tracks the machine's current speed with a fixed calibration kernel.

    The host's speed drifts by up to 1.7x over tens of seconds, far more
    than any bound the benchmark could hold, and ops slow by nearly the
    same factor as a small numpy kernel run beside them.  So after each op
    the loop times the workload's kernel, and each op's wall time is scaled
    by the kernel's reference time over the median kernel time of the
    WINDOW nearest samples.  Scaled times read as wall times at the
    reference speed, about this machine's fast phase (2-vCPU x86_64 VM,
    OpenBLAS 0.3.31 Haswell kernel, one thread).

    There are two kernels, and each workload names the one that tracked it
    best in a 200 s interleaved trial (see README.md): "eigh64", one eigh of
    a fixed 64 x 64 complex Hermitian matrix, and "tiny4", qr, det and eigh
    of forty fixed 4 x 4 matrices.  The kernels use the numpy functions as
    they were at import, so no change to lscat and no tracer wrapper can
    alter them.
    """

    REFERENCE_NS = {"eigh64": 600_000, "tiny4": 1_200_000}
    WINDOW = 5

    def __init__(self, kernel: str):
        rng = np.random.default_rng(20090904)
        eigh, qr, det = np.linalg.eigh, np.linalg.qr, np.linalg.det
        if kernel == "eigh64":
            a = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
            h = a + a.conj().T
            self._kernel = lambda: eigh(h)
        else:
            small = rng.standard_normal((40, 4, 4)) + 1j * rng.standard_normal((40, 4, 4))
            pairs = [(m, m + m.conj().T) for m in small]

            def tiny():
                for m, hm in pairs:
                    det(qr(m)[0])
                    eigh(hm)

            self._kernel = tiny
        self.reference_ns = self.REFERENCE_NS[kernel]
        self.samples_ns: list[int] = []

    def sample(self) -> None:
        start = time.perf_counter_ns()
        self._kernel()
        self.samples_ns.append(time.perf_counter_ns() - start)

    def factors(self) -> np.ndarray:
        """Per sample, the reference time over the median of its centred window."""
        s = np.asarray(self.samples_ns, dtype=float)
        half = self.WINDOW // 2
        med = np.array([np.median(s[max(0, k - half):k + half + 1]) for k in range(len(s))])
        return self.reference_ns / med


def _import_lscat():
    sys.path.insert(0, str(ROOT / "src"))
    import lscat
    import lscat.cli

    return lscat, lscat.cli


class Loop:
    """Whole passes over the workload's pool, one op at a time."""

    def __init__(self, workload, speed: Speed, tracer=None):
        self.wl = workload
        self.speed = speed
        self.tracer = tracer
        self.latency_ns: list[int] = []
        self.traced: list[bool] = []
        self.succeeded = 0
        self.failures = 0
        self.wrong: list[str] = []
        self.over_tol: list[str] = []
        self.checked = 0
        self.max_residual = 0.0
        self.bytes_in = 0
        self.bytes_out = 0

    def one_pass(self, traced: bool) -> None:
        tracer = self.tracer if traced else None
        if tracer:
            tracer.install()
        try:
            for i in range(self.wl.size):
                self._one_op(i, tracer)
                self.speed.sample()
        finally:
            if tracer:
                tracer.uninstall()

    def _one_op(self, i: int, tracer) -> None:
        op_id = len(self.latency_ns)
        if tracer:
            tracer.begin_op(op_id)
        start = time.perf_counter_ns()
        try:
            out = self.wl.op(i)
            raised = None
        except Exception as exc:  # a raising op is a failed op, not a crash
            out, raised = None, exc
        elapsed = time.perf_counter_ns() - start
        if tracer:
            tracer.end_op()
        self.latency_ns.append(elapsed)
        self.traced.append(tracer is not None)
        if raised is not None:
            self.failures += 1
            return
        try:
            exit_ok, residual = self.wl.check(i, out)
        except (CheckFailed, ValueError, KeyError, TypeError) as exc:
            self.wrong.append(f"op {op_id} (input {i}): {type(exc).__name__}: {exc}")
            return
        self.checked += 1
        self.max_residual = max(self.max_residual, residual)
        if tracer:
            b_in, b_out = self.wl.bytes_io(i, out)
            self.bytes_in += b_in
            self.bytes_out += b_out
        if residual > MEMBERSHIP_TOL:
            self.over_tol.append(f"op {op_id} (input {i}): residual {residual:.3e}")
        if exit_ok:
            self.succeeded += 1
        else:
            self.failures += 1


def _golden_table_ok(cli) -> bool:
    """Once per run: `table --format csv` must equal the golden file byte for byte."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.run(["table", "--format", "csv"])
    return code == 0 and buf.getvalue() == GOLDEN_TABLE.read_text(encoding="utf-8")


def _end_to_end(loop: Loop, factors: np.ndarray) -> dict:
    wall_ms = np.asarray(loop.latency_ns, dtype=float) / 1e6
    lat_ms = wall_ms * factors
    return {
        "throughput_ops_s": len(lat_ms) / (lat_ms.sum() / 1e3),
        "latency_p50_ms": float(np.percentile(lat_ms, 50)),
        "latency_p90_ms": float(np.percentile(lat_ms, 90)),
        "success_ratio": loop.succeeded / len(lat_ms),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "samples": len(lat_ms),
        "wall_latency_p50_ms": float(np.percentile(wall_ms, 50)),
        "wall_latency_p90_ms": float(np.percentile(wall_ms, 90)),
        "wall_throughput_ops_s": len(wall_ms) / (wall_ms.sum() / 1e3),
    }


def _per_layer(loop: Loop, tracer, factors: np.ndarray, probe: dict | None) -> dict:
    traced = np.asarray(loop.traced)
    lat = np.asarray(loop.latency_ns, dtype=float) * factors
    ops = int(traced.sum())
    totals = tracer.layer_totals(factors)

    def total(name, key):
        return totals.get(name, {}).get(key, 0)

    out = {}
    for metric, names in SELF_MS.items():
        out[f"{metric}.self_ms"] = sum(total(n, "self_ns") for n in names) / 1e6 / ops
    for name in CALLS:
        out[f"{name}.calls"] = total(name, "calls") / ops
    for key in COUNTED_NUMPY:
        out[f"numpy.{key}_per_op"] = tracer.counts[f"numpy.{key}"] / ops
    out["factorizations.pm1_failure_ratio"] = probe["failed"] / probe["attempted"] if probe else 0.0
    out["cli.bytes_in"] = loop.bytes_in / ops
    out["cli.bytes_out"] = loop.bytes_out / ops
    out["check.max_residual"] = loop.max_residual
    out["check.over_tol_ratio"] = len(loop.over_tol) / max(loop.checked, 1)
    out["trace.overhead_ratio"] = lat[traced].mean() / lat[~traced].mean()
    out["traced_ops"] = ops
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--inputs", required=True, type=Path)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--trace-file", type=Path)
    args = ap.parse_args(argv)

    lscat, cli = _import_lscat()

    wl = WORKLOADS[args.workload](lscat, cli, args.inputs)
    for i in range(min(WARMUP_OPS, wl.size)):
        try:
            wl.op(i)
        except Exception:  # the timed loop counts and reports failing ops
            pass
    setup_wall_s = time.monotonic() - args.t0
    speed = Speed(wl.CALIBRATION)
    for _ in range(Speed.WINDOW):
        speed.sample()
    setup_s = setup_wall_s * float(np.median(speed.factors()))
    if args.probe:
        print(json.dumps({"setup_s": setup_s, "setup_wall_s": setup_wall_s}))
        return 0
    speed.samples_ns.clear()

    tracer = Tracer() if args.trace else None
    loop = Loop(wl, speed, tracer)
    start = time.monotonic()
    passes = 0
    # Trace runs alternate untraced and traced passes, so the overhead ratio
    # compares interleaved halves; both kinds run at least once.
    while time.monotonic() - start < args.seconds or (tracer and passes < 2):
        loop.one_pass(traced=bool(tracer) and passes % 2 == 1)
        passes += 1
    factors = speed.factors()
    defect_probe = getattr(wl, "defect_probe", None)
    probe = defect_probe() if defect_probe else None

    summary = {
        "setup_s": setup_s,
        "setup_wall_s": setup_wall_s,
        "attempted": len(loop.latency_ns),
        "failed": loop.failures + len(loop.wrong),
        "wrong": (loop.wrong + (probe["wrong"] if probe else []))[:10],
        "over_tol_ops": len(loop.over_tol),
        "over_tol": loop.over_tol[:10],
        "defect_probe": probe,
        "table_ok": _golden_table_ok(cli),
        "passes": passes,
        "pool": wl.size,
        "speed_factor_median": float(np.median(factors)),
        "wall_ms": [round(ns / 1e6, 4) for ns in loop.latency_ns],
        "calibration_ms": [round(ns / 1e6, 4) for ns in speed.samples_ns],
    }
    if tracer:
        summary["per_layer"] = _per_layer(loop, tracer, factors, probe)
        if args.trace_file:
            tracer.write(args.trace_file, {"workload": args.workload, "pool": wl.size,
                                           "speed_factors": factors.tolist()})
    else:
        summary["end_to_end"] = _end_to_end(loop, factors)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
