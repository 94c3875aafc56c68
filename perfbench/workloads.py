"""The four workloads: what one op calls in lscat, and how its output is checked.

Every call goes through a module attribute at call time (lscat.classify,
lscat.cli.run), so the tracer's wrappers see it.  op() is the timed part.
check() runs after the timer stops: it returns whether every call exited
cleanly and the largest residual it saw, and raises check.CheckFailed on a
wrong answer.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

import check


def run_cli(cli, argv: list[str]) -> tuple[int, str]:
    """One in-process CLI call with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue()


class Contract:
    """classify against default_cover, then contract(steps=16), for AI(64) and AII(32)."""

    CALIBRATION = "eigh64"

    def __init__(self, lib, cli, inputs: Path):
        self.lib = lib
        ai = np.load(inputs / "ai.npy")
        aii = np.load(inputs / "aii.npy")
        self.points = [
            (lib.SpacePoint(lib.SpaceKind.ai(a.shape[0]), a),
             lib.SpacePoint(lib.SpaceKind.aii(b.shape[0] // 2), b))
            for a, b in zip(ai, aii)
        ]
        self.size = len(self.points)

    def op(self, i: int):
        lib = self.lib
        out = []
        for point in self.points[i]:
            cfg = lib.default_cover(point.kind)
            cls = lib.classify(cfg, point)
            path = lib.contract(point, float(np.angle(cfg.lambdas[cls.witness])), steps=16)
            out.append((cls.witness, path))
        return out

    def check(self, i: int, out) -> tuple[bool, float]:
        worst = 0.0
        for point, (witness, path) in zip(self.points[i], out):
            family = point.kind.family.value
            check.check_classification(point.matrix, point.kind.n, witness)
            samples = [s.point.matrix for s in path.samples]
            check.require(len(samples) == 17, f"{len(samples)} path samples")
            worst = max(worst, check.check_path(family, point.matrix, samples, path.target_scalar))
        return True, worst

    def bytes_io(self, i: int, out) -> tuple[int, int]:
        return 0, 0


class FactorCli:
    """lscat factor --input f, for a file with an AI(32) and an AII(16) Haar record.

    The +-1 pairing defect is kept out of the timed ops, which must not fail,
    and measured by defect_probe() once per run instead.
    """

    CALIBRATION = "eigh64"

    def __init__(self, lib, cli, inputs: Path):
        self.lib = lib
        self.cli = cli
        self.files = sorted(inputs.glob("op*.ndjson"))
        self.size = len(self.files)
        self.pm1 = np.load(inputs / "pm1.npy")

    def defect_probe(self) -> dict:
        """factor_aii on each +-1 record: how many raise, and with which error.

        A factor it does return must still pass check_factor; one that does
        not is listed under "wrong".
        """
        lib = self.lib
        errors: dict[str, int] = {}
        wrong = []
        for k, X in enumerate(self.pm1):
            point = lib.SpacePoint(lib.SpaceKind.aii(X.shape[0] // 2), X)
            try:
                result = lib.factor_aii(point)
            except lib.errors.LscatError as exc:
                errors[type(exc).__name__] = errors.get(type(exc).__name__, 0) + 1
                continue
            try:
                check.check_factor("AII", X, result.P)
            except check.CheckFailed as exc:
                wrong.append(f"+-1 record {k}: {exc}")
        return {"attempted": len(self.pm1), "failed": sum(errors.values()),
                "errors": errors, "wrong": wrong}

    def op(self, i: int):
        return run_cli(self.cli, ["factor", "--input", str(self.files[i])])

    def check(self, i: int, out) -> tuple[bool, float]:
        # Parsed again for every check: caching 2 x 256 parsed records would
        # add the checker's memory to the process's peak_rss_mb.
        text = self.files[i].read_text(encoding="utf-8")
        records = [json.loads(line) for line in text.splitlines() if line]
        code, stdout = out
        return code == 0, check.check_factor_output(records, stdout, code)

    def bytes_io(self, i: int, out) -> tuple[int, int]:
        return self.files[i].stat().st_size, len(out[1].encode())


class CoverAudit:
    """lscat cover --trials 100 for AI(4), then AII(2), with a per-op seed."""

    CALIBRATION = "tiny4"

    RUNS = (("ai", 4), ("aii", 2))
    TRIALS = 100

    def __init__(self, lib, cli, inputs: Path):
        self.cli = cli
        self.seeds = json.loads((inputs / "seeds.json").read_text())
        self.size = len(self.seeds)

    def op(self, i: int):
        return [
            run_cli(self.cli, ["cover", "--space", space, "--n", str(n),
                               "--trials", str(self.TRIALS), "--seed", str(self.seeds[i])])
            for space, n in self.RUNS
        ]

    def check(self, i: int, out) -> tuple[bool, float]:
        for (code, stdout), (_, n) in zip(out, self.RUNS):
            if code == 0:
                check.check_cover_output(stdout, n, self.TRIALS)
        return all(code == 0 for code, _ in out), 0.0

    def bytes_io(self, i: int, out) -> tuple[int, int]:
        return 0, sum(len(stdout.encode()) for _, stdout in out)


class Describe:
    """lscat describe --params 13 for AI, then AII: the exponential cup-length search."""

    CALIBRATION = "eigh64"

    RUNS = (("ai", "AI"), ("aii", "AII"))
    N = 13

    def __init__(self, lib, cli, inputs: Path):
        self.cli = cli
        self.size = json.loads((inputs / "pool.json").read_text())

    def op(self, i: int):
        return [run_cli(self.cli, ["describe", "--family", fam, "--params", str(self.N)])
                for fam, _ in self.RUNS]

    def check(self, i: int, out) -> tuple[bool, float]:
        for (code, stdout), (_, family) in zip(out, self.RUNS):
            if code == 0:
                check.check_describe_output(stdout, family, self.N)
        return all(code == 0 for code, _ in out), 0.0

    def bytes_io(self, i: int, out) -> tuple[int, int]:
        return 0, sum(len(stdout.encode()) for _, stdout in out)


WORKLOADS = {
    "contract": Contract,
    "factor_cli": FactorCli,
    "cover_audit": CoverAudit,
    "describe": Describe,
}
