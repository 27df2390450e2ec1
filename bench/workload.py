"""Run one generated workload for a fixed time, in its own process.

Invoked by `run.py` with the work directory the generator filled.  Each
round runs five ops in a fixed order: the four CLI commands through
`socialpower.cli.main` (in process) and the README's library pipeline
validate -> dominant_left_eigenvector -> fixed_point over every matrix of
the workload.  After one warm-up round, rounds repeat until the time is
up; every op's output is checked (see checks.py).  With --trace, rounds
alternate untraced and traced, so the tracing overhead is measured in
the same process.  The
result is one JSON object on the last line of stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
from spans import Tracer, layer_totals

OPS = ("simulate", "analyze", "periodic", "verify", "equilibrium")

# Inputs of the calibration kernel, fixed for every run and checkout.
_CAL_RNG = np.random.default_rng(0)
_CAL_MATRIX = _CAL_RNG.uniform(size=(120, 120))
_CAL_VECTOR = _CAL_RNG.uniform(size=6)
_CAL_JSON = json.dumps(_CAL_RNG.uniform(size=(60, 60)).tolist())


def calibration() -> float:
    """Wall time of a fixed mix of the kinds of work the ops do: a Python
    loop, small-array numpy updates, JSON parsing and a LAPACK eigensolve.

    On a shared host the speed of all of them drifts together, by up to a
    third over minutes; run.py scales op times by this kernel's time."""
    start = time.perf_counter()
    total = 0
    for i in range(30_000):
        total += i * i
    x = _CAL_VECTOR.copy()
    for _ in range(1_000):
        x = _CAL_VECTOR / (1.0 - 0.5 * x)
        x /= x.sum()
    json.loads(_CAL_JSON)
    np.linalg.eigvals(_CAL_MATRIX)
    return time.perf_counter() - start


def setup_probe() -> float:
    """Wall time of a fresh interpreter through `import socialpower`."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import socialpower"], env=os.environ, check=True)
    return time.perf_counter() - start


class Workload:
    def __init__(self, work: Path):
        import socialpower
        from socialpower import cli

        self.work = work
        self.cli = cli
        # looked up per call, so the tracer's wrappers on the package apply
        self.package = socialpower
        self.manifest = json.loads((work / "manifest.json").read_text())
        self.simulate_cfg = json.loads((work / "simulate.json").read_text())
        self.program = self.simulate_cfg["program"]
        # the library path starts from matrices in hand, as in the README
        docs = {}
        self.raw = []
        for ref in self.manifest["reference"]["matrices"]:
            if ref["file"] not in docs:
                docs[ref["file"]] = json.loads((work / ref["file"]).read_text())
            self.raw.append(np.array(docs[ref["file"]]["matrices"][ref["index"]]))
        self.matrix_count = len(checks.reference_gammas(self.manifest, self.program))

    def _cli(self, argv):
        stdout = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(stdout):
            rc = self.cli.main(argv)
        return time.perf_counter() - start, rc, stdout.getvalue()

    def run_op(self, op: str):
        """Run one op; return (seconds, failure reason or None)."""
        w, out = self.work, self.work / "out" / op
        if op == "simulate":
            seconds, rc, _ = self._cli(["simulate", "--config", str(w / "simulate.json"), "--out", str(out)])
            return seconds, checks.check_simulate(rc, out, self.simulate_cfg, self.manifest)
        if op == "analyze":
            seconds, rc, _ = self._cli(["analyze", str(w / self.program), "--out", str(out)])
            return seconds, checks.check_analyze(rc, out, self.program, self.manifest)
        if op == "periodic":
            seconds, rc, _ = self._cli(["periodic", "--config", str(w / "periodic.json"), "--out", str(out)])
            return seconds, checks.check_periodic(rc, out)
        if op == "verify":
            seconds, rc, stdout = self._cli([
                "verify", str(w / self.program), "--samples", str(self.manifest["samples"]),
                "--seed", str(self.manifest["verify_seed"]),
            ])
            return seconds, checks.check_verify(rc, stdout, self.matrix_count)
        sp = self.package
        start = time.perf_counter()
        results = []
        for raw in self.raw:
            gamma = sp.dominant_left_eigenvector(sp.validate(raw))
            results.append((gamma, sp.fixed_point(gamma)))
        return time.perf_counter() - start, checks.check_equilibrium(results, self.manifest)


def run(work: Path, seconds: float, traced: bool) -> dict:
    """Round 0 warms up (checked, not timed); then rounds repeat until
    `seconds` have passed, alternating untraced and traced with --trace.
    Without --trace, each timed round ends with one set-up probe, so the
    probes sample the same stretch of time as the ops.  The calibration
    kernel runs before every op and probe; each round records its median."""
    workload = Workload(work)
    tracer = Tracer() if traced else None
    times = {op: [] for op in OPS + ("setup",)}
    round_walls = {False: [], True: []}
    round_cals = {False: [], True: []}
    traced_rounds = []       # span index ranges of traced rounds
    failures = []
    attempted = 0
    deadline = time.perf_counter() + seconds
    rounds = 0
    while rounds < (3 if traced else 2) or time.perf_counter() < deadline:
        trace_round = traced and rounds % 2 == 0 and rounds > 0
        if trace_round:
            first = len(tracer.spans)
            tracer.install()
        wall = 0.0
        cals = []
        for op in OPS:
            attempted += 1
            gc.collect()  # start every op from the same heap state
            cals.append(calibration())
            start = time.perf_counter()
            try:
                if trace_round:
                    with tracer.span(f"op.{op}", op=attempted):
                        elapsed, reason = workload.run_op(op)
                else:
                    elapsed, reason = workload.run_op(op)
            except Exception as exc:  # an op that raises counts as failed
                elapsed, reason = time.perf_counter() - start, f"{type(exc).__name__}: {exc}"
            if reason:
                failures.append(f"round {rounds} {op}: {reason}")
            if rounds > 0 and not trace_round:
                times[op].append(elapsed)
            wall += elapsed
        if trace_round:
            tracer.uninstall()
            traced_rounds.append((first, len(tracer.spans)))
        if rounds > 0:
            if not traced:
                cals.append(calibration())
                times["setup"].append(setup_probe())
            round_walls[trace_round].append(wall)
            round_cals[trace_round].append(float(np.median(cals)))
        rounds += 1

    result = {
        "rounds": rounds - 1,
        "attempted": attempted,
        "failures": failures,
        "times": times,
        "calibration": round_cals[False],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if traced:
        result["layers"] = [layer_totals(tracer.spans[a:b], a) for a, b in traced_rounds]
        # per-round wall over calibration time, so host drift cancels
        speed = {t: np.array(round_walls[t]) / np.array(round_cals[t]) for t in (False, True)}
        result["overhead_frac"] = float(np.median(speed[True]) / np.median(speed[False]) - 1.0)
        write_spans(tracer.spans, work / "spans.csv")
    return result


def write_spans(spans, path: Path) -> None:
    with open(path, "w") as fh:
        fh.write("name,start_ns,end_ns,parent,op,work\n")
        fh.writelines(",".join(map(str, span)) + "\n" for span in spans)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    print(json.dumps(run(args.work, args.seconds, args.trace)))


if __name__ == "__main__":
    sys.exit(main())
