"""socialpower benchmark: one command per workload run.

    python3 bench/run.py --workload group6-switching --seed 1 --seconds 20 --trace 0

Generates the workload's inputs from --seed (generate.py), then runs the
workload in its own child process (workload.py) for --seconds, with the
BLAS/OpenMP thread count capped.  Every op's output is checked.  Each
time is scaled by a calibration kernel timed alongside it and summarized
as a median of block means (see `summarize`).  The last
line of stdout is one JSON object: with --trace 0 it carries the
end-to-end metrics, with --trace 1 the per-layer metrics of a traced run.
The lines before it give the same numbers for people, plus the error
rate, the environment and any failures.

The package is imported from `src/` next to this directory; without it
the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

THREAD_CAP = 1
# before numpy is imported here or in a child
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(THREAD_CAP)

import numpy as np  # noqa: E402

from generate import WORKLOADS, generate  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
BLOCKS = 5
# Reported times are scaled to the host speed at which workload.calibration
# takes this long (about its time on the 2-core machine the benchmark was
# sized on).
CALIBRATION_S = 0.02
CHILD_TIMEOUT_S = 120

OP_METRICS = {
    "simulate_s": "simulate",
    "analyze_s": "analyze",
    "periodic_s": "periodic",
    "verify_s": "verify",
    "equilibrium_s": "equilibrium",
}
END_TO_END = {**{name: "s" for name in OP_METRICS}, "setup_s": "s", "peak_rss_mb": "MB"}

# per-layer metric -> (unit, span name, field of the per-round totals)
PER_LAYER = {
    "dynamics.simulate.self_s": ("s", "dynamics.simulate", "self_s"),
    "dynamics.simulate.calls": ("count", "dynamics.simulate", "calls"),
    "dynamics.df_map.calls": ("count", "dynamics.df_map", "calls"),
    "dynamics.simulate.ns_per_state_issue": ("ns", "dynamics.simulate", "ns_per_work"),
    "analysis.transform_chain.self_s": ("s", "analysis.transform_chain", "self_s"),
    "analysis.transform_chain.calls": ("count", "analysis.transform_chain", "calls"),
    "analysis.jacobian.self_s": ("s", "analysis.jacobian", "self_s"),
    "verification.check_jacobian_fd.self_s": ("s", "verification.check_jacobian_fd", "self_s"),
    "verification.check_contraction_certificates.self_s":
        ("s", "verification.check_contraction_certificates", "self_s"),
    "verification.check_oracle_equivalence.self_s": ("s", "verification.check_oracle_equivalence", "self_s"),
    "verification.check_boundary_step.self_s": ("s", "verification.check_boundary_step", "self_s"),
    "verification.samples": ("count", "verification.sample_interior", "work"),
    "degroot.appraisal_step_via_zeta.self_s": ("s", "degroot.appraisal_step_via_zeta", "self_s"),
    "degroot.appraisal_step_via_zeta.calls": ("count", "degroot.appraisal_step_via_zeta", "calls"),
    "topology.dominant_left_eigenvector.self_s": ("s", "topology.dominant_left_eigenvector", "self_s"),
    "topology.dominant_left_eigenvector.calls": ("count", "topology.dominant_left_eigenvector", "calls"),
    "topology.max_gamma_profile.calls": ("count", "topology.max_gamma_profile", "calls"),
    "analysis.fixed_point.self_s": ("s", "analysis.fixed_point", "self_s"),
    "periodic.periodic_fixed_points.self_s": ("s", "periodic.periodic_fixed_points", "self_s"),
    "periodic.verify_periodic_limit.self_s": ("s", "periodic.verify_periodic_limit", "self_s"),
    "topology.load_program.self_s": ("s", "topology.load_program", "self_s"),
    "topology.validate.self_s": ("s", "topology.validate", "self_s"),
    "topology.is_irreducible.self_s": ("s", "topology.is_irreducible", "self_s"),
    "dynamics.Trajectory.to_csv.self_s": ("s", "dynamics.Trajectory.to_csv", "self_s"),
    "dynamics.limit_gap.self_s": ("s", "dynamics.limit_gap", "self_s"),
    "svg.line_chart.self_s": ("s", "svg.line_chart", "self_s"),
    "cli.cmd_simulate.self_s": ("s", "cli.cmd_simulate", "self_s"),
    "cli.cmd_analyze.self_s": ("s", "cli.cmd_analyze", "self_s"),
    "cli.cmd_periodic.self_s": ("s", "cli.cmd_periodic", "self_s"),
    "cli.cmd_verify.self_s": ("s", "cli.cmd_verify", "self_s"),
}
OVERHEAD = ("trace.overhead_frac", "ratio")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def summarize(values, calibration) -> float:
    """Calibrated time: the median, over BLOCKS contiguous blocks of the
    run, of the block's mean time scaled by CALIBRATION_S over the
    block's median calibration-kernel time.

    The scaling cancels host speed drift (all timings on a shared
    machine move together, by up to a third over minutes); block means
    damp short noise and the median drops an outlying block."""
    values = np.asarray(values, dtype=float)
    calibration = np.asarray(calibration, dtype=float)
    blocks = np.array_split(np.arange(values.size), min(BLOCKS, values.size))
    return float(np.median([
        values[b].mean() * CALIBRATION_S / np.median(calibration[b]) for b in blocks
    ]))


def run_child(work: Path, seconds: float, traced: bool, env: dict) -> dict:
    cmd = [sys.executable, str(HERE / "workload.py"), "--work", str(work), "--seconds", str(seconds)]
    if traced:
        cmd.append("--trace")
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=seconds + CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"workload process exited with code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def layer_value(totals: dict, span: str, field: str) -> float:
    entry = totals.get(span)
    if entry is None:
        return 0.0
    if field == "ns_per_work":
        return entry["total_s"] * 1e9 / entry["work"] if entry["work"] else 0.0
    return float(entry[field])


def layer_metrics(result: dict) -> dict:
    """Median over traced rounds of each per-layer metric."""
    metrics = {}
    for name, (unit, span, field) in PER_LAYER.items():
        values = [layer_value(totals, span, field) for totals in result["layers"]]
        metrics[name] = {"value": float(np.median(values)), "unit": unit}
    metrics[OVERHEAD[0]] = {"value": result["overhead_frac"], "unit": OVERHEAD[1]}
    return metrics


def op_shares(result: dict, top: int = 3) -> list:
    """Lines naming the largest self times inside each op, as shares of
    the op's traced wall time."""
    lines = []
    for op in OP_METRICS.values():
        root = f"op.{op}"
        wall = float(np.median([totals[root]["total_s"] for totals in result["layers"]]))
        inside = {}
        for totals in result["layers"]:
            for key, entry in totals.items():
                if key.startswith(root + "/"):
                    inside.setdefault(key.split("/", 1)[1], []).append(entry["self_s"])
        ranked = sorted(((float(np.median(v)), k) for k, v in inside.items()), reverse=True)[:top]
        parts = ", ".join(f"{k} {100 * s / wall:.0f}%" for s, k in ranked)
        lines.append(f"  {root} ({wall:.4f} s): {parts}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = parser.parse_args(argv)

    if not (SRC / "socialpower" / "__init__.py").is_file():
        print(f"error: no socialpower package under {SRC}", file=sys.stderr)
        return 2
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    try:
        manifest = generate(args.workload, args.seed, work, tiny=args.tiny)
    except OSError as exc:
        print(f"error: cannot generate inputs: {exc}", file=sys.stderr)
        return 2
    env = child_env()
    traced = bool(args.trace)
    result = run_child(work, args.seconds, traced, env)

    times = result["times"]
    attempted, failed = result["attempted"], len(result["failures"])
    print(f"socialpower benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}{', tiny' if args.tiny else ''}")
    print(f"environment: python {platform.python_version()}, numpy {np.__version__}, "
          f"nproc {os.cpu_count()}, blas threads {THREAD_CAP}, "
          f"{manifest['reference']['n']} nodes")
    print(f"ops: {attempted} attempted in {result['rounds']} timed rounds after a warm-up round, {failed} failed")
    if traced:
        metrics = layer_metrics(result)
        print(f"per-layer metrics, median over {len(result['layers'])} traced rounds:")
        for name, m in metrics.items():
            print(f"  {name:52s} {m['value']:.6g} {m['unit']}")
        print("largest self times per op (traced):")
        print("\n".join(op_shares(result)))
    else:
        metrics = {}
        calibration = result["calibration"]
        print(f"calibration kernel: median {np.median(calibration):.4g} s, "
              f"reference {CALIBRATION_S} s; times below are scaled by their ratio")
        for name, op in {**OP_METRICS, "setup_s": "setup"}.items():
            values = times[op]
            metrics[name] = {"value": summarize(values, calibration), "unit": "s"}
            print(f"  {name:14s} {metrics[name]['value']:.6g} s  ({len(values)} samples; "
                  f"unscaled median {np.median(values):.4g}, min {min(values):.4g}, max {max(values):.4g})")
        metrics["peak_rss_mb"] = {"value": result["peak_rss_mb"], "unit": "MB"}
        print(f"  {'peak_rss_mb':14s} {result['peak_rss_mb']:.6g} MB  (workload process)")
    print(f"  {'error_rate':14s} {failed / attempted:.6g} ratio  ({failed} of {attempted} ops failed)")
    for line in result["failures"]:
        print(f"  failed: {line}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
