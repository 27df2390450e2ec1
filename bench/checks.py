"""Output checks for each benchmark op.

Each check reads what one op wrote (files, captured stdout, returned
values) and compares it with the generator's independent reference
values.  A check returns None when the output is correct and a one-line
reason when it is not; a miss counts as a failed op.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np

# How far the program's eigenvectors may sit from the dense-eig reference
# (1-norm).  Power iteration stops at residual 1e-12; on the slowest
# near-star matrix the error is amplified by ~1/(1 - |lambda_2|) ~ 1e2.
GAMMA_TOL = 1e-8
# Fixed points: the relation x_i (1 - x_i) = c gamma_i must hold for the
# program's own gamma to this relative spread in c, and x must sit this
# close to the reference fixed point (1-norm).
RELATION_TOL = 1e-9
FIXED_POINT_TOL = 1e-6
SIMPLEX_TOL = 1e-12
BOUND_SLACK = 1e-9          # the slack cmd_simulate applies to the bound
CHAIN_TOL = 10 * 1e-13      # 10 * the periodic fixed-point tolerance
CHECKS_PER_MATRIX = 4       # checks run_suite performs per matrix
VERIFY_LINE = re.compile(r"^matrix (\d+) (\w+): (pass|FAIL), ")


def reference_gammas(manifest: dict, fname: str) -> list:
    return [np.array(m["gamma"]) for m in manifest["reference"]["matrices"] if m["file"] == fname]


def _gamma_miss(got, want) -> str | None:
    dist = float(np.abs(np.asarray(got, dtype=float) - want).sum())
    if not dist <= GAMMA_TOL:
        return f"gamma off the dense-eig reference by {dist:.3e}"
    return None


def _read_run(path: Path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return header, data


def check_simulate(rc: int, out: Path, config: dict, manifest: dict) -> str | None:
    gammas = reference_gammas(manifest, config["program"])
    profile = np.max(gammas, axis=0)
    bounds = profile / (1.0 - profile)
    n = profile.size
    issues, burn_in = config["issues"], config["burn_in"]
    report = json.loads((out / "report.json").read_text())
    violations, signal = 0, None
    for name, spec in config["initial_conditions"].items():
        header, data = _read_run(out / f"run_{name}.csv")
        if header != ["s", "p"] + [f"x_{i + 1}" for i in range(n)] or data.shape != (issues + 1, n + 2):
            return f"run_{name}.csv: expected {issues + 1} rows of {n} states"
        states = data[:, 2:]
        if isinstance(spec, str):
            init = np.zeros(n)
            init[int(spec.split(":")[1]) - 1] = 1.0
        else:
            init = np.array(spec)
        if not np.array_equal(states[0], init):
            return f"run_{name}.csv: first row is not the initial condition"
        post = states[1:]
        if np.any(post < 0) or np.any(post > 1) or np.abs(post.sum(axis=1) - 1).max() > SIMPLEX_TOL:
            return f"run_{name}.csv: a state left the simplex"
        if signal is None:
            signal = data[1:, 1]
        elif not np.array_equal(signal, data[1:, 1]):
            return f"run_{name}.csv: runs saw different signal realizations"
        run_violations = int(np.sum(np.any(states[burn_in + 1:] > bounds + BOUND_SLACK, axis=1)))
        if run_violations and not isinstance(spec, str):
            return f"run_{name}: {run_violations} bound violations after burn-in"
        violations += run_violations
    if report["bound_violation_count"] != violations:
        return f"report counts {report['bound_violation_count']} bound violations, CSVs give {violations}"
    margin = report["min_contraction_margin"]
    if not 0.0 < margin <= 1.0:
        return f"min contraction margin {margin} outside (0, 1]"
    miss = _gamma_miss(report["max_gamma_profile"], profile)
    if miss:
        return f"max_gamma_profile: {miss}"
    # only tagged vertices sit above the bound, so exit 1 means exactly that
    if rc != (1 if violations else 0):
        return f"exit code {rc}"
    return None


def check_analyze(rc: int, out: Path, program: str, manifest: dict) -> str | None:
    if rc != 0:
        return f"exit code {rc}"
    doc = json.loads((out / "analysis.json").read_text())
    gammas = reference_gammas(manifest, program)
    if doc["n"] != manifest["reference"]["n"] or doc["matrix_count"] != len(gammas):
        return "analysis.json: wrong dimension or matrix count"
    for k, (got, want) in enumerate(zip(doc["gamma_per_matrix"], gammas)):
        miss = _gamma_miss(got, want)
        if miss:
            return f"matrix {k + 1}: {miss}"
    return _gamma_miss(doc["max_gamma_profile"], np.max(gammas, axis=0))


def check_periodic(rc: int, out: Path) -> str | None:
    if rc != 0:
        return f"exit code {rc}"
    doc = json.loads((out / "periodic.json").read_text())
    if doc["verified"] is not True:
        return f"periodic limit not verified, worst deviation {doc['worst_deviation']:.3e}"
    worst = max(doc["chain_residuals"])
    if not worst <= CHAIN_TOL:
        return f"chain residual {worst:.3e} above {CHAIN_TOL:.0e}"
    return None


def check_verify(rc: int, stdout: str, matrices: int) -> str | None:
    if rc != 0:
        return f"exit code {rc}"
    results = [VERIFY_LINE.match(line) for line in stdout.splitlines()]
    results = [m for m in results if m]
    if len(results) != matrices * CHECKS_PER_MATRIX:
        return f"{len(results)} check lines, expected {matrices * CHECKS_PER_MATRIX}"
    failed = [f"matrix {m[1]} {m[2]}" for m in results if m[3] != "pass"]
    return f"failed: {', '.join(failed)}" if failed else None


def check_equilibrium(results, manifest: dict) -> str | None:
    """`results` holds (gamma, fixed point) per matrix, in manifest order."""
    refs = manifest["reference"]["matrices"]
    if len(results) != len(refs):
        return f"{len(results)} equilibria, expected {len(refs)}"
    for ref, (gamma, x) in zip(refs, results):
        where = f"{ref['file']} matrix {ref['index'] + 1}"
        miss = _gamma_miss(gamma, np.array(ref["gamma"]))
        if miss:
            return f"{where}: {miss}"
        c = x * (1.0 - x) / gamma
        spread = float((c.max() - c.min()) / c.mean())
        if abs(x.sum() - 1.0) > SIMPLEX_TOL or not spread <= RELATION_TOL:
            return f"{where}: x_i (1 - x_i) / gamma_i spreads by {spread:.3e}"
        dist = float(np.abs(x - np.array(ref["fixed_point"])).sum())
        if not dist <= FIXED_POINT_TOL:
            return f"{where}: fixed point off the reference by {dist:.3e}"
    return None
