"""Command-line front end: simulate, analyze, periodic, verify.

Exit codes: 0 all checks passed, 1 domain/validation failure, 2 IO or
configuration failure.  Output goes to the --out directory, else to
the working directory.
A `simulate` or `periodic` run is set by its config file alone (issues,
burn-in, seed, starts), read by `_read_config` against the command's
table of keys, and every threshold comes from `Tolerances`; no flag
overrides either.  All indices printed or read from files are
1-based.  Charts come from `simulate` alone, drawn from the states it
holds in memory when its config sets `"plot": true`.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

import numpy as np

from . import analysis, periodic, svg
from .dynamics import Trajectory, guard_error, limit_gap, simulate
from .errors import NearVertex, ParseError, SocialPowerError, ValidationError
from .topology import (
    TOLERANCES,
    RandomUniform,
    TopologyProgram,
    _double,
    _format_rows,
    _integer,
    _read_json,
    _write_text,
    classify_star,
    load_program,
    max_gamma_profile,
)
from .verification import run_suite


def _out_dir(args) -> Path:
    path = Path(args.out or ".")
    path.mkdir(parents=True, exist_ok=True)
    return path


_REQUIRED = object()
# Each command's config keys with their defaults; a key whose default is
# None may be left out and then stays absent from the settings.
_SIMULATE_KEYS = {"program": _REQUIRED, "initial_conditions": _REQUIRED,
                  "issues": 100, "burn_in": 20, "seed": None, "plot": False}
_PERIODIC_KEYS = {"program": _REQUIRED, "initial_condition": None, "issues": 200, "burn_in": 30}


def _read_config(path, keys: dict):
    """The program a run config names, and the config's settings with
    the defaults of `keys` filled in.

    The config must be a JSON object with no key outside `keys` and
    every _REQUIRED one; `issues`, `burn_in` and `seed` are JSON
    integers, `burn_in` >= 0, and `program` is a path relative to the
    config.
    """
    cfg = _read_json(path)
    if not isinstance(cfg, dict):
        raise ParseError(f"{path}: expected a JSON object, got {cfg!r}")
    unknown = [key for key in cfg if key not in keys]
    if unknown:
        raise ParseError(f"{path}: unknown key(s) {', '.join(map(repr, unknown))}; "
                         f"the keys are {', '.join(map(repr, keys))}")
    for key, default in keys.items():
        if default is _REQUIRED and key not in cfg:
            raise ParseError(f"{path}: missing required key {key!r}")
    settings = {key: default for key, default in keys.items() if default is not None} | cfg
    for key in ("issues", "seed", "burn_in"):
        if key in settings:  # a seed may be left out
            try:
                _integer(settings[key], key)
            except TypeError as exc:
                raise ParseError(f"{path}: {exc}") from exc
    if settings["burn_in"] < 0:
        raise ValidationError(f"{path}: burn_in must be >= 0, got {settings['burn_in']}")
    if not isinstance(settings["program"], str):
        raise ParseError(f"{path}: 'program' must be a file name, got {settings['program']!r}")
    return load_program(Path(path).parent / settings["program"]), settings


def _parse_init(spec, n: int, label: str, path) -> np.ndarray:
    """One start: a flat list of n numbers, or "vertex:k" for the vertex e_k."""
    vertex = re.fullmatch(r"vertex:([0-9]+)", spec) if isinstance(spec, str) else None
    if vertex:
        k = vertex[1].lstrip("0") or "0"
        # more digits than n has is out of range: int() refuses past 4300 digits
        if len(k) > len(str(n)) or not 1 <= int(k) <= n:
            raise ValidationError(f"{label}: vertex index {k} out of 1..{n}")
        return np.eye(n)[int(k) - 1]
    if not isinstance(spec, list) or any(type(v) not in (int, float) for v in spec):
        raise ParseError(f'{path}: {label} must be a flat list of numbers or "vertex:k", got {spec!r}')
    if len(spec) != n:
        raise ValidationError(f"{label} has shape ({len(spec)},), expected ({n},)")
    return np.array([_double(v) for v in spec])  # an integer beyond the double range is inf


def _json_default(obj):
    """`json` hook: numpy arrays and scalars as Python lists and numbers."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _write_report(doc: dict, path: Path) -> str:
    """Write `doc` as indented JSON and a newline; return the JSON text."""
    text = json.dumps(doc, indent=2, default=_json_default)
    _write_text(path, text + "\n")
    return text


def cmd_simulate(args) -> int:
    program, cfg = _read_config(args.config, _SIMULATE_KEYS)
    inits = cfg["initial_conditions"]
    if not isinstance(inits, dict):
        raise ParseError(f"{args.config}: 'initial_conditions' must map run names to starts")
    if not inits:
        raise ParseError(f"{args.config}: 'initial_conditions' names no run")
    for name in inits:
        # the name becomes a file name and a chart title and legend: XML 1.0
        # cannot carry a control character, even escaped, and a lone surrogate
        # cannot be written as UTF-8
        if any(c in "/\\" or c < " " or "\ud800" <= c <= "\udfff" for c in name):
            raise ParseError(f"{args.config}: run name {name!r} contains "
                             "'/', '\\', a control character or a surrogate")
        if len(f"run_{name}.csv".encode()) > 255:
            raise ParseError(f"{args.config}: run name {name!r} makes run_<name>.csv longer than 255 bytes")
    issues, burn_in, seed, plot = cfg["issues"], cfg["burn_in"], cfg.get("seed"), cfg["plot"]
    if not isinstance(plot, bool):
        raise ParseError(f"{args.config}: 'plot' must be true or false, got {plot!r}")
    if seed is not None:
        if not isinstance(program.signal, RandomUniform):
            kind = type(program.signal).__name__.lower()
            raise ValidationError(f"a seed applies only to a random signal, not to a {kind} one")
        program = TopologyProgram(program.matrices, RandomUniform(seed))
    n = program.n
    names = list(inits)
    init = np.array([_parse_init(inits[name], n, f"initial condition {name!r}", args.config)
                     for name in names]).reshape(-1, n)

    # One batch under one signal realization: limit-gap comparison is only
    # meaningful when every run sees the identical switching sequence.
    try:
        batch = simulate(program, init, issues)
    except NearVertex as exc:
        raise guard_error(f"run {names[exc.row]!r}, issue {exc.issue}: ") from exc
    except ValidationError as exc:
        if not hasattr(exc, "row"):
            raise
        raise ValidationError(f"initial condition {names[exc.row]!r} {exc.problem}") from exc

    # every check runs before any file is written
    gbar = max_gamma_profile(program)
    bounds = analysis.equilibrium_upper_bound(gbar)
    # the runs forget their start, so each check reads every distinct state once
    rows, ids = batch.distinct
    # the bound constrains the limit set: the window is the issues post_burn_in keeps
    window = ids[len(ids) - len(batch.post_burn_in(burn_in)):]
    violations = int(np.count_nonzero(np.any(rows > bounds + TOLERANCES.bound_slack, -1)[window]))
    # the margin reads the distinct states after the start, which simulate has
    # guarded, save a run held at its vertex, which has none
    post = np.zeros(len(rows), dtype=bool)
    post[ids[1:]] = True
    interior = rows[post & np.all(rows > 0, axis=-1)]
    min_margin = float(analysis.contraction_margin(interior).min()) if len(interior) else None
    gap = (limit_gap(*(Trajectory(batch.states[:, b], batch.signal_log) for b in (0, 1)))
           if len(names) >= 2 else None)

    out = _out_dir(args)
    batch.to_csv(*(out / f"run_{name}.csv" for name in names))
    report = {
        "issues": issues,
        "runs": {name: f"run_{name}.csv" for name in names},
        "max_gamma_profile": gbar,
        "equilibrium_bounds": bounds,
        "bound_violation_count": violations,
        "bound_checked_states": window.size,
        "min_contraction_margin": min_margin,
    }
    if gap is not None:
        lines = [f"{s},{g}\n" for s, g in enumerate(_format_rows(gap[:, None], ","))]
        _write_text(out / "limit_gap.csv", "s,gap\n" + "".join(lines))
        report["limit_gap"] = "limit_gap.csv"
        report["final_gap"] = float(gap[-1])
    _write_report(report, out / "report.json")
    if plot:
        _plot_runs(names, batch.states, out)
    if window.size == 0:
        print(f"warning: burn_in {burn_in} >= issues {issues}: no state was checked "
              "against the equilibrium bound", file=sys.stderr)
    print(f"simulate: {len(names)} run(s), {issues} issues, {violations} bound violations, "
          f"min margin {'n/a' if min_margin is None else f'{min_margin:.4f}'}")
    return 0 if violations == 0 else 1


def cmd_analyze(args) -> int:
    program = load_program(args.path)
    gammas = program.gammas()
    gbar = max_gamma_profile(program)
    centers = [classify_star(m) for m in program.matrices]
    doc = {
        "n": program.n,
        "matrix_count": len(program.matrices),
        "gamma_per_matrix": gammas,
        "max_gamma_profile": gbar,
        "star": [
            {"is_star": c is not None, "center": None if c is None else c + 1}
            for c in centers
        ],
        "contraction_radii": analysis.contraction_radii(gbar),
    }
    try:
        doc["equilibrium_upper_bound"] = analysis.equilibrium_upper_bound(gbar)
    except SocialPowerError as exc:
        doc["equilibrium_upper_bound"] = None
        doc["equilibrium_upper_bound_note"] = str(exc)
    rate = analysis.convergence_rate(gammas)
    doc["convergence_rate"] = rate if rate is not None else "not applicable"
    eigenvalues, centres = analysis.vertex_stability(gbar)
    labels = np.where(centres, "asymptotically_stable_not_exponential", "unstable").tolist()
    doc["vertex_stability"] = [
        {"individual": i + 1, "stability": label, "eigenvalue": eigenvalue}
        for i, (label, eigenvalue) in enumerate(zip(labels, eigenvalues.tolist()))
    ]
    out = _out_dir(args)
    print(_write_report(doc, out / "analysis.json"))
    return 0


def cmd_periodic(args) -> int:
    program, cfg = _read_config(args.config, _PERIODIC_KEYS)
    limit = periodic.periodic_fixed_points(program)
    issues, burn_in = cfg["issues"], cfg["burn_in"]
    init = _parse_init(cfg.get("initial_condition", [1.0 / program.n] * program.n), program.n,
                       "initial condition", args.config)
    traj = simulate(program, init, issues)
    ok, worst = periodic.verify_periodic_limit(traj, limit, burn_in)
    period = len(limit.fixed_points)
    # the cycle's Jacobian is similar to H(y_0) H(y_{P-1}) ... H(y_1), so
    # the product of the ||H(y_p)||_1 bounds its spectral radius
    rate = np.prod(1.0 - analysis.contraction_margin(np.array(limit.fixed_points)))
    doc = {
        "period": period,
        "fixed_points": list(limit.fixed_points),
        "chain_residuals": limit.chain_residuals,
        "cycle_rate_bound": rate,
        "burn_in": burn_in,
        "worst_deviation": worst,
        "verified": ok,
    }
    out = _out_dir(args)
    _write_report(doc, out / "periodic.json")
    print(f"periodic: period {period}, worst deviation {worst:.3e}, "
          f"{'verified' if ok else 'NOT verified'}")
    return 0 if ok else 1


def cmd_verify(args) -> int:
    program = load_program(args.path)
    failed = None
    for k, results in enumerate(run_suite(program.matrices, args.samples, args.seed), 1):
        for res in results:
            status = "pass" if res.passed else "FAIL"
            extra = f" ({res.detail})" if res.detail else ""
            print(f"matrix {k} {res.name}: {status}, worst margin {res.worst_margin:.3e}{extra}")
            if not res.passed and failed is None:
                failed = f"matrix {k} {res.name}"
    if failed:
        print(f"first failing property: {failed}")
        return 1
    return 0


def _plot_runs(names: list, states: np.ndarray, out: Path) -> None:
    """Chart each run as run_<name>.svg, then the first two runs against
    each other as comparison.svg; run b's state at issue s is
    states[s, b]."""
    n = states.shape[-1]
    stems = [f"run_{name}" for name in names]
    charts = [({f"x_{i + 1}": (states[:, b, i], False) for i in range(n)},
               out / f"{stem}.svg", f"Social power evolution: {stem}") for b, stem in enumerate(stems)]
    if len(names) >= 2:
        series = {}
        for i in sorted({0, n // 2, n - 1}):
            series[f"{stems[0]} x_{i + 1}"] = (states[:, 0, i], False)
            series[f"{stems[1]} x_{i + 1}"] = (states[:, 1, i], True)
        charts.append((series, out / "comparison.svg", "Initial-condition comparison"))
    for series, chart, title in charts:
        svg.line_chart(series, chart, title)
        print(f"wrote {chart}")
    if len(names) < 2:
        print("single run: comparison chart skipped")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="socialpower",
        description="Social power evolution under switching interaction topologies",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run configured initial conditions under one shared signal")
    p.add_argument("--config", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("analyze", help="eigenvector profile, radii, bounds, rate, vertex table")
    p.add_argument("path")
    p.add_argument("--out")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("periodic", help="per-phase fixed points and limit verification")
    p.add_argument("--config", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_periodic)

    p = sub.add_parser("verify", help="randomized invariant suite on a matrix/program file")
    p.add_argument("path")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, OSError, SocialPowerError) as exc:
        # each character that repr escapes (a control character or a lone
        # surrogate, say from a file name) is printed as its escape
        text = "".join(c if c.isprintable() else c.encode("unicode_escape").decode() for c in str(exc))
        print(f"error: {text}", file=sys.stderr)
        return 2 if isinstance(exc, (ParseError, OSError)) else 1


if __name__ == "__main__":
    sys.exit(main())
