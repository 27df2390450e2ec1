"""Seeded input generator for the benchmark workloads.

Writes every workload's program files and CLI configs in the README's
file conventions (1-based indices, decimals at 17 significant digits),
plus `manifest.json` with reference values computed independently of
`socialpower`: the dominant left eigenvector of each matrix from a dense
`np.linalg.eig`, its residual, and the interior fixed point from the
relation x_i (1 - x_i) = c gamma_i.  This module never imports
`socialpower`, so the program only ever sees generated files.  The same
seed gives byte-identical files.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

WORKLOADS = ("group6-switching", "near-star-solvers", "dense-large")

BOUNDARY = ("near_face", "near_vertex", "vertex")

# Sizes per workload.  "tiny" shrinks every workload to a smoke run.
SIZES = {
    "group6-switching": {
        "initial": ("draw",) * 5 + BOUNDARY, "issues": 500, "burn_in": 100,
        "periodic_issues": 120, "periodic_burn_in": 40, "samples": 50,
    },
    "near-star-solvers": {
        # gamma_hub = w / (1 + w): 0.474 at w = 0.90 up to 0.4975 at 0.99.
        # Near a star the periodic limit is reached slowly (deviation 1e-8
        # after ~750 issues at w = 0.97/0.99), hence the long burn-in.
        "n": 30, "random_w": (0.90, 0.95, 0.97, 0.99), "periodic_w": (0.97, 0.99),
        "initial": ("draw",) + BOUNDARY, "issues": 200, "burn_in": 100,
        "periodic_issues": 1500, "periodic_burn_in": 1200, "samples": 10,
    },
    "dense-large": {
        "n": 400, "matrices": 2,
        # fast mixing, but 3 issues are too few to escape a near-vertex start
        "initial": ("draw", "near_face", "vertex"), "issues": 3, "burn_in": 2,
        "periodic_issues": 30, "periodic_burn_in": 20, "samples": 2,
    },
}

TINY = {
    "group6-switching": {"initial": ("draw",) + BOUNDARY, "issues": 60, "burn_in": 40, "samples": 5},
    "near-star-solvers": {"n": 8, "issues": 60, "samples": 3},
    "dense-large": {"n": 40},
}


# Distance of the near-vertex initial state from its vertex.  Closer than
# about 1e-8 the exact contraction margin (~distance**2) underflows double
# precision and `simulate` reports a margin <= 0; see NOTES.md.
NEAR_VERTEX = 1e-6


def sizes(workload: str, tiny: bool = False) -> dict:
    size = dict(SIZES[workload])
    if tiny:
        size.update(TINY[workload])
    return size


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _program_text(matrices, signal: dict) -> str:
    n = matrices[0].shape[0]
    lines = ["{", f'  "n": {n},', '  "matrices": [']
    for k, m in enumerate(matrices):
        lines.append("    [")
        for i in range(n):
            comma = "," if i < n - 1 else ""
            lines.append(f"      [{', '.join(_fmt(v) for v in m[i])}]{comma}")
        lines.append("    ]," if k < len(matrices) - 1 else "    ]")
    lines.append("  ],")
    lines.append(f'  "signal": {json.dumps(signal)}')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _write_json(doc, path: Path) -> None:
    path.write_text(json.dumps(doc, indent=2) + "\n")


def _row_normalize(m: np.ndarray) -> np.ndarray:
    np.fill_diagonal(m, 0.0)
    return m / m.sum(axis=1, keepdims=True)


def near_star(n: int, w: float, rng: np.random.Generator) -> np.ndarray:
    """Hub 0 listens to every leaf; each leaf sends w to the hub and
    1 - w to one or two other leaves, so gamma_hub -> 1/2 as w -> 1."""
    m = np.zeros((n, n))
    m[0, 1:] = rng.uniform(0.5, 1.5, n - 1)
    m[0] /= m[0].sum()
    for i in range(1, n):
        others = [j for j in range(1, n) if j != i]
        picks = rng.choice(others, size=min(2, len(others)), replace=False)
        share = rng.dirichlet(np.ones(picks.size))
        m[i, 0] = w
        m[i, picks] = (1.0 - w) * share
    return m


def dense(n: int, rng: np.random.Generator) -> np.ndarray:
    """Dense random matrix with positive off-diagonal entries (fast mixing)."""
    return _row_normalize(rng.uniform(0.1, 1.0, (n, n)))


def reference_gamma(m: np.ndarray) -> tuple[np.ndarray, float]:
    """Dominant left eigenvector from a dense eigendecomposition of C^T."""
    vals, vecs = np.linalg.eig(m.T)
    k = int(np.argmin(np.abs(vals - 1.0)))
    g = np.real(vecs[:, k])
    g = g / g.sum()
    return g, float(np.abs(g @ m - g).sum())


def reference_fixed_point(gamma: np.ndarray) -> np.ndarray:
    """Interior fixed point from x_i (1 - x_i) = c gamma_i with sum(x) = 1.

    Every entry takes the root below 1/2 unless that branch cannot reach
    sum 1; then the largest entry takes the root above 1/2 (Jia,
    Mirtabatabaei, Friedkin & Bullo, SIAM Review 2015).  c is found by
    bisection.
    """
    top = int(np.argmax(gamma))
    c_max = 0.25 / gamma[top]

    def point(c, upper):
        x = 0.5 * (1.0 - np.sqrt(np.maximum(1.0 - 4.0 * c * gamma, 0.0)))
        if upper:
            x[top] = 1.0 - x[top]
        return x

    upper = point(c_max, False).sum() < 1.0
    lo, hi = 0.0, c_max
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        # minus branch: the sum rises with c; plus branch: it falls
        if (point(mid, upper).sum() < 1.0) != upper:
            lo = mid
        else:
            hi = mid
    return point(0.5 * (lo + hi), upper)


def _initial_conditions(n: int, kinds, avoid: int, rng: np.random.Generator) -> dict:
    """Seeded admissible initial conditions, one per entry of `kinds`:
    "draw" (uniform entries), "near_face" (zeros and a 1e-12 entry),
    "near_vertex" (NEAR_VERTEX from a vertex) and "vertex" (tagged).
    `avoid` is never the near-vertex or tagged index."""
    choices = [j for j in range(n) if j != avoid]
    ics = {}
    for kind in kinds:
        if kind == "draw":
            value = rng.uniform(0.0, 0.99, n).tolist()
        elif kind == "near_face":
            face = np.zeros(n)
            face[rng.choice(n, size=max(1, n // 3), replace=False)] = rng.uniform(0.1, 0.9)
            face[int(rng.choice(np.flatnonzero(face == 0)))] = 1e-12
            value = face.tolist()
        elif kind == "near_vertex":
            near = np.full(n, 0.5 / n)
            near[int(rng.choice(choices))] = 1.0 - NEAR_VERTEX
            value = near.tolist()
        else:
            value = f"vertex:{int(rng.choice(choices)) + 1}"
        ics[f"{kind}{sum(k.startswith(kind) for k in ics) + 1}"] = value
    return ics


def _group6_matrices(name: str) -> list:
    doc = json.loads((ROOT / "experiments" / name).read_text())
    return [np.array(m, dtype=float) for m in doc["matrices"]]


def generate(workload: str, seed: int, out: Path, tiny: bool = False) -> dict:
    """Write the workload's files into `out` and return its manifest."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    size = sizes(workload, tiny)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    out.mkdir(parents=True, exist_ok=True)

    if workload == "group6-switching":
        random_ms = _group6_matrices("group6_random.json")
        periodic_ms = _group6_matrices("group6_alternating.json")
    elif workload == "near-star-solvers":
        n = size["n"]
        random_ms = [near_star(n, w, rng) for w in size["random_w"]]
        periodic_ms = [near_star(n, w, rng) for w in size["periodic_w"]]
    else:
        n = size["n"]
        random_ms = [dense(n, rng) for _ in range(size["matrices"])]
        periodic_ms = [dense(n, rng) for _ in range(2)]

    signal_seed = int(rng.integers(1, 2**31))
    (out / "random_program.json").write_text(
        _program_text(random_ms, {"kind": "random", "seed": signal_seed}))
    (out / "periodic_program.json").write_text(
        _program_text(periodic_ms, {"kind": "periodic", "order": [1, 2]}))

    reference = {"n": random_ms[0].shape[0], "matrices": []}
    for fname, ms in (("random_program.json", random_ms), ("periodic_program.json", periodic_ms)):
        for k, m in enumerate(ms):
            g, res = reference_gamma(m)
            reference["matrices"].append({
                "file": fname, "index": k, "gamma": g.tolist(), "residual": res,
                "fixed_point": reference_fixed_point(g).tolist(),
            })

    n = reference["n"]
    # the largest profile entry (the near-star hub) is never the tagged or
    # near-vertex index: escaping its vertex outlasts any affordable burn-in
    profile = np.max([m["gamma"] for m in reference["matrices"][:len(random_ms)]], axis=0)
    avoid = int(np.argmax(profile))
    sim_seed = int(rng.integers(1, 2**31))
    _write_json({
        "program": "random_program.json",
        "issues": size["issues"],
        "seed": sim_seed,
        "burn_in": size["burn_in"],
        "plot": True,
        "initial_conditions": _initial_conditions(n, size["initial"], avoid, rng),
    }, out / "simulate.json")
    _write_json({
        "program": "periodic_program.json",
        "issues": size["periodic_issues"],
        "burn_in": size["periodic_burn_in"],
        "initial_condition": rng.dirichlet(np.ones(n)).tolist(),
    }, out / "periodic.json")
    manifest = {
        "workload": workload,
        "seed": seed,
        "tiny": tiny,
        "samples": size["samples"],
        "verify_seed": int(rng.integers(1, 2**31)),
        "reference": reference,
    }
    _write_json(manifest, out / "manifest.json")
    return manifest
