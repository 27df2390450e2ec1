"""Randomized invariant suite run by the `verify` CLI command.

Each check returns its worst observed margin so a failure names the
property and how badly it was missed, not just a boolean.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import contraction_radii, jacobian, transform_chain
from .degroot import appraisal_step_via_zeta
from .dynamics import df_map
from .errors import ValidationError
from .topology import TOLERANCES, RelativeInteractionMatrix

FD_STEP = 1e-7


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    worst_margin: float
    detail: str = ""


def sample_interior(n: int, rng: np.random.Generator, count: int) -> np.ndarray:
    """Interior simplex points, biased to include boundary-adjacent states."""
    raw = rng.dirichlet(np.full(n, 0.5), size=count)
    return np.clip(raw, 1e-9, None) / np.clip(raw, 1e-9, None).sum(axis=1, keepdims=True)


def finite_difference_jacobian(x: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """Central differences of the map formula around x, step FD_STEP."""
    n = x.size
    J = np.empty((n, n))
    for j in range(n):
        hi, lo = x.copy(), x.copy()
        hi[j] += FD_STEP
        lo[j] -= FD_STEP
        J[:, j] = (df_map(hi, gamma) - df_map(lo, gamma)) / (2 * FD_STEP)
    return J


def check_jacobian_fd(gamma: np.ndarray, rng, samples: int = 100) -> CheckResult:
    limit = TOLERANCES.finite_difference
    worst = 0.0
    for x in sample_interior(gamma.size, rng, samples):
        J = jacobian(x, df_map(x, gamma))
        fd = finite_difference_jacobian(x, gamma)
        rel = np.abs(J - fd).max() / np.abs(J).max()
        col_err = np.abs(J.sum(axis=0)).max()
        worst = max(worst, rel, col_err / limit)
    return CheckResult("jacobian_finite_difference", worst <= limit, worst)


def check_contraction_certificates(gamma: np.ndarray, rng, samples: int = 1000) -> CheckResult:
    worst_norm = 0.0
    worst_struct = 0.0
    for x in sample_interior(gamma.size, rng, samples):
        rep = transform_chain(df_map(x, gamma))
        worst_norm = max(worst_norm, rep.h_one_norm)
        worst_struct = max(
            worst_struct,
            np.abs(rep.phi.sum(axis=0)).max(),
            np.abs(rep.phi - rep.phi.T).max(),
            max(0.0, -rep.phi_eigs.min()),
            np.abs(rep.h.sum(axis=1)).max(),
            abs(np.trace(rep.h) - 1.0),
            np.abs(rep.h_eigs.imag).max(),
        )
    passed = worst_norm < 1.0 and worst_struct <= TOLERANCES.certificate_structure
    return CheckResult(
        "contraction_certificate", passed, worst_norm,
        detail=f"worst structural deviation {worst_struct:.2e}",
    )


def check_oracle_equivalence(matrix: RelativeInteractionMatrix, rng, samples: int = 1000) -> CheckResult:
    gamma = matrix.gamma
    worst = 0.0
    for x in sample_interior(matrix.n, rng, samples):
        gap = np.abs(appraisal_step_via_zeta(x, matrix) - df_map(x, gamma)).sum()
        worst = max(worst, gap)
    return CheckResult("opinion_oracle_equivalence", worst <= TOLERANCES.oracle_gap, worst)


def check_boundary_step(gamma: np.ndarray, rng, samples: int = 1000) -> CheckResult:
    """x_j <= 1 - r with r <= r_j must imply F_j(x) < 1 - r."""
    radii = contraction_radii(gamma)
    n = gamma.size
    worst = -np.inf
    for _ in range(samples):
        j = rng.integers(n)
        if radii[j] <= 0:
            continue
        r = rng.uniform(0, radii[j])
        x_j = 1.0 - r * rng.uniform(1.0, 1.5)
        rest = rng.dirichlet(np.full(n - 1, 1.0)) * (1.0 - x_j)
        x = np.insert(rest, j, x_j)
        if np.any(x >= 1.0 - TOLERANCES.near_vertex) or np.any(x <= 0):
            continue
        worst = max(worst, df_map(x, gamma)[j] - (1.0 - r))
    return CheckResult("boundary_contraction_step", worst < 0, worst)


def run_suite(matrix: RelativeInteractionMatrix, samples: int, seed: int) -> list[CheckResult]:
    if samples < 1:
        raise ValidationError(f"need at least one sample, got samples = {samples}")
    rng = np.random.default_rng(seed)
    gamma = matrix.gamma
    return [
        check_jacobian_fd(gamma, rng, min(samples, 200)),
        check_contraction_certificates(gamma, rng, samples),
        check_oracle_equivalence(matrix, rng, samples),
        check_boundary_step(gamma, rng, samples),
    ]
