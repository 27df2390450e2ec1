"""Randomized invariant suite run by the `verify` CLI command.

Each check returns its worst observed margin so a failure names the
property and how badly it was missed, not just a boolean.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import _interior, contraction_radii, jacobian, transform_chain
from .degroot import appraisal_step_via_zeta
from .dynamics import df_map
from .errors import ValidationError
from .topology import TOLERANCES, RelativeInteractionMatrix

FD_STEP = 1e-7
# Checks evaluate their samples as stacks, in chunks whose per-sample
# work (n floats for a state, n * n for a Jacobian, an influence matrix
# or a certificate state's Phi and H) stays below this many floats per
# temporary array (8 MB).
CHUNK_FLOATS = 2 ** 20


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    worst_margin: float
    detail: str = ""


def sample_interior(n: int, rng: np.random.Generator, count: int) -> np.ndarray:
    """Interior simplex points, biased to include boundary-adjacent states."""
    raw = np.clip(rng.dirichlet(np.full(n, 0.5), size=count), 1e-9, None)
    return raw / raw.sum(axis=1, keepdims=True)


def finite_difference_jacobian(x: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """Central differences of the map formula around x, step FD_STEP.

    A stack of states, shape (..., n), gives a stack of Jacobians.
    """
    x = np.asarray(x, dtype=float)
    step = FD_STEP * np.eye(x.shape[-1])
    hi = df_map(x[..., None, :] + step, gamma)
    lo = df_map(x[..., None, :] - step, gamma)
    # row j of the differences is column j of the Jacobian
    return np.swapaxes((hi - lo) / (2 * FD_STEP), -1, -2)


def _per_sample(fn, xs: np.ndarray, floats_per_sample: int) -> np.ndarray:
    """fn applied to the rows of xs in chunks of at most CHUNK_FLOATS
    floats of per-sample work, concatenated."""
    step = max(1, CHUNK_FLOATS // floats_per_sample)
    return np.concatenate([fn(xs[lo:lo + step]) for lo in range(0, len(xs), step)])


def check_jacobian_fd(gamma: np.ndarray, rng, samples: int = 100) -> CheckResult:
    limit = TOLERANCES.finite_difference

    def errors(x):
        J = jacobian(x, df_map(x, gamma))
        fd = finite_difference_jacobian(x, gamma)
        rel = np.abs(J - fd).max(axis=(-2, -1)) / np.abs(J).max(axis=(-2, -1))
        col_err = np.abs(J.sum(axis=-2)).max(axis=-1)
        return np.maximum(rel, col_err / limit)

    xs = sample_interior(gamma.size, rng, samples)
    worst = max(0.0, float(_per_sample(errors, xs, gamma.size ** 2).max()))
    return CheckResult("jacobian_finite_difference", worst <= limit, worst)


def check_contraction_certificates(gamma: np.ndarray, rng, samples: int = 1000) -> CheckResult:
    """||H||_1 < 1 and the entry identities of `transform_chain` at mapped
    states: one `transform_chain` call per state, the identities reduced
    on each chunk's stacked Phi and H."""
    n = gamma.size

    def worst(xs):
        # per state: ||H||_1 and the largest structural deviation
        phi = np.empty((len(xs), n, n))
        h = np.empty_like(phi)
        norms = np.empty(len(xs))
        for k, x in enumerate(df_map(xs, gamma)):
            rep = transform_chain(x)
            phi[k], h[k], norms[k] = rep.phi, rep.h, rep.h_one_norm
        deviations = [
            np.abs(phi.sum(axis=-2)).max(axis=-1),
            np.abs(phi - np.swapaxes(phi, -1, -2)).max(axis=(-2, -1)),
            np.abs(h.sum(axis=-1)).max(axis=-1),
            np.abs(np.trace(h, axis1=-2, axis2=-1) - 1.0),
        ]
        # the largest off-diagonal entry, or 0 from the zeroed diagonal:
        # a positive one means Phi is no Laplacian
        phi.reshape(len(xs), -1)[:, ::n + 1] = 0.0
        deviations.append(phi.max(axis=(-2, -1)))
        return np.column_stack([norms, np.max(deviations, axis=0)])

    xs = sample_interior(n, rng, samples)
    worst_norm, worst_struct = np.maximum(_per_sample(worst, xs, n * n).max(axis=0), 0.0).tolist()
    passed = worst_norm < 1.0 and worst_struct <= TOLERANCES.certificate_structure
    return CheckResult(
        "contraction_certificate", passed, worst_norm,
        detail=f"worst structural deviation {worst_struct:.2e}",
    )


def check_oracle_equivalence(matrix: RelativeInteractionMatrix, rng, samples: int = 1000) -> CheckResult:
    gamma = matrix.gamma

    def gaps(x):
        return np.abs(appraisal_step_via_zeta(x, matrix) - df_map(x, gamma)).sum(axis=-1)

    xs = sample_interior(matrix.n, rng, samples)
    worst = max(0.0, float(_per_sample(gaps, xs, matrix.n ** 2).max()))
    return CheckResult("opinion_oracle_equivalence", worst <= TOLERANCES.oracle_gap, worst)


def check_boundary_step(gamma: np.ndarray, rng, samples: int = 1000) -> CheckResult:
    """x_j <= 1 - r with r <= r_j must imply F_j(x) < 1 - r.

    Stacked draws, in a fixed order: j with r_j > 0 (a star centre's band
    is empty), r in [0, r_j), x_j = 1 - r * factor in (0, 1 - r] with the
    factor in [1, min(1.5, 1/r)), the rest from a flat Dirichlet.  A state
    outside `analysis._interior` is skipped; a check that keeps none FAILs.
    The kept states are mapped, and their margins taken, chunk by chunk.
    """
    n = gamma.size
    radii = contraction_radii(gamma)
    j = rng.choice(np.flatnonzero(radii > 0), samples)
    r = rng.uniform(0.0, radii[j])
    x_j = 1.0 - r * rng.uniform(1.0, 1.0 / np.maximum(r, 2.0 / 3.0))
    others = np.arange(n) != j[:, None]
    x = np.zeros((samples, n))
    x[others] = rng.dirichlet(np.ones(n - 1), samples).ravel()
    x *= (1.0 - x_j)[:, None]
    x[~others] = x_j
    keep = np.flatnonzero(_interior(x))
    if not keep.size:
        return CheckResult("boundary_contraction_step", False, np.nan, "no boundary state checked")

    def margins(rows):
        return df_map(x[rows], gamma)[np.arange(len(rows)), j[rows]] - (1.0 - r[rows])

    worst = float(_per_sample(margins, keep, n).max())
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
