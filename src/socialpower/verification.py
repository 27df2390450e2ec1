"""Randomized invariant suite run by the `verify` CLI command.

Each check returns its worst observed margin so a failure names the
property and how badly it was missed, not just a boolean.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import _interior, contraction_margin, contraction_radii, jacobian, transform_chain
from .degroot import appraisal_step_via_zeta
from .dynamics import df_map
from .errors import ValidationError
from .topology import ADDRESS_BITS, TOLERANCES, RelativeInteractionMatrix

# Checks evaluate their samples as stacks, in chunks whose per-sample
# work (n floats for a state, n * n for a Jacobian, an influence matrix
# or a certificate state's Phi and H, 2 n * n for the complex step's
# stack) stays below this many floats per temporary array (8 MB).
CHUNK_FLOATS = 2 ** 20
# a power of two, so dividing by it is exact; h/(1 - x_i) < 2^-53 on the
# map's domain, so terms of order h^2 fall below the rounding
COMPLEX_STEP = 2.0 ** -100


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
    """The complex step, a finite difference along the imaginary axis:
    column j is Im F(x + i h e_j)/h, h = COMPLEX_STEP (Squire & Trapp,
    SIAM Review 1998), within (2n + 19)u F_j/(1 - x_j) of the exact
    derivative, u = 2^-53.  A stack of states gives a stack of Jacobians.
    """
    x = np.asarray(x, dtype=float)
    steps = x[..., None, :] + 1j * COMPLEX_STEP * np.eye(x.shape[-1])  # row j: x + i h e_j
    return np.swapaxes(df_map(steps, gamma).imag / COMPLEX_STEP, -1, -2)


def _per_sample(fn, xs: np.ndarray, floats_per_sample: int) -> np.ndarray:
    """fn applied to the rows of xs in chunks of at most CHUNK_FLOATS
    floats of per-sample work, concatenated."""
    step = max(1, CHUNK_FLOATS // floats_per_sample)
    return np.concatenate([fn(xs[lo:lo + step]) for lo in range(0, len(xs), step)])


def check_jacobian_fd(gamma: np.ndarray, rng, samples: int = 100) -> CheckResult:
    """The worst |J - J_cs| of `jacobian` against the complex step, column j
    over F_j/(1 - x_j), which bounds its entries: (4n + 30)u near a vertex too."""

    def errors(x):
        nxt = df_map(x, gamma)
        gap = np.abs(jacobian(x, nxt) - finite_difference_jacobian(x, gamma))
        return (gap * ((1.0 - x) / nxt)[..., None, :]).max(axis=(-2, -1))

    xs = sample_interior(gamma.size, rng, samples)
    worst = float(_per_sample(errors, xs, 2 * gamma.size ** 2).max())
    return CheckResult("jacobian_finite_difference", worst <= TOLERANCES.finite_difference, worst)


def check_contraction_certificates(gamma: np.ndarray, rng, samples: int = 1000) -> CheckResult:
    """||H||_1 < 1 and the entry identities of `transform_chain` at mapped
    states.

    The certificate passes iff the least `contraction_margin` (one
    stacked call per chunk) is > 0, and that margin is reported.  The
    identities are reduced on each chunk's stacked Phi and H, built by
    one `transform_chain` call per state: Phi's entries are at most 1/4,
    so its identities are absolute, while H's row sums and trace - 1 are
    measured relative to the state's largest theta, 1/(1 - max x), the
    scale of H's rounding.  The link |||H||_1 - (1 - margin)|, with the
    norm summed from H's entries, joins the structural deviation.
    """
    n = gamma.size

    def worst(xs):
        # per chunk: the least margin and the largest structural deviation
        mapped = df_map(xs, gamma)
        phi = np.empty((len(xs), n, n))
        h = np.empty_like(phi)
        for k, x in enumerate(mapped):
            phi[k], h[k] = transform_chain(x)
        margins = contraction_margin(mapped)
        scale = 1.0 - mapped.max(axis=-1)  # 1/max theta
        deviations = [
            np.abs(phi.sum(axis=-2)).max(axis=-1),
            np.abs(phi - np.swapaxes(phi, -1, -2)).max(axis=(-2, -1)),
            np.abs(h.sum(axis=-1)).max(axis=-1) * scale,
            np.abs(np.trace(h, axis1=-2, axis2=-1) - 1.0) * scale,
            np.abs(np.abs(h).sum(axis=-2).max(axis=-1) - (1.0 - margins)),
        ]
        # the largest off-diagonal entry, or 0 from the zeroed diagonal:
        # a positive one means Phi is no Laplacian
        phi.reshape(len(xs), -1)[:, ::n + 1] = 0.0
        deviations.append(phi.max(axis=(-2, -1)))
        return [[margins.min(), np.max(deviations)]]

    xs = sample_interior(n, rng, samples)
    chunks = _per_sample(worst, xs, n * n)
    margin, worst_struct = float(chunks[:, 0].min()), float(chunks[:, 1].max())
    passed = margin > 0 and worst_struct <= TOLERANCES.certificate_structure
    return CheckResult(
        "contraction_certificate", passed, margin,
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
    if 8 * samples * matrix.n > 2 ** ADDRESS_BITS:  # each check holds samples x n floats
        raise ValidationError(f"samples = {samples} is too large: the samples need more than "
                              f"2^{ADDRESS_BITS} bytes")
    rng = np.random.default_rng(seed)
    gamma = matrix.gamma
    return [
        check_jacobian_fd(gamma, rng, min(samples, 200)),
        check_contraction_certificates(gamma, rng, samples),
        check_oracle_equivalence(matrix, rng, samples),
        check_boundary_step(gamma, rng, samples),
    ]
