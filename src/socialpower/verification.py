"""Randomized invariant suite run by the `verify` CLI command.

Each check returns its worst observed margin so a failure names the
property and how badly it was missed, not just a boolean.  A check takes
one matrix's gamma (n,) with one generator and returns one result, or the
gammas of K matrices (K, n) with K generators and returns K: it draws
each matrix's samples from its own generator, then evaluates all of them
as one (K, S, n) stack, with the gammas as (K, 1, n), so that its fixed
numpy costs are paid once per program, not once per matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import _interior, contraction_margin, contraction_radii, jacobian, transform_chain
from .degroot import appraisal_step_via_zeta
from .dynamics import df_map
from .errors import ValidationError
from .topology import ADDRESS_BITS, TOLERANCES, RelativeInteractionMatrix

# Checks evaluate the samples of all K matrices as one (K, S, n) stack,
# in chunks along S whose per-sample work across K (n floats for a state,
# n * n for a Jacobian, an influence matrix or a certificate state's Phi
# and H, 2 n * n for the complex step's stack) stays below this many
# floats per temporary array (256 kB), or holds one sample of each matrix.
# Set by the benchmark's peak RSS: a chunk must not hold many more states
# than one matrix's chunk did before the matrices were stacked.  Near-star
# (K = 4, n = 30, 10 samples) reads 42.6 MB against 42.4 at 2^15, 43.8 at
# 2^17; dense-large (K = 2, n = 400) holds one sample of each matrix a
# chunk, and read 81 MB against 75.9 at 2^20, with two.  Every check of
# group6 (K = 5, n = 6, 50 samples) still runs as one chunk.
CHUNK_FLOATS = 2 ** 15
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
    derivative, u = 2^-53.  A stack of states gives a stack of Jacobians;
    `gamma` broadcasts against the states, as (K, 1, n) over (K, S, n).
    """
    x = np.asarray(x, dtype=float)
    steps = x[..., None, :] + 1j * COMPLEX_STEP * np.eye(x.shape[-1])  # row j: x + i h e_j
    return np.swapaxes(df_map(steps, np.asarray(gamma)[..., None, :]).imag / COMPLEX_STEP, -1, -2)


def _stacks(gamma, rng):
    """One gamma (n,) with one generator as a stack of K = 1, or gammas
    (K, n) with K generators: the gammas as (K, 1, n), to broadcast over
    a (K, S, n) stack of samples, the generators as a list, and whether
    one was given."""
    gamma = np.asarray(gamma, dtype=float)
    if gamma.ndim == 1:
        return gamma[None, None], [rng], True
    return gamma[:, None], list(rng), False


def _samples(n: int, rngs, count: int) -> np.ndarray:
    """`sample_interior` from each generator, as one (K, count, n) stack."""
    xs = np.empty((len(rngs), count, n))
    for x, rng in zip(xs, rngs):
        x[...] = sample_interior(n, rng, count)
    return xs


def _per_sample(fn, shape, floats_per_sample: int) -> np.ndarray:
    """fn(s) for slices s of the sample axis of a (K, S) stack, in chunks
    of at most CHUNK_FLOATS floats of per-sample work across all K rows,
    concatenated along that axis."""
    k, count = shape
    step = max(1, CHUNK_FLOATS // (k * floats_per_sample))
    return np.concatenate([fn(slice(lo, lo + step)) for lo in range(0, count, step)], axis=1)


def check_jacobian_fd(gamma: np.ndarray, rng, samples: int = 100):
    """The worst |J - J_cs| of `jacobian` against the complex step, column j
    over F_j/(1 - x_j), which bounds its entries: (4n + 30)u near a vertex too."""
    gammas, rngs, single = _stacks(gamma, rng)
    n = gammas.shape[-1]
    xs = _samples(n, rngs, samples)

    def errors(s):
        x = xs[:, s]
        nxt = df_map(x, gammas)
        gap = np.abs(jacobian(x, nxt) - finite_difference_jacobian(x, gammas))
        return (gap * ((1.0 - x) / nxt)[..., None, :]).max(axis=(-2, -1))

    worst = _per_sample(errors, xs.shape[:2], 2 * n * n).max(axis=-1).tolist()
    results = [CheckResult("jacobian_finite_difference", w <= TOLERANCES.finite_difference, w)
               for w in worst]
    return results[0] if single else results


def check_contraction_certificates(gamma: np.ndarray, rng, samples: int = 1000):
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
    gammas, rngs, single = _stacks(gamma, rng)
    n = gammas.shape[-1]
    xs = _samples(n, rngs, samples)

    def worst(s):
        # per mapped state: its margin and its largest structural deviation
        mapped = df_map(xs[:, s], gammas)
        phi = np.empty(mapped.shape + (n,))
        h = np.empty_like(phi)
        phis, hs = phi.reshape(-1, n, n), h.reshape(-1, n, n)  # views, one state a row
        for i, x in enumerate(mapped.reshape(-1, n)):
            phis[i], hs[i] = transform_chain(x)
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
        phi.reshape(-1, n * n)[:, ::n + 1] = 0.0
        deviations.append(phi.max(axis=(-2, -1)))
        return np.stack([margins, np.max(deviations, axis=0)], axis=-1)

    states = _per_sample(worst, xs.shape[:2], n * n)
    margins, structs = states[..., 0].min(axis=-1), states[..., 1].max(axis=-1)
    results = [
        CheckResult("contraction_certificate", margin > 0 and struct <= TOLERANCES.certificate_structure,
                    margin, detail=f"worst structural deviation {struct:.2e}")
        for margin, struct in zip(margins.tolist(), structs.tolist())
    ]
    return results[0] if single else results


def check_oracle_equivalence(matrix, rng, samples: int = 1000):
    """The opinion oracle's next state against `df_map`'s, as a 1-norm gap.

    `matrix` is one RelativeInteractionMatrix with one generator, or a
    sequence of K with K generators; the oracle reads their entries as
    one (K, 1, n, n) stack.
    """
    single = isinstance(matrix, RelativeInteractionMatrix)
    matrices, rngs = ([matrix], [rng]) if single else (list(matrix), list(rng))
    gammas = np.stack([m.gamma for m in matrices])[:, None]
    entries = np.stack([m.entries for m in matrices])[:, None]
    n = gammas.shape[-1]
    xs = _samples(n, rngs, samples)

    def gaps(s):
        x = xs[:, s]
        return np.abs(appraisal_step_via_zeta(x, entries) - df_map(x, gammas)).sum(axis=-1)

    worst = _per_sample(gaps, xs.shape[:2], n * n).max(axis=-1).tolist()
    results = [CheckResult("opinion_oracle_equivalence", w <= TOLERANCES.oracle_gap, w)
               for w in (max(0.0, w) for w in worst)]
    return results[0] if single else results


def _boundary_draws(radii: np.ndarray, rng, x: np.ndarray):
    """One generator's boundary draws, written into its states x (S, n),
    which must be zero: returns each draw's j and r."""
    samples, n = x.shape
    j = rng.choice(np.flatnonzero(radii > 0), samples)
    r = rng.uniform(0.0, radii[j])
    x_j = 1.0 - r * rng.uniform(1.0, 1.0 / np.maximum(r, 2.0 / 3.0))
    others = np.arange(n) != j[:, None]
    x[others] = rng.dirichlet(np.ones(n - 1), samples).ravel()
    x *= (1.0 - x_j)[:, None]
    x[~others] = x_j
    return j, r


def check_boundary_step(gamma: np.ndarray, rng, samples: int = 1000):
    """x_j <= 1 - r with r <= r_j must imply F_j(x) < 1 - r.

    Stacked draws, in a fixed order per generator: j with r_j > 0 (a star
    centre's band is empty), r in [0, r_j), x_j = 1 - r * factor in
    (0, 1 - r] with the factor in [1, min(1.5, 1/r)), the rest from a flat
    Dirichlet.  A state outside `analysis._interior` is skipped: the
    centre of the simplex is mapped in its place, and its margin is
    replaced by that of its matrix's first kept state, which leaves the
    matrix's largest margin exact.  A matrix whose check keeps none FAILs.
    The states are mapped, and their margins taken, chunk by chunk.
    """
    gammas, rngs, single = _stacks(gamma, rng)
    n = gammas.shape[-1]
    x = np.zeros((len(rngs), samples, n))
    j, r = map(np.array, zip(*map(_boundary_draws, contraction_radii(gammas[:, 0]), rngs, x)))
    keep = _interior(x.reshape(-1, n)).reshape(x.shape[:2])
    x[~keep] = 1.0 / n

    def margins(s):
        mapped = df_map(x[:, s], gammas)
        return np.take_along_axis(mapped, j[:, s, None], axis=-1)[..., 0] - (1.0 - r[:, s])

    margin = _per_sample(margins, keep.shape, n)
    first_kept = np.take_along_axis(margin, keep.argmax(axis=-1)[:, None], axis=-1)
    worst = np.where(keep, margin, first_kept).max(axis=-1).tolist()
    results = [CheckResult("boundary_contraction_step", w < 0, w) if kept
               else CheckResult("boundary_contraction_step", False, np.nan, "no boundary state checked")
               for w, kept in zip(worst, keep.any(axis=-1).tolist())]
    return results[0] if single else results


def run_suite(matrices, samples: int, seed: int) -> list[list[CheckResult]]:
    """The four checks on every matrix of a program, each check run once
    over the (K, S, n) stack of all K matrices' samples.

    Matrix k draws from `default_rng(seed + k)`, in the order Jacobian,
    certificate, oracle, boundary; each of its rows is mapped exactly as
    on its own, and its results are exact max/min reductions over its
    rows, so they equal those of a suite run on that matrix alone.
    Returns the four results of each matrix, in program order.
    """
    matrices = tuple(matrices)
    if samples < 1:
        raise ValidationError(f"need at least one sample, got samples = {samples}")
    # each check holds K x samples x n floats
    if 8 * len(matrices) * samples * matrices[0].n > 2 ** ADDRESS_BITS:
        raise ValidationError(f"samples = {samples} is too large: the samples need more than "
                              f"2^{ADDRESS_BITS} bytes")
    rngs = [np.random.default_rng(seed + k) for k in range(len(matrices))]
    gammas = np.stack([m.gamma for m in matrices])
    return [list(results) for results in zip(
        check_jacobian_fd(gammas, rngs, min(samples, 200)),
        check_contraction_certificates(gammas, rngs, samples),
        check_oracle_equivalence(matrices, rngs, samples),
        check_boundary_step(gammas, rngs, samples),
    )]
