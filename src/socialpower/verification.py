"""Invariant suite run by the `verify` CLI command.

Each check returns its worst observed margin so a failure names the
property and how badly it was missed, not just a boolean.  A check takes
one matrix's gamma (n,) and returns one result, or the gammas of K
matrices (K, n) and returns K.  A sampled check draws each matrix's
samples from its own generator, then evaluates all of them as one
(K, S, n) stack, with the gammas as (K, 1, n), so that its fixed numpy
costs are paid once per program (Phi and H: once per sample).  The
boundary check maps fixed face states and draws nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import contraction_margin, contraction_radii, jacobian, transform_chain
from .degroot import appraisal_step_via_zeta
from .dynamics import df_map
from .errors import ValidationError
from .topology import ADDRESS_BITS, TOLERANCES, RelativeInteractionMatrix

# Sampled checks evaluate the samples of all K matrices as one (K, S, n)
# stack, in chunks along S whose per-sample work across K (n * n floats
# for a Jacobian, an influence matrix or a certificate state's Phi and H,
# 2 n * n for the complex step's stack) stays below this many
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
BOUNDARY_FLOOR = 2.0 ** -40  # F, the boundary states' floor of r = 1 - x_j


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
    # row j: x + i h e_j; the stack is freed once mapped, before the quotient is taken
    mapped = df_map(x[..., None, :] + 1j * COMPLEX_STEP * np.eye(x.shape[-1]),
                    np.asarray(gamma)[..., None, :])
    return np.swapaxes(mapped.imag / COMPLEX_STEP, -1, -2)


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
        cs = finite_difference_jacobian(x, gammas)  # first: its peak holds no Jacobian beside it
        nxt = df_map(x, gammas)
        gap = np.abs(jacobian(x, nxt) - cs)
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
    one `transform_chain` call per sample over all K matrices: Phi's
    entries are at most 1/4, so its column sums are absolute (its
    symmetry and off-diagonal sign hold by construction), while H's row
    sums and trace - 1 are measured relative to the state's largest theta,
    1/(1 - max x), the scale of H's rounding.  The link
    |||H||_1 - (1 - margin)|, with the norm summed from H's entries, joins
    the structural deviation.
    """
    gammas, rngs, single = _stacks(gamma, rng)
    n = gammas.shape[-1]
    xs = _samples(n, rngs, samples)

    def worst(s):
        # per mapped state: its margin and its largest structural deviation
        mapped = df_map(xs[:, s], gammas)
        phi = np.empty(mapped.shape + (n,))
        h = np.empty_like(phi)
        for i in range(mapped.shape[1]):
            phi[:, i], h[:, i] = transform_chain(mapped[:, i])
        margins = contraction_margin(mapped)
        scale = 1.0 - mapped.max(axis=-1)  # 1/max theta
        deviations = [
            np.abs(phi.sum(axis=-2)).max(axis=-1),
            np.abs(h.sum(axis=-1)).max(axis=-1) * scale,
            np.abs(np.trace(h, axis1=-2, axis2=-1) - 1.0) * scale,
            np.abs(np.abs(h).sum(axis=-2).max(axis=-1) - (1.0 - margins)),
        ]
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
    results = [CheckResult("opinion_oracle_equivalence", w <= TOLERANCES.oracle_gap, w) for w in worst]
    return results[0] if single else results


def _face_states(gammas: np.ndarray):
    """The boundary check's states of gammas (K, n): j (K,), x (K, 39, n) and
    the kept (K, 39), a leading run.  x_j = 1 - r exactly and x_m = r, m the
    other individual with the least gamma (where, to first order, F_j comes
    closest to 1 - r), for r = r_j/2, r_j/4, ... while r >= BOUNDARY_FLOOR and
    the lemma's gap G(r) = r(1 - g_j)(r_j - r)/(g_j + r(1 - g_j)) >= 4(n + 4)u,
    four times `df_map`'s error; j has the largest gamma with a state kept.
    """
    n = gammas.shape[-1]
    g, radii = gammas[..., None], contraction_radii(gammas)[..., None]
    r = 1.0 - (1.0 - radii * 0.5 ** np.arange(1, 40))  # r_j 2^-40 < F
    gap = r * (1.0 - g) * (radii - r) / (g + r * (1.0 - g))
    kept = np.logical_and.accumulate((r >= BOUNDARY_FLOOR) & (gap >= 4 * (n + 4) * 2.0 ** -53), axis=-1)
    j = np.where(kept[..., 0], gammas, 0.0).argmax(axis=-1)  # the least gamma keeps one
    m = np.where(np.arange(n) == j[:, None], np.inf, gammas).argmin(axis=-1)
    rows = np.arange(len(j))
    r, kept = r[rows, j], kept[rows, j]
    x = np.zeros(r.shape + (n,))
    x[rows, :, j], x[rows, :, m] = 1.0 - r, r
    return j, x, kept


def check_boundary_step(gamma: np.ndarray):
    """The largest F_j(x) - (1 - r) on `_face_states`, which `contraction_radii`
    proves < 0: a test of `df_map` near the faces, NaN (a FAIL) if none is kept."""
    single = np.ndim(gamma) == 1
    gammas = np.atleast_2d(np.asarray(gamma, dtype=float))
    j, x, kept = _face_states(gammas)
    mapped = np.full(x.shape, np.nan)
    mapped[kept] = df_map(x[kept], np.broadcast_to(gammas[:, None], x.shape)[kept])
    margins = np.take_along_axis(mapped - x, j[:, None, None], axis=-1)[..., 0]
    # the slots past a row's kept states repeat its first
    worst = np.where(kept, margins, margins[:, :1]).max(axis=-1).tolist()
    results = [CheckResult("boundary_contraction_step", w < 0, w) for w in worst]
    return results[0] if single else results


def run_suite(matrices, samples: int, seed: int) -> list[list[CheckResult]]:
    """The four checks on every matrix of a program, each check run once
    over the stack of all K matrices' states.

    Matrix k draws from `default_rng(seed + k)`, in the order Jacobian,
    certificate, oracle (the boundary check draws nothing); each row is
    mapped exactly as on its own, and each matrix's results are exact
    max/min reductions over its rows, so they equal those of a suite run
    on that matrix alone.  Returns the four results of each matrix, in
    program order.
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
        check_boundary_step(gammas),
    )]
