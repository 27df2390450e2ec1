"""Contraction machinery: Jacobians, certificates, radii, bounds, rates,
vertex stability and the interior equilibrium.

H = Theta * Phi has induced 1-norm below 1 on interior states, which
forces trajectory differences to shrink exponentially (a contraction
metric: Lohmiller & Slotine, Automatica 1998).  `contraction_margin` is
1 - ||H||_1 in closed form, accurate to a few ulp relative even near a
vertex, and decides the certificate ||H||_1 < 1.  `transform_chain`
builds Phi and H at a state for the O(n^2) entry identities that place
H's spectrum in [0, 1) with no eigensolve: Phi is a graph Laplacian
(PSD by Gershgorin), H is similar to Theta^(1/2) Phi Theta^(1/2) (real
spectrum >= 0), and rho(H) <= ||H||_1 < 1 with trace(H) = 1.
`fixed_point` solves x_i (1 - x_i) = c gamma_i.
"""

from __future__ import annotations

import numpy as np

from .dynamics import df_map
from .errors import NearVertex, NoConvergence, StarTopology, ValidationError
from .topology import TOLERANCES, at_star


def _interior(x: np.ndarray) -> np.ndarray:
    """Rows of `x` (..., n) in the certificate's domain: x_i > 0 and 1 - x_i >= near_vertex.

    Two reductions decide it without a temporary the size of `x`: fl(1 - x)
    never grows as x grows, so the largest entry decides the second test;
    a NaN entry makes both extremes NaN and fails.
    """
    return (x.min(axis=-1) > 0) & (1.0 - x.max(axis=-1) >= TOLERANCES.near_vertex)


def _require_interior(x: np.ndarray):
    if not (inside := _interior(x)).all():
        exc = NearVertex(f"state within {TOLERANCES.near_vertex:.0e} of a vertex or with some "
                         "x_i <= 0, where the contraction certificate is not defined")
        exc.row = int(np.argmin(inside))  # the first failing row, 0-based over a stack's rows
        raise exc


def jacobian(x_now: np.ndarray, x_next: np.ndarray) -> np.ndarray:
    """Closed-form Jacobian of the power map between successive states.

    J_ii = x'_i (1 - x'_i)/(1 - x_i) and J_ij = -x'_i x'_j/(1 - x_j),
    written with x' = x_next.  Columns sum to 0.  Stacks of state pairs
    with shape (..., n) give a stack of Jacobians, shape (..., n, n).
    Each entry is within 4u (u = 2^-53) relative of the formula; at x' =
    `df_map`(x_now), column j is within (2n + 11)u x'_j/(1 - x_j) of F'.
    """
    x_now = np.asarray(x_now, dtype=float)
    x_next = np.asarray(x_next, dtype=float)
    _require_interior(x_now)
    _require_interior(x_next)
    J = -(x_next[..., :, None] * (x_next / (1.0 - x_now))[..., None, :])
    diag = np.arange(x_next.shape[-1])
    J[..., diag, diag] = x_next * (1.0 - x_next) / (1.0 - x_now)
    return J


def transform_chain(x_next: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Phi and H = Theta Phi at a post-update state, with
    Theta = diag(1/(1 - x_i)).

    Phi is the weighted Laplacian of a complete undirected graph
    (phi_ii = x_i(1 - x_i), phi_ij = -x_i x_j); H has h_ii = x_i and
    h_ij = -x_i x_j/(1 - x_i).  Entry identities place the spectrum of
    H in [0, 1) with no eigensolve:
    - Phi is symmetric with zero row and column sums and a nonpositive
      off-diagonal: a graph Laplacian, PSD by Gershgorin;
    - H = Theta Phi with Theta positive diagonal is similar to the PSD
      Theta^(1/2) Phi Theta^(1/2), so its spectrum is real and >= 0;
    - rho(H) <= ||H||_1 < 1, and trace(H) = 1.
    The norm is not taken here: summed from H's entries, 1 - ||H||_1
    loses every digit below about 1e-6 from a vertex, so the
    certificate ||H||_1 < 1 is decided by `contraction_margin` > 0.
    H's entries carry rounding of order u max(Theta), u = 2^-53: an
    identity on H is exact only relative to that scale.
    """
    x = np.asarray(x_next, dtype=float)
    _require_interior(x)
    phi = -(x[:, None] * x)
    phi.flat[::x.size + 1] = x * (1.0 - x)
    return phi, (1.0 / (1.0 - x))[:, None] * phi


def contraction_margin(states: np.ndarray) -> np.ndarray:
    """Margin 1 - ||H||_1 at each post-update state (row) of `states`,
    in closed form: O(n) per state, without building H.

    With r_i = x_i/(1 - x_i), column j of H leaves the margin
    sum_{i != j} r_i ((1 - x_j) - x_i), a sum of nonnegative terms; this
    uses sum_{i != j} x_i = 1 - x_j, so every row must lie on the simplex
    (a row whose sum is off 1 by more than Tolerances.structure raises
    ValidationError).  The largest entry k is kept out of the shared sums
    S = sum_{i != k} r_i and Q = sum_{i != k} r_i x_i, which removes the
    cancellation near a vertex, where r_k is huge: column j != k gives
    r_k ((1 - x_k) - x_j) + (1 - x_j)(S - r_j) - (Q - r_j x_j), and
    column k sums its own terms.  Column j's margin is within (n + 6)u M_j
    (u = 2^-53), M_j its formula with each difference but 1 - x_i a sum:
    relative for column k, not where x_j holds almost all of 1 - x_k.
    """
    x = np.asarray(states, dtype=float)
    _require_interior(x)
    if np.any(np.abs(x.sum(axis=-1) - 1.0) > TOLERANCES.structure):
        raise ValidationError("contraction_margin needs rows on the simplex (sum 1)")
    k = np.argmax(x, axis=-1)[..., None]
    x_k = np.take_along_axis(x, k, axis=-1)
    r = x / (1.0 - x)
    r_k = np.take_along_axis(r, k, axis=-1)
    np.put_along_axis(r, k, 0.0, axis=-1)  # from here r_k is out of r
    s = r.sum(axis=-1, keepdims=True)
    q = (r * x).sum(axis=-1, keepdims=True)
    margins = r_k * ((1.0 - x_k) - x) + (1.0 - x) * (s - r) - (q - r * x)
    own = (r * ((1.0 - x_k) - x)).sum(axis=-1, keepdims=True)
    np.put_along_axis(margins, k, own, axis=-1)
    return margins.min(axis=-1)


def contraction_radii(gamma: np.ndarray) -> np.ndarray:
    """Boundary radii r_j = (1 - 2 gamma_j)/(1 - gamma_j), 0 at a star centre (`at_star`)."""
    gamma = np.asarray(gamma, dtype=float)
    return np.where(at_star(gamma), 0.0, (1.0 - 2.0 * gamma) / (1.0 - gamma))


def equilibrium_upper_bound(gamma: np.ndarray) -> np.ndarray:
    """Limiting power bounds gamma_i/(1 - gamma_i).

    Strict for a constant topology, non-strict (per issue) when `gamma`
    is the entrywise max profile of a switching set.
    """
    gamma = np.asarray(gamma, dtype=float)
    if at_star(gamma).any():
        raise StarTopology("bound undefined at a star centre (gamma_i = 0.5)")
    return gamma / (1.0 - gamma)


def convergence_rate(gammas) -> float | None:
    """Rate 2 * max gamma/(1 - gamma) when every entry is below 1/3.

    Returns None when any entry reaches 1/3: the Lipschitz rate argument
    only covers that matrix class.
    """
    stacked = np.vstack([np.asarray(g, dtype=float) for g in gammas])
    if np.any(stacked >= 1.0 / 3.0):
        return None
    beta = float(np.max(stacked / (1.0 - stacked)))
    return 2.0 * beta


def vertex_stability(gamma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stability of every autocratic fixed point e_i, in one pass.

    The linearization at e_i has a single nonzero eigenvalue
    (1 - gamma_i)/gamma_i: above 1 (unstable) when gamma_i < 0.5, exactly
    1 at a star centre, where e_i is attracting but not exponentially.
    Returns the eigenvalues, as 1/gamma - 1 to round exactly at round
    weights, and the `at_star` mask of those centres.
    """
    gamma = np.asarray(gamma, dtype=float)
    return 1.0 / gamma - 1.0, at_star(gamma)


def fixed_point(gamma: np.ndarray) -> np.ndarray:
    """Unique interior equilibrium for a non-star eigenvector.

    `gamma` must be one vector of finite entries > 0 that sums to 1
    within `Tolerances.structure`, else ValidationError names the
    problem; a star centre (`at_star`) raises StarTopology.  The
    equilibrium satisfies x_i (1 - x_i) = c gamma_i (Jia,
    Mirtabatabaei, Friedkin & Bullo, SIAM Review 2015).  With
    k = argmax gamma, u = x_k and rho = gamma/gamma_k, every other entry
    is x_i = (1 - sqrt(D_i))/2 with D_i = 1 - 4u(1 - u)rho_i >= (1 - 2u)^2,
    so sum(x) - 1 is a function of u alone: negative below its root in
    (0, 1) and positive above.  Newton on u runs inside a shrinking
    bracket, bisecting whenever a step leaves it, until the next iterate
    repeats u or a bracket end.  x is accepted only if its residual
    ||F(x) - x||_1 is at most `Tolerances.fixed_point`.

    The iteration runs on Python floats under one error-state context,
    entered once rather than once a step.  Only the division by the
    slope stays numpy's: a tie rho_i = 1 at u = 1/2 makes the slope 0/0
    and a zero slope makes the step infinite, and either non-finite step
    bisects, where a float division would raise ZeroDivisionError.  The
    same context makes a gamma whose sum overflows a rejection, not a
    warning.
    """
    gamma = np.asarray(gamma, dtype=float)
    if gamma.ndim != 1 or not gamma.size:
        raise ValidationError(f"fixed_point needs gamma as one nonempty vector, got shape "
                              f"{gamma.shape}")
    reduce = np.add.reduce
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if not (gamma.min() > 0 and abs(reduce(gamma) - 1.0) <= TOLERANCES.structure):
            finite = np.isfinite(gamma)
            i = int(np.argmin(finite & (gamma > 0)))
            problem = (f"entry {i + 1} = {gamma[i]} is not finite" if not finite[i]
                       else f"entry {i + 1} = {gamma[i]} is not > 0" if not gamma[i] > 0
                       else f"sums to {float(reduce(gamma))!r}, not 1 within "
                            f"{TOLERANCES.structure:.0e}")
            raise ValidationError(f"fixed_point gamma {problem}")
        if at_star(gamma).any():
            raise StarTopology("no interior fixed point for a star topology")
        k = int(gamma.argmax())
        g = float(gamma[k])
        rho = np.concatenate((gamma[:k], gamma[k + 1:])) / g
        one_minus_rho = 1.0 - rho
        lo, hi = 0.0, 1.0
        u = g / (1.0 - g)
        while True:
            # D_i as a sum of nonnegative terms, and x_i in a form where a
            # small entry does not cancel; d * d is correctly rounded, where
            # a power of d would call the C library's pow
            p, d = u * (1.0 - u), 1.0 - 2.0 * u
            root = np.sqrt(d * d + 4.0 * p * one_minus_rho)
            x = 2.0 * p * rho / (1.0 + root)
            f = u + float(reduce(x)) - 1.0
            lo, hi = (u, hi) if f < 0 else (lo, u)
            # numpy's division: a zero or NaN slope gives a step that bisects
            nxt = u - float(f / (1.0 + reduce(rho * d / root)))
            if nxt != u and not lo < nxt < hi:
                nxt = 0.5 * (lo + hi)
            if nxt in (lo, hi, u):
                break
            u = nxt
    x = np.concatenate((x[:k], (u,), x[k:]))
    residual = float(np.abs(df_map(x, gamma) - x).sum())
    if not residual <= TOLERANCES.fixed_point:
        raise NoConvergence(
            f"fixed point residual {residual:.3e} above {TOLERANCES.fixed_point:.0e}"
        )
    return x
