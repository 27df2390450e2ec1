"""Periodic switching: per-phase fixed points and limit verification.

Which issue applies which phase is defined by `topology.Periodic` alone
(`Periodic.phases`).  With phases p = 0..P-1 of its `order`, the
composite G_p applies phase p+1 first and phase p last, so its fixed
point y_p is the limiting state observed right after phase p acts, and
the chain relation y_{p+1} = F_{p+1}(y_p) holds cyclically.

Along the periodic orbit, y_{p,i} = c_p gamma_{p,i}/(1 - y_{p-1,i}) with
one normaliser c_p per phase.  So once the P values u_p = y_{p,k} of one
individual k are known, every normaliser is known, and each other
individual's cycle is a product of P 2x2 linear-fractional maps whose
fixed point is the root of a quadratic.  The orbit is solved for on
those P unknowns (`periodic_fixed_points`) by plain Newton from the
orbit two cycles on, where the maps' contraction puts the start close
to the solution; `_orbits` is the one 2x2 cycle product.  P = 1 is the
relation x_i (1 - x_i) = c gamma_i of Jia, Mirtabatabaei, Friedkin &
Bullo (SIAM Review 2015).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import Trajectory, df_map, simulate
from .errors import NoConvergence, StarTopology, ValidationError
from .topology import TOLERANCES, Periodic, TopologyProgram, at_star


@dataclass(frozen=True)
class PeriodicLimit:
    """Fixed point y_p and chain residual of each phase p of `program`."""

    program: TopologyProgram
    fixed_points: tuple
    chain_residuals: np.ndarray


# relative step of the forward differences that give Newton's system: the
# square root of the double epsilon, where their error is least
_STEP = 2.0 ** -26


def periodic_fixed_points(program: TopologyProgram) -> PeriodicLimit:
    """Fixed point of each composite map, with the chain property verified.

    The program needs a `Periodic` signal with at least two phases,
    else ValidationError, and no star phase, else StarTopology.

    The orbit is solved for on the P values u_p = y_{p,k} of the
    individual k with the largest sum of gamma_{p,k} over the phases.
    Given u, the normalisers are c_p = u_p (1 - u_{p-1})/gamma_{p,k}, and
    every other individual sits on the attracting fixed point of its
    cycle map (`_orbits`).  At most one individual can sit on a
    repelling one: prod_p r_{p,i} > 1, with r = y/(1 - y), forces
    prod_p r_{p,j} < 1 for every j != i.  Newton's method drives the P
    residuals sum_i y_{p,i} - 1 towards 0 on a Jacobian of forward
    differences (`_newton_step`).  Each cycle of the maps brings any
    state closer to the periodic orbit, so Newton starts from the orbit
    two cycles on: u_p is y_{p,k} of the run from the uniform vector over
    2P + 1 issues, whose last P issues apply phases 0 .. P-1
    (`Periodic.phases`).  There it needs no line search.  It keeps the
    best iterate, and stops when (1) the residual does not fall, NaN
    included, (2) a step no longer than the difference step was taken,
    which leaves an error at the rounding level, or (3) a step leaves
    (0, 1)^P, as a singular system's non-finite step does.

    y_0 is the solution, and the other y_p = F_p(y_{p-1}) are the states
    G_0 passes through, so only the closing chain residual
    ||F_0(y_{P-1}) - y_0||_1 is not 0 by construction; one that is not
    within `Tolerances.fixed_point`, NaN included, raises NoConvergence.
    """
    signal = program.signal
    if not isinstance(signal, Periodic):
        raise ValidationError("program signal is not periodic")
    period = len(signal.order)
    if period < 2:
        raise ValidationError("need at least two phases")
    gammas = np.array([program.matrices[i].gamma for i in signal.order])
    if at_star(gammas).any():
        raise StarTopology("periodic programs exclude star phases")
    k = int(gammas.sum(axis=0).argmax())
    others = np.arange(program.n) != k
    ratios = gammas[:, others] / gammas[:, k:k + 1]
    prev = np.arange(period) - 1  # phase p - 1, cyclically
    # column 0 keeps u, column q + 1 lowers u_q by the relative step
    stencil = 1.0 - _STEP * np.eye(period, period + 1, 1)
    # the orbit two cycles on: issues P + 2 .. 2P + 1 apply phases 0 .. P - 1
    v = simulate(program, np.full(program.n, 1.0 / program.n), 2 * period + 1).states[-period:, k]
    best, last = np.inf, False
    with np.errstate(all="ignore"):
        while True:
            orbits, residuals = _orbits(v[:, None] * stencil, ratios, prev)
            residual = np.add.reduce(np.abs(residuals[:, 0]))
            if not residual < best:  # a NaN residual does not fall
                break
            u, y, best = v, orbits[:, 0], residual
            if last:
                break
            z = _newton_step(residuals)
            last = np.abs(z).max() <= 1.0  # in difference steps
            v = u - _STEP * (z * u)
            if not (0.0 < v.min() and v.max() < 1.0):  # NaN for a singular system
                break
    if best == np.inf:
        raise NoConvergence("periodic solve: no finite residual at the start")
    points = [np.concatenate((y[0, :k], u[:1], y[0, k:]))]
    for gamma in gammas[1:]:
        points.append(df_map(points[-1], gamma))
    closing = np.abs(df_map(points[-1], gammas[0]) - points[0]).sum()
    residuals = np.append(np.zeros(period - 1), closing)  # y_{p+1} is F_{p+1}(y_p) itself
    if not closing <= TOLERANCES.fixed_point:
        raise NoConvergence(f"chain residuals {residuals} exceed {TOLERANCES.fixed_point}")
    return PeriodicLimit(program, tuple(points), residuals)


def _orbits(u, ratios, prev):
    """The others' orbit y, shape (P, m, n - 1), and the residuals
    sum_i y_{p,i} - 1, shape (P, m), for each column of hub values u (P, m).

    Phase p maps y to a_p/(1 - y), a_{p,i} = u_p (1 - u_{p-1}) ratio_{p,i}:
    the matrix M_p = [[0, a_p], [-1, 1]].  The cycle map is
    M = M_0 M_{P-1} ... M_1, as G_0 applies phase 1 first; with
    M = [[A, B], [C, D]] and b = D - A, its attracting fixed point is
    2B/(b + sign(A + D) sqrt(b^2 + 4BC)).  Each partial product is
    rescaled, since a fixed point does not depend on the matrix's scale.
    """
    a = (u * (1.0 - u[prev]))[:, :, None] * ratios[:, None]
    A, B, C, D = 0.0, a[1], -1.0, 1.0
    for a_p in a[2:]:
        A, B, C, D = a_p * C, a_p * D, C - A, D - B
        scale = abs(C) + abs(D)
        A, B, C, D = A / scale, B / scale, C / scale, D / scale
    A, B, C, D = a[0] * C, a[0] * D, C - A, D - B
    b = D - A
    y = np.empty_like(a)
    np.divide(2.0 * B, b + np.copysign(np.sqrt(b * b + 4.0 * B * C), A + D), out=y[0])
    for p in range(1, len(a)):
        np.divide(a[p], 1.0 - y[p - 1], out=y[p])
    return y, np.add.reduce(y, -1) + u - 1.0


def _newton_step(residuals):
    """The Newton step in units of the difference steps: z with
    sum_q (r_{q+1} - r_0) z_q = -r_0, for the residual columns r of `_orbits`.

    Gauss-Jordan elimination with partial pivoting; each of its P steps
    updates every row at once, so a long order stays cheap.
    """
    system = residuals - residuals[:, :1]  # column q + 1: the change along u_q
    system[:, 0] = -residuals[:, 0]
    for j in range(len(system)):
        pivot = j + int(np.abs(system[j:, j + 1]).argmax())
        system[[j, pivot]] = system[[pivot, j]]
        factors = system[:, j + 1] / system[j, j + 1]
        factors[j] = 0.0
        system -= factors[:, None] * system[j]
    return system[:, 0] / system.diagonal(1)


def verify_periodic_limit(traj: Trajectory, limit: PeriodicLimit, burn_in: int) -> tuple[bool, float]:
    """Check that a simulated run settles onto the per-phase fixed points.

    The limit is certified by its closing chain residual; the run's
    signal log must be the one its program realizes.  Each state of
    `Trajectory.post_burn_in`, in every run of a batch, is compared with
    the fixed point of the phase that produced it; the run is verified
    when the worst 1-norm deviation is at most `Tolerances.periodic_limit`.
    """
    program = limit.program
    if not np.array_equal(traj.signal_log, program.realize(traj.issues)):
        raise ValidationError("signal log is not the one the limit's periodic program realizes")
    checked = traj.post_burn_in(burn_in)
    if not len(checked):
        raise ValidationError(
            f"no state after the burn-in to compare: {traj.issues} issues, burn-in {burn_in}"
        )
    # the last len(checked) issues produced the checked states
    phases = program.signal.phases(traj.issues)[-len(checked):]
    targets = np.asarray(limit.fixed_points)[phases]
    worst = float(np.abs(np.moveaxis(checked, 0, -2) - targets).sum(axis=-1).max())
    return worst <= TOLERANCES.periodic_limit, worst
