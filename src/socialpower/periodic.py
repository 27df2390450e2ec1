"""Periodic switching: per-phase fixed points and limit verification.

Which issue applies which phase is defined by `topology.Periodic` alone
(`Periodic.phases`).  With phases p = 0..P-1 of its `order`, the
composite G_p applies phase p+1 first and phase p last, so its fixed
point y_p is the limiting state observed right after phase p acts, and
the chain relation y_{p+1} = F_{p+1}(y_p) holds cyclically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import Trajectory, df_map
from .errors import NoConvergence, StarTopology, ValidationError
from .topology import TOLERANCES, Periodic, TopologyProgram


@dataclass(frozen=True)
class PeriodicLimit:
    """Fixed point y_p and chain residual of each phase p of `program`."""

    program: TopologyProgram
    fixed_points: tuple
    chain_residuals: np.ndarray


def periodic_fixed_points(program: TopologyProgram) -> PeriodicLimit:
    """Fixed point of each composite map, with the chain property verified.

    The program needs a `Periodic` signal with at least two phases,
    else ValidationError, and no star phase, else StarTopology.  y_0
    solves G_0(x) = x by Newton's method from the uniform vector,
    stopping once ||G_0(x) - x||_1 stops falling or a step leaves the
    open simplex.  The other y_p = F_p(y_{p-1}) are the states G_0
    passes through, so only the closing chain residual
    ||F_0(y_{P-1}) - y_0||_1 is not 0 by construction; one beyond
    `Tolerances.chain` raises NoConvergence.
    """
    signal = program.signal
    if not isinstance(signal, Periodic):
        raise ValidationError("program signal is not periodic")
    period = len(signal.order)
    if period < 2:
        raise ValidationError("need at least two phases")
    gammas = [program.matrices[i].gamma for i in signal.order]
    if any(np.any(g >= 0.5 - TOLERANCES.star_gamma) for g in gammas):
        raise StarTopology("periodic programs exclude star phases")
    n = program.n
    cycle = gammas[1:] + gammas[:1]  # G_0: phase 1 first, phase 0 last
    x, best = np.full(n, 1.0 / n), np.inf
    while True:
        states, jac = [x], np.eye(n)
        for gamma in cycle:
            states.append(df_map(states[-1], gamma))
            # J_k = (I - y_k 1^T) diag(y_k / (1 - y_{k-1})), applied in O(n^2)
            jac = (states[-1] / (1.0 - states[-2]))[:, None] * jac
            jac -= np.outer(states[-1], jac.sum(axis=0))
        residual = np.abs(states[-1] - x).sum()
        if not residual < best:
            break
        best, points = residual, states[:-1]
        if residual == 0:
            break
        x = x + np.linalg.solve(jac - np.eye(n), x - states[-1])
        if not np.all((x > 0) & (x < 1)):  # a NaN step fails this too
            break
    residuals = np.empty(period)
    for p in range(period):
        succ = (p + 1) % period
        residuals[p] = np.abs(df_map(points[p], gammas[succ]) - points[succ]).sum()
    if np.any(residuals > TOLERANCES.chain):
        raise NoConvergence(f"chain residuals {residuals} exceed {TOLERANCES.chain}")
    return PeriodicLimit(program, tuple(points), residuals)


def verify_periodic_limit(traj: Trajectory, limit: PeriodicLimit, burn_in: int) -> tuple[bool, float]:
    """Check that a simulated run settles onto the per-phase fixed points.

    The run's signal log must be the one the limit's program realizes.
    Each state s >= max(burn_in, 1) is compared with the fixed point of
    the phase that produced it, and the run is verified when the worst
    1-norm deviation is at most `Tolerances.periodic_limit`.
    """
    program = limit.program
    if not np.array_equal(traj.signal_log, program.realize(traj.issues)):
        raise ValidationError("signal log is not the one the limit's periodic program realizes")
    first = max(burn_in, 1)
    if first > traj.issues:
        raise ValidationError(
            f"no state after the burn-in to compare: {traj.issues} issues, burn-in {burn_in}"
        )
    # state s is produced by issue s - 1
    phases = program.signal.phases(traj.issues)[first - 1:]
    targets = np.asarray(limit.fixed_points)[phases]
    worst = float(np.abs(traj.states[first:] - targets).sum(axis=1).max())
    return worst <= TOLERANCES.periodic_limit, worst
