"""Periodic switching: composite return maps, per-phase fixed points,
limit verification, and the shared-eigenvector stationarity check.

Phase convention: with phases 1..P (0-based internally), the first issue
applies phase P and the cycle then runs 1, 2, ..., P, 1, ...  The
composite G_p applies phase p+1 first and phase p last, so its fixed
point y_p is the limiting state observed right after phase p acts, and
the chain relation y_{p+1} = F_{p+1}(y_p) holds cyclically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import Trajectory, df_map
from .errors import ChainInconsistency, NoConvergence, PhaseMismatch, StarTopology
from .topology import TOLERANCES, Periodic, TopologyProgram

MAX_COMPOSITE_ITERS = 100_000


@dataclass(frozen=True)
class PeriodicProgram:
    """Ordered per-phase eigenvectors of a periodic switching program."""

    phase_gammas: tuple

    def __post_init__(self):
        if len(self.phase_gammas) < 2:
            raise PhaseMismatch("need at least two phases")
        for g in self.phase_gammas:
            if np.any(np.asarray(g) >= 0.5 - TOLERANCES.star_gamma):
                raise StarTopology("periodic programs exclude star phases")

    @property
    def period(self) -> int:
        return len(self.phase_gammas)

    @classmethod
    def from_program(cls, program: TopologyProgram) -> "PeriodicProgram":
        if not isinstance(program.signal, Periodic):
            raise PhaseMismatch("program signal is not periodic")
        gammas = program.gammas()
        return cls(tuple(gammas[i] for i in program.signal.order))


@dataclass(frozen=True)
class PeriodicLimit:
    fixed_points: tuple
    chain_residuals: np.ndarray


def compose(phase_gammas, p: int):
    """Return map of phase p (0-based): applies phases p+1, ..., p cyclically.

    For two phases this gives G_1 = F_1 o F_2 and G_2 = F_2 o F_1.
    """
    gammas = [np.asarray(g, dtype=float) for g in phase_gammas]
    period = len(gammas)
    order = [(p + 1 + k) % period for k in range(period)]

    def evaluator(x):
        for idx in order:
            x = df_map(x, gammas[idx])
        return x

    return evaluator


def periodic_fixed_points(program: PeriodicProgram) -> PeriodicLimit:
    """Fixed point of each composite map, with the chain property verified.

    Each G_p is iterated from the uniform vector until a step moves x by
    less than `Tolerances.composite_step` (convergence is exponential by
    the switching contraction result applied to the subsampled
    sequence).  The chain check y_{p+1} = F_{p+1}(y_p) failing beyond
    `Tolerances.chain` signals a bug, not a property of the model.
    """
    period = program.period
    n = program.phase_gammas[0].size
    points = []
    for p in range(period):
        g_p = compose(program.phase_gammas, p)
        x = np.full(n, 1.0 / n)
        for _ in range(MAX_COMPOSITE_ITERS):
            x_new = g_p(x)
            if np.abs(x_new - x).sum() < TOLERANCES.composite_step:
                break
            x = x_new
        else:
            raise NoConvergence(f"composite map {p + 1} did not converge", MAX_COMPOSITE_ITERS)
        points.append(x_new)
    residuals = np.empty(period)
    for p in range(period):
        succ = (p + 1) % period
        residuals[p] = np.abs(
            df_map(points[p], program.phase_gammas[succ]) - points[succ]
        ).sum()
    if np.any(residuals > TOLERANCES.chain):
        raise ChainInconsistency(f"chain residuals {residuals} exceed {TOLERANCES.chain}")
    return PeriodicLimit(tuple(points), residuals)


def verify_periodic_limit(
    traj: Trajectory,
    limit: PeriodicLimit,
    burn_in: int,
    tol: float = TOLERANCES.periodic_limit,
) -> tuple[bool, float]:
    """Check that a simulated run settles onto the per-phase fixed points.

    The signal log must follow the periodic convention (last phase at
    s = 0, then the cycle); state s >= max(burn_in, 1) is compared to the
    fixed point of the phase that produced it, and the run is verified
    when the worst 1-norm deviation is at most `tol`.
    """
    period = len(limit.fixed_points)
    log = traj.signal_log
    pattern = np.where(np.arange(log.size) == 0, period - 1, (np.arange(log.size) - 1) % period)
    # log must be a relabelling of the cyclic pattern: each cycle position
    # always selects the same matrix index.
    for pos in range(period):
        vals = log[pattern == pos]
        if vals.size and not np.all(vals == vals[0]):
            raise PhaseMismatch("signal log is not periodic with the expected period")
    worst = 0.0
    for s in range(max(burn_in, 1), traj.states.shape[0]):
        phase = (s - 2) % period
        dev = float(np.abs(traj.states[s] - limit.fixed_points[phase]).sum())
        worst = max(worst, dev)
    return worst <= tol, worst


def same_gamma_class(program: TopologyProgram):
    """Shared dominant left eigenvector of a matrix set, if one exists.

    Returns the common eigenvector when every 1-norm difference from the
    first is within `Tolerances.shared_gamma` (the switching limit is then the stationary fixed
    point of that eigenvector), otherwise None.
    """
    gammas = program.gammas()
    base = gammas[0]
    for g in gammas[1:]:
        if np.abs(g - base).sum() > TOLERANCES.shared_gamma:
            return None
    return base
