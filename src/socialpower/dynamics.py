"""The social power update map and multi-issue simulation.

The map sends the power vector x on the simplex to
alpha(x) * (gamma_i / (1 - x_i))_i, where alpha(x) normalizes the
result to sum 1, with simplex vertices as tagged fixed points.  Under a
switching program the applied eigenvector changes per issue.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalOverflow, ProgramMismatch, ValidationError
from .topology import TOLERANCES, TopologyProgram


@dataclass(frozen=True)
class Vertex:
    """Tagged autocratic configuration e_i (0-based index)."""

    index: int

    def as_array(self, n: int) -> np.ndarray:
        e = np.zeros(n)
        e[self.index] = 1.0
        return e


def df_map(x, gamma: np.ndarray):
    """One issue of the social power update; vertices are fixed points.

    `x` may be a stack of states with shape (..., n); each row is mapped
    exactly as it would be on its own.
    """
    if isinstance(x, Vertex):
        return x
    x = np.asarray(x, dtype=float)
    if np.any(1.0 - x < TOLERANCES.vertex_guard):
        raise NumericalOverflow(
            f"state within {TOLERANCES.vertex_guard:.0e} of a vertex; tag vertices explicitly"
        )
    scaled = gamma / (1.0 - x)
    return scaled / scaled.sum(axis=-1, keepdims=True)


@dataclass(frozen=True)
class Trajectory:
    """Issue-indexed states with the signal used.

    signal_log[s] is the 0-based matrix index sigma(s); states[s+1] equals
    the map of states[s] under that matrix's eigenvector.
    """

    states: np.ndarray          # (S+1, n)
    signal_log: np.ndarray      # (S,)

    @property
    def issues(self) -> int:
        return self.states.shape[0] - 1

    @property
    def n(self) -> int:
        return self.states.shape[1]

    def to_csv(self, path) -> None:
        """One row per state; column p is the 1-based matrix index that
        produced the state (0 for the initial row)."""
        cols = ",".join(f"x_{i + 1}" for i in range(self.n))
        produced = [0] + (self.signal_log + 1).tolist()
        lines = [f"s,p,{cols}"]
        for s, (p, row) in enumerate(zip(produced, self.states.tolist())):
            lines.append(f"{s},{p}," + ",".join([f"{v:.17g}" for v in row]))
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


def _check_init(x0: np.ndarray):
    finite = np.isfinite(x0)
    if not np.all(finite):
        i = int(np.argmin(finite))
        raise ValidationError(f"initial condition entry {i + 1} = {x0[i]} is not finite")
    if np.any(x0 < 0) or np.any(x0 >= 1):
        raise ValidationError("initial condition requires 0 <= x_i < 1 for all i")
    if not np.any(x0 > 0):
        raise ValidationError("initial condition needs at least one x_j > 0")


def simulate(program: TopologyProgram, init, issues: int, signal_log=None) -> Trajectory:
    """Run the switching system for `issues` steps from `init`.

    `init` is either an admissible vector (0 <= x_i < 1, some x_j > 0)
    or a tagged Vertex, which yields a constant trajectory.  Passing a
    pre-realized `signal_log` lets several initial conditions share one
    signal realization.
    """
    if issues < 1:
        raise ValidationError("need at least one issue")
    if signal_log is None:
        signal_log = program.realize(issues)
    else:
        signal_log = np.asarray(signal_log, dtype=int)
        if signal_log.shape != (issues,):
            raise ValidationError("signal log length must equal the issue count")
    gammas = program.gammas()
    n = program.n
    states = np.empty((issues + 1, n))

    if isinstance(init, Vertex):
        states[:] = init.as_array(n)
        return Trajectory(states, signal_log)

    x = np.asarray(init, dtype=float)
    if x.shape != (n,):
        raise ValidationError(f"initial condition has shape {x.shape}, expected ({n},)")
    _check_init(x)
    states[0] = x
    for s in range(issues):
        try:
            x = df_map(x, gammas[signal_log[s]])
        except NumericalOverflow as exc:
            raise NumericalOverflow(f"issue {s}: {exc}") from exc
        states[s + 1] = x
    return Trajectory(states, signal_log)


def limit_gap(traj_a: Trajectory, traj_b: Trajectory) -> np.ndarray:
    """Per-issue 1-norm distance between two runs under one shared signal."""
    if traj_a.states.shape != traj_b.states.shape or not np.array_equal(
        traj_a.signal_log, traj_b.signal_log
    ):
        raise ProgramMismatch("trajectories come from different signal realizations")
    return np.abs(traj_a.states - traj_b.states).sum(axis=1)
