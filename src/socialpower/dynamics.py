"""The social power update map and multi-issue simulation.

The map sends the power vector x on the simplex to
alpha(x) * (gamma_i / (1 - x_i))_i, where alpha(x) normalizes the
result to sum 1.  One kernel, `_issues`, does its arithmetic: it walks a
sequence of states and writes each as the map of the one before.  The map
divides by zero at a vertex e_i, a fixed point: `simulate` maps a whole
run in one `_issues` call over its state stack (a single start as 1-D
rows), then resets each row equal to e_i and checks every mapped state
against the vertex guard.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NearVertex, ValidationError
from .topology import ADDRESS_BITS, TOLERANCES, TopologyProgram, _format_rows, _write_text

# the largest double x with 1 - x >= vertex_guard: 1 - x is exact for x >= 1/2,
# so the guard is the one comparison x <= VERTEX_MAX per entry, which NaN fails
VERTEX_MAX = float(1.0 - np.ceil(TOLERANCES.vertex_guard * 2.0 ** 53) / 2.0 ** 53)


def guard_error(where: str = "") -> NearVertex:
    """The vertex guard's error, its message led by `where`."""
    return NearVertex(f"{where}state within {TOLERANCES.vertex_guard:.0e} of a vertex; "
                      "start the run at the vertex e_i")


def df_map(x, gamma: np.ndarray) -> np.ndarray:
    """One issue of the social power update, away from the vertices.

    `x` may be a stack of states with shape (..., n), complex for the
    complex step (its real part guarded: every entry <= VERTEX_MAX); each
    row is mapped exactly as on its own, each float entry within (n + 4)u
    relative (u = 2^-53).
    """
    x = np.asarray(x, dtype=complex if np.iscomplexobj(x) else float)
    if not np.all(x.real <= VERTEX_MAX):  # a NaN entry fails too
        raise guard_error()
    out = np.empty_like(x)
    _issues([x, out], [gamma])
    return out


def _issues(states, gammas) -> None:
    """The map's arithmetic, unguarded: states[s + 1] is written in place
    as the map of states[s] under gammas[s]."""
    subtract, divide, reduce = np.subtract, np.divide, np.add.reduce
    for now, nxt, gamma in zip(states, states[1:], gammas):  # `out` by position: no keyword parsing
        subtract(1.0, now, nxt)
        divide(gamma, nxt, nxt)
        divide(nxt, reduce(nxt, -1, keepdims=True), nxt)


@dataclass(frozen=True)
class Trajectory:
    """Issue-indexed states with the signal used.

    signal_log[s] is the 0-based matrix index sigma(s); states[s+1] equals
    the map of states[s] under that matrix's eigenvector.
    """

    states: np.ndarray          # (S+1, n), or (S+1, B, n) with run b at [:, b]
    signal_log: np.ndarray      # (S,)

    @property
    def issues(self) -> int:
        return self.states.shape[0] - 1

    def post_burn_in(self, burn_in: int) -> np.ndarray:
        """States s = burn_in + 1 ... issues (none when burn_in >= issues):
        the one window every check of a run's limit reads."""
        if burn_in < 0:
            raise ValidationError(f"burn_in must be >= 0, got {burn_in}")
        return self.states[burn_in + 1:]

    @cached_property
    def distinct(self) -> tuple:
        """(rows, ids): each distinct state row once, by its bit pattern
        (-0.0 and 0.0 differ), and the index in `rows` of every state,
        shape states.shape[:-1]; one `np.unique` per trajectory."""
        n = self.states.shape[-1]
        flat = np.ascontiguousarray(self.states).reshape(-1, n)
        keys = flat.view(np.dtype((np.void, flat.itemsize * n))).ravel()
        _, first, ids = np.unique(keys, return_index=True, return_inverse=True)
        return flat[first], ids.reshape(self.states.shape[:-1])

    def to_csv(self, *paths) -> None:
        """Write each run to its own CSV, one row per state; column p is
        the 1-based matrix index that produced the state (0 for the
        initial row).

        One path for a single run, shape (S+1, n); B paths, in run order,
        for a batch, shape (S+1, B, n); any other count raises
        ValidationError before a file is written.  Every value is written
        with 17 significant digits, and each row of `distinct`, which the
        `simulate` command's bound and margin checks also read, is formatted
        once: runs that have forgotten their start, or a held vertex, share it.
        """
        rows, ids = self.distinct
        runs = ids.reshape(len(ids), -1).T  # run b's row ids at runs[b]
        if len(paths) != len(runs):
            raise ValidationError(f"{len(paths)} CSV path(s) for {len(runs)} run(s)")
        distinct = _format_rows(rows, ",")
        produced = [0] + (self.signal_log + 1).tolist()
        header = "s,p," + ",".join(f"x_{i + 1}" for i in range(rows.shape[1]))
        # every file interleaves the same row prefixes with its own rows
        parts = [None] * (2 * len(ids))
        parts[::2] = ["\n%d,%d," % sp for sp in enumerate(produced)]
        for path, run in zip(paths, runs.tolist()):
            parts[1::2] = [distinct[k] for k in run]
            _write_text(path, header + "".join(parts) + "\n")


def simulate(program: TopologyProgram, init, issues: int) -> Trajectory:
    """Run the switching system for `issues` steps from `init`.

    `init` is one initial condition, shape (n,), or a batch, shape
    (B, n), run under the program's one signal realization; the states
    have shape (issues + 1,) + init.shape, and with the signal log they
    must fit in 2^47 bytes, else ValidationError.  A row equal to a vertex
    e_i is held there; the first other row that is not admissible (finite,
    0 <= x_i < 1, some x_j > 0) raises ValidationError, and the first mapped
    state within the vertex guard (an entry above VERTEX_MAX, or NaN) raises
    NearVertex.  Each names a batch row 1-based and carries it 0-based as
    `row`, with `problem` (what is wrong with the row) or `issue` (1-based).
    """
    if issues < 1:
        raise ValidationError("need at least one issue")
    x = np.asarray(init, dtype=float)
    if 8 * (issues + 1) * (x.size + 1) > 2 ** ADDRESS_BITS:  # the states and the signal log
        raise ValidationError(f"issues = {issues} is too large: the run needs more than "
                              f"2^{ADDRESS_BITS} bytes")
    signal_log = program.realize(issues)
    gammas = program.gammas()
    n = program.n
    if x.shape[-1:] != (n,) or x.ndim > 2:
        expected = f"({n},)" if x.ndim < 2 else f"(B, {n})"
        raise ValidationError(f"initial condition has shape {x.shape}, expected {expected}")
    rows = x.reshape(-1, n)
    free = ~(np.any(rows == 1.0, axis=1) & (np.count_nonzero(rows, axis=1) == 1))
    ok = ~free | (np.all((rows >= 0) & (rows < 1), axis=1) & np.any(rows > 0, axis=1))
    if not np.all(ok):
        b = int(np.argmin(ok))
        i = int(np.argmin(np.isfinite(rows[b])))
        problem = (f"entry {i + 1} = {rows[b, i]} is not finite" if not np.isfinite(rows[b, i])
                   else "requires 0 <= x_i < 1 for all i" if np.any((rows[b] < 0) | (rows[b] >= 1))
                   else "needs at least one x_j > 0")
        exc = ValidationError(f"initial condition {problem}" if x.ndim == 1
                              else f"initial condition row {b + 1} {problem}")
        exc.row, exc.problem = b, problem
        raise exc
    out = np.empty((issues + 1,) + x.shape)
    out[0] = x
    # a held row, or a state inside the guard, may divide by zero: the held
    # rows are reset after the run, and the check below names the state
    with np.errstate(divide="ignore", invalid="ignore"):
        _issues(out, map(gammas.__getitem__, signal_log.tolist()))
    states = out.reshape((issues + 1,) + rows.shape)  # a view, (S+1, B, n)
    states[:, ~free] = rows[~free]  # held rows stay at their vertex
    inside = states[:-1] <= VERTEX_MAX  # a NaN entry fails too
    inside[:, ~free] = True  # a held row is not mapped
    if not inside.all():
        # mapping states[s] is issue s + 1; a batch also names the row
        s, b = np.argwhere(~inside.all(axis=-1))[0].tolist()
        where = f"initial condition row {b + 1}, " if x.ndim == 2 else ""
        exc = guard_error(f"{where}issue {s + 1}: ")
        exc.row, exc.issue = b, s + 1
        raise exc
    return Trajectory(out, signal_log)


def limit_gap(traj_a: Trajectory, traj_b: Trajectory) -> np.ndarray:
    """Per-issue 1-norm distance between two runs under one shared signal."""
    if traj_a.states.shape != traj_b.states.shape or not np.array_equal(
        traj_a.signal_log, traj_b.signal_log
    ):
        raise ValidationError("trajectories come from different signal realizations")
    return np.abs(traj_a.states - traj_b.states).sum(axis=-1)
