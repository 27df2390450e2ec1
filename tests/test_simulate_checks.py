"""`simulate`'s bound and margin checks against per-(issue, run) references.

The command reads each distinct state row once (`Trajectory.distinct`).
These tests run generated batches through `main(["simulate", ...])` and
compare the report with the checks evaluated on every (issue, run) state
of the same run: the bound over the post-burn-in window, the margin over
the interior states after the start.  A start that comes near a vertex
must be named by the earliest (issue, run) at which a state fails the
map's guard, which `simulate` applies to every state it returns, the
last included, also when that state recurs in other runs.
"""

import json

import numpy as np
import pytest

from socialpower.analysis import contraction_margin, equilibrium_upper_bound
from socialpower.cli import main
from socialpower.dynamics import VERTEX_MAX, df_map, simulate
from socialpower.topology import (
    TOLERANCES, Constant, RandomUniform, TopologyProgram, max_gamma_profile, save_program, validate,
)
from networks import switching_program_6
from test_dynamics import dense_matrices
from test_solvers import near_star


def reference_checks(program, init, issues, burn_in):
    """(bound_violation_count, bound_checked_states, min_contraction_margin)
    with one evaluation per (issue, run) state."""
    states = simulate(program, init, issues).states
    bounds = equilibrium_upper_bound(max_gamma_profile(program))
    checked = states[burn_in + 1:]
    violations = int(np.any(checked > bounds + TOLERANCES.bound_slack, -1).sum())
    post = states[1:]
    interior = np.all(post > 0, axis=-1)
    margin = float(contraction_margin(post[interior]).min()) if interior.any() else None
    return violations, checked.shape[0] * checked.shape[1], margin


def generated_batch(seed):
    """A seeded program, run length, burn-in and named starts: Dirichlet
    starts, a copy of one of them, a held vertex, a face start with -0.0
    and 0.0 entries and an interior start off the simplex, in a seeded order.  One
    case in three has burn_in >= issues."""
    rng = np.random.default_rng([seed, 40])
    if seed % 2:
        program = TopologyProgram(dense_matrices(8, 3), RandomUniform(seed))
    else:
        program = TopologyProgram(switching_program_6().matrices, RandomUniform(seed))
    n = program.n
    issues = int(rng.integers(40, 160))
    burn_in = [int(rng.integers(0, 3)), int(rng.integers(3, issues)), issues + int(rng.integers(0, 3))][seed % 3]
    dirichlet = rng.dirichlet(np.full(n, 0.7), int(rng.integers(2, 5)))
    face = rng.dirichlet(np.ones(n))
    zeros = rng.choice(n, 2, replace=False)
    face[zeros[0]], face[zeros[1]] = -0.0, 0.0
    off = rng.uniform(0.01, 0.99, n)
    starts = [*dirichlet, dirichlet[0].copy(), np.eye(n)[int(rng.integers(n))], face, off]
    order = rng.permutation(len(starts))
    return program, issues, burn_in, [starts[k] for k in order]


def run_simulate(tmp_path, program, starts, issues, burn_in, names=None):
    """main's exit code and the report (None when none was written)."""
    save_program(program, tmp_path / "program.json")
    names = names or [f"r{b}" for b in range(len(starts))]
    config = {"program": "program.json", "issues": issues, "burn_in": burn_in,
              "initial_conditions": {name: start.tolist() for name, start in zip(names, starts)}}
    if isinstance(program.signal, RandomUniform):
        config["seed"] = program.signal.seed
    (tmp_path / "simulate.json").write_text(json.dumps(config))
    out = tmp_path / "out"
    code = main(["simulate", "--config", str(tmp_path / "simulate.json"), "--out", str(out)])
    report = out / "report.json"
    return code, json.loads(report.read_text()) if report.exists() else None


@pytest.mark.parametrize("seed", range(12))
def test_checks_match_the_per_state_reference(seed, tmp_path):
    program, issues, burn_in, starts = generated_batch(seed)
    init = np.array(starts)
    assert np.signbit(init[init == 0]).any()  # a -0.0 entry beside the 0.0 ones
    code, report = run_simulate(tmp_path, program, starts, issues, burn_in)
    assert report is not None
    violations, checked, margin = reference_checks(program, init, issues, burn_in)
    assert (report["bound_violation_count"], report["bound_checked_states"],
            report["min_contraction_margin"]) == (violations, checked, margin)
    assert code == (0 if violations == 0 else 1)
    # the free runs forget their start: rows repeat, across runs as well as the copied start's
    states = simulate(program, init, issues).states
    last = states[-1][np.count_nonzero(init, axis=1) > 1]
    assert (last == last[0]).all()


def test_generated_batches_cover_each_window():
    # the window starts within the first issues, after a transient, or is empty
    windows = {(burn_in < 3, burn_in >= issues)
               for issues, burn_in in (generated_batch(seed)[1:3] for seed in range(12))}
    assert windows == {(True, False), (False, False), (False, True)}


def edge_starts():
    """Two 6-node starts at the guard's edge, x_1 = VERTEX_MAX, the rest of
    1 - x_1 split evenly and as 1 : 2 : 3 : 4 : 5."""
    rest = 1.0 - VERTEX_MAX
    return [np.insert(split * rest / split.sum(), 0, VERTEX_MAX) for split in (np.ones(5), np.arange(1.0, 6.0))]


def edge_program():
    """The first seeded 6-node near-star with hub 1, held, under which
    df_map carries both `edge_starts` one ulp past VERTEX_MAX.

    The guard holds in exact arithmetic (`contraction_radii`: x_1 <= 1 - r
    gives F_1 < 1 - r for every r <= r_1 = 1e-3 here), so only rounding
    crosses it; about one seed in five does, and searching keeps the case
    on any BLAS kernel's last bits of gamma."""
    for seed in range(100):
        program = TopologyProgram((validate(near_star(6, 0.999, np.random.default_rng(seed))),), Constant(0))
        if all(df_map(x, program.gammas()[0])[0] > VERTEX_MAX for x in edge_starts()):
            return program
    raise AssertionError("no seed carries the edge starts past the guard")


class TestNearVertexNaming:
    # `simulate` guards every state it returns, the last included; with
    # issues = 1, a start at the guard's edge that df_map rounds past it
    # fails the guard at the last state, and the error must name the
    # earliest (issue, run) holding that state, also when the state recurs
    # in other runs
    PROGRAM = TopologyProgram((switching_program_6().matrices[0],), Constant(0))

    @staticmethod
    def near(i, distance, n=6):
        x = np.full(n, distance / (n - 1))
        x[i] = 1.0 - distance
        return x

    def test_recurring_row_named_at_its_earliest_issue_and_run(self, tmp_path, capsys):
        # 'early' and 'twin' share their issue 1 state, 'other' has its own
        # past the guard; the earliest of them is issue 1 of 'early'
        a, b = edge_starts()
        starts = [np.full(6, 1 / 6), a, b, a]
        code, report = run_simulate(tmp_path, edge_program(), starts, 1, 0, ["free", "early", "other", "twin"])
        assert (code, report) == (1, None)
        assert "error: run 'early', issue 1: state within 1e-14 of a vertex" in capsys.readouterr().err

    @pytest.mark.parametrize("first", [0, 1])
    def test_earliest_run_named_whatever_the_row_order(self, first, tmp_path, capsys):
        # two runs cross the guard at issue 1 with distinct states; the first
        # of them in run order is named, whether its state is the first
        # (first = 0) or the second (first = 1) by bit pattern
        program = edge_program()
        starts = sorted(edge_starts(), key=lambda x: df_map(x, program.gammas()[0]).tobytes())
        if first:
            starts.reverse()
        code, report = run_simulate(tmp_path, program, [np.full(6, 1 / 6), *starts], 1, 0, ["free", "a", "b"])
        assert (code, report) == (1, None)
        assert "error: run 'a', issue 1: state within 1e-14 of a vertex" in capsys.readouterr().err

    def test_start_near_a_vertex_is_not_checked_itself(self, tmp_path):
        # the start, 5e-13 from e_1, has a smaller margin than any state
        # after it, which is all the margin reads
        starts = [self.near(0, 5e-13), np.full(6, 1 / 6)]
        code, report = run_simulate(tmp_path, self.PROGRAM, starts, 30, 0)
        assert report is not None
        margin = reference_checks(self.PROGRAM, np.array(starts), 30, 0)[2]
        assert report["min_contraction_margin"] == margin > contraction_margin(starts[0][None])[0]


def test_one_dedup_per_command(tmp_path, monkeypatch):
    # the checks and the CSV pass share Trajectory.distinct: one np.unique over the states
    calls = []
    unique = np.unique
    monkeypatch.setattr(np, "unique", lambda *args, **kwargs: calls.append(args[0].shape) or unique(*args, **kwargs))
    program, issues, burn_in, starts = generated_batch(0)
    code, report = run_simulate(tmp_path, program, starts, issues, burn_in)
    assert report is not None and calls == [((issues + 1) * len(starts),)]
