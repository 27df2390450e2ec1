import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from socialpower import dynamics, errors
from socialpower.cli import main
from socialpower.dynamics import (
    Trajectory,
    df_map,
    limit_gap,
    simulate,
)
from socialpower.topology import (
    TOLERANCES,
    Constant,
    Periodic,
    RandomUniform,
    Scripted,
    TopologyProgram,
    dominant_left_eigenvector,
    save_program,
    validate,
)
from networks import cycle_matrix, interaction_set_6, star_matrix, switching_program_6

GAMMA_EXAMPLE = np.array([0.4, 0.35, 0.25])


def df_map_reference(x, gamma):
    # independent evaluation, no shared code with the implementation
    scaled = [g / (1 - xi) for g, xi in zip(gamma, x)]
    total = sum(scaled)
    return np.array([s / total for s in scaled])


def dense_matrices(n, count):
    """`count` validated n-node matrices with random positive weights off
    the diagonal, seeded."""
    rng = np.random.default_rng(n)
    matrices = []
    for _ in range(count):
        c = rng.random((n, n))
        np.fill_diagonal(c, 0.0)
        matrices.append(validate(c / c.sum(axis=1, keepdims=True)))
    return tuple(matrices)


def to_csv_reference(states, signal_log, path):
    # the writer before batching: one run, every row formatted on its own
    n = states.shape[-1]
    row = "%d,%d," + ",".join(["%.17g"] * n)
    produced = [0] + (signal_log + 1).tolist()
    lines = ["s,p," + ",".join(f"x_{i + 1}" for i in range(n))]
    lines += [row % (s, p, *x) for s, (p, x) in enumerate(zip(produced, states.tolist()))]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


class TestDfMap:
    def test_untagged_vertex_array_rejected(self):
        with pytest.raises(errors.NearVertex, match="start the run at the vertex"):
            df_map(np.eye(4)[1], np.full(4, 0.25))

    def test_uniform_maps_to_gamma(self):
        out = df_map(np.full(3, 1 / 3), GAMMA_EXAMPLE)
        assert np.abs(out - GAMMA_EXAMPLE).max() <= 1e-15

    def test_worked_example(self):
        out = df_map(np.array([0.2, 0.5, 0.3]), GAMMA_EXAMPLE)
        expected = df_map_reference([0.2, 0.5, 0.3], GAMMA_EXAMPLE)
        assert np.abs(out - expected).max() <= 1e-15
        # values frozen from the reference evaluator
        assert np.abs(out - [0.32110091743119255, 0.44954128440366975, 0.2293577981651376]).max() <= 1e-15

    def test_overflow_guard(self):
        with pytest.raises(errors.NearVertex, match="state within 1e-14 of a vertex"):
            df_map(np.array([1 - 1e-15, 1e-15, 0.0]), GAMMA_EXAMPLE)

    @pytest.mark.parametrize("toward, rejected", [(0.0, False), (1.0, True)])
    def test_guard_edge_in_the_last_column_of_a_later_row(self, toward, rejected):
        # one ulp below 1 - vertex_guard, 1 - x_3 clears the guard; one ulp above, it does not
        edge = np.nextafter(1 - TOLERANCES.vertex_guard, toward)
        x = np.array([[0.2, 0.5, 0.3], [0.3, 0.3, 0.4], [0.0, 1 - edge, edge]])
        if rejected:
            with pytest.raises(errors.NearVertex, match="state within 1e-14 of a vertex"):
                df_map(x, GAMMA_EXAMPLE)
        else:
            mapped = df_map(x, GAMMA_EXAMPLE)
            for row, out in zip(x, mapped):
                assert np.array_equal(out, df_map(row, GAMMA_EXAMPLE))

    def test_nan_entry_rejected(self):
        with pytest.raises(errors.NearVertex, match="state within 1e-14 of a vertex"):
            df_map(np.array([[0.2, 0.5, 0.3], [0.2, np.nan, 0.3]]), GAMMA_EXAMPLE)

    def test_simplex_preserved(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            x = rng.dirichlet(np.ones(5)) * rng.uniform(0.1, 1.0)
            x = np.clip(x, 0, 1 - 1e-6)
            out = df_map(x, np.full(5, 0.2))
            assert abs(out.sum() - 1) <= 1e-12
            assert out.min() >= 0

    def test_zero_entry_stays_zero_iff_gamma_zero_pattern(self):
        out = df_map(np.array([0.0, 0.3, 0.2]), GAMMA_EXAMPLE)
        assert out[0] > 0  # positive gamma revives a zeroed entry

    def test_ordering_follows_gamma_at_fixed_points(self):
        gamma = dominant_left_eigenvector(validate(interaction_set_6()[1]))
        x = gamma.copy()
        for _ in range(2000):
            x = df_map(x, gamma)
        assert np.array_equal(np.argsort(x), np.argsort(gamma))


def largest_admitted():
    """The largest double x with 1 - x >= vertex_guard in exact arithmetic,
    walked down from above fl(1 - vertex_guard)."""
    x = np.nextafter(1.0 - TOLERANCES.vertex_guard, 2.0)
    while 1 - Fraction(x) < Fraction(TOLERANCES.vertex_guard):
        x = np.nextafter(x, 0.0)
    return float(x)


class TestVertexMax:
    # the guard of df_map and simulate is one comparison per entry, x <= VERTEX_MAX
    EDGES = {"at": False, "one ulp above": True, "nan": True}

    @staticmethod
    def entry(edge):
        return {"at": largest_admitted(), "one ulp above": np.nextafter(largest_admitted(), 2.0),
                "nan": np.nan}[edge]

    def test_largest_double_whose_distance_to_1_meets_the_guard(self):
        assert dynamics.VERTEX_MAX == largest_admitted() == 1.0 - 91 * 2.0 ** -53

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("edge", EDGES)
    def test_df_map(self, edge, dtype):
        # in the last column of a later row; a complex state is guarded by its real part
        value = self.entry(edge)
        x = np.array([[0.2, 0.5, 0.3], [0.0, 1.0 - value, value]], dtype=dtype)
        if dtype is complex:
            x += 1j * 2.0 ** -100
        if self.EDGES[edge]:
            with pytest.raises(errors.NearVertex, match="state within 1e-14 of a vertex"):
                df_map(x, GAMMA_EXAMPLE)
        else:
            mapped = df_map(x, GAMMA_EXAMPLE)
            assert np.isfinite(mapped).all()
            assert np.array_equal(mapped[1], df_map(x[1], GAMMA_EXAMPLE))

    @pytest.mark.parametrize("edge", EDGES)
    def test_simulate(self, edge):
        # the third run starts with x_6 at the edge; a NaN start is not admissible
        program = TopologyProgram(switching_program_6().matrices, Constant(0))
        near = np.zeros(6)
        near[0], near[5] = 1.0 - self.entry(edge), self.entry(edge)
        init = np.vstack([TestBatch.BATCH[:2], near])
        if edge == "nan":
            with pytest.raises(errors.ValidationError, match="row 3 entry 1 = nan is not finite"):
                simulate(program, init, 3)
        elif self.EDGES[edge]:
            with pytest.raises(errors.NearVertex, match="^initial condition row 3, issue 1: ") as info:
                simulate(program, init, 3)
            assert (info.value.row, info.value.issue) == (2, 1)
        else:
            states = simulate(program, init, 3).states
            assert np.isfinite(states).all() and np.all(states[1:, 2, 5] < near[5])


class TestDynamicStep:
    def test_constant_signal_matches_static_map(self):
        program = TopologyProgram(
            tuple(validate(m) for m in interaction_set_6()), Constant(1)
        )
        x = np.full(6, 1 / 6)
        gamma = dominant_left_eigenvector(program.matrices[1])
        assert np.array_equal(simulate(program, x, issues=1).states[1], df_map(x, gamma))

    def test_scripted_selection(self):
        program = TopologyProgram(
            tuple(validate(m) for m in interaction_set_6()), Scripted((1, 0))
        )
        x = np.full(6, 1 / 6)
        gamma1 = dominant_left_eigenvector(program.matrices[1])
        step = simulate(program, x, issues=1).states[1]
        assert np.array_equal(step, df_map(x, gamma1))
        assert np.abs(step - gamma1).max() <= 1e-14

    def test_random_signal_reproducible(self):
        x = np.array([0.3, 0.2, 0.1, 0.1, 0.1, 0.1])
        a = simulate(switching_program_6(seed=5), x, issues=8)
        b = simulate(switching_program_6(seed=5), x, issues=8)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.signal_log, b.signal_log)


class TestSimulate:
    def test_shapes_and_row_sums(self):
        program = switching_program_6(seed=20170825)
        init = np.array([0.95, 0.95, 0.95, 0.0, 0.0, 0.0])
        traj = simulate(program, init, issues=50)
        assert traj.states.shape == (51, 6)
        assert traj.signal_log.shape == (50,)
        assert np.abs(traj.states[1:].sum(axis=1) - 1).max() <= 1e-12

    def test_vertex_init_is_constant(self):
        # a 1-D start equal to e_3 is held, not mapped
        program = switching_program_6(seed=1)
        traj = simulate(program, np.eye(6)[2], issues=20)
        assert traj.states.shape == (21, 6)
        assert np.array_equal(traj.states, np.tile(np.eye(6)[2], (21, 1)))

    def test_doubly_stochastic_reaches_uniform(self):
        program = TopologyProgram((validate(cycle_matrix(6)),), Constant(0))
        traj = simulate(program, np.array([0.9, 0.0, 0.0, 0.0, 0.0, 0.0]), issues=400)
        assert np.abs(traj.states[-1] - 1 / 6).max() <= 1e-10

    def test_bad_init_rejected(self):
        program = switching_program_6(seed=1)
        with pytest.raises(errors.ValidationError):
            simulate(program, np.zeros(6), issues=5)
        with pytest.raises(errors.ValidationError):
            simulate(program, np.array([1.0, 0.2, 0, 0, 0, 0]), issues=5)

    def test_non_finite_init_rejected(self):
        program = switching_program_6(seed=1)
        with pytest.raises(errors.ValidationError, match="entry 2 = nan"):
            simulate(program, np.array([0.5, np.nan, 0.1, 0.1, 0.1, 0.1]), issues=5)

    def test_peak_memory_below_two_state_stacks(self):
        # the kernel walks the state array itself and takes the signal's
        # eigenvectors one issue at a time: no list of one view per state
        # and no list with one entry per issue is held beside the states
        program = switching_program_6(seed=1)
        simulate(program, np.full(6, 1 / 6), issues=10)  # first-call allocations
        tracemalloc.start()
        try:
            traj = simulate(program, np.full(6, 1 / 6), issues=20000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * traj.states.nbytes

    def test_shared_signal_log(self):
        # two calls on one program realize the same signal
        program = switching_program_6(seed=20170825)
        t1 = simulate(program, np.array([0.95, 0.95, 0.95, 0, 0, 0.0]), 30)
        t2 = simulate(program, np.array([0.05, 0.05, 0.05, 0.9, 0.05, 0.9]), 30)
        assert np.array_equal(t1.signal_log, t2.signal_log)


class TestBatch:
    # free rows, a start 1e-6 from the vertex e_1, and the exact vertex e_3
    BATCH = np.array([
        [0.95, 0.95, 0.95, 0.0, 0.0, 0.0],
        [0.05, 0.05, 0.05, 0.9, 0.05, 0.9],
        [1 - 1e-6, 1e-7, 1e-7, 1e-7, 1e-7, 1e-7],
        np.eye(6)[2],
        [0.4, 0.1, 0.1, 0.1, 0.1, 0.1],
    ])

    def test_rows_equal_single_runs(self):
        program = switching_program_6(seed=20170825)
        batch = simulate(program, self.BATCH, 80)
        assert batch.states.shape == (81, 5, 6)
        assert batch.issues == 80
        for b, row in enumerate(self.BATCH):
            single = simulate(program, row, 80)
            assert np.array_equal(batch.states[:, b], single.states)
            assert np.array_equal(batch.signal_log, single.signal_log)

    def test_vertex_rows_constant(self):
        program = switching_program_6(seed=20170825)
        states = simulate(program, self.BATCH, 40).states
        assert np.array_equal(states[:, 3], np.tile(np.eye(6)[2], (41, 1)))
        assert not np.array_equal(states[-1, 2], states[0, 2])  # near vertex moves

    def test_limit_gap_per_row(self):
        program = switching_program_6(seed=20170825)
        batch = simulate(program, self.BATCH[:2], 30)
        gap = limit_gap(batch, batch)
        assert gap.shape == (31, 2) and np.all(gap == 0)

    @pytest.mark.parametrize("bad, message", [
        ([1.0, 0.2, 0, 0, 0, 0], "row 2 requires 0 <= x_i < 1"),
        ([0.0] * 6, "row 2 needs at least one x_j > 0"),
        ([0.1, np.inf, 0, 0, 0, 0], "row 2 entry 2 = inf is not finite"),
    ])
    def test_bad_row_named(self, bad, message):
        program = switching_program_6(seed=1)
        init = np.array([[0.5, 0.1, 0.1, 0.1, 0.1, 0.1], bad, [0.0, 0.2, 0, 0, 0, 0]])
        with pytest.raises(errors.ValidationError, match=message):
            simulate(program, init, issues=5)

    def test_near_vertex_row_named_with_its_issue(self):
        # admissible, but within the map's 1e-14 guard of e_1; the held
        # first row is not mapped, so the row is found among the free ones
        program = switching_program_6(seed=1)
        init = np.array([np.eye(6)[2], [1 - 1e-15, 1e-15, 0, 0, 0, 0], [0.5, 0.1, 0.1, 0.1, 0.1, 0.1]])
        with pytest.raises(errors.NearVertex, match="^initial condition row 2, issue 1: state within 1e-14"):
            simulate(program, init, issues=5)
        with pytest.raises(errors.NearVertex, match="^issue 1: state within 1e-14"):
            simulate(program, init[1], issues=5)

    @pytest.mark.parametrize("issues", [1, 2])
    def test_last_state_past_the_guard_named_with_the_last_issue(self, issues):
        # a start at the guard's edge that df_map rounds one ulp past it: the
        # state after issue 1 is guarded as the last state (issues = 1), named
        # by issue 1 that made it, and as a mapped one (issues = 2), named by
        # issue 2 that cannot be applied to it
        from test_simulate_checks import edge_program, edge_starts  # which imports this module
        init = [np.full(6, 1 / 6), edge_starts()[0]]
        with pytest.raises(errors.NearVertex, match=f"^initial condition row 2, issue {issues}: ") as info:
            simulate(edge_program(), init, issues)
        assert (info.value.row, info.value.issue) == (1, issues)

    @pytest.mark.parametrize("signal", [
        RandomUniform(7),
        Periodic((0, 3, 1, 4)),
        Scripted(tuple(i * i % 5 for i in range(300))),
    ])
    def test_states_equal_a_df_map_loop_bit_for_bit(self, signal):
        # the in-place kernel against one df_map call per issue, for every
        # row of the batch and for each row run on its own, as (n,) and as
        # (1, n); on the six-person group and on a 30-node program, since
        # from n = 8 on numpy sums a row in eight partial sums
        for program, init in [(TopologyProgram(switching_program_6().matrices, signal), self.BATCH),
                              (TopologyProgram(dense_matrices(30, 5), signal), self.batch_30())]:
            batch = simulate(program, init, 300)
            gammas = program.gammas()
            for b, row in enumerate(init):
                held = np.count_nonzero(row) == 1
                expected = [row]
                for k in batch.signal_log:
                    expected.append(row if held else df_map(expected[-1], gammas[k]))
                assert np.array_equal(batch.states[:, b], expected)
                assert np.array_equal(simulate(program, row, 300).states, expected)
                assert np.array_equal(simulate(program, row[None], 300).states[:, 0], expected)

    @pytest.mark.parametrize("toward, rejected", [(0.0, False), (1.0, True)])
    def test_guard_edge_in_the_last_column_of_a_later_row(self, toward, rejected):
        # the third run starts one ulp either side of 1 - vertex_guard in x_6
        program = TopologyProgram(switching_program_6().matrices, Constant(0))
        edge = np.nextafter(1 - TOLERANCES.vertex_guard, toward)
        near = np.zeros(6)
        near[0], near[5] = 1 - edge, edge
        init = np.vstack([self.BATCH[:2], near])
        if rejected:
            with pytest.raises(errors.NearVertex, match="^initial condition row 3, issue 1: ") as info:
                simulate(program, init, 3)
            assert (info.value.row, info.value.issue) == (2, 1)
        else:
            states = simulate(program, init, 3).states
            assert np.isfinite(states).all() and np.all(states[1:, 2, 5] < edge)

    @staticmethod
    def batch_30():
        # Dirichlet starts, a start 1e-6 from e_1, the exact vertex e_3 and a sparse start
        near = np.full(30, 1e-6 / 29)
        near[0] = 1 - 1e-6
        sparse = np.zeros(30)
        sparse[[4, 17]] = 0.5
        starts = np.random.default_rng(30).dirichlet(np.full(30, 0.5), 3)
        return np.vstack([starts, near, np.eye(30)[2], sparse])

    def test_guard_names_the_row_even_where_the_map_divides_by_zero(self):
        # one ulp below e_1: the first mapped state rounds to e_1 exactly,
        # so issue 2 divides by zero; pytest makes a RuntimeWarning fail
        program = TopologyProgram(switching_program_6().matrices, Constant(4))
        top = np.nextafter(1.0, 0.0)
        init = np.array([np.eye(6)[2], [top, 1 - top, 0, 0, 0, 0]])
        with pytest.raises(errors.NearVertex, match="^initial condition row 2, issue 1: state within 1e-14") as info:
            simulate(program, init, 50)
        assert (info.value.row, info.value.issue) == (1, 1)
        with pytest.raises(errors.NearVertex, match="^issue 1: state within 1e-14") as info:
            simulate(program, init[1], 50)
        assert (info.value.row, info.value.issue) == (0, 1)

    @pytest.mark.parametrize("burn_in", [0, 20, 29, 30, 45])
    def test_post_burn_in_window(self, burn_in):
        # states s = burn_in + 1 ... issues, of every run; none from s = issues on
        batch = simulate(switching_program_6(seed=1), self.BATCH[:2], 30)
        window = batch.post_burn_in(burn_in)
        assert window.shape == (max(30 - burn_in, 0), 2, 6)
        assert np.array_equal(window, batch.states[31 - window.shape[0]:])

    def test_wrong_shape_rejected(self):
        program = switching_program_6(seed=1)
        with pytest.raises(errors.ValidationError, match=r"expected \(B, 6\)"):
            simulate(program, np.full((2, 5), 0.1), issues=5)
        with pytest.raises(errors.ValidationError, match=r"expected \(B, 6\)"):
            simulate(program, np.full((1, 2, 6), 0.1), issues=5)


class TestLimitGap:
    def test_identical_trajectories_zero(self):
        program = switching_program_6(seed=3)
        t = simulate(program, np.array([0.5, 0.1, 0.1, 0.1, 0.1, 0.1]), 10)
        assert np.array_equal(limit_gap(t, t), np.zeros(11))

    def test_signal_mismatch_rejected(self):
        p1 = switching_program_6(seed=3)
        p2 = switching_program_6(seed=4)
        t1 = simulate(p1, np.array([0.5, 0.1, 0.1, 0.1, 0.1, 0.1]), 10)
        t2 = simulate(p2, np.array([0.5, 0.1, 0.1, 0.1, 0.1, 0.1]), 10)
        with pytest.raises(errors.ValidationError, match="different signal realizations"):
            limit_gap(t1, t2)

    def test_forgetting_initial_conditions(self):
        # two far-apart starts under one switching signal collapse together
        program = switching_program_6(seed=20170825)
        hat = simulate(program, np.array([0.95, 0.95, 0.95, 0.0, 0.0, 0.0]), 60)
        tilde = simulate(program, np.array([0.05, 0.05, 0.05, 0.9, 0.05, 0.9]), 60)
        gap = limit_gap(hat, tilde)
        assert gap[20:].max() <= 1e-6


class TestCsvExport:
    def test_round_trip_and_signal_column(self, tmp_path):
        program = switching_program_6(seed=11)
        traj = simulate(program, np.array([0.4, 0.1, 0.1, 0.1, 0.1, 0.1]), 12)
        path = tmp_path / "run.csv"
        traj.to_csv(path)
        rows = path.read_text().strip().split("\n")
        assert rows[0] == "s,p," + ",".join(f"x_{i}" for i in range(1, 7))
        assert len(rows) == 14
        data = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
        assert data[0, 1] == 0  # no matrix applied before the first issue
        assert np.array_equal(data[1:, 1].astype(int) - 1, traj.signal_log)
        assert np.abs(data[:, 2:] - traj.states).max() == 0.0

    def test_rows_match_per_value_formatting(self, tmp_path):
        # reference: each value formatted on its own, as the writer once did
        rng = np.random.default_rng(3)
        states = rng.random((40, 5)) ** rng.integers(1, 60, (40, 5))
        states[0] = [5e-324, 1 - 2**-53, -0.0, 0.1, 1e22]
        signal_log = rng.integers(0, 12, 39)
        path = tmp_path / "run.csv"
        Trajectory(states, signal_log).to_csv(path)
        produced = [0] + (signal_log + 1).tolist()
        expected = ["s,p,x_1,x_2,x_3,x_4,x_5"] + [
            f"{s},{p}," + ",".join(f"{v:.17g}" for v in row)
            for s, (p, row) in enumerate(zip(produced, states.tolist()))
        ]
        assert path.read_text() == "\n".join(expected) + "\n"

    @pytest.mark.parametrize("seed", range(4))
    def test_batch_matches_per_run_writer(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        steps, runs, n = int(rng.integers(2, 40)), 6, int(rng.integers(5, 9))
        states = rng.random((steps, runs, n)) ** rng.integers(1, 60, (steps, runs, n))
        states[:, 1] = states[:, 0]  # two bit-identical runs
        states[:, 2] = np.eye(n)[1]  # a run held at the vertex e_2
        # two rows of different runs that differ only in the sign of their zeros
        states[0, 3, 1:] = 0.0
        states[1, 4] = states[0, 3]
        states[1, 4, 1:] = -0.0
        states[-1, 5, :5] = [5e-324, 1 - 2**-53, -0.0, 0.1, 1e22]
        signal_log = rng.integers(0, 12, steps - 1)
        paths = [tmp_path / f"run_{b}.csv" for b in range(runs)]
        Trajectory(states, signal_log).to_csv(*paths)
        for b, path in enumerate(paths):
            expected = tmp_path / f"expected_{b}.csv"
            to_csv_reference(states[:, b], signal_log, expected)
            assert path.read_bytes() == expected.read_bytes(), b

    def test_signed_zeros_stay_distinct(self, tmp_path):
        states = np.array([[[0.0, 1.0], [-0.0, 1.0]], [[-0.0, 1.0], [0.0, 1.0]]])
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        Trajectory(states, np.array([0])).to_csv(*paths)
        assert paths[0].read_text() == "s,p,x_1,x_2\n0,0,0,1\n1,1,-0,1\n"
        assert paths[1].read_text() == "s,p,x_1,x_2\n0,0,-0,1\n1,1,0,1\n"

    @pytest.mark.parametrize("shape, count", [((5, 3), 2), ((5, 3), 0), ((5, 2, 3), 1), ((5, 2, 3), 3)])
    def test_path_count_must_match_runs(self, tmp_path, shape, count):
        traj = Trajectory(np.full(shape, 1 / 3), np.zeros(4, dtype=int))
        with pytest.raises(errors.ValidationError, match=f"{count} CSV path"):
            traj.to_csv(*(tmp_path / f"{k}.csv" for k in range(count)))
        assert not any(tmp_path.iterdir())

    def test_simulate_command_writes_in_one_call(self, tmp_path, monkeypatch):
        calls = []
        original = Trajectory.to_csv

        def counting(self, *paths):
            calls.append(len(paths))
            return original(self, *paths)

        monkeypatch.setattr(Trajectory, "to_csv", counting)
        save_program(switching_program_6(seed=5), tmp_path / "program.json")
        config = {
            "program": "program.json",
            "issues": 30,
            "initial_conditions": {"a": [0.5, 0.1, 0.1, 0.1, 0.1, 0.1], "b": "vertex:2",
                                   "c": [1 / 6] * 6},
        }
        (tmp_path / "sim.json").write_text(json.dumps(config))
        main(["simulate", "--config", str(tmp_path / "sim.json"), "--out", str(tmp_path / "out")])
        assert calls == [3]
        assert sorted(p.name for p in (tmp_path / "out").glob("run_*.csv")) == [
            "run_a.csv", "run_b.csv", "run_c.csv"]


def test_star_center_accumulates_power():
    program = TopologyProgram((validate(star_matrix(5)),), Constant(0))
    traj = simulate(program, np.full(5, 0.2), issues=200)
    center = traj.states[:, 0]
    assert np.all(np.diff(center[1:]) > 0)
    # frozen: first issue where center power exceeds 0.99
    crossing = int(np.argmax(center > 0.99))
    assert crossing == 132
    assert traj.states[-1, 0] > 0.99
