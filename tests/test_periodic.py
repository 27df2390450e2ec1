import dataclasses

import numpy as np
import pytest

from socialpower import errors, periodic
from socialpower.analysis import fixed_point
from socialpower.dynamics import df_map, simulate
from socialpower.periodic import periodic_fixed_points, verify_periodic_limit
from socialpower.topology import (
    TOLERANCES,
    Periodic,
    RandomUniform,
    TopologyProgram,
    load_program,
    validate,
)
from networks import EXPERIMENTS, cycle_matrix, interaction_set_6, star_matrix


def two_phase_program(order=(0, 1)):
    matrices = tuple(validate(m) for m in interaction_set_6()[1:3])
    return TopologyProgram(matrices, Periodic(order))


def three_phase_program():
    matrices = tuple(validate(m) for m in interaction_set_6()[1:4])
    return TopologyProgram(matrices, Periodic((0, 1, 2)))


def composite(program, p, x):
    """G_p as documented: phase p+1 first, ..., phase p last."""
    order = program.signal.order
    for k in range(1, len(order) + 1):
        x = df_map(x, program.matrices[order[(p + k) % len(order)]].gamma)
    return x


class TestPeriodicProgram:
    def test_from_program(self):
        program = two_phase_program()
        limit = periodic_fixed_points(program)
        assert limit.program is program
        assert len(limit.fixed_points) == 2

    def test_non_periodic_signal_rejected(self):
        program = TopologyProgram(
            tuple(validate(m) for m in interaction_set_6()[1:3]), RandomUniform(0)
        )
        with pytest.raises(errors.ValidationError, match="not periodic"):
            periodic_fixed_points(program)

    def test_star_phase_rejected(self):
        matrices = (validate(cycle_matrix(5)), validate(star_matrix(5)))
        with pytest.raises(errors.StarTopology):
            periodic_fixed_points(TopologyProgram(matrices, Periodic((0, 1))))

    def test_single_phase_rejected(self):
        program = TopologyProgram((validate(cycle_matrix(4)),), Periodic((0,)))
        with pytest.raises(errors.ValidationError, match="at least two phases"):
            periodic_fixed_points(program)


class TestPeriodicFixedPoints:
    def test_degenerate_equal_phases(self):
        program = TopologyProgram((validate(cycle_matrix(4)),), Periodic((0, 0)))
        limit = periodic_fixed_points(program)
        stationary = fixed_point(np.full(4, 0.25))
        for y in limit.fixed_points:
            assert np.abs(y - stationary).max() <= 1e-10

    def test_two_phase_chain(self):
        limit = periodic_fixed_points(two_phase_program())
        assert len(limit.fixed_points) == 2
        for y in limit.fixed_points:
            assert abs(y.sum() - 1) <= 1e-12
            assert y.min() > 0
        assert limit.chain_residuals.max() <= 1e-12
        # distinct phases give genuinely distinct limit points
        assert np.abs(limit.fixed_points[0] - limit.fixed_points[1]).max() > 1e-4

    def test_three_phase_chain(self):
        limit = periodic_fixed_points(three_phase_program())
        assert len(limit.fixed_points) == 3
        assert limit.chain_residuals.max() <= 1e-12

    def test_fixed_points_invariant_under_composite(self):
        program = two_phase_program()
        limit = periodic_fixed_points(program)
        for p, y in enumerate(limit.fixed_points):
            assert np.abs(composite(program, p, y) - y).max() <= 1e-12

    def test_chain_residual_beyond_tolerance_rejected(self, monkeypatch):
        # every residual, even an exact 0, exceeds a negative tolerance
        monkeypatch.setattr(periodic, "TOLERANCES", dataclasses.replace(TOLERANCES, fixed_point=-1.0))
        with pytest.raises(errors.NoConvergence, match=r"chain residuals .* exceed -1.0"):
            periodic_fixed_points(two_phase_program())

    @staticmethod
    def fails_at_the_start(program, monkeypatch, nan_after_the_start=False):
        """Solve `program`, which must raise NoConvergence, recording each
        `_orbits` call; the residuals of every call after the first are NaN
        if asked.  Returns the number of calls after the start's, and checks
        that the error reports the closing residual of the start."""
        orbits, calls = periodic._orbits, []

        def recorded(u, ratios, prev):
            y, residuals = orbits(u, ratios, prev)
            calls.append((u[:, 0], y[:, 0]))
            return y, np.full_like(residuals, np.nan) if nan_after_the_start and len(calls) > 1 else residuals

        monkeypatch.setattr(periodic, "_orbits", recorded)
        with pytest.raises(errors.NoConvergence) as info:
            periodic_fixed_points(program)
        (u, y), *trials = calls
        first, second = (m.gamma for m in program.matrices)
        k = int(np.argmax(first + second))
        start = np.insert(y[0], k, u[0])
        closing = np.abs(df_map(df_map(start, second), first) - start).sum()
        assert str(info.value) == f"chain residuals {np.array([0.0, closing])} exceed {TOLERANCES.fixed_point}"
        return len(trials)

    def test_step_off_the_box_stops_at_the_best_iterate(self, monkeypatch):
        # every Newton step, scaled by 2^40, leaves (0, 1)^P: the solve maps
        # nothing beyond the start and reports the start's closing residual
        newton_step = periodic._newton_step
        monkeypatch.setattr(periodic, "_newton_step", lambda residuals: 2.0 ** 40 * newton_step(residuals))
        assert self.fails_at_the_start(two_phase_program(), monkeypatch) == 0

    def test_nan_residual_does_not_fall(self, monkeypatch):
        # every residual after the start's is NaN: the one trial step does
        # not fall, and the solve reports the closing residual of the start,
        # the one iterate whose residual fell
        assert self.fails_at_the_start(two_phase_program(), monkeypatch, nan_after_the_start=True) == 1

    def test_nan_residual_at_the_start_rejected(self, monkeypatch):
        orbits = periodic._orbits
        monkeypatch.setattr(periodic, "_orbits", lambda u, ratios, prev: (
            orbits(u, ratios, prev)[0], np.full((len(u), u.shape[1]), np.nan)))
        with pytest.raises(errors.NoConvergence, match="no finite residual at the start"):
            periodic_fixed_points(two_phase_program())


class TestVerifyPeriodicLimit:
    def test_two_phase_simulation_settles(self):
        program = two_phase_program()
        limit = periodic_fixed_points(program)
        traj = simulate(program, np.array([0.9, 0.02, 0.02, 0.02, 0.02, 0.02]), issues=80)
        ok, worst = verify_periodic_limit(traj, limit, burn_in=40)
        assert ok
        assert worst <= 1e-8

    def test_three_phase_simulation_settles(self):
        program = three_phase_program()
        limit = periodic_fixed_points(program)
        traj = simulate(program, np.full(6, 1 / 6), issues=120)
        ok, worst = verify_periodic_limit(traj, limit, burn_in=60)
        assert ok

    def test_aperiodic_log_rejected(self):
        program = two_phase_program()
        limit = periodic_fixed_points(program)
        random_program = TopologyProgram(program.matrices, RandomUniform(33))
        traj = simulate(random_program, np.full(6, 1 / 6), issues=40)
        with pytest.raises(errors.ValidationError, match="signal log is not the one"):
            verify_periodic_limit(traj, limit, burn_in=10)

    def test_reversed_phase_order_rejected(self):
        # a (1, 0) run is a relabelling of the (0, 1) cycle, but not its run
        limit = periodic_fixed_points(two_phase_program((0, 1)))
        traj = simulate(two_phase_program((1, 0)), np.full(6, 1 / 6), issues=80)
        with pytest.raises(errors.ValidationError, match="signal log is not the one"):
            verify_periodic_limit(traj, limit, burn_in=40)

    def test_short_burn_in_fails_cleanly(self):
        program = two_phase_program()
        limit = periodic_fixed_points(program)
        traj = simulate(program, np.array([0.9, 0.02, 0.02, 0.02, 0.02, 0.02]), issues=80)
        ok, worst = verify_periodic_limit(traj, limit, burn_in=1)
        assert not ok
        assert worst > 1e-8

    @pytest.mark.parametrize("issues", [1, 39, 40])
    def test_run_within_burn_in_rejected(self, issues):
        program = two_phase_program()
        limit = periodic_fixed_points(program)
        traj = simulate(program, np.full(6, 1 / 6), issues=issues)
        with pytest.raises(errors.ValidationError, match=f"{issues} issues, burn-in 40"):
            verify_periodic_limit(traj, limit, burn_in=40)

    def test_last_state_alone_is_compared(self):
        # 20 issues from near e_1 leave the run off the limit, closer to it
        # at s = 20 than at s = 19
        program = two_phase_program()
        limit = periodic_fixed_points(program)
        traj = simulate(program, np.array([0.9, 0.02, 0.02, 0.02, 0.02, 0.02]), issues=20)
        ok, worst = verify_periodic_limit(traj, limit, burn_in=19)
        phase = program.signal.phases(20)[-1]
        assert 0 < worst == np.abs(traj.states[20] - limit.fixed_points[phase]).sum()

    def test_negative_burn_in_rejected(self):
        # a negative slice start would select the last states instead
        program = two_phase_program()
        traj = simulate(program, np.full(6, 1 / 6), issues=40)
        with pytest.raises(errors.ValidationError, match="burn_in must be >= 0, got -1"):
            verify_periodic_limit(traj, periodic_fixed_points(program), burn_in=-1)

    # 2 compared states, as many as runs, and 30
    @pytest.mark.parametrize("issues", [12, 40])
    def test_batch_compares_each_run(self, issues):
        # a burn-in of 10 leaves both runs off the limit, so a deviation
        # summed over anything but the entries of one state shows
        program = load_program(EXPERIMENTS / "group6_alternating.json")
        limit = periodic_fixed_points(program)
        starts = np.array([[0.9, 0.02, 0.02, 0.02, 0.02, 0.02], np.full(6, 1 / 6)])
        batch = simulate(program, starts, issues)
        runs = [verify_periodic_limit(simulate(program, x, issues), limit, 10) for x in starts]
        assert min(worst for _, worst in runs) > 0
        assert verify_periodic_limit(batch, limit, 10) == max(runs, key=lambda r: r[1])
