"""Faults that the checks are shown to catch.

Each entry of MUTANTS plants one fault in a library function, by editing
its source text and swapping the compiled code into the function object
(so that every name bound to it, `from ... import` ones included, runs
the fault), and names the checks that must fail under it: each is called
directly under the patch, with its fixtures, and must raise an
AssertionError or a pytest failure such as a `pytest.raises` that saw
nothing.  An edit that no longer matches the source fails too, so a
refactor cannot turn a mutant into a silent no-op.
"""

import __future__
import functools
import inspect
import textwrap

import pytest

from socialpower import cli, periodic, topology
from socialpower.dynamics import Trajectory
import test_cli
import test_periodic
import test_periodic_properties
from test_cli import program_file, simulate_config  # noqa: F401  (fixtures)


def plant(monkeypatch, func, old, new):
    """Run `func` with the one occurrence of `old` in its source replaced by `new`."""
    source = textwrap.dedent(inspect.getsource(func))
    assert source.count(old) == 1, f"{old!r} does not occur once in {func.__qualname__}"
    namespace = {}
    code = compile(source.replace(old, new), inspect.getsourcefile(func), "exec",
                   flags=__future__.annotations.compiler_flag, dont_inherit=True)
    exec(code, func.__globals__, namespace)
    monkeypatch.setattr(func, "__code__", namespace[func.__name__].__code__)


# mutant name -> (function, source text, its replacement, the checks that kill it)
MUTANTS = {
    "window from s = burn_in": (
        Trajectory.post_burn_in, "self.states[burn_in + 1:]", "self.states[burn_in:]", [
            functools.partial(test_cli.TestSimulate().test_counts_states_checked_against_the_bound,
                              issues=21, checked=2),
            test_cli.TestPeriodicCommand().test_run_within_burn_in_rejected,
            functools.partial(test_periodic.TestVerifyPeriodicLimit().test_run_within_burn_in_rejected,
                              issues=40),
            test_periodic.TestVerifyPeriodicLimit().test_last_state_alone_is_compared,
        ]),
    "periodic deviation summed over axis 1": (
        periodic.verify_periodic_limit, ".sum(axis=-1)", ".sum(axis=1)", [
            functools.partial(test_periodic.TestVerifyPeriodicLimit().test_batch_compares_each_run,
                              issues=12),
            functools.partial(test_periodic.TestVerifyPeriodicLimit().test_batch_compares_each_run,
                              issues=40),
        ]),
    "closing chain residual left at 0": (
        periodic.periodic_fixed_points, "np.zeros(period - 1), best", "np.zeros(period - 1), 0.0", [
            test_periodic.TestPeriodicFixedPoints().test_newton_step_off_the_simplex_stops_the_solve,
            functools.partial(test_periodic_properties.check_chain_residuals,
                              test_periodic_properties.sparse_cycle_program()),
        ]),
    "file written without its truncate()": (
        topology._write_text, "fh.truncate()", "pass", [
            test_cli.TestRerun().test_simulate_over_a_longer_run,
        ]),
    "CSV field read by float() alone": (
        cli._read_csv, "if not _NUMBER.fullmatch(v):", "if False:", [
            functools.partial(test_cli.TestPlotCommand().test_rejects_a_field_that_is_no_decimal_number,
                              row="1,1,1_0, 0.25", field="x_1", value="1_0"),
        ]),
}

CASES = [pytest.param(name, k, id=f"{name}-{k}")
         for name, (*_, checks) in MUTANTS.items() for k in range(len(checks))]


@pytest.mark.parametrize("name, k", CASES)
def test_mutant_is_killed(name, k, request, monkeypatch):
    func, old, new, checks = MUTANTS[name]
    check = checks[k]
    needed = [p.name for p in inspect.signature(check).parameters.values() if p.default is p.empty]
    fixtures = {arg: request.getfixturevalue(arg) for arg in needed}
    plant(monkeypatch, func, old, new)
    with pytest.raises((AssertionError, pytest.fail.Exception)):
        check(**fixtures)
