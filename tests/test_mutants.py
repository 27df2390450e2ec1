"""Faults that the checks are shown to catch.

Each entry of MUTANTS plants one fault in the library and names the
checks that must fail under it: each is called directly under the patch,
with its fixtures, and must raise an AssertionError, a pytest failure
such as a `pytest.raises` that saw nothing, or one of the library's own
errors (a check inside the library caught the fault first).  Most faults
edit a function's source text and swap the compiled code into the
function object (so that every name bound to it, `from ... import` ones
included, runs the fault); a fault in module-level data replaces that
data.  An edit that no longer matches the source fails too, so a
refactor cannot turn a mutant into a silent no-op.
"""

import __future__
import functools
import inspect
import textwrap

import numpy as np
import pytest

from socialpower import analysis, cli, degroot, dynamics, periodic, svg, topology, verification
from socialpower.dynamics import Trajectory
from socialpower.errors import SocialPowerError
import test_acceptance
import test_analysis
import test_cli
import test_closed_forms
import test_degroot
import test_dynamics
import test_format
import test_periodic
import test_periodic_properties
import test_simulate_checks
import test_simulate_outputs
import test_stacked
import test_topology
from test_cli import near_star_file, program_file, simulate_config  # noqa: F401  (fixtures)


def edit(func, old, new):
    """The fault: `func` run with the one occurrence of `old` in its source replaced by `new`."""

    def plant(monkeypatch):
        source = textwrap.dedent(inspect.getsource(func))
        assert source.count(old) == 1, f"{old!r} does not occur once in {func.__qualname__}"
        namespace = {}
        code = compile(source.replace(old, new), inspect.getsourcefile(func), "exec",
                       flags=__future__.annotations.compiler_flag, dont_inherit=True)
        exec(code, func.__globals__, namespace)
        monkeypatch.setattr(func, "__code__", namespace[func.__name__].__code__)

    return plant


def vertex_max_one_ulp_high(monkeypatch):
    """The fault: `dynamics.VERTEX_MAX` one ulp high, as `np.floor` in
    place of `np.ceil` makes it, so the guard admits 1 - x < vertex_guard."""
    monkeypatch.setattr(dynamics, "VERTEX_MAX", np.nextafter(dynamics.VERTEX_MAX, 2.0))


def pairs_keep_trailing_zeros(monkeypatch):
    """The fault: `topology._PAIRS` built without its `&= 0xFF` line, so
    "10" .. "90" keep the trailing zero that a value's last pair drops."""
    assert inspect.getsource(topology).count("\n_PAIRS[:100:10] &= 0xFF\n") == 1
    pairs = topology._PAIRS.copy()
    pairs[10:100:10] = pairs[110:200:10]
    monkeypatch.setattr(topology, "_PAIRS", pairs)


# mutant name -> (the fault, the checks that kill it)
MUTANTS = {
    "window from s = burn_in": (
        edit(Trajectory.post_burn_in, "self.states[burn_in + 1:]", "self.states[burn_in:]"), [
            functools.partial(test_cli.TestSimulate().test_counts_states_checked_against_the_bound,
                              issues=21, checked=2),
            test_cli.TestPeriodicCommand().test_run_within_burn_in_rejected,
            functools.partial(test_periodic.TestVerifyPeriodicLimit().test_run_within_burn_in_rejected,
                              issues=40),
            test_periodic.TestVerifyPeriodicLimit().test_last_state_alone_is_compared,
        ]),
    "periodic deviation summed over axis 1": (
        edit(periodic.verify_periodic_limit, ".sum(axis=-1)", ".sum(axis=1)"), [
            functools.partial(test_periodic.TestVerifyPeriodicLimit().test_batch_compares_each_run,
                              issues=12),
            functools.partial(test_periodic.TestVerifyPeriodicLimit().test_batch_compares_each_run,
                              issues=40),
        ]),
    "closing chain residual left at 0": (
        edit(periodic.periodic_fixed_points, "np.zeros(period - 1), closing", "np.zeros(period - 1), 0.0"), [
            test_periodic.TestPeriodicFixedPoints().test_nan_residual_does_not_fall,
            functools.partial(test_periodic_properties.check_chain_residuals,
                              test_periodic_properties.sparse_cycle_program()),
        ]),
    "periodic start at the bound shape": (
        # each phase's normalised gamma/(1 - gamma), the start the solve had
        # with a step-halving line search
        edit(periodic.periodic_fixed_points,
             "simulate(program, np.full(program.n, 1.0 / program.n), 2 * period + 1).states[-period:, k]",
             "(gammas / (1.0 - gammas))[:, k] / (gammas / (1.0 - gammas)).sum(axis=1)"), [
            functools.partial(test_periodic_properties.test_seeded_hub_switching_chain_residuals_within_tolerance,
                              seed=seed)
            for seed in (33, 78, 228, 345)
        ]),
    "periodic start one cycle on": (
        edit(periodic.periodic_fixed_points, "2 * period + 1", "period + 1"), [
            functools.partial(test_periodic_properties.test_seeded_hub_switching_chain_residuals_within_tolerance,
                              seed=175),
        ]),
    "non-hub individuals take the repelling root": (
        edit(periodic._orbits, "np.sqrt(b * b + 4.0 * B * C), A + D)",
             "np.sqrt(b * b + 4.0 * B * C), -(A + D))"), [
            test_periodic.TestPeriodicFixedPoints().test_two_phase_chain,
            functools.partial(test_periodic_properties.check_matches_reference,
                              test_periodic_properties.sparse_cycle_program()),
        ]),
    "file written without its truncate()": (
        edit(topology._write_text, "fh.truncate()", "pass"), [
            test_cli.TestRerun().test_simulate_over_a_longer_run,
        ]),
    "jacobian off-diagonal sign flipped": (
        edit(analysis.jacobian, "J = -(x_next", "J = (x_next"), [
            test_acceptance.test_criterion_6_jacobian_against_finite_differences,
        ]),
    "jacobian scaled by 1 + 1e-8": (
        # far inside central differences' error, far outside the complex step's
        edit(analysis.jacobian, "return J", "return J * (1.0 + 1e-8)"), [
            test_acceptance.test_criterion_6_jacobian_against_finite_differences,
            test_cli.TestVerifyCommand().test_passes_on_example_group_program,
        ]),
    "digit pairs keep their trailing zero": (
        pairs_keep_trailing_zeros, [
            test_format.test_uniform_states,
        ]),
    "contraction margin without column k's own term": (
        edit(analysis.contraction_margin, "np.put_along_axis(margins, k, own, axis=-1)", "pass"), [
            functools.partial(test_closed_forms.test_margin_matches_transform_chain, n=6, count=200),
        ]),
    "periodic phases shifted by one issue": (
        edit(topology.Periodic.phases, "(np.arange(issues) - 1)", "np.arange(issues)"), [
            test_topology.TestSignals().test_periodic_convention_first_issue_uses_last_phase,
        ]),
    "df_map with gamma reversed": (
        edit(dynamics.df_map, "_issues([x, out], [gamma])", "_issues([x, out], [gamma[..., ::-1]])"), [
            test_degroot.TestAppraisalEquivalence().test_matches_closed_form_on_every_fixture_matrix,
        ]),
    "simulate with the eigenvectors in reverse issue order": (
        edit(dynamics.simulate, "signal_log.tolist())", "signal_log.tolist()[::-1])"), [
            functools.partial(test_dynamics.TestBatch().test_states_equal_a_df_map_loop_bit_for_bit,
                              signal=topology.RandomUniform(7)),
            test_simulate_outputs.test_forgetting_outputs_are_pinned,
        ]),
    "df_map guard reads x.min": (
        # a row passes when its smallest entry clears the guard
        edit(dynamics.df_map, "np.all(x.real <= VERTEX_MAX)", "np.all((x.real <= VERTEX_MAX).any(axis=-1))"), [
            test_dynamics.TestDfMap().test_overflow_guard,
            functools.partial(test_dynamics.TestDfMap().test_guard_edge_in_the_last_column_of_a_later_row,
                              toward=1.0, rejected=True),
        ]),
    "simulate guard reads x.min": (
        # a row passes when its smallest entry clears the guard
        edit(dynamics.simulate, "if not inside.all():", "if not inside.any(axis=-1).all():"), [
            test_dynamics.TestBatch().test_near_vertex_row_named_with_its_issue,
            functools.partial(test_dynamics.TestBatch().test_guard_edge_in_the_last_column_of_a_later_row,
                              toward=1.0, rejected=True),
        ]),
    "df_map guard with < in place of <=": (
        edit(dynamics.df_map, "x.real <= VERTEX_MAX", "x.real < VERTEX_MAX"), [
            functools.partial(test_dynamics.TestVertexMax().test_df_map, edge="at", dtype=float),
            functools.partial(test_dynamics.TestVertexMax().test_df_map, edge="at", dtype=complex),
        ]),
    "simulate guard with < in place of <=": (
        edit(dynamics.simulate, "states[:-1] <= VERTEX_MAX", "states[:-1] < VERTEX_MAX"), [
            functools.partial(test_dynamics.TestVertexMax().test_simulate, edge="at"),
        ]),
    "certificate domain with < in place of <=": (
        # the certificate refuses the guard's edge state, which the map accepts
        edit(analysis._interior, "x <= VERTEX_MAX", "x < VERTEX_MAX"), [
            test_stacked.test_interior_reductions_match_the_elementwise_domain,
        ]),
    "vertex guard constant one ulp high": (
        vertex_max_one_ulp_high, [
            test_dynamics.TestVertexMax().test_largest_double_whose_distance_to_1_meets_the_guard,
            functools.partial(test_dynamics.TestVertexMax().test_df_map, edge="one ulp above", dtype=complex),
            functools.partial(test_dynamics.TestVertexMax().test_simulate, edge="one ulp above"),
        ]),
    "bound count over every distinct row, not the post-burn-in window": (
        edit(cli.cmd_simulate, "bounds + TOLERANCES.bound_slack, -1)[window]", "bounds + TOLERANCES.bound_slack, -1)"), [
            functools.partial(test_simulate_checks.test_checks_match_the_per_state_reference, seed=seed)
            for seed in (0, 1, 2)
        ]),
    "margin over rows first seen at the start": (
        edit(cli.cmd_simulate, "post = ids[1:].ravel()", "post = ids.ravel()"), [
            functools.partial(test_simulate_checks.test_checks_match_the_per_state_reference, seed=seed)
            for seed in (0, 1)
        ] + [test_simulate_checks.TestNearVertexNaming().test_start_near_a_vertex_is_not_checked_itself]),
    "margin rows in bit-pattern order, not by first (issue, run)": (
        edit(cli.cmd_simulate, "firsts = np.flatnonzero((first[post] == at) & np.all(rows > 0, axis=-1)[post])",
             "firsts = first[(first < post.size) & np.all(rows > 0, axis=-1)]"), [
            # the two rows in bit-pattern order put the run near e_2 first
            functools.partial(test_simulate_checks.TestNearVertexNaming().test_earliest_run_named_whatever_the_row_order,
                              first=1),
        ]),
    "simulate without the held-row reset": (
        edit(dynamics.simulate, "states[:, ~free] = rows[~free]", "pass"), [
            test_dynamics.TestSimulate().test_vertex_init_is_constant,
            test_dynamics.TestBatch().test_vertex_rows_constant,
        ]),
    "closure stops after one product": (
        edit(topology.is_irreducible, "range((n - 2).bit_length())", "range(1)"), [
            test_topology.TestIrreducibility().test_cycle_irreducible,
            functools.partial(test_topology.TestIrreducibility().test_chorded_cycle_is_irreducible, n=6),
        ]),
    "irreducible when any pair is reachable": (
        edit(topology.is_irreducible, ".all(axis=(-2, -1))", ".any(axis=(-2, -1))"), [
            test_topology.TestIrreducibility().test_triangular_reducible,
            test_topology.TestIrreducibility().test_block_upper_triangular_is_reducible,
            functools.partial(test_topology.TestIrreducibility().test_stack_gives_each_matrix_its_own_answer,
                              n=6),
        ]),
    "contraction margin with the largest entry left in S and Q": (
        edit(analysis.contraction_margin, """    np.put_along_axis(r, k, 0.0, axis=-1)  # from here r_k is out of r
    s = r.sum(axis=-1, keepdims=True)
    q = (r * x).sum(axis=-1, keepdims=True)
    margins = r_k * ((1.0 - x_k) - x) + (1.0 - x) * (s - r) - (q - r * x)
    own = (r * ((1.0 - x_k) - x)).sum(axis=-1, keepdims=True)
    np.put_along_axis(margins, k, own, axis=-1)
""", """    s = r.sum(axis=-1, keepdims=True)
    q = (r * x).sum(axis=-1, keepdims=True)
    margins = (1.0 - x) * (s - r) - (q - r * x)
"""), [
            test_closed_forms.test_margin_matches_exact_arithmetic_near_every_vertex,
        ]),
    "stationary vector on the right": (
        edit(topology.stationary_vector, "np.swapaxes(matrix, -1, -2)", "matrix"), [
            test_topology.TestDominantLeftEigenvector().test_c2_matches_dense_eigensolver,
        ]),
    "star centre radius by clipping": (
        edit(analysis.contraction_radii,
             "np.where(at_star(gamma), 0.0, (1.0 - 2.0 * gamma) / (1.0 - gamma))",
             "np.maximum((1.0 - 2.0 * gamma) / (1.0 - gamma), 0.0)"), [
            test_analysis.TestContractionRadii().test_near_star_centre_gives_zero,
            test_cli.TestAnalyze().test_near_star_centre_has_radius_zero,
        ]),
    "boundary gap rule dropped": (
        # states down to r = F, where df_map's rounding decides the margin's sign
        edit(verification._face_states, " & (gap >= 4 * (n + 4) * 2.0 ** -53)", ""), [
            functools.partial(test_analysis.TestVerificationSuite().test_boundary_check_passes_near_a_star,
                              w=0.99999),
            test_analysis.TestVerificationSuite().test_boundary_check_passes_within_2e_9_of_a_star,
        ]),
    "boundary grid from 2 r_j": (
        # beyond the band, where the lemma is false; its gap is < 0, so no state is kept
        edit(verification._face_states, "0.5 ** np.arange(1, 40)", "0.5 ** np.arange(-1, 38)"), [
            test_cli.TestVerifyCommand().test_passes_on_example_group_program,
        ]),
    "boundary j at a star centre": (
        # the centre's band is empty: it keeps no state
        edit(verification._face_states, "np.where(kept[..., 0], gammas, 0.0).argmax(axis=-1)",
             "gammas.argmax(axis=-1)"), [
            functools.partial(test_cli.TestVerifyCommand().test_boundary_check_tests_a_leaf_of_a_star,
                              seed=0),
            functools.partial(test_analysis.TestVerificationSuite().test_boundary_check_maps_every_face_state,
                              gamma=np.array([0.5, 0.25, 0.25])),
        ]),
    "oracle returns NaN for one state": (
        edit(degroot.appraisal_step_via_zeta, "return stationary_vector(build_w(x, C))",
             "v = stationary_vector(build_w(x, C)); v.reshape(-1, v.shape[-1])[0] = np.nan; return v"), [
            test_analysis.TestVerificationSuite().test_all_checks_pass_on_fixture_matrix,
            test_cli.TestVerifyCommand().test_group6_stdout_is_pinned,
        ]),
    "issues bound at numpy's index range": (
        edit(dynamics.simulate, "> 2 ** ADDRESS_BITS", "> 2 ** 63"), [
            functools.partial(test_cli.TestCountsBeyondTheAddressSpace().test_simulate_issues, issues=10**16),
        ]),
    "samples bound dropped": (
        edit(verification.run_suite, "if 8 * len(matrices) * samples * matrices[0].n > 2 ** ADDRESS_BITS:",
             "if False:"), [
            test_cli.TestCountsBeyondTheAddressSpace().test_verify_samples,
        ]),
    "address guard without K": (
        edit(verification.run_suite, "8 * len(matrices) * samples", "8 * samples"), [
            test_cli.TestCountsBeyondTheAddressSpace().test_verify_samples_of_every_matrix,
        ]),
    "rows paired with the next matrix's gamma": (
        edit(verification.run_suite, "gammas = np.stack([m.gamma for m in matrices])",
             "gammas = np.roll(np.stack([m.gamma for m in matrices]), 1, axis=0)"), [
            functools.partial(test_stacked.test_suite_matches_the_per_matrix_loop, n=6, samples=30, count=2),
            test_cli.TestVerifyCommand().test_group6_stdout_is_pinned,
        ]),
    "periodic order range read as int64": (
        edit(topology.Periodic.realize, "min(self.order)", "np.asarray(self.order, dtype=int).min()"), [
            functools.partial(test_cli.TestSignalIndices().test_out_of_range_index_printed_as_in_the_file,
                              signal={"kind": "periodic", "order": [1, 10**30]},
                              message=f"periodic order [1, {10**30}] out of range 1..2"),
        ]),
    "scripted range read as int64": (
        edit(topology.Scripted.realize, "min(seq)", "np.asarray(seq, dtype=int).min()"), [
            functools.partial(test_cli.TestSignalIndices().test_out_of_range_index_printed_as_in_the_file,
                              signal={"kind": "scripted", "sequence": [1, 2, 10**30]},
                              message=f"scripted index {10**30} out of range 1..2"),
        ]),
    "periodic order printed 0-based": (
        edit(topology.Periodic.realize, "str(i + 1) for i in self.order", "str(i) for i in self.order"), [
            functools.partial(test_cli.TestSignalIndices().test_out_of_range_index_printed_as_in_the_file,
                              signal={"kind": "periodic", "order": [1, 7]},
                              message="periodic order [1, 7] out of range 1..2"),
        ]),
    "vertex index converted whole": (
        edit(cli._parse_init, "len(k) > len(str(n)) or ", ""), [
            functools.partial(test_cli.TestMalformedConfig().test_vertex_index_beyond_the_digit_limit,
                              digits="9" * 5000, shown="9" * 5000),
        ]),
    "fixed point Newton slope without its leading 1.0": (
        # the bracket still converges, to other last bits
        edit(analysis.fixed_point, "float(f / (1.0 + reduce(", "float(f / (reduce("), [
            functools.partial(test_closed_forms.test_fixed_point_matches_reference_on_dirichlet_gammas,
                              alpha=1.0),
            functools.partial(test_closed_forms.test_fixed_point_matches_reference_on_near_stars,
                              n=30, w=0.9),
            functools.partial(test_closed_forms.test_fixed_point_matches_reference_on_uniform_gammas,
                              n=3),
        ]),
    "certificate decided at the best mapped state": (
        edit(verification.check_contraction_certificates, "states[..., 0].min(axis=-1)",
             "states[..., 0].max(axis=-1)"), [
            functools.partial(test_stacked.test_checks_match_per_state_references, n=6),
            test_cli.TestVerifyCommand().test_group6_stdout_is_pinned,
        ]),
    "certificate's H identities without the theta scaling": (
        edit(verification.check_contraction_certificates, "scale = 1.0 - mapped.max(axis=-1)",
             "scale = 1.0"), [
            functools.partial(test_analysis.TestVerificationSuite().test_certificate_passes_near_every_vertex,
                              distance=1e-8),
            functools.partial(test_analysis.TestVerificationSuite().test_certificate_passes_near_every_vertex,
                              distance=1e-11),
        ]),
    "H = Phi Theta in transform_chain": (
        # Theta on the right: H's columns, not its rows, sum to 0
        edit(analysis.transform_chain, "(1.0 / (1.0 - x))[..., :, None] * phi",
             "phi * (1.0 / (1.0 - x))[..., None, :]"), [
            functools.partial(test_stacked.test_transform_chain_matches_outer_product_construction, n=6),
            test_analysis.TestVerificationSuite().test_all_checks_pass_on_fixture_matrix,
        ]),
    "certificate builds Phi, H at the previous sample": (
        edit(verification.check_contraction_certificates, "transform_chain(mapped[:, i])",
             "transform_chain(mapped[:, i - 1])"), [
            functools.partial(test_stacked.test_checks_match_per_state_references, n=6),
            test_cli.TestVerifyCommand().test_group6_stdout_is_pinned,
        ]),
    "jacobian with one off-diagonal sign flipped": (
        edit(analysis.jacobian, "return J", "J[..., 0, 1] = -J[..., 0, 1]; return J"), [
            functools.partial(test_closed_forms.test_jacobian_is_phi_at_the_image_times_theta,
                              case="random-3"),
            test_acceptance.test_criterion_6_jacobian_against_finite_differences,
        ]),
    "chart y range without its floor": (
        edit(svg.line_chart, "max(ys.max(), 1e-12)", "ys.max()"), [
            test_cli.TestSimulate().test_comparison_of_runs_held_off_its_coordinates,
        ]),
}

CASES = [pytest.param(name, k, id=f"{name}-{k}")
         for name, (_, checks) in MUTANTS.items() for k in range(len(checks))]


@pytest.mark.parametrize("name, k", CASES)
def test_mutant_is_killed(name, k, request, monkeypatch):
    fault, checks = MUTANTS[name]
    check = checks[k]
    needed = [p.name for p in inspect.signature(check).parameters.values() if p.default is p.empty]
    fixtures = {arg: request.getfixturevalue(arg) for arg in needed}
    fault(monkeypatch)
    with pytest.raises((AssertionError, pytest.fail.Exception, SocialPowerError)):
        check(**fixtures)
