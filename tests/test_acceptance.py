"""End-to-end acceptance checks, one per headline guarantee.

Each test prints a single `[criterion N] ... PASS` line on success; a
failure raises before the line is printed, so the assertion message
carries the observed value.
"""

import json
import time

import numpy as np

from socialpower.analysis import (
    contraction_margin,
    convergence_rate,
    equilibrium_upper_bound,
    fixed_point,
    jacobian,
    transform_chain,
    vertex_stability,
)
from socialpower.cli import main
from socialpower.degroot import appraisal_step_via_zeta
from socialpower.dynamics import df_map, limit_gap, simulate
from socialpower.periodic import periodic_fixed_points, verify_periodic_limit
from socialpower.topology import (
    TOLERANCES,
    Constant,
    Periodic,
    RandomUniform,
    TopologyProgram,
    dominant_left_eigenvector,
    max_gamma_profile,
    save_program,
    validate,
)
from socialpower.verification import finite_difference_jacobian, sample_interior
from networks import (
    cycle_matrix,
    interaction_set_6,
    shift_mix_matrix,
    star_matrix,
    switching_program_6,
)

GBAR_EXPECTED = np.array([0.4737, 0.2371, 0.2439, 0.2439, 0.2439, 0.2392])
BOUND_EXPECTED = np.array([0.9, 0.3108, 0.3226, 0.3226, 0.3226, 0.3144])


def _report(num, text):
    print(f"[criterion {num}] {text} PASS")


def test_criterion_1_gamma_profile_via_analyze(tmp_path):
    path = tmp_path / "program.json"
    save_program(switching_program_6(), path)
    start = time.perf_counter()
    assert main(["analyze", str(path), "--out", str(tmp_path)]) == 0
    elapsed = time.perf_counter() - start
    doc = json.loads((tmp_path / "analysis.json").read_text())
    profile = np.array(doc["max_gamma_profile"])
    err = np.abs(profile - GBAR_EXPECTED).max()
    assert err <= 5e-5, f"profile error {err:.2e}"
    assert elapsed < 1.0, f"analyze took {elapsed:.2f}s"
    _report(1, f"max eigenvector profile within 5e-5 (err {err:.1e}, {elapsed * 1000:.0f} ms)")


def test_criterion_2_equilibrium_bound_holds_on_random_run():
    start = time.perf_counter()
    program = switching_program_6(seed=20170825)
    bound = equilibrium_upper_bound(max_gamma_profile(program))
    err = np.abs(bound - BOUND_EXPECTED).max()
    assert err <= 1e-3, f"bound error {err:.2e}"
    traj = simulate(program, np.array([0.95, 0.95, 0.95, 0.0, 0.0, 0.0]), issues=200)
    excess = (traj.states[21:] - bound).max()
    assert excess <= 1e-9, f"state exceeds bound by {excess:.2e}"
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    _report(2, f"equilibrium bound reproduced and respected after s=20 (excess {excess:.1e})")


def test_criterion_3_initial_condition_forgetting():
    program = switching_program_6(seed=20170825)
    hat = simulate(program, np.array([0.95, 0.95, 0.95, 0.0, 0.0, 0.0]), 200)
    tilde = simulate(program, np.array([0.05, 0.05, 0.05, 0.9, 0.05, 0.9]), 200)
    gap = limit_gap(hat, tilde)
    worst_late = gap[20:].max()
    assert worst_late < 1e-6, f"gap after s=20 reaches {worst_late:.2e}"
    jitter = np.diff(gap[2:]).max()
    assert jitter <= 1e-12, f"gap grows by {jitter:.2e} after s=2"
    _report(3, f"far-apart starts merge under a shared signal (late gap {worst_late:.1e})")


def test_criterion_4_contraction_certificate_bulk():
    rng = np.random.default_rng(2026)
    checked = 0
    for n in range(3, 9):
        gamma = rng.dirichlet(np.full(n, 5.0))
        gamma = np.clip(gamma, 0.02, 0.45)
        gamma /= gamma.sum()
        states = [df_map(x, gamma) for x in sample_interior(n, rng, 1500)]
        x = np.full(n, 1.0 / n)
        for _ in range(200):
            x = df_map(x, gamma)
            states.append(x)
        margins = contraction_margin(np.array(states))
        assert margins.min() > 0, f"margin {margins.min()} at n={n}"
        for x_next in states:
            phi, h = transform_chain(x_next)
            assert np.abs(phi - phi.T).max() <= 1e-12
            assert np.abs(phi.sum(axis=0)).max() <= 1e-12
            # eigensolves here are an independent reference: the library
            # certifies the spectrum from entry identities alone
            assert np.linalg.eigvalsh(phi).min() >= -1e-10
            h_eigs = np.linalg.eigvals(h)
            assert np.abs(h_eigs.imag).max() <= 1e-9
            real = h_eigs.real
            assert real.min() >= -1e-10 and real.max() < 1.0
            assert abs(np.trace(h) - 1.0) <= 1e-10
            checked += 1
    assert checked >= 10_000
    _report(4, f"contraction certificate holds on {checked} sampled states, n in 3..8")


def test_criterion_5_opinion_oracle_equivalence():
    rng = np.random.default_rng(11)
    worst = 0.0
    for m in interaction_set_6():
        c = validate(m)
        gamma = dominant_left_eigenvector(c)
        for x in sample_interior(6, rng, 1000):
            gap = np.abs(appraisal_step_via_zeta(x, c) - df_map(x, gamma)).sum()
            worst = max(worst, gap)
    assert worst <= 1e-10, f"oracle gap {worst:.2e}"
    _report(5, f"opinion-consensus oracle matches the closed-form map (worst {worst:.1e})")


def test_criterion_6_jacobian_against_finite_differences():
    rng = np.random.default_rng(13)
    gamma = dominant_left_eigenvector(validate(interaction_set_6()[1]))
    worst_rel, worst_col = 0.0, 0.0
    for x in sample_interior(6, rng, 100):
        nxt = df_map(x, gamma)
        J = jacobian(x, nxt)
        # the complex step; column j relative to x'_j/(1 - x_j), which bounds its entries
        gap = np.abs(J - finite_difference_jacobian(x, gamma)) * (1.0 - x) / nxt
        worst_rel = max(worst_rel, gap.max())
        # the map fixes the coordinate sum, so each derivative column cancels
        worst_col = max(worst_col, np.abs(J.sum(axis=0)).max())
    assert worst_rel <= TOLERANCES.finite_difference, f"relative FD error {worst_rel:.2e}"
    assert worst_col <= 1e-10, f"column sum deviation {worst_col:.2e}"
    _report(6, f"closed-form derivative matches the complex step (rel {worst_rel:.1e})")


def test_criterion_7_rate_bound_small_eigenvector_class():
    matrix = validate(shift_mix_matrix(4, [1, 3], [0.5, 0.5]))
    gamma = dominant_left_eigenvector(matrix)
    assert np.abs(gamma - 0.25).max() <= 1e-12
    rate = convergence_rate([gamma])
    assert rate is not None and abs(rate - 2 / 3) <= 1e-12
    beta = float(np.max(gamma / (1 - gamma)))
    target = fixed_point(gamma)
    program = TopologyProgram((matrix,), Constant(0))
    traj = simulate(program, np.array([0.6, 0.2, 0.1, 0.1]), issues=80)
    inside = np.all(traj.states <= beta - 1e-6, axis=1)
    burn_in = int(np.argmax(inside))
    assert inside[burn_in], "trajectory never entered the rate regime"
    worst_ratio = 0.0
    for s in range(burn_in, traj.states.shape[0] - 1):
        before = np.abs(traj.states[s] - target).sum()
        after = np.abs(traj.states[s + 1] - target).sum()
        if before > 1e-14:
            worst_ratio = max(worst_ratio, after / before)
    assert worst_ratio <= rate + 1e-9, f"ratio {worst_ratio} exceeds rate {rate}"
    _report(7, f"per-issue contraction ratio stays below {rate:.4f} after burn-in s={burn_in}")


def test_criterion_8_star_center_accumulation():
    program = TopologyProgram((validate(star_matrix(5)),), Constant(0))
    traj = simulate(program, np.full(5, 0.2), issues=10_000)
    center = traj.states[:, 0]
    assert np.all(np.diff(center[1:]) > 0), "center power not strictly increasing"
    crossing = int(np.argmax(center > 0.99))
    assert 0 < crossing <= 10_000
    assert crossing == 132, f"crossing moved to s={crossing}"
    _report(8, f"star center passes 0.99 at issue {crossing} (frozen regression)")


def test_criterion_9_periodic_limits():
    for count, burn_in, issues in [(2, 30, 120), (3, 30, 150)]:
        matrices = tuple(validate(m) for m in interaction_set_6()[1:1 + count])
        program = TopologyProgram(matrices, Periodic(tuple(range(count))))
        limit = periodic_fixed_points(program)
        assert limit.chain_residuals.max() <= 1e-10
        traj = simulate(program, np.array([0.9, 0.02, 0.02, 0.02, 0.02, 0.02]), issues)
        ok, worst = verify_periodic_limit(traj, limit, burn_in)
        assert ok, f"P={count} deviation {worst:.2e}"
    _report(9, "periodic programs settle onto chain-consistent per-phase fixed points")


def test_criterion_10_shared_eigenvector_class_stationarity():
    matrices = (
        validate(cycle_matrix(5)),
        validate(np.roll(np.eye(5), -1, axis=1)),
        validate(shift_mix_matrix(5, [1, 2], [0.5, 0.5])),
    )
    program = TopologyProgram(matrices, RandomUniform(7))
    traj = simulate(program, np.array([0.6, 0.0667, 0.1333, 0.2, 0.0]), issues=60)
    dev = np.abs(traj.states[60] - 0.2).max()
    assert dev <= 1e-8, f"deviation {dev:.2e} at s=60"
    _report(10, f"doubly stochastic switching reaches the uniform split (dev {dev:.1e})")


def test_criterion_11_vertex_classification():
    eigenvalues, centres = vertex_stability(np.array([0.4, 0.35, 0.25]))
    assert not centres[0]
    assert eigenvalues[0] == 1.5
    star_gamma = dominant_left_eigenvector(validate(star_matrix(5)))
    _, centres = vertex_stability(star_gamma)
    assert centres[0]
    _report(11, "autocratic vertices classified: unstable off-star, marginal at a star center")
