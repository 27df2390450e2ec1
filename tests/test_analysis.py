import dataclasses
import re
import tracemalloc

import numpy as np
import pytest

import socialpower
from socialpower import analysis, errors, verification
from socialpower.analysis import (
    contraction_margin,
    contraction_radii,
    convergence_rate,
    equilibrium_upper_bound,
    fixed_point,
    jacobian,
    transform_chain,
    vertex_stability,
)
from socialpower.dynamics import VERTEX_MAX, df_map
from socialpower.topology import (
    TOLERANCES,
    Tolerances,
    dominant_left_eigenvector,
    max_gamma_profile,
    validate,
)
from socialpower.verification import (
    check_contraction_certificates,
    finite_difference_jacobian,
    run_suite,
    sample_interior,
)
from networks import interaction_set_6, near_star3, star_matrix, switching_program_6
from test_solvers import near_star

GAMMA_EXAMPLE = np.array([0.4, 0.35, 0.25])


class TestJacobian:
    def test_uniform_three_node_values(self):
        x = np.full(3, 1 / 3)
        J = jacobian(x, x)
        assert np.allclose(np.diag(J), 1 / 3, atol=1e-14)
        off = J[~np.eye(3, dtype=bool)]
        assert np.allclose(off, -1 / 6, atol=1e-14)

    def test_columns_sum_to_zero(self):
        # the map keeps the simplex sum at 1, so derivative columns cancel
        rng = np.random.default_rng(3)
        gamma = dominant_left_eigenvector(validate(interaction_set_6()[2]))
        for x in sample_interior(6, rng, 40):
            J = jacobian(x, df_map(x, gamma))
            assert np.abs(J.sum(axis=0)).max() <= 1e-12

    def test_matches_finite_differences(self):
        # the complex step, column j relative to x'_j/(1 - x_j)
        gamma = dominant_left_eigenvector(validate(interaction_set_6()[1]))
        rng = np.random.default_rng(9)
        for x in sample_interior(6, rng, 10):
            nxt = df_map(x, gamma)
            gap = np.abs(jacobian(x, nxt) - finite_difference_jacobian(x, gamma))
            assert (gap * (1.0 - x) / nxt).max() <= TOLERANCES.finite_difference

    def test_near_vertex_rejected(self):
        # one ulp past the map's guard, with every entry > 0
        top = np.nextafter(VERTEX_MAX, 2.0)
        x = np.array([top, (1 - top) / 2, (1 - top) / 2])
        with pytest.raises(errors.NearVertex, match="^state within 1e-14 of a vertex"):
            jacobian(x, x)


class TestTransformChain:
    def test_uniform_values_and_norm(self):
        x = np.full(3, 1 / 3)
        _, h = transform_chain(x)
        assert np.allclose(np.diag(h), 1 / 3, atol=1e-14)
        assert np.allclose(h[~np.eye(3, dtype=bool)], -1 / 6, atol=1e-14)
        assert np.abs(h).sum(axis=0).max() == pytest.approx(2 / 3, abs=1e-14)
        assert contraction_margin(x[None])[0] == pytest.approx(1 / 3, abs=1e-14)

    def test_symmetric_factor_is_psd_with_one_null_direction(self):
        rng = np.random.default_rng(4)
        for x in sample_interior(5, rng, 40):
            phi, _ = transform_chain(x)
            assert np.abs(phi - phi.T).max() <= 1e-14
            eigs = np.sort(np.linalg.eigvalsh(phi))
            assert eigs[0] >= -1e-12
            assert abs(eigs[0]) <= 1e-10
            assert eigs[1] > 1e-10
            # rows of the symmetric factor sum to zero
            assert np.abs(phi.sum(axis=1)).max() <= 1e-13

    def test_h_trace_and_spectrum(self):
        rng = np.random.default_rng(5)
        for x in sample_interior(5, rng, 40):
            _, h = transform_chain(x)
            assert abs(np.trace(h) - 1) <= 1e-12
            eigs = np.linalg.eigvals(h)
            assert np.abs(np.imag(eigs)).max() <= 1e-9
            real = np.real(eigs)
            assert real.min() >= -1e-10
            assert real.max() < 1

    def test_certificate_at_fixture_fixed_point(self):
        gamma = dominant_left_eigenvector(validate(interaction_set_6()[1]))
        assert contraction_margin(fixed_point(gamma)[None])[0] > 0

    def test_equals_jacobian_product(self):
        rng = np.random.default_rng(6)
        for x in sample_interior(4, rng, 20):
            phi, h = transform_chain(x)
            theta = 1 / (1 - x)
            assert np.allclose(theta[:, None] * phi, h, atol=1e-13)


class TestContractionRadii:
    def test_uniform_gamma_three(self):
        radii = contraction_radii(np.full(3, 1 / 3))
        assert np.allclose(radii, 0.5, atol=1e-15)

    def test_star_weight_gives_zero(self):
        radii = contraction_radii(np.array([0.5, 0.25, 0.25]))
        assert radii[0] == 0.0
        assert radii[1] == pytest.approx(2 / 3, abs=1e-15)

    def test_small_weight(self):
        assert contraction_radii(np.array([1 / 6] * 6))[0] == pytest.approx(0.8, abs=1e-15)

    def test_near_star_centre_gives_zero(self):
        # gamma_1 = 1/2 - 5e-10 is a star centre by `at_star`; its own
        # formula would give a band of width about 2e-9
        gamma = np.array([0.5 - 5e-10, 0.25 + 2.5e-10, 0.25 + 2.5e-10])
        assert contraction_radii(gamma).tolist()[0] == 0.0
        assert contraction_radii(gamma)[1:].min() > 0.6

    def test_never_negative(self):
        radii = contraction_radii(np.array([0.6, 0.2, 0.2]))
        assert radii.min() >= 0


class TestEquilibriumBound:
    def test_example_group_profile(self):
        profile = max_gamma_profile(switching_program_6())
        bound = equilibrium_upper_bound(profile)
        expected = [0.9, 0.3108, 0.3226, 0.3226, 0.3226, 0.3144]
        assert np.abs(bound - expected).max() <= 1e-3

    def test_uniform(self):
        bound = equilibrium_upper_bound(np.full(4, 0.25))
        assert np.allclose(bound, 1 / 3, atol=1e-15)

    def test_star_profile_rejected(self):
        with pytest.raises(errors.StarTopology):
            equilibrium_upper_bound(np.array([0.5, 0.25, 0.25]))


class TestConvergenceRate:
    def test_small_uniform(self):
        assert convergence_rate([np.full(6, 1 / 6)]) == pytest.approx(0.4, abs=1e-15)

    def test_four_sixths_profile(self):
        rate = convergence_rate([np.array([0.3, 0.3, 0.2, 0.2])])
        assert rate == pytest.approx(6 / 7, abs=1e-12)

    def test_not_applicable_above_one_third(self):
        profile = max_gamma_profile(switching_program_6())
        assert convergence_rate([profile]) is None

    def test_boundary_value(self):
        assert convergence_rate([np.array([1 / 3, 1 / 3, 1 / 3])]) is None


class TestVertexStability:
    def test_unstable_when_gamma_large(self):
        eigenvalues, centres = vertex_stability(GAMMA_EXAMPLE)
        assert not centres[0]
        assert eigenvalues[0] == pytest.approx(1.5, abs=1e-12)

    def test_star_center_boundary(self):
        eigenvalues, centres = vertex_stability(np.array([0.5, 0.25, 0.25]))
        assert centres[0]
        assert eigenvalues[0] == pytest.approx(1.0, abs=1e-12)

    def test_small_gamma_eigenvalue(self):
        eigenvalues, centres = vertex_stability(np.full(6, 1 / 6))
        assert eigenvalues[2] == pytest.approx(5.0, abs=1e-12)
        assert not centres[2]


class TestFixedPoint:
    def test_uniform_gamma(self):
        x = fixed_point(np.full(4, 0.25))
        assert np.abs(x - 0.25).max() <= 1e-12

    def test_example_gamma_frozen(self):
        x = fixed_point(GAMMA_EXAMPLE)
        # frozen from long iteration with residual below 1e-13
        assert np.abs(x - [0.48387096774193544, 0.3225806451612903, 0.19354838709677424]).max() <= 1e-10
        assert np.abs(df_map(x, GAMMA_EXAMPLE) - x).max() <= 1e-13

    def test_ordering_and_bound(self):
        gamma = dominant_left_eigenvector(validate(interaction_set_6()[1]))
        x = fixed_point(gamma)
        assert np.array_equal(np.argsort(x), np.argsort(gamma))
        assert np.all(x <= gamma / (1 - gamma) + 1e-12)

    def test_star_rejected(self):
        gamma = dominant_left_eigenvector(validate(star_matrix(5)))
        with pytest.raises(errors.StarTopology):
            fixed_point(gamma)

    @pytest.mark.parametrize("gamma, problem", [
        # a NaN makes every Newton step NaN: unchecked, the loop never ends
        ([0.3, np.nan, 0.2], "gamma entry 2 = nan is not finite"),
        ([0.3, np.inf, 0.2], "gamma entry 2 = inf is not finite"),
        # unchecked, this gives an "equilibrium" with x_2 < 0 that passes
        # its own residual check
        ([0.3, -0.1, 0.4, 0.4], "gamma entry 2 = -0.1 is not > 0"),
        ([0.5, 0.5, 0.0], "gamma entry 3 = 0.0 is not > 0"),
        # unchecked, the star test would reject this as a star
        ([3.0, 2.0, 5.0], "gamma sums to 10.0, not 1 within 1e-10"),
        # the sum overflows: rejected without a RuntimeWarning
        ([1e308, 1e308], "gamma sums to inf, not 1 within 1e-10"),
        # unchecked, numpy raises a bare ValueError or IndexError
        (np.full((2, 3), 1 / 6), "gamma as one nonempty vector, got shape (2, 3)"),
        (0.5, "gamma as one nonempty vector, got shape ()"),
        ([], "gamma as one nonempty vector, got shape (0,)"),
    ], ids=["nan", "inf", "negative", "zero", "sum", "overflow", "2-d", "0-d", "empty"])
    @pytest.mark.filterwarnings("error")
    def test_bad_gamma_rejected(self, gamma, problem):
        with pytest.raises(errors.ValidationError, match=re.escape(problem)):
            fixed_point(gamma)

    def test_residual_beyond_tolerance_rejected(self, monkeypatch):
        # every residual, even an exact 0, exceeds a negative tolerance
        x = fixed_point(GAMMA_EXAMPLE)
        residual = np.abs(df_map(x, GAMMA_EXAMPLE) - x).sum()
        monkeypatch.setattr(analysis, "TOLERANCES", dataclasses.replace(TOLERANCES, fixed_point=-1.0))
        with pytest.raises(errors.NoConvergence) as info:
            fixed_point(GAMMA_EXAMPLE)
        assert str(info.value) == f"fixed point residual {residual:.3e} above -1e+00"


class TestTolerances:
    def test_defaults(self):
        # every output is computed against these values; pin all of them
        assert dataclasses.asdict(Tolerances()) == {
            "structural_zero": 1e-15,
            "row_sum": 1e-12,
            "eigen_residual": 1e-12,
            "vertex_guard": 1e-14,
            "star_gamma": 1e-9,
            "structure": 1e-10,
            "fixed_point": 1e-13,
            "periodic_limit": 1e-8,
            "finite_difference": 1e-13,
            "certificate_structure": 1e-9,
            "oracle_gap": 1e-10,
            "bound_slack": 1e-9,
        }
        assert TOLERANCES == Tolerances()
        assert socialpower.Tolerances is Tolerances


# gamma_1 = 2^-42, below F: r_1 lies within 2^-42 of 1
BELOW_FLOOR = np.array([2.0 ** -42, 1 / 3, 1 / 3, 1 / 3 - 2.0 ** -42])


class TestVerificationSuite:
    def test_all_checks_pass_on_fixture_matrix(self):
        (results,) = run_suite([validate(interaction_set_6()[1])], samples=40, seed=0)
        assert len(results) == 4 and all(r.passed for r in results)

    def test_oracle_check_fails_on_a_nan_gap(self, monkeypatch):
        # one state's oracle step is NaN: its gap is NaN, which no fold of
        # the worst gap may turn into a pass, alone or in the suite
        real = verification.appraisal_step_via_zeta

        def one_nan(x, entries):
            out = real(x, entries)
            out[..., 0, 0] = np.nan
            return out

        monkeypatch.setattr(verification, "appraisal_step_via_zeta", one_nan)
        matrix = validate(interaction_set_6()[1])
        res = verification.check_oracle_equivalence(matrix, np.random.default_rng(0), 30)
        assert not res.passed and np.isnan(res.worst_margin)
        (results,) = run_suite([matrix], samples=30, seed=0)
        assert [r.passed for r in results] == [True, True, False, True]
        assert np.isnan(results[2].worst_margin)

    def test_negative_seed_rejected(self):
        # checked before the samples, so a run with both wrong names the seed
        with pytest.raises(errors.ValidationError, match="random seed -1 is negative"):
            run_suite([validate(interaction_set_6()[1])], samples=0, seed=-1)

    def test_no_matrix_rejected(self):
        with pytest.raises(errors.ValidationError, match="no matrix to check"):
            run_suite([], samples=10, seed=0)

    def test_reports_named_checks(self):
        (results,) = run_suite([validate(interaction_set_6()[2])], samples=10, seed=1)
        names = {r.name for r in results}
        assert "jacobian_finite_difference" in names
        assert "contraction_certificate" in names
        assert "opinion_oracle_equivalence" in names
        assert "boundary_contraction_step" in names

    @pytest.mark.parametrize("gamma", [
        np.array([0.5, 0.25, 0.25]),  # a star: the centre's band is empty
        np.full(30, 1 / 30),
        BELOW_FLOOR,
    ], ids=["star", "uniform30", "below_floor"])
    def test_boundary_check_maps_every_face_state(self, gamma):
        # every kept state lies in the boundary lemma's hypothesis: x_j =
        # 1 - r exactly with F <= r <= r_j/2 (up to the rounding of 1 - r),
        # its mass r on the other individual with the least gamma; r halves
        # from state to state; j is no star centre, and the check maps
        # every kept state to a margin < 0
        radii = contraction_radii(gamma)
        (j,), (x,), (kept,) = verification._face_states(gamma[None])
        x = x[kept]
        r = 1.0 - x[:, j]
        m = np.argmin(np.where(np.arange(gamma.size) == j, np.inf, gamma))
        assert radii[j] > 0 and len(x) >= 1
        assert np.array_equal(x[:, m], r) and (x.sum(axis=1) == 1.0).all()
        assert np.count_nonzero(x, axis=1).max() == 2
        assert (verification.BOUNDARY_FLOOR <= r).all() and (r <= radii[j] / 2 * (1 + 2.0 ** -40)).all()
        assert np.allclose(r[1:] / r[:-1], 0.5, rtol=2.0 ** -12, atol=0)
        res = verification.check_boundary_step(gamma)
        assert res.passed and res.worst_margin < 0

    @pytest.mark.parametrize("w", [0.9999, 0.99999, 0.999999])
    def test_boundary_check_passes_near_a_star(self, w):
        # gamma_hub = w/(1 + w) is 2.5e-5 to 2.5e-7 below 1/2: the hub keeps
        # states, but not those whose gap G(r) is below 4(n + 4)u, where
        # df_map's rounding decides the sign of the margin
        gammas = np.stack([validate(near_star(30, w, np.random.default_rng(s))).gamma
                           for s in range(10)])
        results = verification.check_boundary_step(gammas)
        assert all(res.passed for res in results), results

    def test_boundary_check_passes_within_2e_9_of_a_star(self):
        # gamma_1 = 1/2 - 2.5e-9, outside Tolerances.star_gamma: r_1 is about
        # 1e-8, so no state of individual 1 has a gap of 4(n + 4)u, and j is a leaf
        res = verification.check_boundary_step(validate(near_star3(1e-8)).gamma)
        assert res.passed and res.worst_margin < 0

    def test_suite_of_several_matrices_peaks_at_one_chunk(self):
        # the checks hold the (K, S, n) samples whole and work on them one
        # chunk at a time: at n = 400 a chunk is one sample of each matrix,
        # and the Jacobian check's peak holds two copies of its complex
        # step stack (the stack and its image under the map; the stack is
        # freed before the quotient, and the Jacobian pair is built after
        # it); the four samples of each matrix in one chunk would hold 8
        n, count, samples = 400, 3, 4
        rng = np.random.default_rng(0)
        matrices = []
        for _ in range(count):
            m = rng.uniform(0.1, 1.0, (n, n))
            np.fill_diagonal(m, 0.0)
            matrices.append(validate(m / m.sum(axis=1, keepdims=True)))
        chunk = count * 2 * n * n * 8  # bytes of one chunk's complex step stack
        assert verification.CHUNK_FLOATS < count * 2 * n * n
        tracemalloc.start()
        try:
            results = run_suite(matrices, samples, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(r.passed for checks in results for r in checks)
        assert peak <= count * samples * n * 8 + 2.25 * chunk

    @pytest.mark.parametrize("distance", [1e-8, 1e-9, 1e-10, 1e-11])
    def test_certificate_passes_near_every_vertex(self, monkeypatch, distance):
        # draws `distance` from each vertex of group6 matrix 1 map to states
        # about 5 * distance from it, where max theta is 2e7 to 2e10: an
        # absolute identity on H sees rounding of order 1e-9 to 1e-6 there,
        # relative to max theta a few ulp; the closed-form margin stays > 0
        gamma = validate(interaction_set_6()[0]).gamma
        rng = np.random.default_rng(0)
        xs = np.concatenate([np.insert(rng.dirichlet(np.ones(5), 50) * distance, i, 1.0 - distance,
                                       axis=1) for i in range(6)])
        monkeypatch.setattr(verification, "sample_interior", lambda n, rng, count: xs)
        res = check_contraction_certificates(gamma, np.random.default_rng(0), len(xs))
        assert res.passed, res
        assert 0 < res.worst_margin < 1e-3  # the margin itself, not 1 - margin
        assert float(res.detail.split()[-1]) <= 1e-15

    def test_certificate_checks_mapped_states_down_to_the_map_guard(self, monkeypatch):
        # draws 3e-13 from each vertex of group6 matrices 2 and 5 map to
        # states down to 3.3e-13 from it: inside the map's guard, so inside
        # the certificate's domain, which passes there instead of raising
        gammas = np.stack([validate(interaction_set_6()[k]).gamma for k in (1, 4)])
        rng = np.random.default_rng(0)
        xs = np.concatenate([np.insert(rng.dirichlet(np.ones(5), 50) * 3e-13, i, 1.0 - 3e-13,
                                       axis=1) for i in range(6)])
        monkeypatch.setattr(verification, "sample_interior", lambda n, rng, count: xs)
        assert [1.0 - df_map(xs, gamma).max() < 1e-12 for gamma in gammas] == [True, True]
        results = check_contraction_certificates(gammas, [np.random.default_rng(k) for k in (1, 4)], len(xs))
        for res in results:
            assert res.passed, res
            assert 0 < res.worst_margin < 1e-20
            assert float(res.detail.split()[-1]) <= 1e-15
