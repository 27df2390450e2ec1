import numpy as np
import pytest

from socialpower import errors
from socialpower.degroot import appraisal_step_via_zeta, build_w
from socialpower.dynamics import df_map
from socialpower.topology import dominant_left_eigenvector, validate
from networks import interaction_set_6, star_matrix


class TestBuildW:
    def test_zero_state_gives_interaction_matrix(self):
        c = validate(interaction_set_6()[0])
        assert np.array_equal(build_w(np.zeros(6), c), c.entries)

    def test_star_row(self):
        w = build_w(np.array([0.4, 0.3, 0.3]), validate(star_matrix(3)))
        assert np.allclose(w[0], [0.4, 0.3, 0.3])
        assert np.allclose(w[1], [0.7, 0.3, 0.0])

    def test_rows_stochastic(self):
        rng = np.random.default_rng(2)
        c = validate(interaction_set_6()[1])
        for _ in range(50):
            x = np.clip(rng.dirichlet(np.ones(6)), 0, 0.9)
            w = build_w(x, c)
            assert np.abs(w.sum(axis=1) - 1).max() <= 1e-12
            assert w.min() >= 0

    def test_self_weight_one_rejected(self):
        with pytest.raises(errors.ValidationError):
            build_w(np.array([1.0, 0.0, 0.0]), validate(star_matrix(3)))

    def test_nan_self_weight_rejected(self):
        # NaN fails every comparison, so it must fail the check as written, not
        # surface later as a stationary vector rejected with residual nan
        x = np.array([[0.1, 0.2, 0.3], [0.2, np.nan, 0.1]])
        with pytest.raises(errors.ValidationError, match="0 <= x_i < 1"):
            appraisal_step_via_zeta(x, validate(star_matrix(3)))

    def test_near_full_self_weight_row(self):
        w = build_w(np.array([1 - 1e-9, 0.0, 0.0]), validate(star_matrix(3)))
        assert np.allclose(w[0], [1 - 1e-9, 0.5e-9, 0.5e-9])


class TestAppraisalEquivalence:
    def test_uniform_gives_gamma(self):
        c = validate(star_matrix(3))
        out = appraisal_step_via_zeta(np.full(3, 1 / 3), c)
        assert np.abs(out - dominant_left_eigenvector(c)).max() <= 1e-10

    def test_matches_closed_form_on_random_states(self):
        # the opinion oracle and the closed-form map must agree
        c = validate(interaction_set_6()[1])
        gamma = dominant_left_eigenvector(c)
        rng = np.random.default_rng(7)
        for _ in range(25):
            x = np.clip(rng.dirichlet(np.full(6, 0.8)), 1e-6, 0.95)
            x = x / x.sum() * rng.uniform(0.3, 1.0)
            oracle = appraisal_step_via_zeta(x, c)
            closed = df_map(x, gamma)
            assert np.abs(oracle - closed).max() <= 1e-10

    def test_matches_closed_form_on_every_fixture_matrix(self):
        x = np.array([0.3, 0.1, 0.15, 0.2, 0.05, 0.1])
        for m in interaction_set_6():
            c = validate(m)
            gamma = dominant_left_eigenvector(c)
            assert np.abs(appraisal_step_via_zeta(x, c) - df_map(x, gamma)).max() <= 1e-10
