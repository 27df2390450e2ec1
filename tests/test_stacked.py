"""Stacked evaluation: a stack of states or matrices gives, row for row,
bit-identical results to one call per row, and `verify`'s chunked
checks give the same results as one unchunked pass."""

import numpy as np
import pytest

from socialpower.analysis import jacobian
from socialpower.degroot import appraisal_step_via_zeta, build_w
from socialpower.dynamics import df_map
from socialpower.errors import NoConvergence
from socialpower.fixtures import interaction_set_6
from socialpower.topology import stationary_vector, validate
from socialpower import verification
from socialpower.verification import finite_difference_jacobian, run_suite, sample_interior

# (n, rows): rows are few at n = 400, where one (n, n) stack entry is 1.3 MB
SIZES = [(3, 20), (6, 20), (30, 20), (400, 2)]


def random_matrix(n, rng):
    m = rng.uniform(0.1, 1.0, (n, n))
    np.fill_diagonal(m, 0.0)
    return validate(m / m.sum(axis=1, keepdims=True))


@pytest.fixture(params=SIZES, ids=[f"n{n}" for n, _ in SIZES])
def case(request):
    n, rows = request.param
    rng = np.random.default_rng(n)
    matrix = random_matrix(n, rng)
    return matrix, sample_interior(n, rng, rows)


def assert_rows_equal(stacked, per_row):
    assert np.array_equal(stacked, np.array(per_row))


def test_df_map(case):
    matrix, xs = case
    assert_rows_equal(df_map(xs, matrix.gamma), [df_map(x, matrix.gamma) for x in xs])


def test_jacobian(case):
    matrix, xs = case
    nxt = df_map(xs, matrix.gamma)
    assert_rows_equal(jacobian(xs, nxt), [jacobian(x, y) for x, y in zip(xs, nxt)])


def test_finite_difference_jacobian(case):
    matrix, xs = case
    assert_rows_equal(
        finite_difference_jacobian(xs, matrix.gamma),
        [finite_difference_jacobian(x, matrix.gamma) for x in xs],
    )


def test_appraisal_step_via_zeta(case):
    matrix, xs = case
    assert_rows_equal(
        appraisal_step_via_zeta(xs, matrix), [appraisal_step_via_zeta(x, matrix) for x in xs]
    )


def test_stationary_vector(case):
    matrix, xs = case
    ws = build_w(xs, matrix)
    assert_rows_equal(ws, [build_w(x, matrix) for x in xs])
    assert_rows_equal(stationary_vector(ws), [stationary_vector(w) for w in ws])


def test_finite_difference_perturbs_one_entry_per_column():
    # column j of the Jacobian moves x_j alone, by exactly +-FD_STEP
    x = np.array([0.2, 0.3, 0.5])
    gamma = np.array([0.25, 0.35, 0.4])
    J = finite_difference_jacobian(x, gamma)
    for j in range(3):
        hi, lo = x.copy(), x.copy()
        hi[j] += verification.FD_STEP
        lo[j] -= verification.FD_STEP
        expected = (df_map(hi, gamma) - df_map(lo, gamma)) / (2 * verification.FD_STEP)
        assert np.array_equal(J[:, j], expected)


def test_defective_matrix_in_stack_is_named():
    # matrix 2 of the stack leaves node 3 transient: its stationary
    # vector has a zero entry, which the positivity check rejects
    good = np.array([[0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]])
    transient = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.5, 0.5, 0.0]])
    stack = np.array([good, good, transient, good])
    with pytest.raises(NoConvergence, match=r"stationary vector of matrix 2 rejected"):
        stationary_vector(stack)
    with pytest.raises(NoConvergence, match=r"^stationary vector rejected"):
        stationary_vector(transient)


@pytest.mark.parametrize("n", [6, 30])
def test_chunked_suite_equals_unchunked(monkeypatch, n):
    if n == 6:
        matrix = validate(interaction_set_6()[1])
    else:
        matrix = random_matrix(n, np.random.default_rng(1))
    whole = run_suite(matrix, 40, seed=3)
    # 3 samples per chunk for the (n, n) stacks, 3 * n for the states
    monkeypatch.setattr(verification, "CHUNK_FLOATS", 3 * n * n)
    assert run_suite(matrix, 40, seed=3) == whole
