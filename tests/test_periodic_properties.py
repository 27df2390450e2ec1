import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from socialpower.dynamics import df_map, simulate
from socialpower.periodic import periodic_fixed_points, verify_periodic_limit
from socialpower.topology import TOLERANCES, Periodic, TopologyProgram, validate
from test_solvers import near_star, sparse_irreducible


def composite(program, p, x):
    """G_p as documented: phase p+1 first, ..., phase p last."""
    order = program.signal.order
    for k in range(1, len(order) + 1):
        x = df_map(x, program.matrices[order[(p + k) % len(order)]].gamma)
    return x


# Dense zero-diagonal programs: every off-diagonal weight in [0.2, 1]
# before row normalization keeps each gamma_i below 0.44, away from a
# star, so a run settles to 1e-8 within 150 issues even from 1e-3 of a
# vertex.
@st.composite
def periodic_programs(draw):
    n = draw(st.integers(3, 7))
    count = draw(st.integers(1, 4))
    matrices = []
    for _ in range(count):
        weights = draw(st.lists(st.floats(0.2, 1.0), min_size=n * n, max_size=n * n))
        w = np.array(weights).reshape(n, n)
        np.fill_diagonal(w, 0.0)
        matrices.append(validate(w / w.sum(axis=1, keepdims=True)))
    return periodic_program(draw, tuple(matrices))


def periodic_program(draw, matrices):
    period = draw(st.integers(2, 4))
    order = draw(st.lists(st.integers(0, len(matrices) - 1), min_size=period, max_size=period))
    return TopologyProgram(matrices, Periodic(tuple(order)))


# The programs whose limit is hardest to solve for: near-stars, whose
# leaf-to-hub weight w up to 0.999 puts gamma_hub near 1/2 so that the
# composite contracts slowly, and sparse cycles.  A near-star run needs
# about 750 issues to settle, so these stay out of the run property.
@st.composite
def slow_periodic_programs(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(4, 30))
    count = draw(st.integers(1, 3))
    if draw(st.booleans()):
        weights = draw(st.lists(st.floats(0.9, 0.999), min_size=count, max_size=count))
        matrices = tuple(validate(near_star(n, w, rng)) for w in weights)
    else:
        matrices = tuple(validate(sparse_irreducible(n, rng)) for _ in range(count))
    return periodic_program(draw, matrices)


# derandomized so that a suite run is reproducible
PROPERTY_SETTINGS = settings(max_examples=30, deadline=None, derandomize=True)


def check_chain_residuals(program):
    limit = periodic_fixed_points(program)
    assert limit.chain_residuals.shape == (len(program.signal.order),)
    assert np.all(limit.chain_residuals <= TOLERANCES.chain)


def check_invariant_under_composite(program):
    limit = periodic_fixed_points(program)
    for p, y in enumerate(limit.fixed_points):
        assert np.abs(composite(program, p, y) - y).sum() <= TOLERANCES.chain


@PROPERTY_SETTINGS
@given(periodic_programs())
def test_property_chain_residuals_within_tolerance(program):
    check_chain_residuals(program)


@PROPERTY_SETTINGS
@given(slow_periodic_programs())
def test_property_slow_chain_residuals_within_tolerance(program):
    check_chain_residuals(program)


@PROPERTY_SETTINGS
@given(periodic_programs())
def test_property_fixed_points_invariant_under_composite(program):
    check_invariant_under_composite(program)


@PROPERTY_SETTINGS
@given(slow_periodic_programs())
def test_property_slow_fixed_points_invariant_under_composite(program):
    check_invariant_under_composite(program)


@PROPERTY_SETTINGS
@given(periodic_programs(), st.integers(0, 2**32 - 1))
def test_property_dirichlet_run_verifies(program, seed):
    limit = periodic_fixed_points(program)
    x0 = np.random.default_rng(seed).dirichlet(np.ones(program.n))
    traj = simulate(program, x0, issues=300)
    ok, worst = verify_periodic_limit(traj, limit, burn_in=200)
    assert ok, f"worst deviation {worst:.3e}"
