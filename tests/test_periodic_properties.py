"""Properties of the periodic limit on generated programs.

`periodic_fixed_points` solves the orbit on P normalisers; it is checked
against the chain relation bit for bit, against the composite maps,
against a simulated run, against exact rational arithmetic, and against
`periodic_reference`, the n-dimensional Newton solve it replaced; every
solve is held to a few evaluations of `_orbits`.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from socialpower import periodic
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
def periodic_programs(draw, max_n=7, periods=(2, 4)):
    n = draw(st.integers(3, max_n))
    count = draw(st.integers(1, 4))
    matrices = []
    for _ in range(count):
        weights = draw(st.lists(st.floats(0.2, 1.0), min_size=n * n, max_size=n * n))
        w = np.array(weights).reshape(n, n)
        np.fill_diagonal(w, 0.0)
        matrices.append(validate(w / w.sum(axis=1, keepdims=True)))
    return periodic_program(draw, tuple(matrices), periods)


def periodic_program(draw, matrices, periods=(2, 4)):
    period = draw(st.integers(*periods))
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


# Near-stars whose hub differs by matrix: matrix h has its hub at node h,
# so the individual the solve parametrises by leads in some phases and
# trails in others.  w up to 0.9999 puts a hub within 3e-5 of a star.
@st.composite
def hub_switching_programs(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(4, 30))
    matrices = []
    for h in range(draw(st.integers(2, 3))):
        swap = np.arange(n)
        swap[[0, h]] = swap[[h, 0]]
        m = near_star(n, draw(st.floats(0.6, 0.9999)), rng)
        matrices.append(validate(m[np.ix_(swap, swap)]))
    return periodic_program(draw, tuple(matrices))


# The same near-stars from one seed, under a long order of 7-12 phases.
# Seeds 33, 78, 228 and 345 stalled or failed a solve that started from
# each phase's bound shape and halved its steps; seed 175 fails from the
# orbit one cycle on.
def seeded_hub_switching_program(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 31))
    matrices = []
    for h in range(int(rng.integers(2, 4))):
        swap = np.arange(n)
        swap[[0, h]] = swap[[h, 0]]
        m = near_star(n, rng.uniform(0.6, 0.9999), rng)
        matrices.append(validate(m[np.ix_(swap, swap)]))
    order = rng.integers(0, len(matrices), int(rng.integers(7, 13)))
    return TopologyProgram(tuple(matrices), Periodic(tuple(order.tolist())))


# A long order: twelve phases over three 30-node matrices of one kind.
@st.composite
def long_order_programs(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        matrices = tuple(validate(sparse_irreducible(30, rng)) for _ in range(3))
    else:
        matrices = tuple(validate(near_star(30, w, rng)) for w in rng.uniform(0.9, 0.999, 3))
    return periodic_program(draw, matrices, (12, 12))


# derandomized so that a suite run is reproducible
PROPERTY_SETTINGS = settings(max_examples=30, deadline=None, derandomize=True)


def periodic_reference(program):
    """y_0 ... y_{P-1} from the n-dimensional Newton solve that the
    P-normaliser solve replaced: dense Jacobian products of G_0 and one
    linear solve a step, from the uniform vector, until ||G_0(x) - x||_1
    stops falling or a step leaves the open simplex."""
    gammas = [program.matrices[i].gamma for i in program.signal.order]
    cycle = gammas[1:] + gammas[:1]
    x, best = np.full(program.n, 1.0 / program.n), np.inf
    while True:
        states, jac = [x], np.eye(program.n)
        for gamma in cycle:
            states.append(df_map(states[-1], gamma))
            jac = (states[-1] / (1.0 - states[-2]))[:, None] * jac
            jac -= np.outer(states[-1], jac.sum(axis=0))
        residual = np.abs(states[-1] - x).sum()
        if not residual < best:
            break
        best, points = residual, states[:-1]
        if residual == 0:
            break
        x = x + np.linalg.solve(jac - np.eye(program.n), x - states[-1])
        if not np.all((x > 0) & (x < 1)):
            break
    return points


def exact_composite_gap(program, y):
    """||G_0(y) - y||_1 in exact rational arithmetic on the floats of y and gamma."""
    order = program.signal.order
    gammas = [[Fraction(g) for g in program.matrices[i].gamma.tolist()] for i in order]
    start = x = [Fraction(v) for v in y.tolist()]
    for gamma in gammas[1:] + gammas[:1]:
        x = [g / (1 - v) for g, v in zip(gamma, x)]
        total = sum(x)
        x = [v / total for v in x]
    return sum(abs(a - b) for a, b in zip(x, start))


def check_matches_reference(program, tol=1e-12):
    limit = periodic_fixed_points(program)
    for got, want in zip(limit.fixed_points, periodic_reference(program), strict=True):
        assert np.abs(got - want).max() <= tol


def check_chain_residuals(program):
    limit = periodic_fixed_points(program)
    assert limit.chain_residuals.shape == (len(program.signal.order),)
    assert np.all(limit.chain_residuals <= TOLERANCES.fixed_point)
    # every link ||F_{p+1}(y_p) - y_{p+1}||_1 recomputed, bit for bit
    gammas = [program.matrices[i].gamma for i in program.signal.order]
    points, period = limit.fixed_points, len(gammas)
    chain = [np.abs(df_map(points[p], gammas[(p + 1) % period]) - points[(p + 1) % period]).sum()
             for p in range(period)]
    assert np.array_equal(limit.chain_residuals, chain)


def evaluations(program):
    """The number of `_orbits` calls that solving `program` takes."""
    orbits, calls = periodic._orbits, []

    def counted(*args):
        calls.append(None)
        return orbits(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(periodic, "_orbits", counted)
        periodic_fixed_points(program)
    return len(calls)


def check_invariant_under_composite(program):
    limit = periodic_fixed_points(program)
    for p, y in enumerate(limit.fixed_points):
        assert np.abs(composite(program, p, y) - y).sum() <= TOLERANCES.fixed_point


def sparse_cycle_program():
    """Two sparse 4-node phases whose solve closes at a residual of
    2.8e-16 (so do 391 of the programs drawn from seeds 0-399)."""
    rng = np.random.default_rng(63)
    matrices = tuple(validate(sparse_irreducible(4, rng)) for _ in range(2))
    return TopologyProgram(matrices, Periodic((0, 1)))


def test_nonzero_closing_residual_is_the_chain_links():
    assert periodic_fixed_points(sparse_cycle_program()).chain_residuals[-1] > 0
    check_chain_residuals(sparse_cycle_program())


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


@PROPERTY_SETTINGS
@given(hub_switching_programs())
def test_property_hub_switching_chain_residuals_within_tolerance(program):
    check_chain_residuals(program)


@PROPERTY_SETTINGS
@given(hub_switching_programs())
def test_property_hub_switching_fixed_points_invariant_under_composite(program):
    check_invariant_under_composite(program)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(long_order_programs())
def test_property_long_order_chain_residuals_within_tolerance(program):
    check_chain_residuals(program)


@PROPERTY_SETTINGS
@given(periodic_programs())
def test_property_matches_reference(program):
    check_matches_reference(program)


@PROPERTY_SETTINGS
@given(slow_periodic_programs())
def test_property_slow_matches_reference(program):
    check_matches_reference(program)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(long_order_programs())
def test_property_long_order_matches_reference(program):
    check_matches_reference(program)


@PROPERTY_SETTINGS
@given(periodic_programs(max_n=6, periods=(2, 2)))
def test_property_exact_composite_gap(program):
    assert exact_composite_gap(program, periodic_fixed_points(program).fixed_points[0]) <= 1e-15


@pytest.mark.parametrize("seed", [33, 78, 228, 345, 175])
def test_seeded_hub_switching_chain_residuals_within_tolerance(seed):
    check_chain_residuals(seeded_hub_switching_program(seed))


# Newton from the orbit two cycles on took at most 14 evaluations on 2000
# generated programs; from the bound shape, a step-halving line search
# took up to 2.2e4 and still failed
MAX_EVALUATIONS = 30


@pytest.mark.parametrize("programs", [periodic_programs, slow_periodic_programs,
                                      hub_switching_programs, long_order_programs])
@PROPERTY_SETTINGS
@given(data=st.data())
def test_property_solve_takes_few_evaluations(programs, data):
    assert evaluations(data.draw(programs())) <= MAX_EVALUATIONS


def test_seeded_hub_switching_solves_take_few_evaluations():
    for seed in range(100):
        assert evaluations(seeded_hub_switching_program(seed)) <= MAX_EVALUATIONS, f"seed {seed}"
