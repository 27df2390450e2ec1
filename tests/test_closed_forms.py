"""Closed forms for the contraction margin and the interior equilibrium.

`contraction_margin` is checked against the certificate it replaces in
`simulate` (`transform_chain`) and against exact rational arithmetic on
the same floats; `fixed_point` against the equilibrium relation
x_i (1 - x_i) = c gamma_i on near-star eigenvectors, where the map
converges slowly, and bit for bit against the numpy-scalar Newton loop
it replaced.
"""

import json
from fractions import Fraction

import numpy as np
import pytest

from socialpower import errors
from socialpower.analysis import contraction_margin, fixed_point, jacobian, transform_chain
from socialpower.cli import main
from socialpower.dynamics import df_map, simulate
from socialpower.topology import (
    RandomUniform, TopologyProgram, at_star, load_program, validate,
)
from socialpower.verification import sample_interior
from networks import GROUP6
from test_solvers import near_star

VERTEX_EPS = 1e-9
SEEDS = (1, 2, 3)
ISSUES = 50


def near_vertex(n, i, eps=VERTEX_EPS):
    x = np.full(n, eps / (n - 1))
    x[i] = 1.0 - eps
    return x


def exact_margin(x):
    """min_j sum_{i != j} r_i ((1 - x_j) - x_i), exactly, on the given floats."""
    xs = [Fraction(float(v)) for v in x]
    r = [v / (1 - v) for v in xs]
    return min(
        sum(r[i] * ((1 - xs[j]) - xs[i]) for i in range(len(xs)) if i != j)
        for j in range(len(xs))
    )


def near_vertex_runs():
    base = load_program(GROUP6)
    for seed in SEEDS:
        program = TopologyProgram(base.matrices, RandomUniform(seed))
        for i in range(base.n):
            yield seed, i, simulate(program, near_vertex(base.n, i), ISSUES)


@pytest.mark.parametrize("n,count", [(3, 200), (6, 200), (30, 100), (400, 4)])
def test_margin_matches_transform_chain(n, count):
    states = sample_interior(n, np.random.default_rng(n), count)
    reference = np.array([1.0 - transform_chain(x).h_one_norm for x in states])
    assert np.abs(contraction_margin(states) - reference).max() <= 1e-15


def test_margin_matches_exact_arithmetic_near_every_vertex():
    for seed, i, traj in near_vertex_runs():
        post = traj.states[1:]
        got = contraction_margin(post)
        for s in range(post.shape[0]):
            want = exact_margin(post[s])
            assert want > 0
            assert abs(Fraction(float(got[s])) - want) <= Fraction(1, 10**12) * want, (seed, i, s)


def test_margin_rejects_the_states_transform_chain_rejects():
    ok = np.full(3, 1 / 3)
    for x in (np.array([1 - 1e-13, 1e-13, 0.0]), np.array([0.5, 0.5, 0.0]), np.array([0.5, np.nan, 0.5])):
        with pytest.raises(errors.NearVertex):
            transform_chain(x)
        with pytest.raises(errors.NearVertex):
            jacobian(x, ok)
        with pytest.raises(errors.NearVertex):
            jacobian(ok, x)
        # a stack names its first failing row, counted over all its rows
        with pytest.raises(errors.NearVertex) as info:
            contraction_margin(np.array([[ok, ok], [x, x]]))
        assert info.value.row == 2


def test_margin_rejects_rows_off_the_simplex():
    # transform_chain accepts this row; the closed form needs sum(x) = 1
    with pytest.raises(errors.ValidationError):
        contraction_margin(np.full((1, 3), 0.3))


def test_cli_margin_positive_near_every_vertex(tmp_path):
    n = load_program(GROUP6).n
    for seed in SEEDS:
        for i in range(n):
            config = {
                "program": str(GROUP6),
                "issues": ISSUES,
                "seed": seed,
                "initial_conditions": {"near": near_vertex(n, i).tolist()},
            }
            path = tmp_path / f"near_{seed}_{i}.json"
            path.write_text(json.dumps(config))
            out = tmp_path / f"out_{seed}_{i}"
            assert main(["simulate", "--config", str(path), "--out", str(out)]) in (0, 1)
            report = json.loads((out / "report.json").read_text())
            assert report["min_contraction_margin"] > 0, (seed, i)


@pytest.mark.parametrize("w", [0.9, 0.99, 0.999, 0.9999])
def test_fixed_point_on_near_star(w):
    gamma = validate(near_star(30, w, np.random.default_rng(30))).gamma
    x = fixed_point(gamma)
    assert np.abs(df_map(x, gamma) - x).sum() <= 1e-13
    c = x * (1.0 - x) / gamma
    assert (c.max() - c.min()) / c.mean() <= 1e-9


# The Newton loop `fixed_point` replaced, kept as a reference: numpy
# scalars, one error-state context per step, np.delete and np.insert.
# The rewrite performs the same IEEE operations in the same order, so
# every equilibrium must equal this one bit for bit.

def fixed_point_reference(gamma):
    k = int(np.argmax(gamma))
    rho = np.delete(gamma, k) / gamma[k]
    lo, hi = 0.0, 1.0
    u = gamma[k] / (1.0 - gamma[k])
    while True:
        p = u * (1.0 - u)
        root = np.sqrt((1.0 - 2.0 * u) ** 2 + 4.0 * p * (1.0 - rho))
        x = 2.0 * p * rho / (1.0 + root)
        f = u + x.sum() - 1.0
        lo, hi = (u, hi) if f < 0 else (lo, u)
        with np.errstate(divide="ignore", invalid="ignore"):
            nxt = u - f / (1.0 + np.sum(rho * (1.0 - 2.0 * u) / root))
        if nxt != u and not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
        if nxt in (lo, hi, u):
            break
        u = nxt
    return np.insert(x, k, u)


def assert_matches_reference(gamma):
    got = fixed_point(gamma)
    assert got.tobytes() == fixed_point_reference(gamma).tobytes(), gamma.tolist()


@pytest.mark.parametrize("alpha", [1.0, 0.3])
def test_fixed_point_matches_reference_on_dirichlet_gammas(alpha):
    # Dirichlet(0.3) draws put most mass on a few entries: large spreads
    # of rho and tiny entries; draws with a star centre or a zero are skipped
    rng = np.random.default_rng(int(10 * alpha))
    checked = 0
    for n in range(3, 61):
        for gamma in rng.dirichlet(np.full(n, alpha), size=4):
            if gamma.min() > 0 and not at_star(gamma).any():
                assert_matches_reference(gamma)
                checked += 1
    assert checked >= 200


@pytest.mark.parametrize("w", [0.9, 0.99, 0.999, 0.9999])
@pytest.mark.parametrize("n", [4, 10, 30])
def test_fixed_point_matches_reference_on_near_stars(n, w):
    assert_matches_reference(validate(near_star(n, w, np.random.default_rng(n))).gamma)


@pytest.mark.parametrize("n", [3, 4, 6, 7, 30, 60])
def test_fixed_point_matches_reference_on_uniform_gammas(n):
    # every rho_i = 1: at u = 1/2 the slope is 0/0, a NaN step that bisects
    assert_matches_reference(np.full(n, 1.0 / n))


def test_fixed_point_matches_reference_on_a_dense_400_node_gamma():
    m = np.random.default_rng(400).uniform(0.1, 1.0, (400, 400))
    np.fill_diagonal(m, 0.0)
    assert_matches_reference(validate(m / m.sum(axis=1, keepdims=True)).gamma)
