"""The rounding bound each docstring states, in units of u = 2^-53,
checked against exact rational arithmetic.

`df_map`, `jacobian`, the complex-step Jacobian and `contraction_margin`
are evaluated on dyadic states (every entry a float, the entries summing
to exactly 1) for n <= 6, among them states 2e-12 and 2e-14 from each
vertex (the second within a factor 2 of the map's guard), and compared
with the same quantities computed in `fractions.Fraction` on the same
floats.  A first-order bound of K u is checked as Higham's
gamma_K = K u/(1 - K u).  The boundary lemma of `contraction_radii` is
checked exactly on dyadic face states, x_j = 1 - r with r < r_j, for
n <= 12, and on the boundary check's own face states.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from socialpower.analysis import contraction_margin, contraction_radii, jacobian
from socialpower.dynamics import df_map
from socialpower.topology import validate
from socialpower.verification import BOUNDARY_FLOOR, _face_states, finite_difference_jacobian
from networks import interaction_set_6, near_star3
from test_solvers import near_star

U = Fraction(1, 2 ** 53)


def gamma_k(k):
    return k * U / (1 - k * U)


def exact(values):
    return [Fraction(float(v)) for v in values]


def dyadic_states(n, rng, count=40, bits=30):
    """Random states whose entries are multiples of 2^-(bits + 3), summing to 1."""
    total = 2 ** (bits + 3)
    for _ in range(count):
        parts = [int(a) for a in rng.integers(1, 2 ** bits, n - 1)]
        yield [Fraction(a, total) for a in parts] + [Fraction(total - sum(parts), total)]


def near_vertex_states(n, rng, distance=2e-12):
    """For each vertex k, x_k = fl(1 - distance) and the rest, 1 - x_k
    (exact, with 15 significant bits), split in dyadic parts."""
    top = Fraction(1.0 - distance)
    for k in range(n):
        parts = [int(a) for a in rng.integers(1, 2 ** 20, n - 2)]
        shares = [Fraction(a, 2 ** 24) for a in parts]
        rest = [(1 - top) * s for s in shares + [1 - sum(shares)]]
        yield rest[:k] + [top] + rest[k:]


def gammas():
    rng = np.random.default_rng(6)
    yield from (validate(m).gamma for m in interaction_set_6())
    yield validate(near_star(6, 0.9999, rng)).gamma
    for n in (3, 4):
        m = rng.uniform(0.1, 1.0, (n, n))
        np.fill_diagonal(m, 0.0)
        yield validate(m / m.sum(axis=1, keepdims=True)).gamma


GAMMAS = list(gammas())


def states(k):
    rng = np.random.default_rng(k)
    n = GAMMAS[k].size
    # 2e-14 is 180u, within a factor 2 of the guard's 1e-14 = 91u
    return [*dyadic_states(n, rng), *near_vertex_states(n, rng), *near_vertex_states(n, rng, 2e-14)]


def floats(x):
    out = np.array([float(v) for v in x])
    assert exact(out) == x and sum(x) == 1  # each entry a float, summing to exactly 1
    return out


def exact_map(x, gamma):
    q = [g / (1 - v) for g, v in zip(exact(gamma), x)]
    total = sum(q)
    return [v / total for v in q]


def exact_jacobian(x, nxt):
    """J_ii = x'_i (1 - x'_i)/(1 - x_i), J_ij = -x'_i x'_j/(1 - x_j), exactly."""
    n = len(x)
    return [[(nxt[i] * (1 - nxt[i]) if i == j else -nxt[i] * nxt[j]) / (1 - x[j]) for j in range(n)]
            for i in range(n)]


def column_scale_errors(got, x, mapped):
    """max_ij |got_ij - J_ij| (1 - x_j)/F_j against the exact derivative."""
    want = exact_jacobian(x, mapped)
    n = len(x)
    return max(abs(Fraction(float(got[i, j])) - want[i][j]) * (1 - x[j]) / mapped[j]
               for i in range(n) for j in range(n))


@pytest.mark.parametrize("k", range(len(GAMMAS)))
def test_map_and_jacobians_within_their_bounds(k):
    gamma = GAMMAS[k]
    n = gamma.size
    for x in states(k):
        xf = floats(x)
        mapped = exact_map(x, gamma)
        got = df_map(xf, gamma)
        # df_map: every entry within (n + 4)u relative
        assert max(abs(Fraction(float(a)) - b) / b for a, b in zip(got, mapped)) <= gamma_k(n + 4)
        # jacobian: every entry within 4u relative of its formula on the given floats
        J = jacobian(xf, got)
        on_inputs = exact_jacobian(x, exact(got))
        assert max(abs(Fraction(float(J[i, j])) - on_inputs[i][j]) / abs(on_inputs[i][j])
                   for i in range(n) for j in range(n)) <= gamma_k(4)
        # against the exact derivative, column j relative to F_j/(1 - x_j): jacobian
        # at df_map's states within (2n + 11)u, the complex step within (2n + 19)u
        assert column_scale_errors(J, x, mapped) <= gamma_k(2 * n + 11)
        cs = finite_difference_jacobian(xf, gamma)
        assert column_scale_errors(cs, x, mapped) <= gamma_k(2 * n + 19)


@pytest.mark.parametrize("k", range(len(GAMMAS)))
def test_margin_within_its_bound(k):
    for x in states(k):
        check_margin(x)


def check_margin(x):
    """Column j's margin m_j within (n + 6)u M_j, M_j its formula with each
    difference taken as a sum; so the least margin lies between the least
    m_j - (n + 6)u M_j and the least m_j + (n + 6)u M_j."""
    n = len(x)
    got = Fraction(float(contraction_margin(floats(x)[None])[0]))
    top = max(range(n), key=x.__getitem__)
    d = [1 - v for v in x]
    r = [v / w for v, w in zip(x, d)]
    s = sum(r[i] for i in range(n) if i != top)
    q = sum(r[i] * x[i] for i in range(n) if i != top)
    exact_margins = [sum(r[i] * (d[j] - x[i]) for i in range(n) if i != j) for j in range(n)]
    sizes = [sum(r[i] * (d[top] + x[i]) for i in range(n) if i != top) if j == top
             else r[top] * (d[top] + x[j]) + d[j] * (s + r[j]) + q + r[j] * x[j]
             for j in range(n)]
    bound = gamma_k(n + 6)
    assert min(m - bound * size for m, size in zip(exact_margins, sizes)) <= got
    assert got <= min(m + bound * size for m, size in zip(exact_margins, sizes))


def face_gammas():
    yield from GAMMAS  # group6's five, a near-star and two random ones
    rng = np.random.default_rng(12)
    for n in (8, 12):
        m = rng.uniform(0.1, 1.0, (n, n))
        np.fill_diagonal(m, 0.0)
        yield validate(m / m.sum(axis=1, keepdims=True)).gamma


def face_state(n, j, a, rng, bits=40):
    """x_j = 1 - r with r = a 2^-bits, and the other entries positive
    multiples of 2^-bits summing to r: every entry a float."""
    cuts = np.sort(rng.integers(0, a - (n - 1) + 1, n - 2)).tolist()
    parts = [hi - lo + 1 for lo, hi in zip([0, *cuts], [*cuts, a - (n - 1)])]
    x = [Fraction(p, 2 ** bits) for p in parts]
    return x[:j] + [1 - Fraction(a, 2 ** bits)] + x[j:]


FACE_GAMMAS = list(face_gammas())


@pytest.mark.parametrize("k", range(len(FACE_GAMMAS)))
def test_boundary_lemma_on_face_states(k):
    # on x_j = 1 - r, 0 < r < r_j (`contraction_radii`), exactly: F_j(x) <=
    # g_j/(g_j + r(1 - g_j)) < 1 - r, with g the float gamma scaled to sum
    # to exactly 1 (the map reads gamma up to scale); df_map's F_j within
    # its (n + 4)u bound.  r runs from its least value, (n - 1) 2^-40, to
    # the largest below r_j
    gamma = FACE_GAMMAS[k]
    n = gamma.size
    rng = np.random.default_rng(k)
    g = exact(gamma)
    g = [v / sum(g) for v in g]
    for j, r_j in enumerate(contraction_radii(gamma).tolist()):
        top = math.ceil(Fraction(r_j) * 2 ** 40) - 1
        for a in [n - 1, top, *rng.integers(n - 1, top, 3).tolist()]:
            r = Fraction(a, 2 ** 40)
            x = face_state(n, j, a, rng)
            f_j = exact_map(x, gamma)[j]
            assert f_j <= g[j] / (g[j] + r * (1 - g[j])) < 1 - r
            got = Fraction(float(df_map(floats(x), gamma)[j]))
            assert abs(got - f_j) <= gamma_k(n + 4) * f_j


def boundary_check_gammas():
    yield from FACE_GAMMAS
    rng = np.random.default_rng(30)
    yield from (validate(near_star(30, w, rng)).gamma for w in (0.99999, 0.999999))
    yield validate(near_star3(1e-8)).gamma  # gamma_1 = 1/2 - 2.5e-9: r_1 is about 1e-8


BOUNDARY_CHECK_GAMMAS = list(boundary_check_gammas())


@pytest.mark.parametrize("k", range(len(BOUNDARY_CHECK_GAMMAS)))
def test_boundary_check_states_keep_the_lemma(k):
    # the boundary check's own states, exactly: each a float state summing
    # to 1 with x_j = 1 - r, F <= r < r_j, and the lemma's gap
    # G(r) = r(1 - g_j)(r_j - r)/(g_j + r(1 - g_j)) >= 4(n + 4)u (g the
    # gamma scaled to sum to 1); so F_j(x) < 1 - r with room for df_map's
    # (n + 4)u, and the check cannot FAIL on rounding
    gamma = BOUNDARY_CHECK_GAMMAS[k]
    n = gamma.size
    g = exact(gamma)
    g = [v / sum(g) for v in g]
    (j,), x, kept = _face_states(gamma[None])
    r_j = (1 - 2 * g[j]) / (1 - g[j])
    assert kept[0, 0]
    for state in x[kept]:
        state = exact(state)
        floats(state)
        r = 1 - state[j]
        assert Fraction(BOUNDARY_FLOOR) <= r < r_j
        assert r * (1 - g[j]) * (r_j - r) / (g[j] + r * (1 - g[j])) >= 4 * (n + 4) * U
        f_j = exact_map(state, gamma)[j]
        assert f_j * (1 + gamma_k(n + 4)) < 1 - r
        assert Fraction(float(df_map(floats(state), gamma)[j])) < 1 - r
