"""Stationary-vector solves on generated inputs.

The dominant left eigenvector of C and the oracle's zeta of W(x) both
come from one direct solve; these tests compare it against a dense
eigendecomposition and against the closed-form map, on near-stars (slow
mixing), random sparse irreducible supports and a period-2 support.
"""

import numpy as np
import pytest

from socialpower.degroot import appraisal_step_via_zeta
from socialpower.dynamics import df_map
from socialpower.topology import dominant_left_eigenvector, validate
from socialpower.verification import sample_interior


def near_star(n, w, rng):
    """Hub 0 listens to every leaf; each leaf sends w to the hub and
    1 - w to two other leaves, so gamma_hub = w / (1 + w) -> 1/2."""
    m = np.zeros((n, n))
    m[0, 1:] = rng.uniform(0.5, 1.5, n - 1)
    m[0] /= m[0].sum()
    for i in range(1, n):
        picks = rng.choice([j for j in range(1, n) if j != i], size=2, replace=False)
        m[i, 0] = w
        m[i, picks] = (1.0 - w) * rng.dirichlet(np.ones(2))
    return m


def sparse_irreducible(n, rng):
    """A random Hamiltonian cycle (so the support is strongly connected)
    plus about two extra edges per row, with random weights."""
    m = np.zeros((n, n))
    perm = rng.permutation(n)
    m[perm, np.roll(perm, -1)] = rng.uniform(0.1, 1.0, n)
    extra = rng.random((n, n)) < 2.0 / n
    np.fill_diagonal(extra, False)
    m[extra] += rng.uniform(0.1, 1.0, int(extra.sum()))
    return m / m.sum(axis=1, keepdims=True)


def bipartite(n, rng):
    """Complete bipartite support between two halves: period 2."""
    half = n // 2
    m = np.zeros((n, n))
    m[:half, half:] = rng.uniform(0.1, 1.0, (half, n - half))
    m[half:, :half] = rng.uniform(0.1, 1.0, (n - half, half))
    return m / m.sum(axis=1, keepdims=True)


def eig_reference(m):
    vals, vecs = np.linalg.eig(m.T)
    g = np.real(vecs[:, np.argmin(np.abs(vals - 1.0))])
    return g / g.sum()


def generated_matrices():
    rng = np.random.default_rng(2015)
    cases = [(f"near_star_w{w}", near_star(30, w, rng)) for w in (0.9, 0.99, 0.999)]
    cases += [(f"sparse_n{n}_{k}", sparse_irreducible(n, rng)) for n in (3, 7, 11, 40) for k in range(3)]
    cases.append(("bipartite_n8", bipartite(8, rng)))
    return cases


CASES = generated_matrices()


@pytest.mark.parametrize("name,m", CASES, ids=[c[0] for c in CASES])
def test_gamma_matches_dense_eig(name, m):
    gamma = dominant_left_eigenvector(validate(m))
    assert np.abs(gamma - eig_reference(m)).max() <= 1e-12
    assert gamma.min() > 0 and abs(gamma.sum() - 1) <= 1e-12


@pytest.mark.parametrize("eps", [1e-6, 1e-9, 1e-12])
def test_oracle_gap_near_every_vertex(eps):
    rng = np.random.default_rng(11)
    for m in (near_star(6, 0.95, rng), sparse_irreducible(7, rng)):
        c = validate(m)
        gamma = dominant_left_eigenvector(c)
        for i in range(c.n):
            x = np.full(c.n, eps / (c.n - 1))
            x[i] = 1.0 - eps
            assert np.abs(appraisal_step_via_zeta(x, c) - df_map(x, gamma)).sum() <= 1e-10


def test_oracle_on_large_slow_near_star():
    # n = 200 at w = 0.99: a large, slowly mixing W(x)
    rng = np.random.default_rng(200)
    c = validate(near_star(200, 0.99, rng))
    gamma = dominant_left_eigenvector(c)
    for x in sample_interior(c.n, rng, 5):
        assert np.abs(appraisal_step_via_zeta(x, c) - df_map(x, gamma)).sum() <= 1e-10
