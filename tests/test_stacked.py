"""Stacked evaluation: a stack of states or matrices gives, row for row,
bit-identical results to one call per row, and `verify`'s chunked
checks give the same results as one unchunked pass and as the per-state
loops they replaced."""

import numpy as np
import pytest

from socialpower.analysis import (
    _interior, contraction_margin, contraction_radii, jacobian, transform_chain,
)
from socialpower.degroot import appraisal_step_via_zeta, build_w
from socialpower.dynamics import df_map
from socialpower.errors import NoConvergence
from socialpower.topology import TOLERANCES, stationary_vector, validate
from socialpower import verification
from socialpower.verification import (
    CheckResult,
    check_boundary_step,
    check_contraction_certificates,
    check_jacobian_fd,
    check_oracle_equivalence,
    finite_difference_jacobian,
    run_suite,
    sample_interior,
)
from networks import interaction_set_6, star_matrix

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


def test_finite_difference_perturbs_one_entry_per_column(monkeypatch):
    # the complex step: one df_map call, whose row j moves x_j alone, by
    # exactly i h; column j equals the one-row call's Im F / h
    x = np.array([0.2, 0.3, 0.5])
    gamma = np.array([0.25, 0.35, 0.4])
    h = verification.COMPLEX_STEP
    calls = []
    monkeypatch.setattr(verification, "df_map", lambda xs, g: calls.append(xs) or df_map(xs, g))
    J = finite_difference_jacobian(x, gamma)
    (steps,) = calls
    assert steps.dtype == complex and steps.shape == (3, 3)
    assert np.array_equal(steps.real, np.tile(x, (3, 1)))
    assert np.array_equal(steps.imag, h * np.eye(3))
    for j in range(3):
        step = x.astype(complex)
        step[j] += 1j * h
        assert np.array_equal(J[:, j], df_map(step, gamma).imag / h)


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
    whole = run_suite([matrix], 40, seed=3)
    # 3 samples per chunk for the (n, n) stacks, 3 * n for the states
    monkeypatch.setattr(verification, "CHUNK_FLOATS", 3 * n * n)
    assert run_suite([matrix], 40, seed=3) == whole


# The per-matrix loop that `run_suite` replaced, kept as its reference:
# matrix k's four checks, one matrix at a time, on its own generator.

def run_suite_reference(matrices, samples, seed):
    results = []
    for k, matrix in enumerate(matrices):
        rng = np.random.default_rng(seed + k)
        gamma = matrix.gamma
        results.append([
            check_jacobian_fd(gamma, rng, min(samples, 200)),
            check_contraction_certificates(gamma, rng, samples),
            check_oracle_equivalence(matrix, rng, samples),
            check_boundary_step(gamma, rng, samples),
        ])
    return results


# (n, samples, matrix counts): at n = 400 one sample's complex step holds
# 2.6 MB a matrix
PROGRAMS = [(3, 30, range(1, 6)), (6, 30, range(1, 6)), (30, 30, range(1, 6)), (400, 2, (1, 2))]


@pytest.mark.parametrize("n, samples, count", [
    (n, samples, count) for n, samples, counts in PROGRAMS for count in counts])
def test_suite_matches_the_per_matrix_loop(monkeypatch, n, samples, count):
    # 5 n^2 floats a chunk: across K matrices 5 // K samples (at least 1)
    # of each (n, n) stack, 5 n // K states; at n = 400 one sample a chunk
    matrices = [random_matrix(n, np.random.default_rng([n, count, k])) for k in range(count)]
    monkeypatch.setattr(verification, "CHUNK_FLOATS", 5 * n * n)
    got = run_suite(matrices, samples, seed=11)
    assert got == run_suite_reference(matrices, samples, seed=11)
    assert [[r.name for r in results] for results in got] == [[
        "jacobian_finite_difference", "contraction_certificate", "opinion_oracle_equivalence",
        "boundary_contraction_step"]] * count


# The per-state loops that `check_contraction_certificates` and
# `check_boundary_step` replaced, kept as references: the checks must
# return equal results from the same random stream.

def sample_interior_reference(n, rng, count):
    raw = rng.dirichlet(np.full(n, 0.5), size=count)
    return np.clip(raw, 1e-9, None) / np.clip(raw, 1e-9, None).sum(axis=1, keepdims=True)


def certificate_reference(gamma, rng, samples):
    # per state: the closed-form margin, Phi's identities, and H's row sums
    # and trace - 1 relative to the state's largest theta, then the link
    # between ||H||_1 summed from H's entries and 1 - margin
    worst_margin = np.inf
    worst_struct = 0.0
    xs = sample_interior_reference(gamma.size, rng, samples)
    for x in df_map(xs, gamma):
        phi, h = transform_chain(x)
        margin = contraction_margin(x[None])[0]
        worst_margin = min(worst_margin, margin)
        worst_struct = max(
            worst_struct,
            np.abs(phi.sum(axis=0)).max(),
            np.abs(phi - phi.T).max(),
            (phi - np.diag(np.diag(phi))).max(),
            np.abs(h.sum(axis=1)).max() * (1.0 - x.max()),
            abs(np.trace(h) - 1.0) * (1.0 - x.max()),
            abs(np.abs(h).sum(axis=0).max() - (1.0 - margin)),
        )
    passed = worst_margin > 0 and worst_struct <= TOLERANCES.certificate_structure
    return CheckResult(
        "contraction_certificate", passed, worst_margin,
        detail=f"worst structural deviation {worst_struct:.2e}",
    )


def boundary_keep_reference(x):
    return ~(np.any(x >= 1.0 - TOLERANCES.near_vertex, axis=1) | np.any(x <= 0, axis=1))


def boundary_reference(gamma, rng, samples, keep_rows=boundary_keep_reference):
    # the check's blocks of draws, in its order (j among the individuals
    # with a positive radius, r, the factor bounded so that x_j > 0, the
    # rest); then one state per draw
    radii = contraction_radii(gamma)
    n = gamma.size
    js = np.flatnonzero(radii > 0)[rng.integers(np.count_nonzero(radii > 0), size=samples)]
    rs = rng.uniform(0.0, radii[js])
    scales = rng.uniform(1.0, 1.0 / np.maximum(rs, 2.0 / 3.0))
    rests = rng.dirichlet(np.ones(n - 1), samples)
    draws = []
    for j, r, scale, rest in zip(js, rs, scales, rests):
        x_j = 1.0 - r * scale
        draws.append((j, r, np.insert(rest * (1.0 - x_j), j, x_j)))
    j = np.array([d[0] for d in draws], dtype=int)
    r = np.array([d[1] for d in draws])
    x = np.array([d[2] for d in draws]).reshape(-1, n)
    keep = keep_rows(x)
    if not keep.any():
        return CheckResult("boundary_contraction_step", False, np.nan, "no boundary state checked")
    mapped = df_map(x[keep], gamma)
    worst = float((mapped[np.arange(len(mapped)), j[keep]] - (1.0 - r[keep])).max())
    return CheckResult("boundary_contraction_step", worst < 0, worst)


def assert_matches_references(gamma, samples, seed):
    for check, reference in [(check_contraction_certificates, certificate_reference),
                             (check_boundary_step, boundary_reference)]:
        got = check(gamma, np.random.default_rng(seed), samples)
        assert got == reference(gamma, np.random.default_rng(seed), samples), check.__name__


@pytest.mark.parametrize("n", range(3, 9))
def test_checks_match_per_state_references(n):
    gamma = random_matrix(n, np.random.default_rng(n)).gamma
    for seed in range(3):
        assert_matches_references(gamma, 300, seed)
        assert np.array_equal(sample_interior(n, np.random.default_rng(seed), 300),
                              sample_interior_reference(n, np.random.default_rng(seed), 300))


@pytest.mark.parametrize("samples", [1, 60])
def test_checks_match_per_state_references_on_a_star(samples):
    # gamma = (1/4, 1/4, 1/2): the centre's band is empty, so it is never
    # drawn, and even the single draw of samples = 1 tests a leaf
    gamma = validate(star_matrix(3, center=2)).gamma
    assert_matches_references(gamma, samples, seed=0)
    result = check_boundary_step(gamma, np.random.default_rng(0), samples)
    assert result.passed and np.isfinite(result.worst_margin)


def test_boundary_check_skips_states_matrix_by_matrix(monkeypatch):
    # a skipped state leaves its matrix's worst margin to the kept ones,
    # and a matrix that keeps none FAILs beside matrices that pass.  Of
    # three matrices the second keeps none and the third all; the first
    # skips its first state, and every state whose margin is at least that
    # of the centre of the simplex under the first draw (what is mapped in
    # a skipped state's place), so that none of these may count
    samples, n = 60, 6
    gammas = np.stack([random_matrix(n, np.random.default_rng(k)).gamma for k in range(3)])
    x = np.zeros((samples, n))
    j, r = verification._boundary_draws(contraction_radii(gammas[0]), np.random.default_rng(0), x)
    own = df_map(x, gammas[0])[np.arange(samples), j] - (1.0 - r)
    centre = df_map(np.full(n, 1.0 / n), gammas[0])[j[0]] - (1.0 - r[0])
    first = (own < centre) & (np.arange(samples) > 0)
    assert 10 <= first.sum() <= 50 and not first[0]
    patterns = [first, np.zeros(samples, dtype=bool), np.ones(samples, dtype=bool)]
    monkeypatch.setattr(verification, "_interior", lambda rows: _interior(rows) & np.concatenate(patterns))
    monkeypatch.setattr(verification, "CHUNK_FLOATS", 7 * 3 * n)  # 7 states of each matrix a chunk
    got = check_boundary_step(gammas, [np.random.default_rng(k) for k in range(3)], samples)
    want = [boundary_reference(gamma, np.random.default_rng(k), samples,
                               lambda x, keep=keep: boundary_keep_reference(x) & keep)
            for k, (gamma, keep) in enumerate(zip(gammas, patterns))]
    assert got == want
    assert got[0].worst_margin == own[first].max()
    assert [r.passed for r in got] == [True, False, True]
    assert got[1].detail == "no boundary state checked"


def test_checks_match_per_state_references_across_chunks():
    # n = 400: one (n, n) stack entry exceeds CHUNK_FLOATS, so each
    # certificate chunk holds one state, and 81 boundary states make a
    # chunk of mapped states
    n = 400
    assert verification.CHUNK_FLOATS // n ** 2 == 0 and verification.CHUNK_FLOATS // n == 81
    gamma = random_matrix(n, np.random.default_rng(n)).gamma
    got = check_contraction_certificates(gamma, np.random.default_rng(1), 13)
    assert got == certificate_reference(gamma, np.random.default_rng(1), 13)
    got = check_boundary_step(gamma, np.random.default_rng(1), 4000)
    assert got == boundary_reference(gamma, np.random.default_rng(1), 4000)


def interior_elementwise(x):
    # the domain as its definition writes it, one comparison per entry
    return ((x > 0) & (1.0 - x >= TOLERANCES.near_vertex)).all(axis=-1)


def test_boundary_check_keeps_the_reference_draws_at_the_edges():
    # the check keeps a draw by analysis._interior, 1 - x_i >= near_vertex and
    # x_i > 0, decided by the row's least and largest entries; the reference
    # writes x_i < 1 - near_vertex, entry by entry: equal on the floats at
    # and beside 1 - near_vertex and at the zero, sign and subnormal edges
    edge = 1.0 - TOLERANCES.near_vertex
    beside = [edge]
    for _ in range(3):
        beside = [np.nextafter(beside[0], 0.0), *beside, np.nextafter(beside[-1], 1.0)]
    firsts = [*beside, 0.5, 1.0]
    seconds = [0.25, 0.0, -0.0, 5e-324, -5e-324, np.finfo(float).tiny, *beside[:3]]
    x = np.array([[a, b, 0.25] for a in firsts for b in seconds])
    assert np.array_equal(_interior(x), boundary_keep_reference(x))
    assert _interior(x).any() and not _interior(x).all()
    # NaN and the infinities too, each entry in each column, as (..., n)
    # stacks: the two reductions give the elementwise form's booleans
    specials = [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, *beside, 0.5]
    rows = np.array([[a, b, c] for a in specials for b in specials for c in (0.25, np.nan, -0.0)])
    for stack in (rows, rows.reshape(3, -1, 3), rows.reshape(-1, 9, 1, 3)):
        assert np.array_equal(_interior(stack), interior_elementwise(stack))
    assert _interior(rows).any() and not _interior(rows).all()
    finite = np.isfinite(rows).all(axis=-1)
    assert np.array_equal(_interior(rows[finite]), boundary_keep_reference(rows[finite]))


def test_certificate_makes_one_transform_chain_call_per_sample(monkeypatch):
    calls = []
    real = verification.transform_chain

    def counted(x):
        calls.append(x)
        return real(x)

    monkeypatch.setattr(verification, "transform_chain", counted)
    monkeypatch.setattr(verification, "CHUNK_FLOATS", 4 * 36)  # chunks of 4 states
    gamma = validate(interaction_set_6()[1]).gamma
    check_contraction_certificates(gamma, np.random.default_rng(0), 37)
    assert len(calls) == 37


@pytest.mark.parametrize("n", [2, 3, 6, 30, 400])
def test_transform_chain_matches_outer_product_construction(n):
    for x in sample_interior(n, np.random.default_rng(n), 5):
        phi = -np.outer(x, x)
        np.fill_diagonal(phi, x * (1.0 - x))
        got_phi, got_h = transform_chain(x)
        assert np.array_equal(got_phi, phi)
        assert np.array_equal(got_h, (1.0 / (1.0 - x))[:, None] * phi)
