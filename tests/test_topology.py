import importlib.util
import json
import re

import numpy as np
import pytest

from socialpower import errors
from socialpower.analysis import equilibrium_upper_bound
from socialpower.topology import (
    Constant,
    Periodic,
    RandomUniform,
    Scripted,
    TopologyProgram,
    _signal_to_doc,
    _write_text,
    at_star,
    classify_star,
    dominant_left_eigenvector,
    is_irreducible,
    load_program,
    max_gamma_profile,
    save_program,
    validate,
)
from networks import (
    EXPERIMENTS,
    cycle_matrix,
    interaction_set_6,
    star_matrix,
    switching_program_6,
)
from test_solvers import near_star


def reachable_closure(adj):
    # independent oracle: boolean transitive closure by repeated squaring
    n = adj.shape[0]
    reach = adj | np.eye(n, dtype=bool)
    for _ in range(n):
        reach = reach | (reach @ reach)
    return reach


class TestValidate:
    def test_example_cycle_is_valid(self):
        m = validate(interaction_set_6()[0])
        assert m.n == 6

    def test_identity_rejected_on_diagonal(self):
        with pytest.raises(errors.ValidationError, match="diagonal entry 1 = 1.0 must be exactly 0"):
            validate(np.eye(3))

    def test_disconnected_blocks_rejected(self):
        block = np.zeros((4, 4))
        block[0, 1] = block[1, 0] = 1.0
        block[2, 3] = block[3, 2] = 1.0
        with pytest.raises(errors.ValidationError, match="not strongly connected"):
            validate(block)

    def test_small_dimension_rejected(self):
        with pytest.raises(errors.ValidationError, match="need n >= 3, got n = 2"):
            validate([[0, 1], [1, 0]])

    @pytest.mark.parametrize("bad", [np.full((3, 4), 0.25), np.full(3, 1 / 3)])
    def test_non_square_is_not_dimension_too_small(self, bad):
        # the shape is checked before the dimension
        with pytest.raises(errors.ValidationError, match=r"^expected a square matrix, got shape"):
            validate(bad)

    def test_negative_entry_rejected(self):
        bad = star_matrix(3)
        bad[0, 1], bad[0, 2] = -0.5, 1.5
        with pytest.raises(errors.ValidationError, match=r"entry \(1,2\) = -0.5 is negative"):
            validate(bad)

    def test_bad_row_sum_rejected(self):
        bad = star_matrix(3)
        bad[0, 1] = 0.49
        with pytest.raises(errors.ValidationError, match="row 1 sums to 0.99"):
            validate(bad)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_entry_rejected_first(self, value):
        # a NaN passes every comparison-based check, so it is caught first
        bad = star_matrix(3)
        bad[1, 2] = value
        with pytest.raises(errors.ValidationError, match=r"entry \(2,3\) = (nan|inf)"):
            validate(bad)

    @pytest.mark.parametrize("bad, entry", [
        ([["0", "0.5", "0.5"], [0.5, 0, 0.5], [0.5, 0.5, 0]], "(1,1) = '0'"),
        ([[0, 0.5, 0.5], [0.5, 0, "0.5"], [0.5, 0.5, 0]], "(2,3) = '0.5'"),
        ([[False, True, False], [False, False, True], [True, False, False]], "(1,1) = False"),
        # numpy reads these as int64 and float64 arrays
        ([[0, True, False], [False, 0, True], [True, False, 0]], "(1,2) = True"),
        ([[0, 0.5, 0.5], [True, 0, False], [0.5, 0.5, 0]], "(2,1) = True"),
    ])
    def test_strings_and_booleans_are_no_numbers(self, bad, entry):
        # float() reads "0.5" and True; the first such entry is named
        with pytest.raises(errors.ValidationError, match=rf"entry {re.escape(entry)} is not a number$"):
            validate(bad)


def chorded_cycle(n, rng):
    """0/1 support of a Hamiltonian cycle through the nodes in random
    order, plus about n random chords, and the cycle's edges."""
    order = rng.permutation(n)
    edges = (order, np.roll(order, -1))
    adj = np.zeros((n, n))
    adj[edges] = 1.0
    adj[tuple(rng.integers(0, n, (2, n)))] = 1.0
    np.fill_diagonal(adj, 0.0)
    return adj, edges


def block_upper_triangular(n, rng):
    """0/1 support of 2 to 4 diagonal blocks, each a chorded cycle (or a
    single node), with random edges above the blocks and none below."""
    cuts = np.sort(rng.choice(np.arange(1, n), size=rng.integers(1, min(3, n - 1) + 1), replace=False))
    adj = np.triu(rng.random((n, n)) < 0.3, 1).astype(float)
    for lo, hi in zip(np.r_[0, cuts], np.r_[cuts, n]):
        adj[lo:hi, lo:hi] = chorded_cycle(hi - lo, rng)[0] if hi - lo > 1 else 0.0
    order = rng.permutation(n)  # relabelled, so the blocks are not contiguous
    return adj[np.ix_(order, order)]


def oracle(adj):
    return bool(reachable_closure(adj > 1e-15).all())


def reducible_6():
    """Two 3-cycles, with one edge from the first to the second only."""
    m = np.zeros((6, 6))
    m[:3, :3] = m[3:, 3:] = cycle_matrix(3)
    m[0, 1] = m[0, 3] = 0.5
    return m.tolist()


def edited(k, i, j, value):
    """Six-person matrix k + 1 as lists, with entry (i + 1, j + 1) set to `value`."""
    m = interaction_set_6()[k].tolist()
    m[i][j] = value
    return m


class TestIrreducibility:
    def test_cycle_irreducible(self):
        assert is_irreducible(interaction_set_6()[0])

    def test_triangular_reducible(self):
        assert not is_irreducible(np.triu(np.ones((3, 3)), 1))

    @pytest.mark.parametrize("idx", range(5))
    def test_fixture_matches_closure_oracle(self, idx):
        m = interaction_set_6()[idx]
        assert is_irreducible(m) == oracle(m)

    @pytest.mark.parametrize("n", range(3, 65))
    def test_chorded_cycle_is_irreducible(self, n):
        adj, _ = chorded_cycle(n, np.random.default_rng(n))
        assert is_irreducible(adj) and oracle(adj)
        # a plain cycle needs the most products: its diameter is n - 1
        assert is_irreducible(cycle_matrix(n))

    @pytest.mark.parametrize("n", range(3, 65))
    def test_chorded_cycle_without_a_cycle_edge_matches_oracle(self, n):
        rng = np.random.default_rng(1000 + n)
        adj, (tails, heads) = chorded_cycle(n, rng)
        k = rng.integers(n)
        adj[tails[k], heads[k]] = 0.0
        assert is_irreducible(adj) == oracle(adj)
        assert not is_irreducible(np.roll(np.eye(n), 1, axis=1) * (np.arange(n) != k)[:, None])

    def test_block_upper_triangular_is_reducible(self):
        rng = np.random.default_rng(7)
        for n in range(3, 65):
            adj = block_upper_triangular(n, rng)
            assert not is_irreducible(adj) and not oracle(adj), n

    def test_near_star_and_dense_are_irreducible(self):
        rng = np.random.default_rng(8)
        for n in (4, 6, 30, 64):
            for adj in (near_star(n, 0.95, rng), rng.random((n, n)) * (1 - np.eye(n)), star_matrix(n)):
                assert is_irreducible(adj) and oracle(adj), n

    @pytest.mark.parametrize("n", [4, 6, 17, 40])
    def test_stack_gives_each_matrix_its_own_answer(self, n):
        rng = np.random.default_rng(n)
        cycle_less_one = cycle_matrix(n)
        cycle_less_one[0] = 0.0
        stack = np.array([chorded_cycle(n, rng)[0], block_upper_triangular(n, rng), cycle_matrix(n),
                          near_star(n, 0.9, rng), cycle_less_one, rng.random((n, n))])
        expected = [oracle(adj) for adj in stack]
        assert expected == [True, False, True, True, False, True]
        assert is_irreducible(stack).tolist() == expected
        assert is_irreducible(stack.reshape(2, 3, n, n)).tolist() == [expected[:3], expected[3:]]


class TestStarClassification:
    def test_three_node_star(self):
        assert classify_star(validate(star_matrix(3))) == 0

    def test_cycle_not_star(self):
        assert classify_star(validate(interaction_set_6()[0])) is None

    def test_c4_not_star_by_edge_enumeration(self):
        m = interaction_set_6()[3]
        edges = [(i, j) for i in range(6) for j in range(6) if m[i, j] > 1e-15]
        common = [v for v in range(6) if all(i == v or j == v for i, j in edges)]
        assert common == []
        assert classify_star(validate(m)) is None

    def test_spectral_cross_check_on_fixtures(self):
        # structural star test must agree with max-gamma = 0.5 on every fixture
        for m in interaction_set_6() + [star_matrix(5), star_matrix(6, 2), star_matrix(3)]:
            validated = validate(m)
            gamma = dominant_left_eigenvector(validated)
            is_star = classify_star(validated) is not None
            assert is_star == (abs(gamma.max() - 0.5) <= 1e-9)

    @staticmethod
    def brute_force_center(entries):
        # one scan of the edge list per candidate centre
        n = entries.shape[0]
        edges = [(i, j) for i in range(n) for j in range(n) if i != j and entries[i, j] > 1e-15]
        for c in range(n):
            if all(c in edge for edge in edges):
                return c
        return None

    def test_degree_count_matches_scan_on_random_supports(self):
        rng = np.random.default_rng(5)
        stars = 0
        for _ in range(300):
            n = int(rng.integers(3, 9))
            if rng.random() < 0.5:
                # a star on a random centre, half the time with one stray edge
                c = int(rng.integers(n))
                support = np.zeros((n, n), dtype=bool)
                support[c, :] = support[:, c] = True
                if rng.random() < 0.5:
                    i, j = rng.choice(n, 2, replace=False)
                    support[i, j] = True
            else:
                # random edges around a directed cycle, which keeps it irreducible
                support = rng.random((n, n)) < rng.uniform(0.1, 0.8)
                support |= np.roll(np.eye(n, dtype=bool), 1, axis=1)
            np.fill_diagonal(support, False)
            w = support * rng.uniform(0.1, 1.0, (n, n))
            m = validate(w / w.sum(axis=1, keepdims=True))
            expected = self.brute_force_center(m.entries)
            assert classify_star(m) == expected
            stars += expected is not None
        assert stars > 50

    @pytest.mark.parametrize("n", [3, 4, 5, 8])
    def test_every_star_matrix_centre(self, n):
        for c in range(n):
            m = validate(star_matrix(n, c))
            assert classify_star(m) == c == self.brute_force_center(m.entries)


    def test_at_star_is_one_sided(self):
        # gamma_i >= 1/2 - 1e-9; gamma_i never exceeds 1/2 on a validated matrix
        assert at_star([0.5 - 1e-9, 0.5 - 2e-9, 0.5, 0.25]).tolist() == [True, False, True, False]

    def test_near_star_decided_once(self):
        # a leaf-to-leaf edge of weight 1e-12 leaves gamma_1 within 1e-9 of
        # 1/2: classify_star and the bound both treat node 1 as a star centre
        m = star_matrix(3)
        m[1, 0], m[1, 2] = 1 - 1e-12, 1e-12
        near = validate(m)
        assert self.brute_force_center(near.entries) is None
        assert classify_star(near) == 0
        with pytest.raises(errors.StarTopology, match="undefined at a star centre"):
            equilibrium_upper_bound(near.gamma)


class TestDominantLeftEigenvector:
    def test_star_center_half(self):
        gamma = dominant_left_eigenvector(validate(star_matrix(3)))
        assert np.allclose(gamma, [0.5, 0.25, 0.25], atol=1e-12)

    def test_doubly_stochastic_uniform(self):
        gamma = dominant_left_eigenvector(validate(cycle_matrix(6)))
        assert np.abs(gamma - 1 / 6).max() <= 1e-12

    def test_c2_matches_dense_eigensolver(self):
        c2 = interaction_set_6()[1]
        eigvals, eigvecs = np.linalg.eig(c2.T)
        vec = np.real(eigvecs[:, np.argmin(np.abs(eigvals - 1))])
        vec /= vec.sum()
        gamma = dominant_left_eigenvector(validate(c2))
        assert np.abs(gamma - vec).max() <= 1e-10

    def test_residual_positivity_contract(self):
        for m in interaction_set_6():
            gamma = dominant_left_eigenvector(validate(m))
            assert np.abs(gamma @ m - gamma).sum() <= 1e-12
            assert gamma.min() > 0
            assert abs(gamma.sum() - 1) <= 1e-12

    def test_solved_once_and_stored_on_the_matrix(self):
        program = TopologyProgram(tuple(validate(m) for m in interaction_set_6()), Constant(0))
        for k, m in enumerate(program.matrices):
            assert dominant_left_eigenvector(m) is m.gamma
            assert program.gammas()[k] is m.gamma
            assert not m.gamma.flags.writeable

    def test_bipartite_support_uses_damping(self):
        # period-2 support pattern whose eigenvector is not uniform
        m = np.array([
            [0, 0, 0.3, 0.7],
            [0, 0, 0.6, 0.4],
            [0.2, 0.8, 0, 0],
            [0.5, 0.5, 0, 0],
        ])
        gamma = dominant_left_eigenvector(validate(m))
        assert np.abs(gamma @ m - gamma).sum() <= 1e-12


def program_of(*matrices):
    return TopologyProgram(matrices, Constant(0))


class TestMaxGammaProfile:
    def test_example_group_profile(self):
        profile = max_gamma_profile(switching_program_6())
        expected = [0.4737, 0.2371, 0.2439, 0.2439, 0.2439, 0.2392]
        assert np.abs(profile - expected).max() <= 5e-5

    def test_singleton(self):
        m = validate(star_matrix(3))
        assert np.allclose(max_gamma_profile(program_of(m)), dominant_left_eigenvector(m))

    def test_duplicates_idempotent(self):
        m = validate(interaction_set_6()[2])
        gamma = dominant_left_eigenvector(m)
        assert np.allclose(max_gamma_profile(program_of(m, m)), gamma)

    def test_dominates_each_member(self):
        matrices = [validate(m) for m in interaction_set_6()]
        profile = max_gamma_profile(program_of(*matrices))
        for m in matrices:
            assert np.all(profile >= dominant_left_eigenvector(m) - 1e-15)


def save_program_per_value(program, path):
    """The program file as written one value at a time with "%.17g": the
    reference `save_program` must match byte for byte."""
    lines = ["{", f'  "n": {program.n},', '  "matrices": [']
    for k, m in enumerate(program.matrices):
        lines.append("    [")
        for i in range(m.n):
            row = ", ".join(format(float(v), ".17g") for v in m.entries[i])
            comma = "," if i < m.n - 1 else ""
            lines.append(f"      [{row}]{comma}")
        comma = "," if k < len(program.matrices) - 1 else ""
        lines.append(f"    ]{comma}")
    lines.append("  ],")
    lines.append(f'  "signal": {_signal_to_doc(program.signal)}')
    lines.append("}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


class TestWriteText:
    TEXT = "s,p,x_1\n0,0,0.5\n1,1,\u03b3\n"

    # none, ten times longer, shorter
    @pytest.mark.parametrize("old", [None, TEXT * 10, TEXT[:5]])
    def test_bytes_match_open_for_writing(self, tmp_path, old):
        path, reference = tmp_path / "new.csv", tmp_path / "reference.csv"
        if old is not None:
            for p in (path, reference):
                p.write_text(old)
        _write_text(path, self.TEXT)
        with open(reference, "w") as fh:
            fh.write(self.TEXT)
        assert path.read_bytes() == reference.read_bytes()
        assert path.stat().st_mode == reference.stat().st_mode


class TestProgramFiles:
    def test_round_trip_bit_exact(self, tmp_path):
        program = switching_program_6(seed=42)
        path = tmp_path / "program.json"
        save_program(program, path)
        loaded = load_program(path)
        assert len(loaded.matrices) == 5
        for a, b in zip(program.matrices, loaded.matrices):
            assert np.array_equal(a.entries, b.entries)
        assert loaded.signal == program.signal

    # the tests and demos read the six-person group from these files, so the
    # file -> memory -> file direction must keep every byte
    @pytest.mark.parametrize("name", ["group6_random.json", "group6_alternating.json"])
    def test_experiment_program_files_round_trip_byte_for_byte(self, tmp_path, name):
        save_program(load_program(EXPERIMENTS / name), tmp_path / name)
        assert (tmp_path / name).read_bytes() == (EXPERIMENTS / name).read_bytes()

    @pytest.mark.parametrize("n", range(3, 51))
    def test_bytes_match_the_per_value_writer(self, tmp_path, n):
        # sparse random weights plus the cycle i -> i + 1, which keeps each
        # matrix irreducible; about a third of the rows put all their
        # weight, 1.0, on the successor: zeros, ones and 17-digit decimals
        rng = np.random.default_rng(n)
        successor = cycle_matrix(n)
        matrices = []
        for _ in range(2):
            m = rng.random((n, n)) * (rng.random((n, n)) < 0.3) + successor * rng.uniform(0.01, 1, (n, 1))
            np.fill_diagonal(m, 0.0)
            m /= m.sum(axis=1, keepdims=True)
            ones = rng.random(n) < 0.3
            m[ones] = successor[ones]
            matrices.append(validate(m))
        program = TopologyProgram(tuple(matrices), Periodic((1, 0)))
        save_program(program, tmp_path / "p.json")
        save_program_per_value(program, tmp_path / "reference.json")
        assert (tmp_path / "p.json").read_bytes() == (tmp_path / "reference.json").read_bytes()

    def test_round_trip_awkward_decimals(self, tmp_path):
        m = np.zeros((3, 3))
        m[0, 1] = 1 / 3
        m[0, 2] = 1 - 1 / 3
        m[1, 0] = 0.1
        m[1, 2] = 0.9
        m[2, 0] = 1.0
        program = TopologyProgram((validate(m),), Constant(0))
        path = tmp_path / "p.json"
        save_program(program, path)
        assert np.array_equal(load_program(path).matrices[0].entries, m)

    def test_empty_matrix_list_rejected(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text('{"n": 3, "matrices": [], "signal": {"kind": "constant", "index": 1}}')
        with pytest.raises(errors.ParseError):
            load_program(path)

    def test_n_must_match_every_matrix(self, tmp_path):
        # a 3- and a 4-node matrix, each valid, cannot be one stack: n names
        # the first, not the second
        doc = {"n": 3, "matrices": [star_matrix(3).tolist(), cycle_matrix(4).tolist()],
               "signal": {"kind": "constant", "index": 1}}
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(errors.ParseError, match=re.escape(
                f"{path}: 'n' must be a JSON integer equal to the matrix dimension, "
                "got 3 for matrices of n = 3, 4")):
            load_program(path)

    @pytest.mark.parametrize("first, second, message", [
        # the first matrix breaks a later rule than the second: the first is reported
        (reducible_6(), edited(1, 0, 1, "0.5"), "^matrix 1: support graph is not strongly connected$"),
        (edited(0, 0, 5, 1.01), edited(1, 1, 0, -0.25), "^matrix 1: row 1 sums to 1.01, expected 1$"),
    ])
    def test_first_bad_matrix_in_file_order_is_reported(self, tmp_path, first, second, message):
        doc = {"n": 6, "matrices": [first, second, interaction_set_6()[2].tolist()],
               "signal": {"kind": "constant", "index": 1}}
        path = tmp_path / "two_bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(errors.ValidationError, match=message):
            load_program(path)

    def test_bad_third_matrix_is_named(self, tmp_path):
        # group6_random.json with matrix 3's (1, 2) entry raised by 0.1: the
        # error names the matrix, 1-based, before what the matrix alone raises
        doc = json.loads((EXPERIMENTS / "group6_random.json").read_text())
        doc["matrices"][2][0][1] += 0.1
        path = tmp_path / "third_bad.json"
        path.write_text(json.dumps(doc))
        message = r"^matrix 3: row 1 sums to 1\.1\d*, expected 1$"
        with pytest.raises(errors.ValidationError, match=message) as info:
            load_program(path)
        with pytest.raises(errors.ValidationError) as alone:
            validate(np.array(doc["matrices"][2]))
        assert str(info.value) == f"matrix 3: {alone.value}"

    def test_bad_row_sum_in_file(self, tmp_path):
        bad = star_matrix(3)
        bad[0, 1] = 0.49
        doc = {"n": 3, "matrices": [bad.tolist()], "signal": {"kind": "constant", "index": 1}}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(errors.ValidationError, match="row 1 sums to 0.99"):
            load_program(path)

    @pytest.mark.parametrize("order", [[1, 3], [0, 1]])
    def test_periodic_order_past_matrix_list_rejected(self, tmp_path, order):
        # file indices are 1-based: 3 names a third matrix, 0 none at all
        matrices = [m.tolist() for m in interaction_set_6()[:2]]
        doc = {"n": 6, "matrices": matrices, "signal": {"kind": "periodic", "order": order}}
        path = tmp_path / "order.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(errors.ValidationError, match="out of range"):
            load_program(path)

    def test_signals_round_trip(self, tmp_path):
        matrices = tuple(validate(m) for m in interaction_set_6())
        for signal in [Constant(2), Periodic((0, 3, 1)), Scripted((0, 1, 2, 4)), RandomUniform(99)]:
            program = TopologyProgram(matrices, signal)
            path = tmp_path / "sig.json"
            save_program(program, path)
            assert load_program(path).signal == signal


@pytest.fixture(scope="module")
def bench_inputs(tmp_path_factory):
    """The benchmark's generated inputs of all three workloads at seed 1."""
    spec = importlib.util.spec_from_file_location("bench_generate", EXPERIMENTS.parent / "bench" / "generate.py")
    generate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generate)
    root = tmp_path_factory.mktemp("bench_seed_1")
    for workload in generate.WORKLOADS:
        generate.generate(workload, 1, root / workload)
    return root


@pytest.mark.parametrize("name", [
    "experiments/group6_random.json", "experiments/group6_alternating.json",
    *(f"{w}/{f}_program.json" for w in ("group6-switching", "near-star-solvers", "dense-large")
      for f in ("random", "periodic")),
])
def test_stacked_load_solves_each_gamma_bit_for_bit(bench_inputs, name):
    # load_program solves a program's matrices as one stack; validate, one at a time
    path = EXPERIMENTS.parent / name if name.startswith("experiments/") else bench_inputs / name
    program = load_program(path)
    raw = json.loads(path.read_text())["matrices"]
    assert len(program.matrices) == len(raw) >= 2
    for matrix, one in zip(program.matrices, raw):
        alone = validate(one)
        assert matrix.entries.tobytes() == alone.entries.tobytes()
        assert matrix.gamma.tobytes() == alone.gamma.tobytes()


class TestTopologyProgram:
    @pytest.mark.parametrize("matrices, message", [
        ((), "needs at least one matrix"),
        ((validate(cycle_matrix(4)), cycle_matrix(4)), "must be validated first"),
        ((validate(cycle_matrix(4)), validate(cycle_matrix(5))), "must share one dimension"),
    ])
    def test_constructor_rejects(self, matrices, message):
        with pytest.raises(errors.ValidationError, match=message):
            TopologyProgram(matrices, Constant(0))


class TestSignals:
    def test_periodic_convention_first_issue_uses_last_phase(self):
        log = Periodic((0, 1, 2)).realize(7, 3)
        assert log.tolist() == [2, 0, 1, 2, 0, 1, 2]

    def test_random_replays_bit_identically(self):
        a = RandomUniform(123).realize(50, 5)
        b = RandomUniform(123).realize(50, 5)
        assert np.array_equal(a, b)

    def test_scripted_too_short(self):
        with pytest.raises(errors.ValidationError):
            Scripted((0, 1)).realize(5, 3)

    @pytest.mark.parametrize(
        "signal", [Periodic((0, 2)), Periodic((0, -1)), Periodic(()), Scripted((0, 2)), Constant(2)]
    )
    def test_program_rejects_index_past_its_matrices(self, signal):
        matrices = tuple(validate(m) for m in interaction_set_6()[:2])
        with pytest.raises(errors.ValidationError, match="out of range"):
            TopologyProgram(matrices, signal)
