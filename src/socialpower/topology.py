"""Relative interaction matrices, switching programs, and their spectral analysis.

An interaction matrix is row-stochastic with zero diagonal and an
irreducible support graph.  Its dominant left eigenvector encodes
eigenvector centrality of trust and drives the social power map; it is
solved for once per program, when the program's matrices are validated
as one stack, and stored on each matrix.  This module, at the bottom of
the package's imports, also holds its one writer of doubles,
`_format_rows`, and its one file writer, `_write_text`.
"""

from __future__ import annotations

import json
import numbers
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import NoConvergence, ParseError, ValidationError


@dataclass(frozen=True)
class Tolerances:
    """The tolerance ledger: every threshold a check compares against.

    `TOLERANCES`, its one instance, is the only place these values are
    set; no function or command-line flag takes a tolerance.  Each
    comment names the code that reads the field.  Iterations stop on
    their own progress, so no field is a stopping rule.
    """

    # topology: entries at or below this are no edge of the support
    # graph, so decimal round-trips create no spurious edges
    structural_zero: float = 1e-15
    # topology.validate: allowed |row sum - 1|; the rows of the bench's seed-1 random
    # programs miss 1 by up to 3.3e-16 (near-star) and 2.2e-16 (dense-large)
    row_sum: float = 1e-12
    # topology.stationary_vector: accepted residual ||vM - v||_1 (dense-large seed-1: 4.6e-15)
    eigen_residual: float = 1e-12
    # the one vertex rule, read by dynamics alone as one comparison per entry:
    # some 1 - x_i below this is a caller error for df_map and simulate (which
    # holds a vertex start instead), and outside the certificate's domain (analysis._interior)
    vertex_guard: float = 1e-14
    # topology.at_star: gamma_i this close to 1/2 is a star centre
    star_gamma: float = 1e-9
    # analysis.contraction_margin and analysis.fixed_point: allowed
    # |sum - 1| of a state (a row) and of the gamma to solve for
    structure: float = 1e-10
    # every computed limit: the accepted residual ||F(x) - x||_1 of analysis.fixed_point (group6
    # matrix 4: 2.3e-16) and of periodic_fixed_points' closing link (near-star seed-1: 5.5e-16)
    fixed_point: float = 1e-13
    # periodic.verify_periodic_limit: allowed 1-norm deviation of a run from the
    # per-phase limit; experiments/alternating.json (burn-in 40) reaches 9.0e-17
    periodic_limit: float = 1e-8
    # verification: the Jacobian's error against the complex step (its (4n + 30)u bound, u = 2^-53,
    # stays under 1e-13 only for n <= 217, and is 1.8e-13 at n = 400; worst 1.1e-15 = 9.7u), the
    # certificate's structural deviation (Phi's identities, H's relative to its largest theta, the
    # link of ||H||_1 to the margin; worst 5.6e-16, group6 and near-star seed-1) and the oracle's
    # gap to the map (worst 6.8e-15, dense-large seed-1), the worst over experiments/ and the
    # bench's seed-1 programs at the samples and seed that verify runs them with
    finite_difference: float = 1e-13
    certificate_structure: float = 1e-9
    oracle_gap: float = 1e-10
    # cli simulate: slack on the equilibrium bound gamma/(1 - gamma)
    bound_slack: float = 1e-9


TOLERANCES = Tolerances()
# a process on x86-64 addresses 2^47 bytes: a count whose arrays need more
# is rejected before numpy, which would raise or start to fill memory
ADDRESS_BITS = 47
_BOOLEANS = (bool, np.bool_)  # no number, though numpy and `float` read either as 1 or 0


def at_star(gamma) -> np.ndarray:
    """Per entry, whether gamma_i >= 1/2 - `star_gamma`: a star centre.

    gamma_i = 1/2 exactly when every edge of the support graph touches
    node i (Jia, Mirtabatabaei, Friedkin & Bullo, SIAM Review 2015); every
    star decision in the package is this one test.
    """
    return np.asarray(gamma, dtype=float) >= 0.5 - TOLERANCES.star_gamma


def stationary_vector(matrix: np.ndarray) -> np.ndarray:
    """Positive left fixed vector v = vM of a row-stochastic matrix, sum 1.

    Solves v(I - M) = 0 with its last equation replaced by sum(v) = 1.
    The solution is accepted only when the residual ||vM - v||_1 is at
    most `Tolerances.eigen_residual` and every entry is positive, which
    holds for an irreducible M; otherwise NoConvergence names the
    residual.  A stack of matrices, shape (..., n, n), is solved in one
    call and checked matrix by matrix; NoConvergence then also names the
    first rejected matrix by its position in the flattened stack.
    """
    n = matrix.shape[-1]
    system = np.eye(n) - np.swapaxes(matrix, -1, -2)
    system[..., -1, :] = 1.0
    # one (n, 1) right-hand side per matrix: numpy 1.x and 2.x both read
    # it as a matrix, whatever the stack shape
    rhs = np.zeros(matrix.shape[:-1] + (1,))
    rhs[..., -1, 0] = 1.0
    try:
        v = np.linalg.solve(system, rhs)[..., 0]
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"stationary vector: singular system ({exc})") from exc
    residual = np.abs((v[..., None, :] @ matrix)[..., 0, :] - v).sum(axis=-1)
    min_entry = v.min(axis=-1)
    accepted = (residual <= TOLERANCES.eigen_residual) & (min_entry > 0)
    if not accepted.all():
        k = int(np.argmin(accepted.ravel()))
        which = f" of matrix {k}" if matrix.ndim > 2 else ""
        raise NoConvergence(
            f"stationary vector{which} rejected: residual {residual.ravel()[k]:.3e} "
            f"(tol {TOLERANCES.eigen_residual:.0e}), min entry {min_entry.ravel()[k]:.3e}"
        )
    return v


@dataclass(frozen=True)
class RelativeInteractionMatrix:
    """Validated row-stochastic, zero-diagonal, irreducible matrix with
    its dominant left eigenvector `gamma`, both read-only.

    Validation supplies `gamma`, solved for once per program: nothing but
    `validate` and `load_program` builds one.
    """

    entries: np.ndarray
    gamma: np.ndarray = field(repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


def validate(matrix) -> RelativeInteractionMatrix:
    """Check all structural invariants, raising on the first violation.

    Violations are reported in a fixed order: non-numbers (a string or
    a boolean is none, though `float` reads "0.5" and True), non-finite
    (an integer beyond the double range reads as inf, as 1e999 does),
    dimension, negative entries, diagonal, row sums, irreducibility.
    """
    return _validated([matrix])[0]


def _double(value) -> float:
    """float(value), or a signed inf for an integer beyond the double range."""
    try:
        return float(value)
    except OverflowError:
        return np.inf if value > 0 else -np.inf


def _numbers(raw: list) -> np.ndarray:
    """The matrices of `raw` (nested lists or arrays) as one new float
    array (K, ...); ValidationError names the first entry that is no
    number.  One matrix is read on its own, so that numpy words a ragged
    one as it would for that matrix alone."""
    try:
        entries = np.array(raw[0])[None] if len(raw) == 1 else np.array(raw)
        cells = []
        if entries.dtype.kind not in "iuf":
            cells = [(idx[1:], value) for idx, value in np.ndenumerate(np.array(raw, dtype=object))]
        elif entries.ndim == 3 and not all(isinstance(m, np.ndarray) for m in raw):
            # numpy reads a boolean among numbers as 1 or 0: only such an entry
            # can be one, and an array of numbers holds none
            ks, rows, cols = (a.tolist() for a in np.nonzero((entries == 0) | (entries == 1)))
            values = [raw[k][i][j] for k, i, j in zip(ks, rows, cols)]
            if not set(map(type, values)).isdisjoint(_BOOLEANS):
                cells = zip(zip(rows, cols), values)
        for idx, value in cells:
            if isinstance(value, _BOOLEANS) or not isinstance(value, numbers.Real):
                where = ",".join(str(i + 1) for i in idx)
                raise ValueError(f"entry ({where}) = {value!r} is not a number")
        if entries.dtype.kind not in "iuf":
            entries = np.array([_double(v) for _, v in cells]).reshape(entries.shape)
        return entries.astype(float, copy=False)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"matrix is not a rectangular array of numbers: {exc}") from exc


def _validated(raw: list) -> tuple:
    """The matrices of `raw`, validated as one (K, n, n) stack: one
    conversion, one pass per rule of `validate`, one closure and one
    `stationary_vector` call.  When the stack breaks any rule, or its
    matrices differ in shape, they are validated one at a time in order,
    so the first bad one, k (1-based), raises its own error led by "matrix k: ".
    """
    try:
        entries = _numbers(raw)
        finite = np.isfinite(entries)
        if not finite.all():
            idx = np.argwhere(~finite)[0]
            where = ",".join(str(i + 1) for i in idx[1:])
            raise ValidationError(f"entry ({where}) = {entries[tuple(idx)]} is not finite")
        if entries.ndim != 3 or entries.shape[1] != entries.shape[2]:
            raise ValidationError(f"expected a square matrix, got shape {entries.shape[1:]}")
        n = entries.shape[-1]
        if n < 3:
            raise ValidationError(f"need n >= 3, got n = {n}")
        if (entries < 0).any():
            k, i, j = np.argwhere(entries < 0)[0]
            raise ValidationError(f"entry ({i + 1},{j + 1}) = {entries[k, i, j]} is negative")
        diag = entries.diagonal(axis1=1, axis2=2)
        if (diag != 0.0).any():
            k, i = np.argwhere(diag != 0.0)[0]
            raise ValidationError(f"diagonal entry {i + 1} = {diag[k, i]} must be exactly 0")
        row_sums = entries.sum(axis=2)
        bad = np.abs(row_sums - 1.0) > TOLERANCES.row_sum
        if bad.any():
            k, i = np.argwhere(bad)[0]
            raise ValidationError(f"row {i + 1} sums to {row_sums[k, i]}, expected 1")
        if not is_irreducible(entries).all():
            raise ValidationError("support graph is not strongly connected")
        # one matrix is solved on its own, so that a rejection names no stack position
        gammas = stationary_vector(entries[0] if len(raw) == 1 else entries)
    except (ValidationError, NoConvergence):
        if len(raw) == 1:
            raise
        matrices = []
        for k, matrix in enumerate(raw, 1):
            try:
                matrices += _validated([matrix])
            except (ValidationError, NoConvergence) as exc:
                raise type(exc)(f"matrix {k}: {exc}") from None
        return tuple(matrices)
    entries.setflags(write=False)
    gammas.setflags(write=False)
    return tuple(map(RelativeInteractionMatrix, entries, gammas.reshape(entries.shape[:2])))


def is_irreducible(matrix) -> np.ndarray:
    """Strong connectivity of the support graph, decided structurally; a
    stack (..., n, n) gives one answer per matrix.

    The support plus the diagonal, as a 0/1 matrix R, is squared with
    float `@`, whose entries count paths exactly, until every pair is
    reachable.  After p products R joins every pair linked by a path of
    at most 2^p edges, and a path needs at most n - 1, so at most
    ceil(log2(n - 1)) products decide it: 3 for n = 6.
    """
    support = np.asarray(matrix, dtype=float) > TOLERANCES.structural_zero
    n = support.shape[-1]
    reach = support | np.eye(n, dtype=bool)
    for _ in range((n - 2).bit_length()):
        if reach.all():
            break
        paths = reach.astype(float)
        reach = paths @ paths > 0
    return reach.all(axis=(-2, -1))


def classify_star(matrix: RelativeInteractionMatrix) -> int | None:
    """The 0-based centre that every edge of the support graph touches,
    or None when the support graph is not a star: the node of largest
    gamma, if `at_star` holds there.
    """
    c = int(np.argmax(matrix.gamma))
    return c if at_star(matrix.gamma[c]) else None


def dominant_left_eigenvector(matrix: RelativeInteractionMatrix) -> np.ndarray:
    """Unique positive left eigenvector at eigenvalue 1, normalized to sum 1:
    the vector solved once when the matrix was validated."""
    return matrix.gamma


def max_gamma_profile(program: TopologyProgram) -> np.ndarray:
    """Entrywise maximum of the dominant left eigenvectors of a program's matrices."""
    return np.max(np.vstack(program.gammas()), axis=0)


# ---------------------------------------------------------------------------
# Switching signals and programs


@dataclass(frozen=True)
class Constant:
    """Always selects the same matrix (0-based index)."""

    index: int

    def realize(self, issues: int, num_matrices: int) -> np.ndarray:
        if not 0 <= self.index < num_matrices:
            raise ValidationError(f"constant index {self.index + 1} out of range 1..{num_matrices}")
        return np.full(issues, self.index, dtype=int)


@dataclass(frozen=True)
class Periodic:
    """Cycles through `order`; sigma(0) is the last element of the cycle.

    Matches the convention sigma(0) = P, sigma(Pq + p) = p: the first
    issue uses the final phase, then the cycle runs from the start.
    This class is the only place that convention is written down.
    """

    order: tuple

    def phases(self, issues: int) -> np.ndarray:
        """0-based position in `order` of the phase each issue applies."""
        return (np.arange(issues) - 1) % len(self.order)

    def realize(self, issues: int, num_matrices: int) -> np.ndarray:
        # on Python integers: numpy cannot hold one beyond int64
        if not self.order or not 0 <= min(self.order) <= max(self.order) < num_matrices:
            order = ", ".join(str(i + 1) for i in self.order)
            raise ValidationError(f"periodic order [{order}] out of range 1..{num_matrices}")
        return np.asarray(self.order, dtype=int)[self.phases(issues)]


@dataclass(frozen=True)
class Scripted:
    """Explicit per-issue index list; must cover the whole run."""

    sequence: tuple

    def realize(self, issues: int, num_matrices: int) -> np.ndarray:
        seq = self.sequence
        if len(seq) < issues:
            raise ValidationError(f"scripted signal has {len(seq)} entries, need {issues}")
        if len(seq) and not 0 <= min(seq) <= max(seq) < num_matrices:  # on Python integers
            bad = next(i for i in seq if not 0 <= i < num_matrices)
            raise ValidationError(f"scripted index {bad + 1} out of range 1..{num_matrices}")
        return np.asarray(seq[:issues], dtype=int)


@dataclass(frozen=True)
class RandomUniform:
    """Independent uniform draws over the matrix set, from a 64-bit seed.

    The generator is numpy's default PCG64, so a fixed seed replays
    bit-identically across runs.
    """

    seed: int

    def realize(self, issues: int, num_matrices: int) -> np.ndarray:
        if self.seed < 0:
            raise ValidationError(f"random seed {self.seed} is negative")
        rng = np.random.default_rng(self.seed)
        return rng.integers(0, num_matrices, size=issues)


@dataclass(frozen=True)
class TopologyProgram:
    """A finite validated matrix set plus a switching signal."""

    matrices: tuple
    signal: object

    def __post_init__(self):
        if len(self.matrices) == 0:
            raise ValidationError("program needs at least one matrix")
        n = self.matrices[0].n
        for m in self.matrices:
            if not isinstance(m, RelativeInteractionMatrix):
                raise ValidationError("program matrices must be validated first")
            if m.n != n:
                raise ValidationError("all program matrices must share one dimension")
        # every index the signal names must be a matrix of this program
        self.signal.realize(0, len(self.matrices))

    @property
    def n(self) -> int:
        return self.matrices[0].n

    def gammas(self) -> list:
        return [m.gamma for m in self.matrices]

    def realize(self, issues: int) -> np.ndarray:
        return self.signal.realize(issues, len(self.matrices))


# ---------------------------------------------------------------------------
# Writing files: every float the package writes to a file goes through
# `_format_rows`, as "%.17g" writes it, so reading the file back is bit-exact,
# and every file goes through `_write_text`.

# values per pass of `_format_rows`: bounds its temporaries (about 150
# bytes a value) and keeps them in cache
FORMAT_CHUNK = 2048
# the double 1e-j lies at or above 10^-j for j = 1..4, so the class
# searchsorted(_TENTHS, v, "right") of v in [1e-4, 1) is 5 + floor(log10 v)
_TENTHS = np.array([1e-4, 1e-3, 1e-2, 1e-1, 1.0])
# per class: "0." and the zeros before the 17 digits (NUL is dropped), and
# the exact scale 10^(21 - class) that makes those digits an integer, with
# its Veltkamp split into two 26-bit halves
_HEADS = np.frombuffer(b"\0\0\0\0\0" b"0.000" b"0.00\0" b"0.0\0\0" b"0.\0\0\0", "V5")
_SCALE = np.array([1e21, 1e20, 1e19, 1e18, 1e17])
_SPLIT = 134217729.0  # 2^27 + 1
_SCALE_HI = _SPLIT * _SCALE - (_SPLIT * _SCALE - _SCALE)
_SCALE_LO = _SCALE - _SCALE_HI
# "00" .. "99" without their trailing zeros ("1" for "10", nothing for
# "00"), then "00" .. "99"
_PAIRS = np.frombuffer(b"".join(b"%02d" % i for i in range(100)) * 2, "<u2").copy()
_PAIRS[:100:10] &= 0xFF
_PAIRS[0] = 0
_WIDE = 24  # the longest "%.17g" of a double: "-2.2250738585072014e-308"


def _write_digits(cells: np.ndarray, v: np.ndarray, cls: np.ndarray) -> None:
    """Fill `cells` with "0.", its zeros and the 17 significant digits of
    each v in [1e-4, 1) of class `cls`, correctly rounded (ties to even),
    with NUL for each trailing zero.

    v * 10^k (k = 21 - cls <= 20, so 10^k is exact) equals hi + lo
    exactly by Dekker's two-product.  hi lies in [10^16, 10^17), where
    every double is an even integer, so the rounded digits are
    hi + rint(lo).  No double below 10^-j for j = 1..4 rounds up to it,
    so the digits never carry into an 18th.
    """
    hi = v * _SCALE.take(cls)
    v_hi = _SPLIT * v
    v_hi -= v_hi - v
    v_lo = v - v_hi
    scale_hi, scale_lo = _SCALE_HI.take(cls), _SCALE_LO.take(cls)
    lo = v_hi * scale_hi - hi
    lo += v_hi * scale_lo
    lo += v_lo * scale_hi
    lo += v_lo * scale_lo
    digits = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    # cut the 16 digits after the lead into halves, quads and pairs, one
    # row per group, by floor divisions by a scalar, which numpy does far
    # faster than by an array
    top = digits // 10**8
    lead = top // 10**8
    halves = np.empty((2, len(v)), np.int64)
    np.subtract(top, lead * 10**8, out=halves[0])
    np.subtract(digits, top * 10**8, out=halves[1])
    quads = np.empty((2, 2, len(v)), np.int32)
    np.floor_divide(halves, 10**4, out=quads[:, 0], casting="unsafe")
    np.subtract(halves, quads[:, 0] * 10**4, out=quads[:, 1], casting="unsafe")
    quads = quads.reshape(4, -1)
    pairs = np.empty((4, 2, len(v)), np.int32)
    np.floor_divide(quads, 100, out=pairs[:, 0])
    np.subtract(quads, pairs[:, 0] * 100, out=pairs[:, 1])
    pairs = pairs.reshape(8, -1)
    # a pair followed by one that is not "00" is written whole, from the
    # table's second half; any other drops its trailing zeros
    later = np.zeros(pairs.shape, np.int32)
    for j in range(6, -1, -1):
        np.maximum(later[j + 1], pairs[j + 1], out=later[j])
    pairs += np.minimum(later, 1) * 100
    cells["head"] = _HEADS.take(cls)
    cells["lead"] = lead + 48
    cells["pairs"] = np.ascontiguousarray(_PAIRS.take(pairs).T).view("V16")[:, 0]


def _format_rows(rows: np.ndarray, sep: str) -> list:
    """Each row of the 2-D float array `rows` as one string: its values
    joined by `sep` (one or more ASCII characters, no newline), each
    written exactly as "%.17g" writes it, that is, with 17 significant
    digits and trailing zeros dropped.

    Values in [1e-4, 1), 0.0 and 1.0 are written from digit tables with
    no Python work per value; every other value (-0.0, subnormals, the
    exponent form, values above 1, nan and inf) is formatted one at a
    time in the same pass.
    """
    rows = np.asarray(rows, dtype=float)
    width = rows.shape[1]
    step = max(1, FORMAT_CHUNK // width)
    # one value as written: "0." and up to 3 zeros, the lead digit, 8 digit
    # pairs and 2 spare bytes (a value formatted on its own fills all 24),
    # then `sep`, or a newline after the last value of a row
    dtype = np.dtype([("head", "V5"), ("lead", "u1"), ("pairs", "V16"),
                      ("spare", "V2"), ("sep", f"S{len(sep)}")])
    written = []
    for start in range(0, rows.shape[0], step):
        v = rows[start:start + step].ravel()
        cls = np.searchsorted(_TENTHS, v, "right")
        fast = (cls >= 1) & (cls <= 4)
        cells = np.zeros(len(v), dtype)
        # stand-ins of class 4 keep the digit arithmetic free of warnings
        _write_digits(cells, np.where(fast, v, 0.5), np.where(fast, cls, 4))
        slow = np.flatnonzero(~fast)
        if slow.size:
            x = v[slow]
            words = np.where(x == 1.0, b"1", b"0").astype(f"S{_WIDE}")
            other = np.flatnonzero((x != 1.0) & ((x != 0.0) | np.signbit(x)))
            words[other] = ["%.17g" % y for y in x[other].tolist()]
            raw = cells.view(np.uint8).reshape(len(v), -1)
            raw[slow, :_WIDE] = words.view(np.uint8).reshape(-1, _WIDE)
        cells["sep"] = sep
        cells["sep"][width - 1::width] = "\n"
        written += cells.tobytes().translate(None, b"\0").decode().split("\n")[:-1]
    return written


def _write_text(path, text: str) -> None:
    """Write `text` to `path` as `open(path, "w")` does, but over an old
    file in place: opened without O_TRUNC, written over, then cut at the
    end of `text`.  A rewrite so skips truncating the file to zero bytes,
    most of its cost on ext4.  Nothing is fsynced."""
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w") as fh:
        fh.write(text)
        fh.truncate()


# ---------------------------------------------------------------------------
# Program files: human-readable JSON, decimals at 17 significant digits,
# all indices 1-based.


def _signal_to_doc(signal) -> str:
    if isinstance(signal, Constant):
        return f'{{"kind": "constant", "index": {signal.index + 1}}}'
    if isinstance(signal, Periodic):
        order = ", ".join(str(i + 1) for i in signal.order)
        return f'{{"kind": "periodic", "order": [{order}]}}'
    if isinstance(signal, Scripted):
        seq = ", ".join(str(i + 1) for i in signal.sequence)
        return f'{{"kind": "scripted", "sequence": [{seq}]}}'
    if isinstance(signal, RandomUniform):
        return f'{{"kind": "random", "seed": {signal.seed}}}'
    raise ValidationError(f"unknown signal type {type(signal).__name__}")


def save_program(program: TopologyProgram, path) -> None:
    lines = ["{", f'  "n": {program.n},', '  "matrices": [']
    for k, m in enumerate(program.matrices):
        lines.append("    [")
        rows = _format_rows(m.entries, ", ")
        lines.extend(f"      [{row}]," for row in rows[:-1])
        lines.append(f"      [{rows[-1]}]")
        comma = "," if k < len(program.matrices) - 1 else ""
        lines.append(f"    ]{comma}")
    lines.append("  ],")
    lines.append(f'  "signal": {_signal_to_doc(program.signal)}')
    lines.append("}")
    _write_text(path, "\n".join(lines) + "\n")


def _integer(value, key: str) -> int:
    """A JSON integer; floats, strings and booleans are not truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{key!r} needs integers, got {value!r}")
    return value


def _indices(doc, key: str) -> tuple:
    if not isinstance(doc[key], list):
        raise TypeError(f"{key!r} must be a list, got {doc[key]!r}")
    return tuple(_integer(i, key) - 1 for i in doc[key])


def _signal_from_doc(doc) -> object:
    try:
        kind = doc["kind"]
        if kind == "constant":
            return Constant(_integer(doc["index"], "index") - 1)
        if kind == "periodic":
            return Periodic(_indices(doc, "order"))
        if kind == "scripted":
            return Scripted(_indices(doc, "sequence"))
        if kind == "random":
            return RandomUniform(_integer(doc["seed"], "seed"))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed signal section: {exc}") from exc
    raise ParseError(f"unknown signal kind {kind!r}")


def _read_json(path):
    """The JSON document in `path`; a key repeated in any object is a
    ParseError, where `json` would keep the last value silently, and so
    is any text `json` cannot read: malformed, an integer of more digits
    than Python converts, or nesting deeper than its recursion limit."""

    def unique_keys(pairs):
        doc = {}
        for key, value in pairs:
            if key in doc:
                raise ParseError(f"{path}: duplicate key {key!r}")
            doc[key] = value
        return doc

    try:
        with open(path) as fh:
            return json.load(fh, object_pairs_hook=unique_keys)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise ParseError(f"{path}: {exc}") from exc


def load_program(path) -> TopologyProgram:
    doc = _read_json(path)
    if not isinstance(doc, dict) or not {"n", "matrices", "signal"} <= doc.keys():
        raise ParseError(f"{path}: expected fields 'n', 'matrices', 'signal'")
    raw_matrices = doc["matrices"]
    if not isinstance(raw_matrices, list) or len(raw_matrices) == 0:
        raise ParseError(f"{path}: 'matrices' must be a nonempty list")
    matrices = _validated(raw_matrices)
    n = doc["n"]
    dims = sorted({m.n for m in matrices})
    try:
        fits = dims == [_integer(n, "n")]
    except TypeError:
        fits = False
    if not fits:
        raise ParseError(f"{path}: 'n' must be a JSON integer equal to the matrix dimension, "
                         f"got {n!r} for matrices of n = {', '.join(map(str, dims))}")
    return TopologyProgram(matrices, _signal_from_doc(doc["signal"]))
