"""`topology._format_rows`, the one writer of doubles, writes exactly what
one "%.17g" per value writes, row by row, and every string it writes
reads back to the same bits.  A RuntimeWarning fails a test, so the
special values below also show that the digit arithmetic raises none."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from socialpower import topology
from socialpower.topology import _format_rows


def reference(rows, sep):
    return [sep.join("%.17g" % v for v in row) for row in np.asarray(rows).tolist()]


def assert_exact(rows, sep=","):
    rows = np.asarray(rows, dtype=float)
    written = _format_rows(rows, sep)
    assert written == reference(rows, sep)
    back = np.array([[float(s) for s in line.split(sep)] for line in written]).reshape(rows.shape)
    # "nan" reads back as the one quiet nan, whatever the payload written
    same = (back.view(np.int64) == rows.view(np.int64)) | (np.isnan(back) & np.isnan(rows))
    assert same.all()


SPECIAL = [0.0, -0.0, 1.0, -1.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324,
           2.2250738585072014e-308, -2.2250738585072009e-308, 1e22, -1e22, 1.7976931348623157e308,
           1e-4, 0.5, 1.5, 123456.789, -0.25, 1e-300]


def test_special_values():
    assert_exact(np.array(SPECIAL)[:, None])
    assert_exact(np.array(SPECIAL)[None, :])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=12),
                  elements=st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
                  | st.sampled_from(SPECIAL)
                  | st.floats(min_value=1e-4, max_value=1.0, exclude_max=True)))
def test_generated_arrays(rows):
    assert_exact(rows)


@pytest.mark.parametrize("k", [17, 18, 19, 20])
def test_exact_ties_round_to_even(k):
    # m / 2^(k+1) with m odd times 10^k, the scale of its decade, ends in
    # exactly .5: every such double in [10^(16-k), 10^(17-k)) is a tie
    m = np.arange(1, 2 ** (k + 1), 2, dtype=float)
    v = m / 2.0 ** (k + 1)
    v = v[(v >= 10.0 ** (16 - k)) & (v < 10.0 ** (17 - k))]
    assert v.size > 900
    assert_exact(v.reshape(-1, 1))


@pytest.mark.parametrize("power", [0, 1, 2, 3, 4, 5])
def test_neighbours_of_powers_of_ten(power):
    # the ends of each decade, where the digit scale changes
    v = 10.0 ** -power
    below, above = [v], [v]
    for _ in range(20):
        below.append(np.nextafter(below[-1], 0))
        above.append(np.nextafter(above[-1], np.inf))
    assert_exact(np.array(below[::-1] + above[1:]).reshape(-1, 1))


def test_the_scale_of_each_decade_is_exact():
    # 10^k is a double for k <= 22, and so is each power the table splits
    for scale, hi, lo in zip(topology._SCALE, topology._SCALE_HI, topology._SCALE_LO):
        k = round(np.log10(scale))
        assert int(scale) == 10 ** k
        assert int(hi) + int(lo) == 10 ** k
    # each decade bound lies at or above the power of ten it stands for
    for j, bound in enumerate(topology._TENTHS[:-1]):
        num, den = float(bound).as_integer_ratio()
        assert num * 10 ** (4 - j) >= den


def test_uniform_states():
    rng = np.random.default_rng(0)
    assert_exact(rng.dirichlet(np.ones(30), size=400))
    assert_exact(rng.random((300, 7)), sep=", ")


@pytest.mark.parametrize("chunk", [1, 5, 7, 64])
def test_passes_split_rows_without_changing_them(chunk, monkeypatch):
    rows = np.random.default_rng(chunk).random((20, 7))
    rows[3, 2], rows[9, 6] = 1e-9, 0.0
    monkeypatch.setattr(topology, "FORMAT_CHUNK", chunk)
    assert_exact(rows)
    assert_exact(rows, sep=", ")


def test_no_rows():
    assert _format_rows(np.zeros((0, 3)), ",") == []
