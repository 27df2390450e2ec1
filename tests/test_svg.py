"""The vectorised polyline formatter writes exactly what one `%` format
per value writes, value by value and chart by chart, and chart text is
escaped as `xml.sax.saxutils.escape` escapes it."""

import xml.etree.ElementTree as ET
from xml.sax.saxutils import escape

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from socialpower import svg


def polylines_reference(pixels):
    """One "%.2f,%.2f" per pixel pair of each series of the (series, m, 2)
    stack, joined by spaces: the reference `svg._polylines` must match
    byte for byte."""
    return [" ".join(["%.2f,%.2f"] * len(rows)) % tuple(rows.ravel().tolist()) for rows in pixels]


def assert_formats_like_percent(values):
    values = np.asarray(values, dtype=float)
    pixels = np.column_stack((values, values[::-1]))[None]
    assert svg._polylines(pixels) == polylines_reference(pixels)


def test_binary_exact_ties():
    # m + j/8 for odd j is a tie at the third decimal, which "%.2f" rounds to even
    assert_formats_like_percent((np.arange(1, 1000)[:, None] + np.arange(8) / 8).ravel())


def test_neighbours_of_decimal_ties():
    # the doubles nearest 1.005 .. 999.985; 999.995 would round to 1000.00,
    # past the formatter's range and far past the plot box
    ties = (10 * np.arange(100, 99999) + 5) / 1000
    assert_formats_like_percent(np.concatenate([
        np.nextafter(ties, 0), ties, np.nextafter(ties, np.inf)]))


def test_ends_of_the_range():
    assert_formats_like_percent([1.0, 999.99])


def test_uniform_pixels():
    assert_formats_like_percent(np.random.default_rng(0).uniform(40, 570, 10**5))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.floats(min_value=1.0, max_value=999.99), min_size=1, max_size=50))
def test_generated_values(values):
    assert_formats_like_percent(values)


@pytest.mark.parametrize("count", [1, 6, 30, 400])
def test_chart_bytes_match_percent_formatting(count, tmp_path, monkeypatch):
    rng = np.random.default_rng(count)
    length = int(rng.integers(2, 60))  # s = 0 ... length - 1 spans at least one issue
    series = {f"x_{k + 1}": (rng.dirichlet(np.ones(3), length)[:, 0], k % 2 == 1)
              for k in range(count)}
    svg.line_chart(series, tmp_path / "new.svg", "chart")
    monkeypatch.setattr(svg, "_polylines", polylines_reference)
    svg.line_chart(series, tmp_path / "reference.svg", "chart")
    assert (tmp_path / "new.svg").read_bytes() == (tmp_path / "reference.svg").read_bytes()


@pytest.mark.parametrize("text", ["run_a&b<c x_1", "a > b && c", "&amp;", "plain"])
def test_escape_matches_saxutils(text):
    assert svg._escape(text) == escape(text)


def test_zero_tick_is_not_signed(tmp_path):
    # y data from 0 pads the range to just below 0, where ceil(lo / step) is -0.0
    svg.line_chart({"x_1": (np.arange(10) / 9, False)}, tmp_path / "chart.svg", "chart")
    root = ET.parse(tmp_path / "chart.svg").getroot()
    labels = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
    assert "-0" not in labels
    assert labels.count("0") == 2  # s = 0 and x = 0
