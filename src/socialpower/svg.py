"""Minimal self-contained SVG line charts for trajectory output.

No plotting dependency: charts are written directly as vector graphics
so runs stay reproducible byte-for-byte.
"""

from __future__ import annotations

import numpy as np

from .topology import _write_text

_COLORS = [
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
    "#8c564b", "#17becf", "#7f7f7f", "#bcbd22", "#e377c2",
]

_W, _H = 720, 440
_ML, _MR, _MT, _MB = 60, 150, 40, 50

# "%3d" of 0..999 with NUL for each leading blank, ".%02d" of 0..99, and
# one pixel value with its separator: "ddd.dd," after x, "ddd.dd " after y
_INTS = np.frombuffer(b"".join(b"%3d" % i for i in range(1000)).replace(b" ", b"\0"), "V3")
_FRACS = np.frombuffer(b"".join(b".%02d" % i for i in range(100)), "V3")
_CELL = np.dtype([("int", "V3"), ("frac", "V3"), ("sep", "S1")])


def _escape(text: str) -> str:
    """`text` as XML character data, as `xml.sax.saxutils.escape` writes it;
    importing that module pulls in urllib and http, about 7 MB of memory."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _ticks(lo: float, hi: float):
    """Round tick values across [lo, hi], about six of them, for lo < hi.
    `+ 0.0` turns a -0.0 start into 0.0, which prints "0"."""
    raw = (hi - lo) / 6
    mag = 10.0 ** np.floor(np.log10(raw))
    step = min(s for s in (1 * mag, 2 * mag, 5 * mag, 10 * mag) if s >= raw)
    start = np.ceil(lo / step) * step + 0.0
    return np.arange(start, hi + step / 2, step)


def _cents(v: np.ndarray) -> np.ndarray:
    """round(100 v) as "%.2f" rounds it, as int32, for v in [0, 999.995).

    fl(100 v) is within 7.3e-12 of 100 v, so floor(fl(100 v) + 1/2) is
    exact unless 100 v is within 1e-6 of a half; there "%.2f" rounds.
    """
    hk = 100 * v
    k = np.floor(hk + 0.5)
    for i in np.flatnonzero(abs(abs(hk - k) - 0.5) <= 1e-6):
        k[i] = int(("%.2f" % v[i]).replace(".", ""))
    return k.astype(np.int32)


def _polylines(pixels: np.ndarray) -> list:
    """Each polyline's `points`: "%.2f,%.2f" of the pixel pairs of one
    series, joined by spaces, for the (series, m, 2) stack `pixels`."""
    q, r = np.divmod(_cents(pixels.ravel()), 100)
    cells = np.empty(len(q), _CELL)
    cells["int"], cells["frac"] = _INTS[q], _FRACS[r]
    cells["sep"][0::2], cells["sep"][1::2] = b",", b" "
    raw = cells.view(np.uint8)
    text = raw[raw != 0].tobytes().decode()
    # each series' text ends before the space after its last y value
    per_series = 2 * pixels.shape[1]
    stops = np.cumsum(5 + (q >= 10) + (q >= 100))[per_series - 1::per_series].tolist()
    return [text[a:b - 1] for a, b in zip([0] + stops, stops)]


def line_chart(series: dict, path, title: str) -> None:
    """Write one chart of issue s against power x; `series` maps legend
    label -> (values, dashed), the values at s = 0 ... len - 1, all of
    one length."""
    ys = np.array([values for values, _ in series.values()], dtype=float)
    s = np.arange(ys.shape[1], dtype=float)
    # simulate's s spans issues >= 1 and its states lie in [0, 1]: no span is
    # zero or overflows; the 1e-12 floor serves a comparison of two runs held
    # at a vertex that none of its charted coordinates is
    x_hi = float(s[-1])
    y_hi = float(max(ys.max(), 1e-12))
    pad = 0.05 * y_hi
    y_lo, y_hi = -pad, y_hi + pad

    pw, ph = _W - _ML - _MR, _H - _MT - _MB

    def px(x):
        return _ML + x / x_hi * pw

    def py(y):
        return _MT + ph - (y - y_lo) / (y_hi - y_lo) * ph

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2}" y="22" text-anchor="middle" font-size="15">{_escape(title)}</text>',
        f'<rect x="{_ML}" y="{_MT}" width="{pw}" height="{ph}" fill="none" stroke="black"/>',
    ]
    for tx in _ticks(0.0, x_hi):
        out.append(
            f'<line x1="{px(tx):.1f}" y1="{_MT + ph}" x2="{px(tx):.1f}" y2="{_MT + ph + 4}" stroke="black"/>'
            f'<text x="{px(tx):.1f}" y="{_MT + ph + 18}" text-anchor="middle">{tx:g}</text>'
        )
    for ty in _ticks(y_lo, y_hi):
        out.append(
            f'<line x1="{_ML - 4}" y1="{py(ty):.1f}" x2="{_ML}" y2="{py(ty):.1f}" stroke="black"/>'
            f'<text x="{_ML - 8}" y="{py(ty) + 4:.1f}" text-anchor="end">{ty:g}</text>'
        )
    out.append(
        f'<text x="{_ML + pw / 2}" y="{_H - 10}" text-anchor="middle">s</text>'
        f'<text x="18" y="{_MT + ph / 2}" text-anchor="middle" '
        f'transform="rotate(-90 18 {_MT + ph / 2})">x</text>'
    )
    points = _polylines(np.stack(np.broadcast_arrays(px(s), py(ys)), axis=-1))
    for k, ((label, (_, dashed)), pts) in enumerate(zip(series.items(), points)):
        color = _COLORS[k % len(_COLORS)]
        dash = ' stroke-dasharray="6 4"' if dashed else ""
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"{dash}/>')
        ly = _MT + 14 + 18 * k
        out.append(
            f'<line x1="{_W - _MR + 10}" y1="{ly - 4}" x2="{_W - _MR + 38}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="1.5"{dash}/>'
            f'<text x="{_W - _MR + 44}" y="{ly}">{_escape(label)}</text>'
        )
    out.append("</svg>")
    _write_text(path, "\n".join(out) + "\n")
