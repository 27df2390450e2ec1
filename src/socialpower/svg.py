"""Minimal self-contained SVG line charts for trajectory output.

No plotting dependency: charts are written directly as vector graphics
so runs stay reproducible byte-for-byte.
"""

from __future__ import annotations

import numpy as np

_COLORS = [
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
    "#8c564b", "#17becf", "#7f7f7f", "#bcbd22", "#e377c2",
]

_W, _H = 720, 440
_ML, _MR, _MT, _MB = 60, 150, 40, 50


def _ticks(lo: float, hi: float):
    """Round tick values across [lo, hi], about six of them."""
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / 6
    mag = 10.0 ** np.floor(np.log10(raw))
    step = min(s for s in (1 * mag, 2 * mag, 5 * mag, 10 * mag) if s >= raw)
    start = np.ceil(lo / step) * step
    return np.arange(start, hi + step / 2, step)


def line_chart(series: dict, path, title: str) -> None:
    """Write one chart of issue s against power x; `series` maps legend
    label -> (x, y, dashed)."""
    xs = np.concatenate([np.asarray(x, dtype=float) for x, _, _ in series.values()])
    ys = np.concatenate([np.asarray(y, dtype=float) for _, y, _ in series.values()])
    x_lo, x_hi = float(xs.min()), float(max(xs.max(), xs.min() + 1))
    y_lo, y_hi = float(min(ys.min(), 0.0)), float(max(ys.max(), 1e-12))
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    pw, ph = _W - _ML - _MR, _H - _MT - _MB

    def px(x):
        return _ML + (x - x_lo) / (x_hi - x_lo) * pw

    def py(y):
        return _MT + ph - (y - y_lo) / (y_hi - y_lo) * ph

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2}" y="22" text-anchor="middle" font-size="15">{title}</text>',
        f'<rect x="{_ML}" y="{_MT}" width="{pw}" height="{ph}" fill="none" stroke="black"/>',
    ]
    for tx in _ticks(x_lo, x_hi):
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
    # every point's pixel pair, interleaved, from one px and one py call;
    # series k owns the slice ends[k]:ends[k + 1] of points
    pixels = np.column_stack((px(xs), py(ys))).ravel().tolist()
    ends = np.cumsum([0] + [len(x) for x, _, _ in series.values()]).tolist()
    for k, (label, (_, _, dashed)) in enumerate(series.items()):
        color = _COLORS[k % len(_COLORS)]
        pairs = " ".join(["%.2f,%.2f"] * (ends[k + 1] - ends[k]))
        pts = pairs % tuple(pixels[2 * ends[k]:2 * ends[k + 1]])
        dash = ' stroke-dasharray="6 4"' if dashed else ""
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"{dash}/>')
        ly = _MT + 14 + 18 * k
        out.append(
            f'<line x1="{_W - _MR + 10}" y1="{ly - 4}" x2="{_W - _MR + 38}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="1.5"{dash}/>'
            f'<text x="{_W - _MR + 44}" y="{ly}">{label}</text>'
        )
    out.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(out) + "\n")
