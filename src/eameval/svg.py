"""Minimal self-contained SVG line plots for cost-efficiency curves.

No plotting library: curves live on the unit square, so a fixed viewport,
a handful of ticks, a dashed diagonal for random selection, and one
polyline per series cover everything the reports need. Output is plain
deterministic text.
"""

from __future__ import annotations

from html import escape
from itertools import groupby
from pathlib import Path

import numpy as np

WIDTH, HEIGHT = 640, 480
MARGIN_LEFT, MARGIN_RIGHT = 62, 18
MARGIN_TOP, MARGIN_BOTTOM = 42, 52
PLOT_W = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
PLOT_H = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf")
TICKS = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
X_LABEL = "effort fraction"
# Side, in canvas px, of the square cells a polyline draws about one point
# of each (see _polyline_points).
CELL_PX = 0.25


def _px(x: float) -> str:
    return f"{x:.2f}"


def _to_canvas(x, y):
    """Canvas coordinates of unit-square points, floats or arrays."""
    return (MARGIN_LEFT + x * PLOT_W, HEIGHT - MARGIN_BOTTOM - y * PLOT_H)


def _polyline_points(xs, ys) -> list[str]:
    """Canvas "x,y" pairs of a curve at the rendered 2-decimal precision.

    A point is drawn when its canvas position lies in another CELL_PX x
    CELL_PX cell than the point before it; the first and the last point
    are always drawn. A point left out shares a cell with the drawn point
    that starts its run, so the line stays within CELL_PX * sqrt(2) (plus
    the printing's rounding) of every point of the curve, and a long
    curve's plot shrinks to about one point per cell it crosses. Drawn
    points that print like the one before them are then dropped too.
    """
    px, py = _to_canvas(np.asarray(xs, dtype=float), np.asarray(ys, dtype=float))
    cx, cy = np.floor(px / CELL_PX), np.floor(py / CELL_PX)
    drawn = np.ones(len(px), dtype=bool)
    drawn[1:-1] = (cx[1:-1] != cx[:-2]) | (cy[1:-1] != cy[:-2])
    pairs = map("{:.2f},{:.2f}".format, px[drawn].tolist(), py[drawn].tolist())
    return [pair for pair, _ in groupby(pairs)]


def render_curves(
    path,
    series,
    title: str,
    y_label: str = "benefit proportion",
) -> None:
    """Write an SVG overlaying unit-square curves.

    series is a list of (label, xs, ys) triples, xs and ys float sequences
    or arrays; colors cycle through a fixed palette. The dashed gray
    diagonal (random module selection) is always drawn.
    """
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.0f}" y="24" text-anchor="middle" font-size="15">{escape(title, quote=False)}</text>',
    ]

    x0, y0 = _to_canvas(0.0, 0.0)
    x1, y1 = _to_canvas(1.0, 1.0)
    for t in TICKS:
        gx, _ = _to_canvas(t, 0.0)
        _, gy = _to_canvas(0.0, t)
        parts.append(
            f'<line x1="{_px(gx)}" y1="{_px(y0)}" x2="{_px(gx)}" y2="{_px(y1)}" stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<line x1="{_px(x0)}" y1="{_px(gy)}" x2="{_px(x1)}" y2="{_px(gy)}" stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_px(gx)}" y="{_px(y0 + 18)}" text-anchor="middle" font-size="11">{t:.1f}</text>'
        )
        parts.append(
            f'<text x="{_px(x0 - 8)}" y="{_px(gy + 4)}" text-anchor="end" font-size="11">{t:.1f}</text>'
        )

    # axes
    parts.append(
        f'<line x1="{_px(x0)}" y1="{_px(y0)}" x2="{_px(x1)}" y2="{_px(y0)}" stroke="black" stroke-width="1.5"/>'
    )
    parts.append(
        f'<line x1="{_px(x0)}" y1="{_px(y0)}" x2="{_px(x0)}" y2="{_px(y1)}" stroke="black" stroke-width="1.5"/>'
    )
    parts.append(
        f'<text x="{(x0 + x1) / 2:.2f}" y="{HEIGHT - 14}" text-anchor="middle" font-size="13">{X_LABEL}</text>'
    )
    parts.append(
        f'<text x="16" y="{(y0 + y1) / 2:.2f}" text-anchor="middle" font-size="13" '
        f'transform="rotate(-90 16 {(y0 + y1) / 2:.2f})">{escape(y_label, quote=False)}</text>'
    )

    # random-selection reference line
    parts.append(
        f'<line x1="{_px(x0)}" y1="{_px(y0)}" x2="{_px(x1)}" y2="{_px(y1)}" '
        f'stroke="#888888" stroke-width="1" stroke-dasharray="6 4"/>'
    )

    for k, (label, xs, ys) in enumerate(series):
        color = PALETTE[k % len(PALETTE)]
        coords = " ".join(_polyline_points(xs, ys))
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="2"/>'
        )
        # legend, stacked top-left inside the plot area
        lx = MARGIN_LEFT + 12
        ly = MARGIN_TOP + 16 + 18 * k
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 26}" y2="{ly - 4}" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{lx + 32}" y="{ly}" font-size="12">{escape(label, quote=False)}</text>'
        )

    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")
