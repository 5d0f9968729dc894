"""Minimal self-contained SVG line plots for cost-efficiency curves.

No plotting library: curves live on the unit square, so a fixed viewport,
a handful of ticks, a dashed diagonal for random selection, and one
polyline per series cover everything the reports need. Output is plain
deterministic text.
"""

from __future__ import annotations

from pathlib import Path

WIDTH, HEIGHT = 640, 480
MARGIN_LEFT, MARGIN_RIGHT = 62, 18
MARGIN_TOP, MARGIN_BOTTOM = 42, 52

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf")
TICKS = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _px(x: float) -> str:
    return f"{x:.2f}"


def _to_canvas(x: float, y: float) -> tuple[float, float]:
    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM
    return (MARGIN_LEFT + x * plot_w, HEIGHT - MARGIN_BOTTOM - y * plot_h)


def render_curves(
    path,
    series,
    title: str,
    x_label: str = "effort fraction",
    y_label: str = "benefit proportion",
) -> None:
    """Write an SVG overlaying unit-square curves.

    series is a list of (label, xs, ys) triples, xs and ys lists of Python
    floats (a curve's xs.tolist()); colors cycle through a fixed palette. The dashed gray diagonal (random module selection) is
    always drawn.
    """
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.0f}" y="24" text-anchor="middle" font-size="15">{_escape(title)}</text>',
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
        f'<text x="{(x0 + x1) / 2:.2f}" y="{HEIGHT - 14}" text-anchor="middle" font-size="13">{_escape(x_label)}</text>'
    )
    parts.append(
        f'<text x="16" y="{(y0 + y1) / 2:.2f}" text-anchor="middle" font-size="13" '
        f'transform="rotate(-90 16 {(y0 + y1) / 2:.2f})">{_escape(y_label)}</text>'
    )

    # random-selection reference line
    parts.append(
        f'<line x1="{_px(x0)}" y1="{_px(y0)}" x2="{_px(x1)}" y2="{_px(y1)}" '
        f'stroke="#888888" stroke-width="1" stroke-dasharray="6 4"/>'
    )

    for k, (label, xs, ys) in enumerate(series):
        color = PALETTE[k % len(PALETTE)]
        coords = " ".join(
            f"{_px(px)},{_px(py)}" for px, py in (_to_canvas(x, y) for x, y in zip(xs, ys))
        )
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
            f'<text x="{lx + 32}" y="{ly}" font-size="12">{_escape(label)}</text>'
        )

    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")
