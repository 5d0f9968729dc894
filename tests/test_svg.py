import math
import xml.etree.ElementTree as ET
from decimal import Decimal

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from eameval.svg import (
    CELL_PX, HEIGHT, MARGIN_BOTTOM, MARGIN_LEFT, MARGIN_RIGHT, MARGIN_TOP, PLOT_H, PLOT_W, WIDTH, render_curves,
)

SVG_NS = "{http://www.w3.org/2000/svg}"
# How far a curve point may lie from the drawn vertex nearest it: the
# diagonal of a cell, plus the 2-decimal printing's rounding and some.
REACH = CELL_PX * math.sqrt(2) + 0.01


def canvas(xs, ys):
    """Canvas coordinates of unit-square points, one point at a time."""
    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM
    return [MARGIN_LEFT + x * plot_w for x in xs], [HEIGHT - MARGIN_BOTTOM - y * plot_h for y in ys]


def point_reference(xs, ys):
    """Each curve point mapped to the canvas and printed to 2 decimals, one
    at a time: the points a polyline draws are taken from these."""
    return [f"{x:.2f},{y:.2f}" for x, y in zip(*canvas(xs, ys))]


def farthest_from_drawn(points, xs, ys):
    """The largest distance, in canvas px, from a curve point to the drawn
    vertex nearest it; a vertex more than REACH away in x is never nearest
    enough to count."""
    drawn = np.array([p.split(",") for p in points], dtype=float)
    drawn = drawn[np.argsort(drawn[:, 0], kind="stable")]
    cx, cy = (np.array(c) for c in canvas(xs, ys))
    lo = np.searchsorted(drawn[:, 0], cx - REACH)
    hi = np.searchsorted(drawn[:, 0], cx + REACH, side="right")
    window = lo[:, None] + np.arange(max(1, (hi - lo).max()))
    near = np.minimum(window, len(drawn) - 1)
    distance = np.hypot(drawn[near, 0] - cx[:, None], drawn[near, 1] - cy[:, None])
    return np.where(window < hi[:, None], distance, np.inf).min(axis=1).max()


def assert_drawn_by_the_cell_rule(points, xs, ys):
    """What a polyline's points are pinned to: reference points in curve
    order, the first and the last exact, no two consecutive alike, and
    every curve point within REACH of one of them."""
    reference = point_reference(xs, ys)
    assert points[0] == reference[0] and points[-1] == reference[-1]
    remaining = iter(reference)
    assert all(point in remaining for point in points)  # a subsequence
    assert all(a != b for a, b in zip(points, points[1:]))
    assert farthest_from_drawn(points, xs, ys) <= REACH


def polyline_points(path):
    root = ET.parse(path).getroot()
    return [line.get("points").split(" ") for line in root.findall(f"{SVG_NS}polyline")]


def preimage(target, forward, guess):
    """A float v near guess with forward(v) == target exactly, or None."""
    for direction in (np.inf, -np.inf):
        v = guess
        for _ in range(64):
            if forward(v) == target:
                return v
            v = float(np.nextafter(v, direction))
    return None


def half_boundary_values(hundredths, forward, inverse):
    """Unit values whose canvas coordinates sit exactly on, and 1 ulp
    either side of, k/100 + 0.005 for each k whose three are reachable,
    with a clear value on each side. k.005 lies between the two
    neighbours, so they print apart."""
    values = []
    for k in hundredths:
        half = float(Decimal(k) / 100 + Decimal("0.005"))
        below, above = float(np.nextafter(half, -np.inf)), float(np.nextafter(half, np.inf))
        assert f"{below:.2f}" != f"{above:.2f}"
        exact = [preimage(c, forward, inverse(c)) for c in (below, half, above)]
        if None not in exact:  # 62 + 560x skips some canvas floats
            values += [inverse(half - 0.003), *exact, inverse(half + 0.003)]
    assert len(values) >= len(hundredths)  # a fifth of the k at least
    return values


def monotone_curve(rng, n):
    xs = np.concatenate([[0.0], np.cumsum(rng.exponential(size=n))])
    ys = np.concatenate([[0.0], np.cumsum(rng.random(n) < 0.3)])
    return xs / xs[-1], ys / max(ys[-1], 1)


class TestPolylinePoints:
    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), sizes=st.lists(st.integers(1, 3000), min_size=1, max_size=3))
    def test_points_follow_the_cell_rule(self, tmp_path_factory, seed, sizes):
        rng = np.random.default_rng(seed)
        curves = [monotone_curve(rng, n) for n in sizes]
        path = tmp_path_factory.mktemp("svg") / "c.svg"
        render_curves(path, [(f"c{k}", xs, ys) for k, (xs, ys) in enumerate(curves)], title="t")
        rendered = polyline_points(path)
        assert len(rendered) == len(curves)
        for points, (xs, ys) in zip(rendered, curves):
            assert_drawn_by_the_cell_rule(points, xs.tolist(), ys.tolist())

    def test_dense_curve_drops_repeated_pixels(self, tmp_path):
        # 100k points on a 560 x 386 px diagonal, which crosses fewer than
        # (560 + 386) / CELL_PX cells
        xs = np.linspace(0.0, 1.0, 100_001)
        render_curves(tmp_path / "d.svg", [("dense", xs, xs)], title="t")
        (points,) = polyline_points(tmp_path / "d.svg")
        assert len(points) <= (PLOT_W + PLOT_H) / CELL_PX + 2
        assert len(set(points)) == len(points)
        assert_drawn_by_the_cell_rule(points, xs.tolist(), xs.tolist())

    def test_half_hundredth_ties_are_compared_as_text(self, tmp_path):
        # Canvas coordinates on and next to k.005, where %.2f rounds by the
        # exact binary value; consecutive points differ by a few ulps.
        plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
        plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM
        xs = half_boundary_values(
            range(6200, 62200, 1399), lambda x: MARGIN_LEFT + x * plot_w,
            lambda c: (c - MARGIN_LEFT) / plot_w)
        ys = half_boundary_values(
            range(4200, 42800, 997), lambda y: HEIGHT - MARGIN_BOTTOM - y * plot_h,
            lambda c: (HEIGHT - MARGIN_BOTTOM - c) / plot_h)
        # Every x against every y, each point twice so exact repeats occur too.
        px = [x for x in xs for _ in ys for _ in range(2)]
        py = [y for _ in xs for y in ys for _ in range(2)]
        render_curves(tmp_path / "h.svg", [("ties", px, py)], title="t")
        (points,) = polyline_points(tmp_path / "h.svg")
        assert_drawn_by_the_cell_rule(points, px, py)

    def test_points_off_the_unit_square_are_compared_as_text(self, tmp_path):
        plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
        # Canvas x just either side of 0 prints as "-0.00" and "0.00".
        near_zero = [(c - MARGIN_LEFT) / plot_w for c in (-0.003, 0.003, -0.003, -0.001)]
        # Near canvas x = 1e15 a float's ulp is 0.125 px, half a cell.
        far = np.nextafter(1e15 / plot_w, np.inf) + np.arange(200) * np.spacing(1e15 / plot_w)
        xs = near_zero + far.tolist()
        ys = [0.5] * len(xs)
        render_curves(tmp_path / "o.svg", [("off", xs, ys)], title="t")
        (points,) = polyline_points(tmp_path / "o.svg")
        assert points[:3] == ["-0.00,235.00", "0.00,235.00", "-0.00,235.00"]
        assert_drawn_by_the_cell_rule(points, xs, ys)


class TestText:
    def test_title_axis_label_and_driver_name_read_back(self, tmp_path):
        title, y_label = 'a & b < "c" > d', "found/<all> & 'more'"
        driver = "composite:<A&B>,C,0.5"
        render_curves(tmp_path / "t.svg", [(driver, [0.0, 1.0], [0.0, 1.0])], title=title, y_label=y_label)
        texts = [t.text for t in ET.parse(tmp_path / "t.svg").getroot().iter(f"{SVG_NS}text")]
        assert {title, y_label, driver} <= set(texts)
        # only &, < and > are escaped; quotes are left as they are
        raw = (tmp_path / "t.svg").read_text(encoding="utf-8")
        assert '>a &amp; b &lt; "c" &gt; d</text>' in raw
        assert ">found/&lt;all&gt; &amp; 'more'</text>" in raw
        assert ">composite:&lt;A&amp;B&gt;,C,0.5</text>" in raw
