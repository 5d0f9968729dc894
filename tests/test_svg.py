import xml.etree.ElementTree as ET

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from eameval.svg import HEIGHT, MARGIN_BOTTOM, MARGIN_LEFT, MARGIN_RIGHT, MARGIN_TOP, WIDTH, render_curves

SVG_NS = "{http://www.w3.org/2000/svg}"


def point_reference(xs, ys):
    """The per-point formatter the polyline points are defined by: each
    point mapped to the canvas and printed to 2 decimals, one at a time."""
    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM
    return [
        f"{MARGIN_LEFT + x * plot_w:.2f},{HEIGHT - MARGIN_BOTTOM - y * plot_h:.2f}"
        for x, y in zip(xs, ys)
    ]


def without_repeats(points):
    return [p for k, p in enumerate(points) if k == 0 or p != points[k - 1]]


def polyline_points(path):
    root = ET.parse(path).getroot()
    return [line.get("points").split(" ") for line in root.findall(f"{SVG_NS}polyline")]


def monotone_curve(rng, n):
    xs = np.concatenate([[0.0], np.cumsum(rng.exponential(size=n))])
    ys = np.concatenate([[0.0], np.cumsum(rng.random(n) < 0.3)])
    return xs / xs[-1], ys / max(ys[-1], 1)


class TestPolylinePoints:
    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), sizes=st.lists(st.integers(1, 3000), min_size=1, max_size=3))
    def test_points_are_the_reference_without_consecutive_repeats(self, tmp_path_factory, seed, sizes):
        rng = np.random.default_rng(seed)
        curves = [monotone_curve(rng, n) for n in sizes]
        path = tmp_path_factory.mktemp("svg") / "c.svg"
        render_curves(path, [(f"c{k}", xs, ys) for k, (xs, ys) in enumerate(curves)], title="t")
        rendered = polyline_points(path)
        assert len(rendered) == len(curves)
        for points, (xs, ys) in zip(rendered, curves):
            reference = point_reference(xs.tolist(), ys.tolist())
            assert points == without_repeats(reference)
            assert points[0] == reference[0] and points[-1] == reference[-1]

    def test_dense_curve_drops_repeated_pixels(self, tmp_path):
        # 100k points on a 560 x 386 px diagonal: 72401 distinct 2-decimal pairs
        xs = np.linspace(0.0, 1.0, 100_001)
        render_curves(tmp_path / "d.svg", [("dense", xs, xs)], title="t")
        (points,) = polyline_points(tmp_path / "d.svg")
        assert len(points) == 72401
        assert len(set(points)) == len(points)
        assert points == without_repeats(point_reference(xs.tolist(), xs.tolist()))
