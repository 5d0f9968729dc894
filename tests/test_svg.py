import xml.etree.ElementTree as ET
from decimal import Decimal

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
        reference = point_reference(px, py)
        assert points == without_repeats(reference)

    def test_points_off_the_unit_square_are_compared_as_text(self, tmp_path):
        plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
        # Canvas x just either side of 0 prints as "-0.00" and "0.00".
        near_zero = [(c - MARGIN_LEFT) / plot_w for c in (-0.003, 0.003, -0.003, -0.001)]
        # Near canvas x = 1e15, 100 * x no longer counts hundredths: neighbouring
        # floats share rint(100 * x) yet print apart.
        far = np.nextafter(1e15 / plot_w, np.inf) + np.arange(200) * np.spacing(1e15 / plot_w)
        xs = near_zero + far.tolist()
        ys = [0.5] * len(xs)
        render_curves(tmp_path / "o.svg", [("off", xs, ys)], title="t")
        (points,) = polyline_points(tmp_path / "o.svg")
        assert points[:3] == ["-0.00,235.00", "0.00,235.00", "-0.00,235.00"]
        assert points == without_repeats(point_reference(xs, ys))
