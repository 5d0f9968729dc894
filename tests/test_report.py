import csv
import io
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eameval import report as report_module
from eameval.curves import CostEfficiencyCurve
from eameval.report import write_compare_csv, write_curve_csv

# Values a cost-efficiency curve's fractions can take that a shortest-repr
# writer is most likely to get wrong: tiny, subnormal and negative zero.
SPECIAL_FRACTIONS = (-0.0, 0.0, 5e-324, 1e-05, 0.1, 1 / 3, 0.5, 1.0)
DRIVER_NAMES = ("LOC", "composite:LOC,McCC,0.5", 'say "hi", twice', "a b\r\nc")


def csv_reference(header, rows):
    """The bytes csv.writer gives for the header and one row per point,
    each float written as its repr, one at a time."""
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow(header)
    writer.writerows([*prefix, repr(x), repr(y)] for *prefix, x, y in rows)
    return buffer.getvalue().encode("utf-8")


def fractions(size=st.integers(0, 40)):
    """A non-decreasing sequence from 0 to 1, repeats included."""
    value = st.sampled_from(SPECIAL_FRACTIONS) | st.floats(0.0, 1.0)
    return size.flatmap(lambda k: st.lists(value, min_size=k, max_size=k)).map(
        lambda inner: [0.0, *sorted(inner), 1.0]
    )


@st.composite
def curves(draw):
    xs = draw(fractions())
    return CostEfficiencyCurve(
        xs=xs,
        ys=draw(fractions(st.just(len(xs) - 2))),
        driver=draw(st.sampled_from(DRIVER_NAMES) | st.text(max_size=8)),
        policy=draw(st.sampled_from(("score", "density", "optimal"))),
        benefit="modules",
    )


def points(curve):
    return list(zip(curve.xs.tolist(), curve.ys.tolist()))


def parsed_back(path):
    """The (x, y) values of a written file, each cell read with float()."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    return [(float(row[-2]), float(row[-1])) for row in rows]


class TestCurveCsv:
    @settings(max_examples=200, deadline=None)
    @given(curve=curves())
    # Zero-effort modules (repeated xs) and one distinct y after the origin.
    @example(curve=CostEfficiencyCurve(
        xs=[0.0, 0.0, 0.0, 5e-324, 1.0], ys=[0.0, 1.0, 1.0, 1.0, 1.0],
        driver="composite:LOC,McCC,0.5", policy="score", benefit="modules",
    ))
    @example(curve=CostEfficiencyCurve(
        xs=[0.0, 1e-05, 1e-05, 1.0], ys=[-0.0, 0.0, 5e-324, 1.0],
        driver='say "hi", twice', policy="density", benefit="defects",
    ))
    def test_matches_the_csv_writer_reference(self, tmp_path_factory, curve):
        path = tmp_path_factory.mktemp("csv") / "c.csv"
        write_curve_csv(path, curve)
        header = [f"effort_fraction ({curve.driver})", f"benefit ({curve.policy})"]
        expected = csv_reference(header, points(curve))
        assert path.read_bytes() == expected
        assert parsed_back(path) == points(curve)
        # Writes of 3 rows put block boundaries inside every curve of 4 or more points.
        with mock.patch.object(report_module, "_WRITE_ROWS", 3):
            write_curve_csv(path, curve)
        assert path.read_bytes() == expected

    def test_long_curve_matches_the_csv_writer_reference(self, tmp_path):
        # 10k points span several writes; the special fractions sit in the first.
        rng = np.random.default_rng(7)
        inner = np.sort(rng.random(9_995))
        xs = [0.0, -0.0, 5e-324, 1e-05, *inner.tolist(), 1.0]
        ys = [0.0, -0.0, 5e-324, 1e-05, *np.maximum(np.round(inner, 2), 1e-05).tolist(), 1.0]
        curve = CostEfficiencyCurve(xs=xs, ys=ys, driver="LOC", policy="score", benefit="modules")
        write_curve_csv(tmp_path / "c.csv", curve)
        header = ["effort_fraction (LOC)", "benefit (score)"]
        assert (tmp_path / "c.csv").read_bytes() == csv_reference(header, points(curve))

    @settings(max_examples=100, deadline=None)
    @given(several=st.lists(curves(), min_size=1, max_size=3))
    def test_compare_matches_the_csv_writer_reference(self, tmp_path_factory, several):
        path = tmp_path_factory.mktemp("csv") / "c.csv"
        write_compare_csv(path, several)
        rows = [(c.driver, c.policy, x, y) for c in several for x, y in points(c)]
        header = ["driver", "policy", "effort_fraction", "benefit"]
        assert path.read_bytes() == csv_reference(header, rows)
        assert parsed_back(path) == [(x, y) for *_, x, y in rows]
