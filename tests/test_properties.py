"""Metamorphic properties from the paper's argument: an effort-aware
measure is effort-aware only through its driver. Each property relates two
runs of evaluate_suite, so none needs an oracle for Popt's value."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from eameval.dataset import Dataset
from eameval.effort import BUDGET_TOL, EffortDriver, driver_values
from eameval.evaluate import evaluate_suite

pytestmark = pytest.mark.filterwarnings("ignore::eameval.dataset.DataQualityWarning")

BUDGETS = (0.0, 0.1, 0.2, 0.5, 0.8, 1.0)
LOC, MCCC = EffortDriver(("LOC",)), EffortDriver(("McCC",))
# Multiples of 2**-20, so that no score / measure is subnormal and scaling
# a measure by a power of two scales every density exactly.
SCORES = st.sampled_from([-0.0, 0.0, 0.25, 0.5]) | st.integers(-2**20, 2**20).map(lambda k: k / 2**20)


@st.composite
def instances(draw):
    """(dataset, scores): small integer measures, zeros and ties included,
    at least one defective module, and a defect count for each."""
    n = draw(st.integers(1, 39))
    loc = draw(st.lists(st.integers(0, 60), min_size=n, max_size=n))
    mccc = draw(st.lists(st.integers(0, 20), min_size=n, max_size=n))
    assume(sum(loc) > 0 and sum(mccc) > 0)
    labels = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    labels[draw(st.integers(0, n - 1))] = True
    counts = [draw(st.integers(1, 5)) if defective else 0 for defective in labels]
    d = Dataset(ids=[f"m{i}" for i in range(n)], labels=labels,
                measures={"LOC": loc, "McCC": mccc}, defect_counts=counts)
    return d, np.array(draw(st.lists(SCORES, min_size=n, max_size=n)))


def readings(report):
    """Every cell's curves, Popt and budget readings, as text that tells
    every float apart, -0.0 from 0.0 included."""
    return [
        repr((c.policy, c.driver, c.curve.xs.tolist(), c.curve.ys.tolist(), c.optimal_curve.xs.tolist(),
              c.optimal_curve.ys.tolist(), c.popt, [(b.cutoff, b.value, b.metrics.as_dict()) for b in c.budgets]))
        for c in report.cells
    ]


def permuted(d, scores, order):
    measures = {name: column[order] for name, column in d.measures.items()}
    return (Dataset(ids=[d.ids[i] for i in order], labels=d.labels[order], measures=measures,
                    defect_counts=d.defect_counts[order]), scores[order])


@settings(max_examples=100, deadline=None)
@given(case=instances(), data=st.data(), tie_break=st.sampled_from(["asc", "desc"]),
       interpolation=st.sampled_from(["linear", "step"]))
def test_row_permutation_keeps_readings_when_key_and_driver_value_pairs_are_distinct(
        case, data, tie_break, interpolation):
    """Permuting the modules, with their ids, counts and scores, leaves
    every reading bit-equal once no two modules tie on both the policy's
    key (score, or score / LOC) and the driver value: only then is dataset
    order never the tie-break. The benefit is "modules": under "defects"
    the optimal ranking ignores the counts, so two defective modules of
    equal effort and different counts order the optimal curve by dataset
    order too."""
    d, scores = case
    drivers = [LOC, MCCC, EffortDriver(("LOC", "McCC"), 0.3)]
    loc = d.measures["LOC"]  # integers, so a non-zero LOC is at least 1
    density = np.where(loc == 0, -np.inf, scores / np.maximum(loc, 1.0))
    for key in (scores, density):
        for drv in drivers:
            assume(len(set(zip((key + 0.0).tolist(), driver_values(drv, d).tolist()))) == d.n)
    order = np.array(data.draw(st.permutations(range(d.n))))
    grid = dict(policies=("score", "density", "optimal"), tie_break=tie_break, interpolation=interpolation)
    expected = readings(evaluate_suite(d, scores, drivers, BUDGETS, **grid))
    assert readings(evaluate_suite(*permuted(d, scores, order), drivers, BUDGETS, **grid)) == expected


@settings(max_examples=100, deadline=None)
@given(case=instances(), powers=st.tuples(st.integers(-30, 30), st.integers(-30, 30)),
       tie_break=st.sampled_from(["asc", "desc", "input"]), benefit=st.sampled_from(["modules", "defects"]),
       interpolation=st.sampled_from(["linear", "step"]))
def test_unit_cancel(case, powers, tie_break, benefit, interpolation):
    """Scaling each measure by its own power of two changes no curve,
    ranking or reading by a bit: effort units cancel."""
    d, scores = case
    drivers = [LOC, MCCC]
    if all(np.ptp(column) > 0 for column in d.measures.values()):
        drivers.append(EffortDriver(("LOC", "McCC"), 0.3, normalize=True))
    scaled = Dataset(ids=d.ids, labels=d.labels, defect_counts=d.defect_counts,
                     measures={name: d.measures[name] * 2.0 ** k for name, k in zip(("LOC", "McCC"), powers)})
    grid = dict(policies=("score", "density", "optimal"), tie_break=tie_break, benefit=benefit,
                interpolation=interpolation)
    before, after = (evaluate_suite(x, scores, drivers, BUDGETS, **grid) for x in (d, scaled))
    assert readings(after) == readings(before)
    assert [c.ranking.order.tolist() for c in after.cells] == [c.ranking.order.tolist() for c in before.cells]


@settings(max_examples=100, deadline=None)
@given(case=instances(), effort=st.integers(1, 1000), budgets=st.lists(st.floats(0.0, 1.0), max_size=4),
       benefit=st.sampled_from(["modules", "defects"]))
def test_flat_driver_reads_module_counts(case, effort, budgets, benefit):
    """With every module's effort equal, budget b buys floor(b * n) modules
    (within BUDGET_TOL), and the reading there is the exact benefit share of
    those modules: an effort-aware measure turns into a module count."""
    d, scores = case
    n = d.n
    flat = d.with_measure("flat", [effort] * n)
    budgets = list({f"{b:g}": b for b in [*budgets, *(k / n for k in range(n + 1))]}.values())
    report = evaluate_suite(flat, scores, [EffortDriver(("flat",))], budgets, ("score", "density", "optimal"),
                            benefit=benefit)
    benefits = (flat.labels.astype(int) if benefit == "modules" else flat.defect_counts.astype(int)).tolist()
    for cell in report.cells:
        for reading in cell.budgets:
            k = math.floor((Fraction(reading.budget) + Fraction(BUDGET_TOL)) * n)
            assert reading.cutoff == k
            top = cell.ranking.order[:k].tolist()
            assert reading.value == float(Fraction(sum(benefits[i] for i in top), sum(benefits)))


TRANSFORMS = {
    "affine": lambda v: 3.0 * v + 1.0,
    "square": np.square,
    "sqrt": np.sqrt,
    "log1p": np.log1p,
}


@settings(max_examples=100, deadline=None)
@given(case=instances(), transform=st.sampled_from(sorted(TRANSFORMS)), tie_break=st.sampled_from(["asc", "desc"]))
def test_same_order_gives_the_same_ranking(case, transform, tie_break):
    """A strictly increasing transform of a driver orders the modules as the
    driver does, so the optimal ranking under "modules" stays the same;
    with no tied scores every driver gives the same score ranking."""
    d, scores = case
    d = d.with_measure("T", TRANSFORMS[transform](d.measures["LOC"]))
    drivers = [LOC, EffortDriver(("T",)), MCCC]
    report = evaluate_suite(d, scores, drivers, [], ("score", "optimal"), tie_break=tie_break)
    score_cells, optimal_cells = report.cells[:3], report.cells[3:]
    assert optimal_cells[0].ranking.order.tolist() == optimal_cells[1].ranking.order.tolist()
    if len(set((scores + 0.0).tolist())) == d.n:
        assert len({tuple(c.ranking.order.tolist()) for c in score_cells}) == 1
