"""Cost-efficiency curves and the metrics read off them.

A curve tracks, along a ranking, the cumulative fraction of analysis
effort spent (x) against the proportion of defective modules or defects
found (y). PofB@t reads the curve with whole-module (step) semantics;
Popt compares the area under a ranking's curve with the area under the
optimal curve for the same driver.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, _check_choice, _frozen, _read_only
from .effort import EffortDriver, _cumulative_shares, cumulative_effort_fractions, cutoff_from_fractions
from .ranking import RankedList

BENEFIT_MODES = ("modules", "defects")
INTERPOLATIONS = ("linear", "step")


@dataclass(frozen=True, eq=False)
class CostEfficiencyCurve:
    """Monotone curve from (0, 0) to (1, 1), one point per whole module.

    xs and ys have length n+1 including the origin and are stored through
    dataset._read_only as read-only float arrays. The driver name, ranking
    policy, and benefit mode are carried along so that curves are only ever
    compared when they actually describe the same experiment. The shape is
    checked here, vectorised, when the curve is built, and nowhere else.
    Its area is computed once, when Popt first reads it.
    """

    xs: np.ndarray
    ys: np.ndarray
    driver: str
    policy: str
    benefit: str

    def __post_init__(self) -> None:
        xs = _read_only(self.xs, float, np.size(self.xs), "effort fractions")
        ys = _read_only(self.ys, float, len(xs), "benefit")
        if len(xs) < 2:
            raise ValueError("curve needs at least two points")
        if xs[0] != 0.0 or ys[0] != 0.0:
            raise ValueError("curve must start at (0, 0)")
        if xs[-1] != 1.0 or ys[-1] != 1.0:
            raise ValueError("curve must end at (1, 1)")
        # <= is False for NaN, so a NaN point fails these checks
        if not np.all(xs[:-1] <= xs[1:]):
            raise ValueError("effort fractions must be non-decreasing")
        if not np.all(ys[:-1] <= ys[1:]):
            raise ValueError("benefit must be non-decreasing")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)

    @functools.cached_property
    def area(self) -> float:
        """Trapezoid area, computed once: the memo's optimal curve serves every Popt of its driver."""
        xs, ys = self.xs, self.ys
        return float(np.sum(np.diff(xs) * (ys[1:] + ys[:-1]) / 2.0))


def cost_efficiency_curve(
    ranking: RankedList,
    drv: EffortDriver,
    d: Dataset,
    benefit: str = "modules",
) -> CostEfficiencyCurve:
    """Build the curve for a ranking under a driver.

    x after k modules is their cumulative effort fraction; y is the
    cumulative benefit (defective modules, or defects when counts are in
    play) over the total. Both endpoints are exact.
    """
    fractions = cumulative_effort_fractions(drv, ranking, d)
    _check_choice("benefit", benefit, BENEFIT_MODES)
    if benefit == "modules":
        values, empty = d.labels.astype(float), "no defective modules: benefit proportion is undefined"
    elif d.defect_counts is None:
        raise ValueError("benefit='defects' needs a defect count for every module")
    else:
        values, empty = d.defect_counts, "no defects recorded: benefit proportion is undefined"
    found = _cumulative_shares(values, ranking.order, empty)
    return CostEfficiencyCurve(
        xs=_frozen(np.concatenate(([0.0], fractions))),
        ys=_frozen(np.concatenate(([0.0], found))),
        driver=drv.name,
        policy=ranking.policy,
        benefit=benefit,
    )


def budget_reading(curve: CostEfficiencyCurve, budget: float) -> tuple[int, float]:
    """The whole modules a budget pays for along the curve, and the benefit
    proportion they reach.

    Step semantics: analysis applies only to entire modules, so the cutoff
    is the largest count of leading modules whose x does not exceed the
    budget (within the usual 1e-12 tolerance), and the value is its y.
    """
    cutoff = cutoff_from_fractions(curve.xs[1:], budget)
    return cutoff, float(curve.ys[cutoff])


def pofb_at(curve: CostEfficiencyCurve, budget: float) -> float:
    """PofB: the benefit proportion budget_reading gives at the budget."""
    return budget_reading(curve, budget)[1]


def popt(
    model_curve: CostEfficiencyCurve,
    optimal_curve: CostEfficiencyCurve,
    interpolation: str = "linear",
) -> float:
    """1 minus the area between the optimal curve and the model's curve.

    Areas are integrated trapezoidally; summing the trapezoid of every
    curve segment is exact for these piecewise-linear curves, so refining
    the x-grid cannot change the result. "step" gives the linear value: a
    curve's step area is its linear area less half the sum over modules of
    effort share times benefit share, which no ranking changes. Under
    benefit="modules" the optimal curve dominates every ranking's curve
    under the same driver, so the result lies in [0, 1] and reaches 1 only
    when the curves coincide. Under benefit="defects" the optimal ranking
    is not yet built for defect counts, so a model's curve can rise above
    it and the result can exceed 1 (ROADMAP item 1).
    """
    if optimal_curve.policy != "optimal":
        raise ValueError("second argument must be an optimal-ranking curve")
    if model_curve.driver != optimal_curve.driver:
        raise ValueError(
            f"driver mismatch: {model_curve.driver!r} vs {optimal_curve.driver!r}"
        )
    if model_curve.benefit != optimal_curve.benefit:
        raise ValueError(
            f"benefit mismatch: {model_curve.benefit!r} vs {optimal_curve.benefit!r}"
        )
    if len(model_curve.xs) != len(optimal_curve.xs):
        raise ValueError("curves describe datasets of different sizes")
    _check_choice("interpolation", interpolation, INTERPOLATIONS)
    return 1.0 - (optimal_curve.area - model_curve.area)
