"""Cost-efficiency curves and the metrics read off them.

A curve tracks, along a ranking, the cumulative fraction of analysis
effort spent (x) against the proportion of defective modules or defects
found (y). PofB@t reads the curve with whole-module (step) semantics;
Popt compares the area under a ranking's curve with the area under the
optimal curve for the same driver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .effort import EffortDriver, cumulative_effort_fractions, cutoff_from_fractions
from .ranking import RankedList

BENEFIT_MODES = ("modules", "defects")
INTERPOLATIONS = ("linear", "step")


@dataclass(frozen=True, eq=False)
class CostEfficiencyCurve:
    """Monotone curve from (0, 0) to (1, 1), one point per whole module.

    xs and ys have length n+1 including the origin and are stored as
    read-only float arrays. The driver name, ranking policy, and benefit
    mode are carried along so that curves are only ever compared when they
    actually describe the same experiment. The shape is checked here,
    vectorised, when the curve is built, and nowhere else.
    """

    xs: np.ndarray
    ys: np.ndarray
    driver: str
    policy: str
    benefit: str

    def __post_init__(self) -> None:
        xs = np.array(self.xs, dtype=float)
        ys = np.array(self.ys, dtype=float)
        if xs.ndim != 1 or xs.shape != ys.shape or len(xs) < 2:
            raise ValueError("curve needs matching xs/ys with at least two points")
        if xs[0] != 0.0 or ys[0] != 0.0:
            raise ValueError("curve must start at (0, 0)")
        if xs[-1] != 1.0 or ys[-1] != 1.0:
            raise ValueError("curve must end at (1, 1)")
        if np.any(xs[:-1] > xs[1:]):
            raise ValueError("effort fractions must be non-decreasing")
        if np.any(ys[:-1] > ys[1:]):
            raise ValueError("benefit must be non-decreasing")
        xs.flags.writeable = False
        ys.flags.writeable = False
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)


def _benefit_weights(d: Dataset, benefit: str) -> np.ndarray:
    if benefit == "modules":
        weights = d.labels.astype(float)
        if weights.sum() == 0:
            raise ValueError("no defective modules: benefit proportion is undefined")
        return weights
    if benefit == "defects":
        counts = d.defect_counts
        if counts is None:
            raise ValueError("benefit='defects' needs a defect count for every module")
        if counts.sum() == 0:
            raise ValueError("no defects recorded: benefit proportion is undefined")
        return counts
    raise ValueError(f"benefit must be one of {BENEFIT_MODES}, got {benefit!r}")


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
    weights = _benefit_weights(d, benefit)
    found = np.cumsum(weights[ranking.order]) / weights.sum()
    found[-1] = 1.0
    return CostEfficiencyCurve(
        xs=np.concatenate(([0.0], fractions)),
        ys=np.concatenate(([0.0], found)),
        driver=drv.name,
        policy=ranking.policy,
        benefit=benefit,
    )


def pofb_at(curve: CostEfficiencyCurve, budget: float) -> float:
    """Benefit proportion at the last whole module that fits the budget.

    Step semantics: analysis applies only to entire modules, so the value
    is the y of the largest curve point whose x does not exceed the budget
    (within the usual 1e-12 tolerance).
    """
    return float(curve.ys[cutoff_from_fractions(curve.xs[1:], budget)])


def _polyline_area(curve: CostEfficiencyCurve, interpolation: str) -> float:
    xs, ys = curve.xs, curve.ys
    widths = np.diff(xs)
    if interpolation == "linear":
        return float(np.sum(widths * (ys[1:] + ys[:-1]) / 2.0))
    if interpolation == "step":
        # benefit holds at the last completed module until the next one finishes
        return float(np.sum(widths * ys[:-1]))
    raise ValueError(f"interpolation must be one of {INTERPOLATIONS}, got {interpolation!r}")


def popt(
    model_curve: CostEfficiencyCurve,
    optimal_curve: CostEfficiencyCurve,
    interpolation: str = "linear",
) -> float:
    """1 minus the area between the optimal curve and the model's curve.

    Areas are integrated trapezoidally; summing the trapezoid of every
    curve segment is exact for these piecewise-linear curves, so refining
    the x-grid cannot change the result. With "step" interpolation both
    curves are read with whole-module semantics instead. The optimal curve
    dominates every ranking's curve under the same driver, so the result
    lies in [0, 1] and reaches 1 only when the curves coincide.
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
    gap = _polyline_area(optimal_curve, interpolation) - _polyline_area(
        model_curve, interpolation
    )
    return 1.0 - gap
