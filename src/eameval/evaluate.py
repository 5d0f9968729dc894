"""Run the full evaluation grid: (ranking policy x effort driver) cells.

Each cell holds the cost-efficiency curve, its optimal counterpart, Popt,
the benefit proportion at each budget, and the confusion-based metrics at
each budget's cutoff. Everything is deterministic given the inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .curves import CostEfficiencyCurve, cost_efficiency_curve, popt
from .dataset import Dataset
from .effort import EffortDriver, check_budget, cutoff_from_fractions
from .metrics import (
    ClassificationMetrics,
    classification_metrics,
    confusion_at_cutoff,
    roc_auc,
)
from .ranking import RankedList, checked_scores, optimal_ranking, rank


@dataclass(frozen=True)
class BudgetResult:
    budget: float
    value: float            # benefit proportion at the budget (PofB-style)
    cutoff: int             # whole modules the budget pays for
    metrics: ClassificationMetrics


@dataclass(frozen=True)
class EvaluationCell:
    policy: str
    driver: str
    ranking: RankedList
    curve: CostEfficiencyCurve
    optimal_curve: CostEfficiencyCurve
    popt: float
    budgets: tuple[BudgetResult, ...]


@dataclass(frozen=True)
class EvaluationReport:
    dataset_name: str
    n: int
    num_defective: int
    prevalence: float
    model: dict
    auc: float | None
    cells: tuple[EvaluationCell, ...]
    config: dict = field(default_factory=dict)


def evaluate_suite(
    d: Dataset,
    scores,
    drivers,
    budgets,
    policies=("score",),
    *,
    norm: str = "LOC",
    tie_break: str = "asc",
    benefit: str = "modules",
    interpolation: str = "linear",
    dataset_name: str = "dataset",
    model: dict | None = None,
) -> EvaluationReport:
    """Evaluate the scores under every (policy, driver) combination.

    budgets may be empty, in which case only curves and Popt are produced.
    The scores are checked up front, whatever the policies: one per module,
    none NaN. The AUC is ranking-free and reported once; it is None when
    the dataset has a single class (both classes are required for it to
    exist).

    The optimal ranking and its curve depend only on the driver, so each is
    computed once per driver and shared by that driver's cells; the
    "optimal" policy cell reuses it as its own curve. Each budget's cutoff
    and benefit are read off the cell curve, and its confusion matrix by
    confusion_at_cutoff.
    """
    drivers = tuple(drivers)
    budgets = tuple(map(check_budget, budgets))
    scores = checked_scores(scores, d)

    optimal: dict[EffortDriver, tuple[RankedList, CostEfficiencyCurve]] = {}

    def optimal_for(drv: EffortDriver) -> tuple[RankedList, CostEfficiencyCurve]:
        if drv not in optimal:
            best = optimal_ranking(d, drv)
            optimal[drv] = best, cost_efficiency_curve(best, drv, d, benefit=benefit)
        return optimal[drv]

    cells = []
    for policy in policies:
        for drv in drivers:
            if policy == "optimal":
                ranking, curve = optimal_for(drv)
            else:
                ranking = rank(policy, scores, d, drv, norm=norm, tie_break=tie_break)
                curve = cost_efficiency_curve(ranking, drv, d, benefit=benefit)
            optimal_curve = optimal_for(drv)[1]
            cells.append(
                EvaluationCell(
                    policy=policy,
                    driver=drv.name,
                    ranking=ranking,
                    curve=curve,
                    optimal_curve=optimal_curve,
                    popt=popt(curve, optimal_curve, interpolation=interpolation),
                    budgets=_budget_results(ranking, curve, d, budgets),
                )
            )

    auc = roc_auc(scores, d) if 0 < d.num_defective < d.n else None
    return EvaluationReport(
        dataset_name=dataset_name,
        n=d.n,
        num_defective=d.num_defective,
        prevalence=d.prevalence,
        model=dict(model or {"kind": "external"}),
        auc=auc,
        cells=tuple(cells),
        config={
            "policies": list(policies),
            "drivers": [drv.name for drv in drivers],
            "budgets": list(budgets),
            "norm": norm,
            "tie_break": tie_break,
            "benefit": benefit,
            "popt_interpolation": interpolation,
        },
    )


def _budget_results(ranking: RankedList, curve: CostEfficiencyCurve, d: Dataset,
                    budgets) -> tuple[BudgetResult, ...]:
    results = []
    for b in budgets:
        cutoff = cutoff_from_fractions(curve.xs[1:], b)
        results.append(
            BudgetResult(
                budget=b,
                value=float(curve.ys[cutoff]),
                cutoff=cutoff,
                metrics=classification_metrics(confusion_at_cutoff(ranking, d, cutoff)),
            )
        )
    return tuple(results)
