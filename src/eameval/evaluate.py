"""Run the full evaluation grid: (ranking policy x effort driver) cells.

Each cell holds the cost-efficiency curve, its optimal counterpart, Popt,
the benefit proportion at each budget, and the confusion-based metrics at
each budget's cutoff. Everything is deterministic given the inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .curves import (BENEFIT_MODES, INTERPOLATIONS, CostEfficiencyCurve, budget_reading,
                     cost_efficiency_curve, popt)
from .dataset import Dataset, _check_choice
from .effort import EffortDriver, budget_label, check_budget, check_distinct
from .metrics import ClassificationMetrics, _auc, classification_metrics, confusion_at_cutoff
from .ranking import (POLICIES, TIE_BREAKS, RankedList, _primary_key, _ranked, _score_groups,
                      checked_scores, optimal_ranking)


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
    The settings are checked up front, whatever the drivers: the budgets
    (none given twice), the drivers (none named twice), the policies (none
    given twice), the tie_break, each policy, the benefit, the
    interpolation, the norm when a policy is "density", and the scores (one
    per module, none NaN). The AUC is ranking-free and reported once; it is
    None when the dataset has a single class (both classes are required for
    it to exist).

    Built once per call: the scores' tie groups (one sort, which both the
    score key and the AUC read), the score and density primary keys, and
    each cell curve's area; every ranking is one ranking._ranked call and
    every (ranking, curve) pair is built by one helper. What depends on the
    dataset and a driver alone is built once per dataset and kept in its
    memo, so repeated calls on one dataset reuse it: the driver's values,
    its tie order in each direction, as one entry per (driver, benefit)
    the optimal ranking and its curve, which that driver's cells share, the
    "optimal" cell among them, with the curve's one area, and
    the optimal ranking's metrics per cutoff. The defective count is
    counted once per dataset. Each budget's cutoff and benefit are read off
    the cell curve, and its confusion matrix by confusion_at_cutoff. Cells
    come policy by policy, each in driver order.
    """
    drivers = tuple(drivers)
    policies = tuple(policies)
    budgets = tuple(map(check_budget, budgets))
    check_distinct("budget", map(budget_label, budgets))
    check_distinct("effort driver", (repr(drv.name) for drv in drivers))
    check_distinct("policy", map(repr, policies))
    _check_choice("tie_break", tie_break, TIE_BREAKS)
    scores = checked_scores(scores, d)
    for policy in policies:
        _check_choice("policy", policy, POLICIES)
    _check_choice("benefit", benefit, BENEFIT_MODES)
    _check_choice("interpolation", interpolation, INTERPOLATIONS)
    if "density" in policies:
        d.measure_vector(norm)

    groups = _score_groups(scores)  # the one sort of the scores: score key and AUC
    auc = _auc(d, groups) if 0 < d.num_defective < d.n else None
    primary = {}  # an empty grid builds no key
    for policy in policies if drivers else ():
        if policy != "optimal":
            primary[policy] = _primary_key(policy, scores, d, norm, groups)
    del groups  # the keys hold what the grid needs of it

    def pair(ranking, drv):
        return ranking, cost_efficiency_curve(ranking, drv, d, benefit=benefit)

    cells = {policy: [] for policy in policies}
    for drv in drivers if policies else ():
        pairs = {"optimal": d._driver_memo(drv, ("optimal", benefit), lambda: pair(optimal_ranking(d, drv), drv))}
        for policy, key in primary.items():
            pairs[policy] = pair(_ranked(policy, key, d, drv, tie_break), drv)
        optimal_curve = pairs["optimal"][1]
        for policy in policies:
            ranking, curve = pairs[policy]
            cells[policy].append(
                EvaluationCell(
                    policy=policy,
                    driver=drv.name,
                    ranking=ranking,
                    curve=curve,
                    optimal_curve=optimal_curve,
                    popt=popt(curve, optimal_curve, interpolation=interpolation),
                    budgets=_budget_results(ranking, curve, d, budgets, drv if policy == "optimal" else None),
                )
            )

    return EvaluationReport(
        dataset_name=dataset_name,
        n=d.n,
        num_defective=d.num_defective,
        prevalence=d.prevalence,
        model=dict(model or {"kind": "external"}),
        auc=auc,
        cells=tuple(cell for row in cells.values() for cell in row),
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


def _budget_results(ranking: RankedList, curve: CostEfficiencyCurve, d: Dataset, budgets,
                    memo_driver: EffortDriver | None) -> tuple[BudgetResult, ...]:
    """Each budget's cutoff, benefit and confusion-based metrics. With
    memo_driver, ranking is that driver's optimal ranking, whose metrics at
    a cutoff are kept in d's memo, keyed by the cutoff: budgets -0.0 and
    0.0 share an entry but keep their own BudgetResult."""
    def metrics_at(cutoff: int) -> ClassificationMetrics:
        return classification_metrics(confusion_at_cutoff(ranking, d, cutoff))

    results = []
    for b in budgets:
        cutoff, value = budget_reading(curve, b)
        if memo_driver is None:
            metrics = metrics_at(cutoff)
        else:
            metrics = d._driver_memo(memo_driver, ("optimal", cutoff), lambda: metrics_at(cutoff))
        results.append(BudgetResult(budget=b, value=value, cutoff=cutoff, metrics=metrics))
    return tuple(results)
