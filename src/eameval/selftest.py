"""Built-in oracle suite over a 5-module toy instance.

Every expected value below was enumerated by hand from the definitions
(cumulative sums, confusion counts, trapezoid areas), so a change in any
computation path shows up as a named failure. `eameval selftest` runs
these at the command line; the unit tests cover the same ground and more.
"""

from __future__ import annotations

import numpy as np

from .curves import cost_efficiency_curve, pofb_at, popt
from .dataset import Dataset
from .effort import EffortDriver, cumulative_effort_fractions, cutoff_from_fractions
from .metrics import classification_metrics, confusion_at_cutoff, roc_auc
from .model import ScoreVector, fit_blr, log_likelihood_and_gradient, predict_proba
from .ranking import optimal_ranking, rank_by_score

LOC = EffortDriver(measures=("LOC",))
MCCC = EffortDriver(measures=("McCC",))


def toy_dataset() -> Dataset:
    """Five modules A..E; A, C, E defective; scores rank them A first."""
    return Dataset(
        ids=("A", "B", "C", "D", "E"),
        labels=[True, False, True, False, True],
        measures={"LOC": [10.0, 20.0, 30.0, 40.0, 100.0], "McCC": [5.0, 1.0, 9.0, 2.0, 3.0]},
    )


def toy_scores() -> ScoreVector:
    return ScoreVector(values=[0.9, 0.8, 0.6, 0.4, 0.3], kind="probability")


def _expect(condition: bool, detail: str) -> None:
    if not condition:
        raise AssertionError(detail)


def check_effort_fractions() -> None:
    d = toy_dataset()
    ranking = rank_by_score(toy_scores(), d, driver=LOC)
    got = cumulative_effort_fractions(LOC, ranking, d)
    want = [0.05, 0.15, 0.30, 0.50, 1.00]
    _expect(got.tolist() == want, f"LOC fractions {got.tolist()} != {want}")


def check_budget_cutoffs() -> None:
    d = toy_dataset()
    ranking = rank_by_score(toy_scores(), d, driver=LOC)
    ep_loc = cutoff_from_fractions(cumulative_effort_fractions(LOC, ranking, d), 0.5)
    ep_mccc = cutoff_from_fractions(cumulative_effort_fractions(MCCC, ranking, d), 0.5)
    _expect(ep_loc == 4, f"LOC cutoff at 0.5: {ep_loc} != 4")
    _expect(ep_mccc == 2, f"McCC cutoff at 0.5: {ep_mccc} != 2")


def check_curve_points() -> None:
    d = toy_dataset()
    ranking = rank_by_score(toy_scores(), d, driver=LOC)
    loc = cost_efficiency_curve(ranking, LOC, d)
    loc_points = (loc.xs.tolist(), loc.ys.tolist())
    want_loc = ([0.0, 0.05, 0.15, 0.30, 0.50, 1.0], [0.0, 1 / 3, 1 / 3, 2 / 3, 2 / 3, 1.0])
    _expect(loc_points == want_loc, f"LOC curve {loc_points} != {want_loc}")
    mccc = cost_efficiency_curve(rank_by_score(toy_scores(), d, driver=MCCC), MCCC, d)
    mccc_points = (mccc.xs.tolist(), mccc.ys.tolist())
    want_mccc = ([0.0, 0.25, 0.30, 0.75, 0.85, 1.0], [0.0, 1 / 3, 1 / 3, 2 / 3, 2 / 3, 1.0])
    _expect(mccc_points == want_mccc, f"McCC curve {mccc_points} != {want_mccc}")


def check_pofb_readings() -> None:
    d = toy_dataset()
    curve = cost_efficiency_curve(rank_by_score(toy_scores(), d, driver=LOC), LOC, d)
    _expect(pofb_at(curve, 0.5) == 2 / 3, f"PofB@0.5 {pofb_at(curve, 0.5)} != 2/3")
    _expect(pofb_at(curve, 0.2) == 1 / 3, f"PofB@0.2 {pofb_at(curve, 0.2)} != 1/3")


def check_confusion() -> None:
    d = toy_dataset()
    ranking = rank_by_score(toy_scores(), d, driver=LOC)
    cm = confusion_at_cutoff(ranking, d, 4)
    _expect(
        (cm.tp, cm.fp, cm.tn, cm.fn) == (2, 2, 0, 1),
        f"confusion at 4: {(cm.tp, cm.fp, cm.tn, cm.fn)} != (2, 2, 0, 1)",
    )
    m = classification_metrics(cm)
    _expect(m.tpr == 2 / 3, f"TPR {m.tpr} != 2/3")
    _expect(m.ppv == 1 / 2, f"PPV {m.ppv} != 1/2")
    _expect(abs(m.f1 - 4 / 7) < 1e-15, f"F1 {m.f1} != 4/7")


def check_optimal_orders() -> None:
    d = toy_dataset()
    loc_order = [d.ids[i] for i in optimal_ranking(d, LOC).order]
    _expect(loc_order == ["A", "C", "E", "B", "D"], f"optimal LOC order {loc_order}")
    mccc_order = [d.ids[i] for i in optimal_ranking(d, MCCC).order]
    _expect(mccc_order == ["E", "A", "C", "B", "D"], f"optimal McCC order {mccc_order}")


def check_popt() -> None:
    # Hand trapezoid areas: optimal 0.8, score-order 2/3, so Popt = 13/15.
    d = toy_dataset()
    ranking = rank_by_score(toy_scores(), d, driver=LOC)
    model_curve = cost_efficiency_curve(ranking, LOC, d)
    optimal_curve = cost_efficiency_curve(optimal_ranking(d, LOC), LOC, d)
    value = popt(model_curve, optimal_curve)
    _expect(abs(value - 13 / 15) < 1e-12, f"Popt {value} != 13/15")
    _expect(popt(optimal_curve, optimal_curve) == 1.0, "Popt of the optimal curve must be 1")


def check_model_numerics() -> None:
    d = toy_dataset()
    intercept_only = fit_blr(d, [])
    probs = predict_proba(intercept_only, d).values
    _expect(np.all(np.abs(probs - 0.6) < 1e-9), f"intercept-only prediction {probs[0]} != 0.6")
    fitted = fit_blr(d, ["LOC"])
    _expect(fitted.converged, "toy LOC fit did not converge")
    _, gradient = log_likelihood_and_gradient(fitted.coefficients, d, ["LOC"])
    _expect(
        float(np.max(np.abs(gradient))) < 1e-6,
        f"gradient at optimum {np.max(np.abs(gradient))} >= 1e-6",
    )


def check_auc() -> None:
    d = toy_dataset()
    _expect(roc_auc(toy_scores(), d) == 0.5, "toy AUC != 0.5")
    four = Dataset(
        ids=("0", "1", "2", "3"),
        labels=[True, False, True, False],
        measures={"LOC": [1.0, 1.0, 1.0, 1.0]},
    )
    perfect = roc_auc(ScoreVector(values=[0.9, 0.4, 0.6, 0.2], kind="probability"), four)
    _expect(perfect == 1.0, f"separable AUC {perfect} != 1.0")
    flat = roc_auc(ScoreVector(values=[0.5, 0.5, 0.5, 0.5], kind="probability"), four)
    _expect(flat == 0.5, f"all-ties AUC {flat} != 0.5")


CHECKS = (
    ("cumulative effort fractions", check_effort_fractions),
    ("budget cutoffs", check_budget_cutoffs),
    ("curve points", check_curve_points),
    ("PofB readings", check_pofb_readings),
    ("confusion and metrics", check_confusion),
    ("optimal orderings", check_optimal_orders),
    ("Popt", check_popt),
    ("model numerics", check_model_numerics),
    ("ROC AUC", check_auc),
)


def run_selftest():
    """Run every check; returns a list of (name, passed, detail)."""
    results = []
    for name, check in CHECKS:
        try:
            check()
        except AssertionError as exc:
            results.append((name, False, str(exc)))
        else:
            results.append((name, True, ""))
    return results
