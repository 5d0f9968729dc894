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
from .ranking import optimal_ranking, rank

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


def _readings() -> tuple:
    """Each check's name and readings on the toy, in run order. A reading
    is (what, value read, hand value, tolerance); tolerance 0 asks for
    equality."""
    d = toy_dataset()
    by_loc, by_mccc = rank("score", toy_scores(), d, LOC), rank("score", toy_scores(), d, MCCC)
    loc, mccc = cost_efficiency_curve(by_loc, LOC, d), cost_efficiency_curve(by_mccc, MCCC, d)
    # Hand trapezoid areas: optimal 0.8, score-order 2/3, so Popt = 13/15.
    optimal = cost_efficiency_curve(optimal_ranking(d, LOC), LOC, d)
    cm, mc = confusion_at_cutoff(by_loc, d, 4), confusion_at_cutoff(by_mccc, d, 2)
    m = classification_metrics(cm)
    fitted = fit_blr(d, ["LOC"])
    _, gradient = log_likelihood_and_gradient(fitted.coefficients, d, ["LOC"])
    thirds = [0.0, 1 / 3, 1 / 3, 2 / 3, 2 / 3, 1.0]
    four = Dataset(ids=("0", "1", "2", "3"), labels=[True, False, True, False], measures={"LOC": [1.0] * 4})

    def cutoff(drv):
        return cutoff_from_fractions(cumulative_effort_fractions(drv, by_loc, d), 0.5)

    return (
        ("cumulative effort fractions", [
            ("LOC fractions", cumulative_effort_fractions(LOC, by_loc, d).tolist(), [0.05, 0.15, 0.30, 0.50, 1.00], 0),
        ]),
        ("budget cutoffs", [("LOC cutoff at 0.5", cutoff(LOC), 4, 0), ("McCC cutoff at 0.5", cutoff(MCCC), 2, 0)]),
        ("curve points", [  # both rankings find A, C, E at ranks 1, 3, 5
            ("LOC curve", (loc.xs.tolist(), loc.ys.tolist()), ([0.0, 0.05, 0.15, 0.30, 0.50, 1.0], thirds), 0),
            ("McCC curve", (mccc.xs.tolist(), mccc.ys.tolist()), ([0.0, 0.25, 0.30, 0.75, 0.85, 1.0], thirds), 0),
        ]),
        ("PofB readings", [("PofB@0.5", pofb_at(loc, 0.5), 2 / 3, 0), ("PofB@0.2", pofb_at(loc, 0.2), 1 / 3, 0),
                           ("McCC PofB@0.5", pofb_at(mccc, 0.5), 1 / 3, 0)]),
        ("confusion and metrics", [
            ("confusion at 4", (cm.tp, cm.fp, cm.tn, cm.fn), (2, 2, 0, 1), 0),
            ("McCC confusion at 2", (mc.tp, mc.fp, mc.tn, mc.fn), (1, 1, 1, 2), 0),
            ("TPR", m.tpr, 2 / 3, 0),
            ("PPV", m.ppv, 1 / 2, 0),
            ("F1", m.f1, 4 / 7, 1e-15),
        ]),
        ("optimal orderings", [
            ("optimal LOC order", [d.ids[i] for i in optimal_ranking(d, LOC).order], ["A", "C", "E", "B", "D"], 0),
            ("optimal McCC order", [d.ids[i] for i in optimal_ranking(d, MCCC).order], ["E", "A", "C", "B", "D"], 0),
        ]),
        ("Popt", [
            ("Popt", popt(loc, optimal), 13 / 15, 1e-12),
            ("Popt of the optimal curve", popt(optimal, optimal), 1.0, 0),
        ]),
        ("model numerics", [
            ("intercept-only prediction", predict_proba(fit_blr(d, []), d).values.tolist(), 0.6, 1e-9),
            ("toy LOC fit converged", fitted.converged, True, 0),
            ("gradient at optimum", float(np.max(np.abs(gradient))), 0.0, 1e-6),
        ]),
        ("ROC AUC", [
            ("toy AUC", roc_auc(toy_scores(), d), 0.5, 0),
            ("separable AUC", roc_auc(ScoreVector(values=[0.9, 0.4, 0.6, 0.2], kind="probability"), four), 1.0, 0),
            ("all-ties AUC", roc_auc(ScoreVector(values=[0.5, 0.5, 0.5, 0.5], kind="probability"), four), 0.5, 0),
        ]),
    )


def _holds(got, want, tol: float) -> bool:
    return got == want if tol == 0 else bool(np.all(np.abs(np.subtract(got, want)) < tol))


def run_selftest():
    """Run every check; returns a list of (name, passed, detail), the
    detail naming a failed check's first failing reading."""
    results = []
    for name, readings in _readings():
        failed = [f"{what} {got} != {want}" for what, got, want, tol in readings if not _holds(got, want, tol)]
        results.append((name, not failed, failed[0] if failed else ""))
    return results
