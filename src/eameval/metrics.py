"""Confusion matrices at a ranking cutoff and the usual classification metrics.

Metrics whose denominator is zero are reported as None ("undefined"), never
silently as 0: budget cutoffs of zero modules are routine at curve origins
and a fake zero would distort reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .ranking import RankedList, checked_scores


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    tn: int
    fn: int

    def __post_init__(self) -> None:
        if min(self.tp, self.fp, self.tn, self.fn) < 0:
            raise ValueError("confusion cells must be non-negative")

    @property
    def estimated_positive(self) -> int:
        return self.tp + self.fp

    @property
    def estimated_negative(self) -> int:
        return self.tn + self.fn

    @property
    def actual_positive(self) -> int:
        return self.tp + self.fn

    @property
    def actual_negative(self) -> int:
        return self.tn + self.fp

    @property
    def n(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


@dataclass(frozen=True)
class ClassificationMetrics:
    """Traditional metrics; None marks an undefined (0/0) value."""

    tpr: float | None
    tnr: float | None
    fpr: float | None
    ppv: float | None
    accuracy: float | None
    balanced_accuracy: float | None
    gmean: float | None
    f1: float | None
    mcc: float | None

    def as_dict(self) -> dict:
        """Report keys, matching the conventional metric names."""
        return {
            "TPR": self.tpr,
            "TNR": self.tnr,
            "FPR": self.fpr,
            "PPV": self.ppv,
            "Acc": self.accuracy,
            "BA": self.balanced_accuracy,
            "Gmean": self.gmean,
            "F1": self.f1,
            "MCC": self.mcc,
        }


def confusion_at_cutoff(ranking: RankedList, d: Dataset, cutoff: int) -> ConfusionMatrix:
    """Treat the first `cutoff` ranked modules as estimated positive."""
    order = ranking.order_for(d)
    if not 0 <= cutoff <= d.n:
        raise ValueError(f"cutoff must be in [0, {d.n}], got {cutoff}")
    tp = int(np.count_nonzero(d.labels[order[:cutoff]]))
    fn = d.num_defective - tp
    return ConfusionMatrix(tp=tp, fp=cutoff - tp, tn=d.n - cutoff - fn, fn=fn)


def _ratio(num: float, den: float) -> float | None:
    return num / den if den != 0 else None


def classification_metrics(c: ConfusionMatrix) -> ClassificationMetrics:
    tpr = _ratio(c.tp, c.actual_positive)
    tnr = _ratio(c.tn, c.actual_negative)
    fpr = _ratio(c.fp, c.actual_negative)
    ppv = _ratio(c.tp, c.estimated_positive)

    balanced = None if tpr is None or tnr is None else (tpr + tnr) / 2.0
    gmean = None if tpr is None or tnr is None else math.sqrt(tpr * tnr)
    if ppv is None or tpr is None or ppv + tpr == 0:
        f1 = None
    else:
        f1 = 2.0 * ppv * tpr / (ppv + tpr)
    denominator = (
        c.estimated_negative * c.estimated_positive * c.actual_negative * c.actual_positive
    )
    if denominator == 0:
        mcc = None
    else:
        mcc = (c.tp * c.tn - c.fp * c.fn) / math.sqrt(denominator)

    return ClassificationMetrics(
        tpr=tpr,
        tnr=tnr,
        fpr=fpr,
        ppv=ppv,
        accuracy=_ratio(c.tp + c.tn, c.n),
        balanced_accuracy=balanced,
        gmean=gmean,
        f1=f1,
        mcc=mcc,
    )


def roc_auc(scores, d: Dataset) -> float:
    """Mann-Whitney (rank-based) ROC AUC with half credit for score ties.

    The scores get the rankings' check: one per module, a NaN rejected with
    its module named.
    """
    values = checked_scores(scores, d)
    labels = d.labels
    ap = int(labels.sum())
    an = d.n - ap
    if ap == 0 or an == 0:
        raise ValueError("ROC AUC needs both defective and clean modules")

    # Tied scores share the average of the 1-based ranks they span. The
    # ranks are half-integers, so their sum is exact.
    ordered = np.sort(values)
    first = np.searchsorted(ordered, values, side="left")
    past = np.searchsorted(ordered, values, side="right")
    ranks = (first + past + 1) / 2.0
    positive_rank_sum = float(ranks[labels].sum())
    return (positive_rank_sum - ap * (ap + 1) / 2.0) / (ap * an)
