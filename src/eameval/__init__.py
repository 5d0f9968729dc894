"""Effort-aware evaluation of software defect prediction models.

Evaluates a module-ranking model under pluggable effort drivers: builds
cost-efficiency curves, reads PofB@t / NPofB@t off them, compares against
the optimal curve via Popt, and reports the traditional confusion-based
metrics at each effort budget.
"""

__version__ = "0.1.0"

from .curves import CostEfficiencyCurve, cost_efficiency_curve, pofb_at, popt
from .dataset import DataQualityWarning, Dataset, DuplicateIdError, load_dataset, save_dataset
from .effort import EffortDriver, cumulative_effort_fractions, driver_values, parse_driver
from .evaluate import EvaluationCell, EvaluationReport, evaluate_suite
from .metrics import (
    ClassificationMetrics,
    ConfusionMatrix,
    classification_metrics,
    confusion_at_cutoff,
    roc_auc,
)
from .model import (
    BlrModel,
    ScoreVector,
    SeparationWarning,
    derive_predictor,
    fit_blr,
    import_scores,
    log_likelihood_and_gradient,
    predict_proba,
)
from .ranking import RankedList, optimal_ranking, rank
