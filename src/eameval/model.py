"""Per-module defectiveness scores.

Scores come from one of two places: a binary logistic regression fitted
here (iteratively reweighted least squares, no regularization, full
dataset), or an external file of precomputed scores such as defect-count
predictions. Both yield a ScoreVector aligned to dataset order.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import Dataset, _blank, _check_choice, _read_only, csv_records, open_csv

SCORE_KINDS = ("probability", "defect-count-estimate", "raw")
SCORE_MATCHES = ("id", "order")
PROBABILITY_CLAMP = 1e-12
MAX_ITERATIONS = 100
TOLERANCE = 1e-8
# On z-scored predictors an effect this large only arises when the MLE is
# running away, i.e. quasi-complete separation.
SEPARATION_LIMIT = 15.0


class SeparationWarning(UserWarning):
    """The fit detected quasi-complete separation; coefficients are diverging."""


@dataclass(frozen=True, eq=False)
class ScoreVector:
    """Scores aligned to dataset order, tagged with their interpretation.

    values are stored through dataset._read_only as a read-only float array.
    """

    values: np.ndarray
    kind: str = "raw"

    def __post_init__(self) -> None:
        _check_choice("kind", self.kind, SCORE_KINDS)
        values = _read_only(self.values, float, np.size(self.values), "scores")
        if len(values) == 0:
            raise ValueError("scores must form a non-empty vector")
        if self.kind == "probability":
            if not np.all((values > 0) & (values < 1)):
                raise ValueError("probability scores must lie strictly inside (0, 1)")
        elif self.kind == "defect-count-estimate":
            if not np.all(np.isfinite(values)) or np.any(values < 0):
                raise ValueError("defect-count estimates must be finite and non-negative")
        elif not np.all(np.isfinite(values)):
            raise ValueError("raw scores must be finite")
        object.__setattr__(self, "values", values)


@dataclass(frozen=True, eq=False)
class BlrModel:
    """A fitted binary logistic regression.

    Coefficients are on the original predictor scale, intercept first.
    converged=False means the fit stopped early (iteration cap or
    separation); the coefficients are still the last iterate.
    """

    predictors: tuple[str, ...]
    coefficients: np.ndarray
    converged: bool
    iterations: int
    log_likelihood: float
    separation: bool = False


def _sigmoid(eta: np.ndarray) -> np.ndarray:
    # exp only sees non-positive arguments, so it cannot overflow.
    e = np.exp(-np.abs(eta))
    return np.where(eta >= 0, 1.0, e) / (1.0 + e)


def _design(d: Dataset, predictors) -> np.ndarray:
    columns = [np.ones(d.n)]
    for name in predictors:
        columns.append(d.measure_vector(name))  # raises for unknown names
    return np.column_stack(columns)


def derive_predictor(d: Dataset, spec: str) -> Dataset:
    """Append a density predictor given as 'NUMERATOR/DENOMINATOR'.

    Returns a new Dataset whose schema contains the ratio as a measure
    named exactly like the given string. Deriving a ratio that already
    exists is a no-op, so doing it twice is harmless.
    """
    parts = spec.split("/")
    if len(parts) != 2 or not parts[0] or not parts[1]:
        raise ValueError(f"bad predictor ratio {spec!r}; expected 'A/B'")
    if spec in d.schema:
        return d
    numerator = d.measure_vector(parts[0])
    denominator = d.measure_vector(parts[1])
    zero = np.flatnonzero(denominator == 0)
    if zero.size:
        raise ValueError(f"cannot derive {spec!r}: {parts[1]} is zero for module {d.ids[zero[0]]!r}")
    return d.with_measure(spec, numerator / denominator)


def _collinear_message(names, Z: np.ndarray) -> str:
    # Point at near-duplicate standardized columns if any stand out.
    p = Z.shape[1]
    pairs = []
    for i in range(p):
        for j in range(i + 1, p):
            denom = np.linalg.norm(Z[:, i]) * np.linalg.norm(Z[:, j])
            if denom > 0 and abs(float(Z[:, i] @ Z[:, j])) / denom > 1.0 - 1e-10:
                pairs.append(f"{names[i]} and {names[j]}")
    if pairs:
        return "collinear predictors: " + "; ".join(pairs)
    return "collinear predictors among: " + ", ".join(names)


def fit_blr(d: Dataset, predictors) -> BlrModel:
    """Fit a binary logistic regression by IRLS.

    Predictors are z-scored internally for numerical stability and the
    coefficients mapped back to the original scale afterwards, so the
    returned model is a plain maximum-likelihood fit. Iteration stops when
    the largest absolute coefficient change falls below TOLERANCE or
    after MAX_ITERATIONS. Quasi-complete separation (any standardized
    coefficient beyond +-15) stops the fit early with converged=False and
    a SeparationWarning; the caller still gets the last iterate.
    """
    predictors = tuple(predictors)
    y = d.labels.astype(float)
    if y.min() == y.max():
        raise ValueError("degenerate labels: every module has the same label")
    if d.n <= len(predictors) + 1:
        raise ValueError(
            f"need more than {len(predictors) + 1} modules to fit {len(predictors)} predictor(s)"
        )

    Z = _design(d, predictors)  # a fresh array, standardized in place
    means = Z[:, 1:].mean(axis=0)
    stds = Z[:, 1:].std(axis=0)
    constant = np.flatnonzero(stds == 0)
    if constant.size:
        name = predictors[int(constant[0])]
        raise ValueError(f"collinear predictors: {name!r} is constant (duplicates the intercept)")
    Z[:, 1:] -= means
    Z[:, 1:] /= stds
    if np.linalg.matrix_rank(Z) < Z.shape[1]:
        raise ValueError(_collinear_message(predictors, Z[:, 1:]))

    beta = np.zeros(Z.shape[1])
    converged = False
    separation = False
    iterations = 0
    for iterations in range(1, MAX_ITERATIONS + 1):
        eta = Z @ beta
        mu = _sigmoid(eta)
        w = np.clip(mu * (1.0 - mu), 1e-10, None)
        adjusted = eta + (y - mu) / w
        Zw = Z * w[:, None]
        try:
            new_beta = np.linalg.solve(Zw.T @ Z, Zw.T @ adjusted)
        except np.linalg.LinAlgError:
            raise ValueError(_collinear_message(predictors, Z[:, 1:])) from None
        change = float(np.max(np.abs(new_beta - beta)))
        beta = new_beta
        if np.any(np.abs(beta) > SEPARATION_LIMIT):
            separation = True
            warnings.warn(
                "quasi-complete separation detected; coefficients are diverging",
                SeparationWarning,
                stacklevel=2,
            )
            break
        if change < TOLERANCE:
            converged = True
            break

    coefficients = np.empty_like(beta)
    coefficients[1:] = beta[1:] / stds
    coefficients[0] = beta[0] - float(np.sum(beta[1:] * means / stds))
    eta = Z @ beta
    log_likelihood = float(np.sum(y * eta - np.logaddexp(0.0, eta)))
    return BlrModel(
        predictors=predictors,
        coefficients=coefficients,
        converged=converged,
        iterations=iterations,
        log_likelihood=log_likelihood,
        separation=separation,
    )


def predict_proba(m: BlrModel, d: Dataset) -> ScoreVector:
    """Predicted defectiveness probabilities, clamped 1e-12 inside (0, 1)."""
    X = _design(d, m.predictors)
    p = _sigmoid(X @ m.coefficients)
    p = np.clip(p, PROBABILITY_CLAMP, 1.0 - PROBABILITY_CLAMP)
    return ScoreVector(values=p, kind="probability")


def log_likelihood_and_gradient(coefficients, d: Dataset, predictors):
    """Bernoulli log-likelihood and its analytic gradient at given coefficients.

    The gradient is with respect to (intercept, *predictor coefficients) on
    the original scale; no clamping is applied so the identity holds exactly.
    """
    predictors = tuple(predictors)
    coefficients = np.asarray(coefficients, dtype=float)
    if coefficients.shape != (len(predictors) + 1,):
        raise ValueError(
            f"dimension mismatch: {len(predictors)} predictor(s) need "
            f"{len(predictors) + 1} coefficients, got {coefficients.shape}"
        )
    X = _design(d, predictors)
    y = d.labels.astype(float)
    eta = X @ coefficients
    log_likelihood = float(np.sum(y * eta - np.logaddexp(0.0, eta)))
    gradient = X.T @ (y - _sigmoid(eta))
    return log_likelihood, gradient


def import_scores(path, d: Dataset, kind: str = "probability", match: str = "id") -> ScoreVector:
    """Read precomputed scores from CSV, aligned to the dataset.

    match="id": two columns (id, score), any order, every dataset module
    matched exactly once. match="order": a single column of n scores in
    dataset order. The first row is a header when its score cell is
    non-numeric and, under match="id", its id cell is not a dataset id.
    Probability scores must lie in [0, 1] and are nudged off the exact
    boundaries; defect-count estimates must be non-negative. A "row" in a
    message is a CSV record number, blank records counted, as in
    load_dataset; a bad score also names its module, and a record csv
    cannot read (a stray quote) names its row.
    """
    path = Path(path)
    name = path.name
    if not path.exists():
        raise FileNotFoundError(f"score file not found: {path}")
    _check_choice("match", match, SCORE_MATCHES)
    _check_choice("kind", kind, SCORE_KINDS)

    with open_csv(path) as fh:
        rows = [(r, row) for r, row in csv_records(fh, name) if not _blank(row)]
    known = set(d.ids)
    if rows:
        first = rows[0][1]
        if _parse_score_cell(first[-1]) is None and (match == "order" or first[0].strip() not in known):
            rows = rows[1:]  # header row
    if not rows:
        raise ValueError(f"{name}: no scores found")

    if match == "order":
        for r, row in rows:
            if len(row) != 1:
                raise ValueError(f"{name}: row {r}: match='order' expects a single score column")
        if len(rows) != d.n:
            raise ValueError(f"{name}: expected {d.n} scores, got {len(rows)}")
        values = [_checked_score(row[0], kind, name, r, i) for (r, row), i in zip(rows, d.ids)]
    else:
        by_id: dict[str, float] = {}
        for r, row in rows:
            if len(row) != 2:
                raise ValueError(f"{name}: row {r}: match='id' expects columns (id, score)")
            module_id = row[0].strip()
            if module_id in by_id:
                first = next(q for q, other in rows if other[0].strip() == module_id)
                raise ValueError(f"{name}: duplicate module id {module_id!r} in rows {first} and {r}")
            by_id[module_id] = _checked_score(row[1], kind, name, r, module_id)
        missing = [i for i in d.ids if i not in by_id]
        extra = [i for i in by_id if i not in known]
        if missing or extra:
            parts = []
            if missing:
                parts.append("missing ids: " + ", ".join(missing))
            if extra:
                parts.append("unknown ids: " + ", ".join(extra))
            raise ValueError(f"{name}: {'; '.join(parts)}")
        values = [by_id[i] for i in d.ids]

    values = np.array(values, dtype=float)
    if kind == "probability":
        values = np.clip(values, PROBABILITY_CLAMP, 1.0 - PROBABILITY_CLAMP)
    return ScoreVector(values=values, kind=kind)


def _parse_score_cell(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def _checked_score(cell: str, kind: str, filename: str, row: int, module_id: str) -> float:
    value = _parse_score_cell(cell)
    if value is None or not math.isfinite(value):
        problem = f"non-numeric score {cell!r}"
    elif kind == "probability" and not 0.0 <= value <= 1.0:
        problem = f"probability score {value} out of [0, 1]"
    elif kind == "defect-count-estimate" and value < 0:
        problem = f"negative defect-count estimate {value}"
    else:
        return value
    raise ValueError(f"{filename}: row {row} (module {module_id!r}): {problem}")
