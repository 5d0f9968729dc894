"""Module orderings: score-descending, density-normalized, and optimal.

All rankings break remaining ties by dataset order, so results are fully
deterministic. Score and density rankings additionally break score ties
using the active effort driver (ascending by default; smaller modules
first stretches a fixed budget over more modules). Every ranking is one
stable np.lexsort over (tie key, primary key).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .dataset import DataQualityWarning, Dataset
from .effort import EffortDriver, driver_values

TIE_BREAKS = ("asc", "desc", "input")
POLICIES = ("score", "density", "optimal")


@dataclass(frozen=True, eq=False)
class RankedList:
    """A permutation of module indices plus the key that produced it.

    order and key_values may be given as any sequences or arrays; they are
    stored as read-only arrays (integer indices, float keys). The
    permutation is checked here, once; the package's curve, effort and
    metric functions read it through order_for, which checks only that
    the ranking is one of the dataset at hand.
    """

    order: np.ndarray
    policy: str
    key_values: np.ndarray

    def __post_init__(self) -> None:
        order = np.array(self.order)
        if order.size == 0:
            order = order.astype(np.intp)
        n = len(order)
        if order.dtype.kind not in "iu" or not np.array_equal(np.sort(order), np.arange(n)):
            raise ValueError(f"order is not a permutation of 0..{n - 1}")
        keys = np.array(self.key_values, dtype=float)
        if keys.shape != order.shape:
            raise ValueError("one key value per module required")
        order.flags.writeable = False
        keys.flags.writeable = False
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "key_values", keys)

    def order_for(self, d: Dataset) -> np.ndarray:
        """The order, checked to rank exactly the modules of d."""
        if len(self.order) != d.n:
            raise ValueError(f"order is not a permutation of 0..{d.n - 1}")
        return self.order


def checked_scores(scores, d: Dataset) -> np.ndarray:
    """Scores (a ScoreVector or any sequence) as floats, one per module, none NaN."""
    values = np.asarray(getattr(scores, "values", scores), dtype=float)
    if values.shape != (d.n,):
        raise ValueError(f"expected {d.n} scores, got {values.shape}")
    nan = np.flatnonzero(np.isnan(values))
    if nan.size:
        raise ValueError(f"NaN score for module {d.ids[nan[0]]!r}")
    return values


def _check_tie_break(tie_break: str) -> None:
    if tie_break not in TIE_BREAKS:
        raise ValueError(f"tie_break must be one of {TIE_BREAKS}, got {tie_break!r}")


def _descending(key: np.ndarray, policy: str, d: Dataset, driver, tie_break: str) -> RankedList:
    """Order by descending key, then by the driver tie key, then dataset order."""
    if driver is None or tie_break == "input":
        order = np.lexsort((-key,))
    else:
        tie = driver_values(driver, d)
        order = np.lexsort((tie if tie_break == "asc" else -tie, -key))
    return RankedList(order=order, policy=policy, key_values=key[order])


def rank_by_score(
    scores,
    d: Dataset,
    driver: EffortDriver | None = None,
    tie_break: str = "asc",
) -> RankedList:
    """Rank modules by descending score."""
    _check_tie_break(tie_break)
    values = checked_scores(scores, d)
    return _descending(values, "score", d, driver, tie_break)


def rank_by_density(
    scores,
    norm_measure: str,
    d: Dataset,
    driver: EffortDriver | None = None,
    tie_break: str = "asc",
) -> RankedList:
    """Rank modules by descending score density (score / normalizing measure).

    Modules whose normalizing measure is zero have no defined density; they
    are placed last and flagged with a warning. Their audit key is -inf.
    """
    _check_tie_break(tie_break)
    values = checked_scores(scores, d)
    norm = d.measure_vector(norm_measure)
    zero = norm == 0
    if zero.any():
        flagged = ", ".join(d.ids[i] for i in np.flatnonzero(zero))
        warnings.warn(
            f"{int(zero.sum())} module(s) with zero {norm_measure} ranked last: {flagged}",
            DataQualityWarning,
            stacklevel=2,
        )
    density = np.where(zero, -np.inf, values / np.where(zero, 1.0, norm))
    return _descending(density, "density", d, driver, tie_break)


def optimal_ranking(d: Dataset, driver: EffortDriver) -> RankedList:
    """The best achievable ordering under a driver.

    Defective modules first in ascending driver value, then the clean ones
    in ascending driver value; ties by dataset order. No other ordering
    finds more defective modules within the effort of any of its prefixes.
    It depends only on the dataset and the driver: evaluate_suite builds it,
    and its curve, once per driver and shares them among the grid's cells.
    """
    vals = driver_values(driver, d)
    order = np.lexsort((vals, ~d.labels))
    return RankedList(order=order, policy="optimal", key_values=vals[order])


def rank(policy: str, scores, d: Dataset, driver: EffortDriver,
         norm: str = "LOC", tie_break: str = "asc") -> RankedList:
    """The ranking a named policy gives under a driver."""
    if policy == "score":
        return rank_by_score(scores, d, driver=driver, tie_break=tie_break)
    if policy == "density":
        return rank_by_density(scores, norm, d, driver=driver, tie_break=tie_break)
    if policy == "optimal":
        return optimal_ranking(d, driver)
    raise ValueError(f"policy must be one of {POLICIES}, got {policy!r}")
