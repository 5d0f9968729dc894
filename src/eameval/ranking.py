"""Module orderings: score-descending, density-normalized, and optimal.

All rankings break remaining ties by dataset order, so results are fully
deterministic. Score and density rankings additionally break score ties
using the active effort driver (ascending by default; smaller modules
first stretches a fixed budget over more modules).

Every ranking is one np.argsort of integer keys that are all distinct, so
the fast unstable sort gives exactly the stable sorted order. A float key
enters through its dense rank, np.unique's inverse, in which equal values
(-0.0 and 0.0 among them) share a rank. A tie-break enters through each
module's position in the stable ascending order of the driver values, or
its dataset position. A score or density ranking sorts dense(-key) * n +
tie position, an optimal ranking (not defective) * n + ascending position:
distinct and below n**2, so exact in int64 for any n below 3e9. _GridKeys
computes each of these parts once and shares it among a grid's rankings.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .dataset import DataQualityWarning, Dataset, _check_choice, _read_only
from .effort import EffortDriver, driver_values

TIE_BREAKS = ("asc", "desc", "input")
POLICIES = ("score", "density", "optimal")


@dataclass(frozen=True, eq=False)
class RankedList:
    """A permutation of module indices plus the key that produced it.

    order and key_values may be given as any sequences or arrays; they are
    stored through dataset._read_only as read-only arrays (integer
    indices, float keys). The permutation is checked here, once; the
    package's curve, effort and metric functions read it through
    order_for, which checks only that the ranking is one of the dataset
    at hand.
    """

    order: np.ndarray
    policy: str
    key_values: np.ndarray

    def __post_init__(self) -> None:
        order = np.asarray(self.order)
        n = len(order)
        if order.dtype.kind not in "iu" or not np.array_equal(np.sort(order), np.arange(n)):
            raise ValueError(f"order is not a permutation of 0..{n - 1}")
        object.__setattr__(self, "order", _read_only(order, np.intp, n, "order"))
        object.__setattr__(self, "key_values", _read_only(self.key_values, float, n, "key values"))

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


def _dense_rank(key: np.ndarray) -> np.ndarray:
    """Each value's rank among the key's distinct values, ascending from 0."""
    return np.unique(key, return_inverse=True)[1]


def _stable_positions(key: np.ndarray) -> np.ndarray:
    """Each module's position in the stable ascending order of key."""
    n = len(key)
    order = np.argsort(_dense_rank(key) * n + np.arange(n))
    positions = np.empty(n, dtype=np.intp)
    positions[order] = np.arange(n)
    return positions


def _density(scores: np.ndarray, norm_measure: str, d: Dataset) -> np.ndarray:
    """score / normalizing measure; -inf, with a warning, where the measure is zero.
    Reached only via _GridKeys.rank from rank or evaluate_suite: stacklevel 4 is their caller."""
    norm = d.measure_vector(norm_measure)
    zero = norm == 0
    if zero.any():
        flagged = ", ".join(d.ids[i] for i in np.flatnonzero(zero))
        warnings.warn(
            f"{int(zero.sum())} module(s) with zero {norm_measure} ranked last: {flagged}",
            DataQualityWarning,
            stacklevel=4,
        )
    return np.where(zero, -np.inf, scores / np.where(zero, 1.0, norm))


class _GridKeys:
    """The sort keys of a grid of rankings of one score vector.

    Each policy's primary key (the scores, or their densities, which no
    driver changes) is ranked once, on its first use, and each driver's
    tie positions are computed once; every (policy, driver) ranking is then
    one argsort. The tie_break and the scores are checked on construction.
    """

    def __init__(self, scores, d: Dataset, norm: str, tie_break: str):
        _check_choice("tie_break", tie_break, TIE_BREAKS)
        self.scores = checked_scores(scores, d)
        self.d, self.norm, self.tie_break = d, norm, tie_break
        self._primary: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        self._ties: dict[EffortDriver, np.ndarray] = {}

    def rank(self, policy: str, driver: EffortDriver | None) -> RankedList:
        """The ranking a named policy gives under a driver; with no driver,
        score ties fall straight to dataset order."""
        _check_choice("policy", policy, POLICIES)
        if policy == "optimal":
            return optimal_ranking(self.d, driver)
        if policy not in self._primary:
            key = self.scores if policy == "score" else _density(self.scores, self.norm, self.d)
            self._primary[policy] = key, _dense_rank(-key) * self.d.n
        key, scaled = self._primary[policy]
        order = np.argsort(scaled + self._tie_positions(driver))
        return RankedList(order=order, policy=policy, key_values=key[order])

    def _tie_positions(self, driver: EffortDriver | None) -> np.ndarray:
        if driver is None or self.tie_break == "input":
            return np.arange(self.d.n)
        if driver not in self._ties:
            values = driver_values(driver, self.d)
            self._ties[driver] = _stable_positions(values if self.tie_break == "asc" else -values)
        return self._ties[driver]


def rank(policy: str, scores, d: Dataset, driver: EffortDriver | None,
         norm: str = "LOC", tie_break: str = "asc") -> RankedList:
    """The ranking a named policy gives under a driver.

    "score" ranks by descending score, "density" by descending score / norm
    (a measure of d), "optimal" as optimal_ranking does. A module whose norm
    is zero has no density: it is ranked last with key -inf, and a
    DataQualityWarning names it. The tie_break and the scores (one per
    module, none NaN) are checked whatever the policy.
    """
    return _GridKeys(scores, d, norm, tie_break).rank(policy, driver)


def optimal_ranking(d: Dataset, driver: EffortDriver) -> RankedList:
    """The best achievable ordering under a driver.

    Defective modules first in ascending driver value, then the clean ones
    in ascending driver value; ties by dataset order. No other ordering
    finds more defective modules within the effort of any of its prefixes.
    It depends only on the dataset and the driver: evaluate_suite builds it,
    and its curve, once per driver and shares them among the grid's cells.
    """
    vals = driver_values(driver, d)
    order = np.argsort((~d.labels) * d.n + _stable_positions(vals))
    return RankedList(order=order, policy="optimal", key_values=vals[order])
