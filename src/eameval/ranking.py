"""Module orderings: score-descending, density-normalized, and optimal.

All rankings break remaining ties by dataset order, so results are fully
deterministic. Score and density rankings first break score ties by the
active effort driver (ascending by default; smaller modules first
stretches a fixed budget over more modules), the optimal ranking always
by ascending driver value.

Every ranking is one np.argsort of the distinct integer keys primary * n +
tie position, so the fast unstable sort gives the stable sorted order. A
score or density primary is the dense rank (np.unique's inverse; -0.0 and
0.0 share a rank) of the negated key, the optimal one is 0 for defective
modules and 1 for clean ones. A tie position is a module's place in the
stable ascending (or descending) order of the driver values, or its
dataset position. Keys stay below n**2, exact in int64 for n below 3e9.
_GridKeys builds every ranking, each primary and tie position once.
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
    """A permutation of module indices and the policy that produced it.

    order may be given as any sequence or array of integers; it is stored
    through dataset._read_only as a read-only index array. The permutation
    is checked here, once; the package's curve, effort and metric
    functions read it through order_for, which checks only that the
    ranking is one of the dataset at hand.
    """

    order: np.ndarray
    policy: str

    def __post_init__(self) -> None:
        order = np.asarray(self.order)
        n = len(order)
        if order.dtype.kind not in "iu" or not np.array_equal(np.sort(order), np.arange(n)):
            raise ValueError(f"order is not a permutation of 0..{n - 1}")
        object.__setattr__(self, "order", _read_only(order, np.intp, n, "order"))

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
    """The sort keys of a grid of rankings of one dataset.

    Each policy's primary key (the scores, their densities or the labels,
    which no driver changes) is built on its first use, and each driver's
    tie positions once per direction; every (policy, driver) ranking is then
    one argsort. Only "score" and "density" need the scores; given, they
    are checked on construction, as is the tie_break.
    """

    def __init__(self, d: Dataset, scores=None, norm: str = "LOC", tie_break: str = "asc"):
        _check_choice("tie_break", tie_break, TIE_BREAKS)
        self.scores = None if scores is None else checked_scores(scores, d)
        self.d, self.norm, self.tie_break = d, norm, tie_break
        self._primary: dict[str, np.ndarray] = {}
        self._ties: dict[tuple[EffortDriver, str], np.ndarray] = {}

    def rank(self, policy: str, driver: EffortDriver | None) -> RankedList:
        """The ranking a named policy gives under a driver; with no driver,
        ties fall straight to dataset order."""
        _check_choice("policy", policy, POLICIES)
        if policy not in self._primary:
            if policy == "optimal":
                key = (~self.d.labels) * self.d.n
            else:
                scores = self.scores if policy == "score" else _density(self.scores, self.norm, self.d)
                key = _dense_rank(-scores) * self.d.n
            self._primary[policy] = key
        tie_break = "asc" if policy == "optimal" else self.tie_break
        order = np.argsort(self._primary[policy] + self._tie_positions(driver, tie_break))
        return RankedList(order=order, policy=policy)

    def _tie_positions(self, driver: EffortDriver | None, tie_break: str) -> np.ndarray:
        if driver is None or tie_break == "input":
            return np.arange(self.d.n)
        if (driver, tie_break) not in self._ties:
            values = driver_values(driver, self.d)
            self._ties[driver, tie_break] = _stable_positions(values if tie_break == "asc" else -values)
        return self._ties[driver, tie_break]


def rank(policy: str, scores, d: Dataset, driver: EffortDriver | None,
         norm: str = "LOC", tie_break: str = "asc") -> RankedList:
    """The ranking a named policy gives under a driver.

    "score" ranks by descending score, "density" by descending score / norm
    (a measure of d), "optimal" as optimal_ranking does, whatever the
    tie_break. A module whose norm is zero has no density: it is ranked
    last, and a DataQualityWarning names it. The tie_break and the scores
    (one per module, none NaN) are checked whatever the policy.
    """
    return _GridKeys(d, scores, norm, tie_break).rank(policy, driver)


def optimal_ranking(d: Dataset, driver: EffortDriver | None) -> RankedList:
    """The best achievable ordering under a driver.

    Defective modules first in ascending driver value, then the clean ones
    in ascending driver value; ties by dataset order. With no driver, each
    group keeps dataset order. No other ordering finds more defective
    modules within the effort of any of its prefixes. It is the "optimal"
    policy of _GridKeys, so evaluate_suite builds it, and its curve, once
    per driver from the grid's shared keys.
    """
    return _GridKeys(d).rank("optimal", driver)
