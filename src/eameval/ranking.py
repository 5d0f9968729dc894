"""Module orderings: score-descending, density-normalized, and optimal.

All rankings break remaining ties by dataset order, so results are fully
deterministic. Score and density rankings first break score ties by the
active effort driver (ascending by default; smaller modules first
stretches a fixed budget over more modules), the optimal ranking always
by ascending driver value.

Every ranking, and every driver's tie order, is one _sorted call: a value
sort of distinct int64 keys that pack a module's primary key above its
place in the tie order, which gives exactly the stable sorted order with
no argsort. A score or density primary is the dense rank (np.unique's
inverse; -0.0 and 0.0 share a rank) of the negated key, the optimal one
is 0 for defective modules and 1 for clean ones. A tie order lists the
modules by the driver values' dense rank, ascending (or descending), ties
in dataset order, or is the dataset order itself. _primary_key is the one
home of each score policy's key, optimal_ranking of the optimal key,
_ties of the tie rule, and _ranked builds every RankedList from a key.
The score key is read off the scores' tie groups (_score_groups: one
np.unique, ascending), which evaluate_suite also hands to the AUC, so a
call sorts its scores once. A driver's tie order in each direction
depends on the dataset and driver alone: it is built once per dataset and
kept in its memo (Dataset._driver_memo), as is evaluate_suite's optimal
(ranking, curve) pair per benefit; evaluate_suite builds each score or
density key once per call.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .dataset import DataQualityWarning, Dataset, _check_choice, _frozen, _read_only
from .effort import EffortDriver, driver_values

TIE_BREAKS = ("asc", "desc", "input")
SCORE_POLICIES = ("score", "density")
POLICIES = (*SCORE_POLICIES, "optimal")


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
        if order.dtype.kind not in "iu" or order.ndim != 1 or not _is_permutation(order):
            raise ValueError(f"order is not a permutation of 0..{n - 1}")
        object.__setattr__(self, "order", _read_only(order, np.intp, n, "order"))

    def order_for(self, d: Dataset) -> np.ndarray:
        """The order, checked to rank exactly the modules of d."""
        if len(self.order) != d.n:
            raise ValueError(f"order is not a permutation of 0..{d.n - 1}")
        return self.order


def _is_permutation(order: np.ndarray) -> bool:
    """Whether a 1-D integer array is not empty and holds each of 0..len-1
    exactly once; O(n), with no sort."""
    n = len(order)
    if n == 0 or order.min() < 0 or order.max() >= n:
        return False  # checked before the scatter, where -1 would mark the last slot
    seen = np.zeros(n, dtype=bool)
    seen[order] = True
    return bool(seen.all())


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


def _score_groups(scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The scores' tie groups in ascending score order, from one sort: each
    score's group (its dense rank; -0.0 and 0.0 share one) and each
    group's size."""
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    return inverse, counts


def _sorted(primary: np.ndarray, tie_order: np.ndarray) -> np.ndarray:
    """The modules of tie_order sorted by their primary key (integers from
    0 to n - 1, such as a dense rank), those with equal keys kept in
    tie_order's order.

    Each key packs a module's primary above its place in tie_order, so the
    keys are distinct and one value sort gives the stable order. They stay
    below 2 * n**2: exact in int64 for n below 2**31."""
    n = len(tie_order)
    bits = (n - 1).bit_length()
    keys = primary[tie_order]
    keys <<= bits
    keys |= np.arange(n)
    keys.sort()
    keys &= (1 << bits) - 1
    return tie_order[keys]


def _primary_key(policy: str, scores: np.ndarray, d: Dataset, norm: str,
                 groups: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """A score policy's primary sort key: the dense rank of the negated
    scores or densities. The score key is read off groups, the scores'
    _score_groups, when given."""
    if policy == "density":
        return _dense_rank(-_density(scores, norm, d))
    inverse, counts = groups or _score_groups(scores)
    # group k of K, counted from the lowest score, is dense rank K-1-k of -scores
    return len(counts) - 1 - inverse


def _ties(d: Dataset, driver: EffortDriver | None, tie_break: str) -> np.ndarray:
    """The modules in tie order: dataset order with no driver or under
    "input", else ascending ("asc") or descending ("desc") by the driver
    values' dense rank, ties in dataset order. A driver's order in each
    direction is built once per dataset and kept read-only in d's memo."""
    if driver is None or tie_break == "input":
        return np.arange(d.n)

    def build():
        dense = _dense_rank(driver_values(driver, d))
        return _frozen(_sorted(dense if tie_break == "asc" else dense.max() - dense, np.arange(d.n)))

    return d._driver_memo(driver, tie_break, build)


def _density(scores: np.ndarray, norm_measure: str, d: Dataset) -> np.ndarray:
    """score / normalizing measure; -inf, with a warning, where the measure is zero.
    Reached only via _primary_key from rank or evaluate_suite: stacklevel 4 is their caller."""
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


def _ranked(policy: str, key: np.ndarray, d: Dataset, driver: EffortDriver | None,
            tie_break: str) -> RankedList:
    """The RankedList of a policy: the modules sorted by a primary key,
    those with equal keys in the driver's tie order under tie_break."""
    return RankedList(_frozen(_sorted(key, _ties(d, driver, tie_break))), policy)


def rank(policy: str, scores, d: Dataset, driver: EffortDriver | None,
         norm: str = "LOC", tie_break: str = "asc") -> RankedList:
    """The ranking a score policy gives under a driver.

    "score" ranks by descending score, "density" by descending score / norm
    (a measure of d). A module whose norm is zero has no density: it is
    ranked last, and a DataQualityWarning names it. The tie_break and the
    scores (one per module, none NaN) are checked whatever the policy. The
    optimal ordering needs no scores: optimal_ranking builds it.
    """
    _check_choice("tie_break", tie_break, TIE_BREAKS)
    scores = checked_scores(scores, d)
    _check_choice("policy", policy, SCORE_POLICIES)
    return _ranked(policy, _primary_key(policy, scores, d, norm), d, driver, tie_break)


def optimal_ranking(d: Dataset, driver: EffortDriver | None) -> RankedList:
    """The best achievable ordering under a driver.

    Defective modules first in ascending driver value, then the clean ones
    in ascending driver value; ties by dataset order. With no driver, each
    group keeps dataset order. No other ordering finds more defective
    modules within the effort of any of its prefixes. Each call builds a
    new RankedList; the driver's ascending tie order comes from d's memo.
    """
    return _ranked("optimal", (~d.labels).astype(np.intp), d, driver, "asc")
