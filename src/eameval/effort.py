"""Effort drivers: turn code measures into analysis effort and budgets into cutoffs.

A driver assigns each module the effort its analysis is assumed to cost,
either proportional to a single measure or to a weighted combination of
two measures. Only effort fractions matter downstream, so any unit or
constant cost factor cancels everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset

# Budget comparisons tolerate float accumulation from the cumulative sums.
BUDGET_TOL = 1e-12


@dataclass(frozen=True)
class EffortDriver:
    """Rule mapping a module to analysis effort.

    Single form: effort = measure. Composite form: effort = weight * first
    + (1 - weight) * second, combining the raw measure values; set
    normalize=True to min-max normalize each measure over the dataset
    before combining.
    """

    measures: tuple[str, ...]
    weight: float | None = None
    normalize: bool = False

    def __post_init__(self) -> None:
        if len(self.measures) not in (1, 2):
            raise ValueError("driver needs one measure or two")
        if self.is_composite != (self.weight is not None):
            raise ValueError("weight must be given exactly for composite drivers")
        if self.weight is not None and not 0.0 <= self.weight <= 1.0:
            raise ValueError(f"composite weight must be in [0, 1], got {self.weight}")
        if self.normalize and not self.is_composite:
            raise ValueError("normalize applies to composite drivers only")

    @property
    def is_composite(self) -> bool:
        return len(self.measures) == 2

    @property
    def name(self) -> str:
        """Stable label used in reports, filenames, and curve-compatibility checks."""
        if not self.is_composite:
            return self.measures[0]
        label = f"composite:{self.measures[0]},{self.measures[1]},{self.weight:g}"
        return label + ",minmax" if self.normalize else label


def parse_driver(text: str) -> EffortDriver:
    """Parse a driver spec: a measure name, or 'composite:A,B,<weight>[,minmax]'."""
    text = text.strip()
    if not text:
        raise ValueError("empty driver spec")
    if not text.startswith("composite:"):
        return EffortDriver(measures=(text,))
    parts = [p.strip() for p in text[len("composite:"):].split(",")]
    normalize = False
    if len(parts) == 4 and parts[3] == "minmax":
        normalize = True
        parts = parts[:3]
    if len(parts) != 3 or not parts[0] or not parts[1]:
        raise ValueError(f"bad composite driver spec {text!r}; expected composite:A,B,<weight>[,minmax]")
    try:
        weight = float(parts[2])
    except ValueError:
        raise ValueError(f"bad composite weight {parts[2]!r}") from None
    return EffortDriver(measures=(parts[0], parts[1]), weight=weight, normalize=normalize)


def driver_values(drv: EffortDriver, d: Dataset) -> np.ndarray:
    """Per-module effort values in dataset order."""
    if not drv.is_composite:
        return d.measure_vector(drv.measures[0])
    first = d.measure_vector(drv.measures[0])
    second = d.measure_vector(drv.measures[1])
    if drv.normalize:
        first = _min_max(first, drv.measures[0])
        second = _min_max(second, drv.measures[1])
    return drv.weight * first + (1.0 - drv.weight) * second


def _min_max(values: np.ndarray, name: str) -> np.ndarray:
    lo, hi = values.min(), values.max()
    if hi == lo:
        raise ValueError(f"cannot min-max normalize constant measure {name!r}")
    return (values - lo) / (hi - lo)


def permutation_index(order, n: int) -> np.ndarray:
    """A ranking's module indices as a read-only array, checked to permute 0..n-1.

    A RankedList's order was checked when the list was built, so it is
    returned as is; any other index sequence is checked here, vectorised.
    """
    from .ranking import RankedList  # ranking imports this module

    if isinstance(order, RankedList):
        index = order.order
        if len(index) != n:
            raise ValueError(f"order is not a permutation of 0..{n - 1}")
        return index
    index = np.array(order)
    if index.size == 0:
        index = index.astype(np.intp)
    if index.dtype.kind not in "iu" or not np.array_equal(np.sort(index), np.arange(n)):
        raise ValueError(f"order is not a permutation of 0..{n - 1}")
    index.flags.writeable = False
    return index


def cumulative_effort_fractions(drv: EffortDriver, order, d: Dataset) -> np.ndarray:
    """Cumulative effort fraction after each whole module along the ranking.

    Entry k is the effort of the first k+1 modules divided by the whole
    system's effort, so effort units cancel. The last entry is exactly 1.
    """
    idx = permutation_index(order, d.n)
    values = driver_values(drv, d)
    sums = np.cumsum(values[idx])
    # Divide by the cumulative sum's own last element, not a separately
    # computed total: summation order differences of one ulp would otherwise
    # let an intermediate fraction land above 1.
    total = float(sums[-1])
    if total <= 0.0:
        raise ValueError(f"degenerate driver {drv.name!r}: total system effort is zero")
    fractions = sums / total
    fractions[-1] = 1.0
    return fractions


def cutoff_from_fractions(fractions: np.ndarray, budget: float) -> int:
    """Largest count of leading whole modules whose fraction fits the budget."""
    if not 0.0 <= budget <= 1.0:
        raise ValueError(f"budget must be in [0, 1], got {budget}")
    return int(np.searchsorted(fractions, budget + BUDGET_TOL, side="right"))


def budget_to_cutoff(drv: EffortDriver, order, d: Dataset, budget: float) -> int:
    """How many leading modules of the ranking an effort budget pays for.

    Whole modules only: the cutoff is the largest k whose cumulative effort
    fraction does not exceed the budget (within a 1e-12 tolerance).
    """
    return cutoff_from_fractions(cumulative_effort_fractions(drv, order, d), budget)
