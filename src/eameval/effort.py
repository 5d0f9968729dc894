"""Effort drivers: turn code measures into analysis effort and budgets into cutoffs.

A driver assigns each module the effort its analysis is assumed to cost,
either proportional to a single measure or to a weighted combination of
two measures. Only effort fractions matter downstream, so any unit or
constant cost factor cancels everywhere.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, _frozen

# Budget comparisons tolerate float accumulation from the cumulative sums.
BUDGET_TOL = 1e-12


@dataclass(frozen=True)
class EffortDriver:
    """Rule mapping a module to analysis effort.

    Single form: effort = measure. Composite form: effort = weight * first
    + (1 - weight) * second, combining the raw measure values; set
    normalize=True to min-max normalize each measure over the dataset
    before combining. measures may be any sequence of names but a bare
    string; it is stored as a tuple. A name that parse_driver would not
    read back from the driver's name is rejected: an empty one, one with
    surrounding whitespace, a composite part holding a comma, and a single
    measure starting with "composite:".
    """

    measures: tuple[str, ...]
    weight: float | None = None
    normalize: bool = False

    def __post_init__(self) -> None:
        if isinstance(self.measures, str):
            raise ValueError(f"measures must be a sequence of measure names, got the string {self.measures!r}")
        object.__setattr__(self, "measures", tuple(self.measures))
        for measure in self.measures:
            if not isinstance(measure, str):
                raise ValueError(f"measure name must be a str, got {measure!r}")
        if len(self.measures) not in (1, 2):
            raise ValueError("driver needs one measure or two")
        # each name must read back through parse_driver(self.name)
        for measure in self.measures:
            if not measure or measure != measure.strip():
                raise ValueError(f"measure name {measure!r} is empty or has surrounding whitespace")
            if self.is_composite and "," in measure:
                raise ValueError(f"composite measure name {measure!r} holds a comma")
        if not self.is_composite and self.measures[0].startswith("composite:"):
            raise ValueError(f"single measure name {self.measures[0]!r} starts with 'composite:'")
        if self.is_composite != (self.weight is not None):
            raise ValueError("weight must be given exactly for composite drivers")
        if self.weight is not None and not 0.0 <= self.weight <= 1.0:
            raise ValueError(f"composite weight must be in [0, 1], got {self.weight}")
        if self.weight is not None:
            # + 0.0 turns -0.0 into 0.0: equal drivers get one name
            object.__setattr__(self, "weight", self.weight + 0.0)
        if self.normalize and not self.is_composite:
            raise ValueError("normalize applies to composite drivers only")

    @property
    def is_composite(self) -> bool:
        return len(self.measures) == 2

    @functools.cached_property
    def name(self) -> str:
        """The driver's identity: parse_driver reads it back as this driver.
        Used in reports, filenames, and curve-compatibility checks. A
        composite weight is printed with :g (six significant digits) when
        that text reads back as the same float, and with repr otherwise.
        Built once per driver: its fields are frozen."""
        if not self.is_composite:
            return self.measures[0]
        weight = f"{self.weight:g}"
        weight = weight if float(weight) == self.weight else repr(self.weight)
        label = f"composite:{self.measures[0]},{self.measures[1]},{weight}"
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
    """Per-module effort values in dataset order (a read-only array),
    computed once per dataset and driver."""
    return d._driver_memo(drv, "values", lambda: _frozen(_effort(drv, d)))


def _effort(drv: EffortDriver, d: Dataset) -> np.ndarray:
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


def cumulative_effort_fractions(drv: EffortDriver, ranking, d: Dataset) -> np.ndarray:
    """Cumulative effort fraction after each whole module along a RankedList.

    Entry k is the effort of the first k+1 modules divided by the whole
    system's effort, so effort units cancel. The last entry is exactly 1.
    """
    idx = ranking.order_for(d)
    values = driver_values(drv, d)
    return _cumulative_shares(values, idx, f"degenerate driver {drv.name!r}: total system effort is zero")


def _cumulative_shares(values: np.ndarray, order: np.ndarray, empty: str) -> np.ndarray:
    """Prefix sums of values[order] over their total, the last entry exactly 1;
    ValueError(empty) when the total is not positive. Bool labels need no
    float copy: their prefix sums are exact integers, so the shares match."""
    sums = np.cumsum(values[order])
    # Divide by the cumulative sum's own last element, not a separately
    # computed total: summation order differences of one ulp would otherwise
    # let an intermediate share land above 1.
    total = float(sums[-1])
    if total <= 0.0:
        raise ValueError(empty)
    shares = sums / total
    shares[-1] = 1.0
    return shares


def check_budget(budget) -> float:
    """The budget as a float, checked to be an effort fraction in [0, 1]."""
    budget = float(budget)
    if not 0.0 <= budget <= 1.0:
        raise ValueError(f"budget must be in [0, 1], got {budget}")
    return budget


def budget_label(budget: float) -> str:
    """A budget as reports name it: six significant digits."""
    return f"{budget:g}"


def check_distinct(what: str, labels) -> None:
    """Reject the first label that repeats, as "<what> <label> given twice"."""
    seen = set()
    for label in labels:
        if label in seen:
            raise ValueError(f"{what} {label} given twice")
        seen.add(label)


def cutoff_from_fractions(fractions: np.ndarray, budget: float) -> int:
    """Largest count of leading whole modules whose fraction fits the budget."""
    return int(np.searchsorted(fractions, check_budget(budget) + BUDGET_TOL, side="right"))
