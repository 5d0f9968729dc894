"""Shared fixtures: the 5-module toy instance, dataset builders, and the
locator for the optional NASA CSV files used by the reproduction tests."""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from eameval import selftest
from eameval.dataset import Dataset, load_dataset
from eameval.effort import EffortDriver
from eameval.model import ScoreVector

# Every run draws the same hypothesis examples, so a pass or a failure
# repeats instead of depending on the examples a run happened to draw.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")

# Directory holding the cleaned NASA project CSVs (PC3.csv and friends).
# Not shipped: place the files there or point EAMEVAL_DATA_DIR at them.
NASA_DIR = Path(os.environ.get("EAMEVAL_DATA_DIR", Path(__file__).resolve().parents[1] / "data" / "nasa"))

# Column-name candidates, in preference order, for the two effort drivers.
LOC_COLUMNS = ("LOC_TOTAL", "LOC", "loc")
MCCC_COLUMNS = ("CYCLOMATIC_COMPLEXITY", "McCC", "mccc", "v(g)")


def build_dataset(measures: dict, labels, counts=None, ids=None) -> Dataset:
    """Assemble a Dataset directly from measure columns and labels."""
    if ids is None:
        ids = [str(i + 1) for i in range(len(labels))]
    return Dataset(ids=ids, labels=labels, measures=measures, defect_counts=counts)


@pytest.fixture
def toy() -> Dataset:
    """A..E with LOC [10,20,30,40,100], McCC [5,1,9,2,3]; A, C, E defective."""
    return selftest.toy_dataset()


@pytest.fixture
def toy_scores() -> ScoreVector:
    return selftest.toy_scores()


@pytest.fixture
def loc_driver() -> EffortDriver:
    return EffortDriver(measures=("LOC",))


@pytest.fixture
def mccc_driver() -> EffortDriver:
    return EffortDriver(measures=("McCC",))


def find_nasa_file(project: str) -> Path | None:
    for candidate in (f"{project}.csv", f"{project.lower()}.csv", f"{project.upper()}.csv"):
        path = NASA_DIR / candidate
        if path.exists():
            return path
    return None


def load_nasa(project: str) -> Dataset:
    """Load one NASA project or skip the test with an actionable message."""
    path = find_nasa_file(project)
    if path is None:
        pytest.skip(
            f"NASA dataset {project}.csv not available under {NASA_DIR} "
            f"(set EAMEVAL_DATA_DIR or create data/nasa/); this environment "
            f"has no network access to fetch it"
        )
    return load_dataset(path)


def resolve_measure(d: Dataset, candidates) -> str:
    for name in candidates:
        if name in d.schema:
            return name
    pytest.skip(f"none of {candidates} present in dataset schema {d.schema[:6]}...")


def polyline_right_limit(curve, q):
    """Curve value just after q. At a vertical jump this is the upper y."""
    xs, ys = np.asarray(curve.xs), np.asarray(curve.ys)
    i = int(np.searchsorted(xs, q, side="right")) - 1
    if xs[i] == q:
        return float(ys[i])
    x0, y0, x1, y1 = xs[i], ys[i], xs[i + 1], ys[i + 1]
    return float(y0 + (y1 - y0) * (q - x0) / (x1 - x0))


def polyline_left_limit(curve, q):
    """Curve value just before q. At a vertical jump this is the lower y."""
    xs, ys = np.asarray(curve.xs), np.asarray(curve.ys)
    j = int(np.searchsorted(xs, q, side="left"))
    if j < len(xs) and xs[j] == q:
        return float(ys[j])
    x0, y0, x1, y1 = xs[j - 1], ys[j - 1], xs[j], ys[j]
    return float(y0 + (y1 - y0) * (q - x0) / (x1 - x0))


def curves_coincide(a, b, tol=1e-9):
    """Whether two cost-efficiency polylines trace the same graph, comparing
    one-sided limits at every vertex and values at interval midpoints."""
    grid = np.unique(np.concatenate([a.xs, b.xs]))
    for q in grid:
        if abs(polyline_right_limit(a, q) - polyline_right_limit(b, q)) > tol:
            return False
        if q > 0 and abs(polyline_left_limit(a, q) - polyline_left_limit(b, q)) > tol:
            return False
    mids = (grid[:-1] + grid[1:]) / 2
    return all(
        abs(polyline_right_limit(a, q) - polyline_right_limit(b, q)) <= tol
        for q in mids
    )


def random_instance(rng: np.random.Generator, max_n: int = 8, allow_zero_effort: bool = True):
    """A small random dataset: driver values, labels (at least one defective),
    and scores. Used by the randomized invariant suites."""
    n = int(rng.integers(2, max_n + 1))
    driver = rng.uniform(0.5, 20.0, size=n)
    if allow_zero_effort:
        driver[rng.random(n) < 0.15] = 0.0
    if driver.sum() == 0:
        driver[int(rng.integers(n))] = 1.0
    labels = rng.random(n) < 0.5
    if not labels.any():
        labels[int(rng.integers(n))] = True
    scores = np.round(rng.random(n), 2)  # rounding makes score ties likely
    return driver, labels, scores
