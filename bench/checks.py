"""Output checks applied to every benchmark operation.

An operation passes when its outputs are byte-identical to the reference
digests recorded for its (workload, modules, seed) in
reference_digests.json (seeds 0-99 at full size, 0-2 at 300 modules). For
a seed with no recorded digests the outputs are only compared with the
first operation of the same run, which a deterministic program always
matches; run.py then says so on its result header and standard error.
Independently of digests, every curve
must start at (0, 0), end at (1, 1) and be monotone, every budget reading
must agree with its curve, and every SVG must parse with one polyline per
driver. SVG bytes are not digest-checked: a lossless rendering change may
alter them.

Re-record digests (record_digests.py) only for a correctness fix that is
named in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np

DIGESTS = Path(__file__).with_name("reference_digests.json")
BUDGET_TOL = 1e-12
SVG_NS = "{http://www.w3.org/2000/svg}"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_references() -> dict:
    return json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}


def sig6(value: float) -> float:
    return float(f"{value:.6g}")


class DigestBook:
    """Expected digests of one run's operations, keyed by operation config."""

    def __init__(self, workload: str, modules: int, seed: int) -> None:
        by_seed = load_references().get(workload, {}).get(str(modules), {})
        self.expected: dict = by_seed.get(str(seed), {})
        self.recorded = bool(self.expected)
        self.observed: dict = {}  # first digests seen per config

    def check(self, key: str, digests: dict) -> list[str]:
        self.observed.setdefault(key, digests)
        reference = self.expected.get(key) if self.recorded else self.observed[key]
        if reference is None:
            return [f"no reference digest for config {key!r}"]
        return [
            f"{name}: digest differs from reference"
            for name in sorted(set(reference) | set(digests))
            if reference.get(name) != digests.get(name)
        ]


def curve_problems(label: str, xs: np.ndarray, ys: np.ndarray) -> list[str]:
    problems = []
    if len(xs) != len(ys) or len(xs) < 2:
        return [f"{label}: malformed curve"]
    if xs[0] != 0.0 or ys[0] != 0.0:
        problems.append(f"{label}: does not start at (0, 0)")
    if xs[-1] != 1.0 or ys[-1] != 1.0:
        problems.append(f"{label}: does not end at (1, 1)")
    if np.any(np.diff(xs) < 0) or np.any(np.diff(ys) < 0):
        problems.append(f"{label}: not monotone")
    return problems


def step_reading(xs: np.ndarray, ys: np.ndarray, budget: float) -> tuple[int, float]:
    """(modules that fit the budget, benefit at that cutoff), read off a curve."""
    k = int(np.searchsorted(xs, budget + BUDGET_TOL, side="right")) - 1
    return k, float(ys[k])


def budget_problems(label: str, xs, ys, readings) -> list[str]:
    """readings: (budget, reported value, reported cutoff, value rounding)."""
    problems = []
    for budget, value, cutoff, rounding in readings:
        k, y = step_reading(xs, ys, budget)
        if cutoff != k or value != rounding(y):
            problems.append(f"{label}@{budget:g}: reading disagrees with its curve")
    return problems


def read_curve_csv(path: Path) -> tuple[np.ndarray, np.ndarray]:
    points = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return points[:, 0], points[:, 1]


def svg_polylines(path: Path) -> int:
    return len(ET.parse(path).getroot().findall(f"{SVG_NS}polyline"))


def cli_output_problems(out_dir: Path, drivers: int, book: DigestBook) -> tuple[list[str], dict]:
    """Check one `eameval evaluate` output directory; returns (problems, facts)."""
    report_path = out_dir / "report.json"
    if not report_path.exists():
        return ["report.json missing"], {}
    report_bytes = report_path.read_bytes()
    report = json.loads(report_bytes)
    files = {"report.json": report_bytes, "tables.csv": (out_dir / "tables.csv").read_bytes()}
    problems = []
    svgs = set()
    benefit = report["config"]["benefit"]
    for cell in report["results"]:
        label = f"{cell['policy']}/{cell['driver']}"
        curve_path = out_dir / cell["curve_csv"]
        files[cell["curve_csv"]] = curve_path.read_bytes()
        xs, ys = read_curve_csv(curve_path)
        problems += curve_problems(label, xs, ys)
        key = "NPofB" if cell["policy"] == "density" else "PofB"
        readings = [(b["budget"], b[key], b["cutoff"], sig6) for b in cell["budgets"]]
        problems += budget_problems(label, xs, ys, readings)
        if benefit == "modules":
            # TPR at a cutoff is the share of defective modules found there.
            problems += [
                f"{label}@{b['budget']:g}: TPR disagrees with {key}"
                for b in cell["budgets"] if b["metrics"]["TPR"] != b[key]
            ]
        svgs.add(cell["curve_svg"])
    for svg in sorted(svgs):
        if svg_polylines(out_dir / svg) != drivers:
            problems.append(f"{svg}: expected {drivers} polylines")
    problems += book.check("cli", {name: sha256(data) for name, data in files.items()})
    facts = {
        "output_bytes": sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file()),
        "popt_out_of_range": sum(not 0.0 <= cell["Popt"] <= 1.0 for cell in report["results"]),
    }
    return problems, facts


def suite_report_problems(result, report_dict, book: DigestBook, config: int) -> list[str]:
    """Check one in-process evaluate_suite result against its curves and digests."""
    problems = []
    for cell in result.cells:
        label = f"{cell.policy}/{cell.driver}"
        xs, ys = np.asarray(cell.curve.xs), np.asarray(cell.curve.ys)
        problems += curve_problems(label, xs, ys)
        problems += curve_problems(
            f"{label} optimal", np.asarray(cell.optimal_curve.xs), np.asarray(cell.optimal_curve.ys)
        )
        readings = [(b.budget, b.value, b.cutoff, float) for b in cell.budgets]
        problems += budget_problems(label, xs, ys, readings)
        if cell.policy == "optimal" and cell.popt != 1.0:
            problems.append(f"{label}: optimal ranking has Popt {cell.popt} != 1")
    canonical = json.dumps(report_dict(result), allow_nan=False).encode()
    problems += book.check(str(config), {"report": sha256(canonical)})
    return problems
