"""Serialize evaluation results: report.json, tables.csv, curve CSV files.

The JSON report is byte-stable for identical inputs: keys are emitted in a
fixed order and every float is rounded to 6 significant digits before
serialization. The tables CSV rounds to 2 decimals for compact side-by-side
reading. Undefined metrics stay null (JSON) or empty (CSV).
"""

from __future__ import annotations

import csv
import io
import json
from itertools import chain, islice, repeat
from pathlib import Path

import numpy as np

from . import __version__
from .curves import CostEfficiencyCurve
from .effort import budget_label
from .evaluate import EvaluationReport


def _sig6(value):
    if isinstance(value, bool) or not isinstance(value, float):
        return value
    return float(f"{value:.6g}")


def _rounded(obj):
    if isinstance(obj, dict):
        return {k: _rounded(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_rounded(v) for v in obj]
    return _sig6(obj)


def report_dict(
    report: EvaluationReport,
    curve_files: dict | None = None,
    flags: dict | None = None,
) -> dict:
    """Assemble the JSON-ready report with a stable key order.

    curve_files maps (policy, driver) to {"csv": ..., "svg": ...} relative
    paths; flags is the raw command-line echo so every number in the
    report can be reproduced from the report alone.
    """
    curve_files = curve_files or {}
    results = []
    for cell in report.cells:
        value_key = "NPofB" if cell.policy == "density" else "PofB"
        files = curve_files.get((cell.policy, cell.driver), {})
        results.append(
            {
                "policy": cell.policy,
                "driver": cell.driver,
                "Popt": cell.popt,
                "curve_csv": files.get("csv"),
                "curve_svg": files.get("svg"),
                "budgets": [
                    {
                        "budget": b.budget,
                        value_key: b.value,
                        "cutoff": b.cutoff,
                        "metrics": b.metrics.as_dict(),
                    }
                    for b in cell.budgets
                ],
            }
        )
    payload = {
        "tool": {"name": "eameval", "version": __version__},
        "dataset": {
            "name": report.dataset_name,
            "modules": report.n,
            "defective": report.num_defective,
            "prevalence": report.prevalence,
        },
        "model": report.model,
        "config": {**(flags or {}), **report.config},
        "AUC": report.auc,
        "results": results,
    }
    return _rounded(payload)


def write_report_json(path, payload: dict) -> None:
    text = json.dumps(payload, indent=2, allow_nan=False)
    Path(path).write_text(text + "\n", encoding="utf-8")


def _cell2(value) -> str:
    return "" if value is None else f"{value:.2f}"


def write_tables_csv(path, report: EvaluationReport) -> None:
    """Wide summary table: one row per (policy, driver) cell."""
    budgets = report.config.get("budgets", [])
    header = ["project", "policy", "driver"]
    header += [f"PofB@{budget_label(b)}" for b in budgets]
    header += ["Popt", "AUC"]
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for cell in report.cells:
            row = [report.dataset_name, cell.policy, cell.driver]
            row += [_cell2(b.value) for b in cell.budgets]
            row += [_cell2(cell.popt), _cell2(report.auc)]
            writer.writerow(row)


# Rows of a curve CSV formatted and written per write: the float reprs are
# made a block at a time, never for the whole curve at once.
_WRITE_ROWS = 4096


def _write_points(fh, curve: CostEfficiencyCurve, lead: str = "") -> None:
    """A curve's points as CSV rows x,y after the text lead, _WRITE_ROWS rows per write."""
    # Shortest round-trip reprs: a curve CSV reproduces every point exactly.
    # A float repr needs no quoting, unlike a driver name: csv.writer's bytes.
    # ys take few distinct values; each bit pattern (-0.0 too) is repr'd once.
    bits, index = np.unique(curve.ys.view(np.int64), return_inverse=True)
    texts = np.array([repr(y) for y in bits.view(float).tolist()], dtype=object)
    cells = zip(repeat(lead), map(repr, curve.xs.tolist()), repeat(","), texts[index].tolist(), repeat("\r\n"))
    for block in iter(lambda: "".join(chain.from_iterable(islice(cells, _WRITE_ROWS))), ""):
        fh.write(block)


def write_curve_csv(path, curve: CostEfficiencyCurve) -> None:
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow([f"effort_fraction ({curve.driver})", f"benefit ({curve.policy})"])
        _write_points(fh, curve)


def write_compare_csv(path, curves) -> None:
    """Several curves in one long table: a (driver, policy, x, y) row per point."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(["driver", "policy", "effort_fraction", "benefit"])
        for curve in curves:
            lead = io.StringIO()  # the driver and policy cells, quoted by csv.writer once per curve
            csv.writer(lead).writerow([curve.driver, curve.policy, ""])
            _write_points(fh, curve, lead.getvalue().removesuffix("\r\n"))
