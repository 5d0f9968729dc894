"""Serialize evaluation results: report.json, tables.csv, curve CSV files.

The JSON report is byte-stable for identical inputs: keys are emitted in a
fixed order and every float is rounded to 6 significant digits before
serialization. The tables CSV rounds to 2 decimals for compact side-by-side
reading. Undefined metrics stay null (JSON) or empty (CSV).
"""

from __future__ import annotations

import csv
import json
from itertools import starmap
from pathlib import Path

import numpy as np

from . import __version__
from .curves import CostEfficiencyCurve
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


def budget_label(budget: float) -> str:
    return f"{budget:g}"


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


def _point_cells(curve: CostEfficiencyCurve):
    # Shortest round-trip reprs: a curve CSV reproduces every point exactly.
    # ys take few distinct values; each bit pattern (-0.0 too) is repr'd once.
    bits, index = np.unique(curve.ys.view(np.int64), return_inverse=True)
    texts = np.array([repr(y) for y in bits.view(float).tolist()], dtype=object)
    return zip(map(repr, curve.xs.tolist()), texts[index].tolist())


def write_curve_csv(path, curve: CostEfficiencyCurve) -> None:
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow([f"effort_fraction ({curve.driver})", f"benefit ({curve.policy})"])
        # A float repr needs no quoting, unlike a driver name: csv.writer's bytes.
        fh.writelines(starmap("{},{}\r\n".format, _point_cells(curve)))


def write_compare_csv(path, curves) -> None:
    """Several curves in one long table: a (driver, policy, x, y) row per point."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["driver", "policy", "effort_fraction", "benefit"])
        for curve in curves:
            writer.writerows((curve.driver, curve.policy, x, y) for x, y in _point_cells(curve))
