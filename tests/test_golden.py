"""Golden outputs: fresh CLI runs must reproduce tests/golden/ byte for byte.

Each case runs `eameval` inside a scratch directory holding copies of
tests/golden/inputs/, with relative paths, so the flags echoed into
report.json are the same on every machine. report.json, tables.csv, the
curve CSVs and the compare CSV are compared byte for byte; SVGs only
structurally (polyline count and text labels), so a lossless rendering
change does not count as drift.

Goldens are re-recorded only for a correctness fix named in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from eameval.cli import main
from eameval.dataset import DataQualityWarning

GOLDEN = Path(__file__).resolve().parent / "golden"
INPUTS = GOLDEN / "inputs"
SVG_NS = "{http://www.w3.org/2000/svg}"

DRIVERS = ("LOC", "composite:LOC,McCC,0.5", "composite:LOC,McCC,0.5,minmax")
EFFORT = [flag for drv in DRIVERS for flag in ("--effort", drv)]
BY_ID = ["--scores", "scores_id.csv", "--score-match", "id"]
BY_ORDER = ["--scores", "scores_order.csv", "--score-match", "order"]
EVALUATE = ["evaluate", "--data", "proj.csv", *EFFORT, "--budgets", "0,0.1,0.2,0.5,1"]

CASES = {
    "score-id-modules-linear": [*EVALUATE, *BY_ID, "--rank", "score",
                                "--benefit", "modules", "--popt-interp", "linear"],
    "score-order-defects-step": [*EVALUATE, *BY_ORDER, "--rank", "score", "--tie-break", "desc",
                                 "--benefit", "defects", "--popt-interp", "step"],
    "density-id-defects-linear": [*EVALUATE, *BY_ID, "--rank", "density", "--norm", "LOC",
                                  "--benefit", "defects", "--popt-interp", "linear"],
    "density-order-modules-step": [*EVALUATE, *BY_ORDER, "--rank", "density", "--norm", "McCC",
                                   "--tie-break", "input", "--benefit", "modules",
                                   "--popt-interp", "step"],
    "optimal-id-modules-step": [*EVALUATE, *BY_ID, "--rank", "optimal",
                                "--benefit", "modules", "--popt-interp", "step"],
    "optimal-order-defects-linear": [*EVALUATE, *BY_ORDER, "--rank", "optimal",
                                     "--benefit", "defects", "--popt-interp", "linear"],
    "score-fit-modules-linear": [*EVALUATE, "--predictors", "LOC,McCC", "--rank", "score",
                                 "--benefit", "modules", "--popt-interp", "linear"],
    "compare-score-id-defects": ["compare", "--data", "proj.csv", *EFFORT, *BY_ID,
                                 "--rank", "score", "--benefit", "defects"],
    "compare-optimal-order-modules": ["compare", "--data", "proj.csv", *EFFORT, *BY_ORDER,
                                      "--rank", "optimal", "--benefit", "modules"],
}


def run_case(name: str, workdir: Path) -> Path:
    """Run one case in workdir; returns its output directory."""
    for src in INPUTS.iterdir():
        shutil.copy(src, workdir / src.name)
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DataQualityWarning)  # the zero-LOC module
            code = main([*CASES[name], "--out-dir", "out"])
    finally:
        os.chdir(cwd)
    assert code == 0, f"case {name} exited {code}"
    return workdir / "out"


def output_files(out: Path) -> dict[str, Path]:
    return {p.relative_to(out).as_posix(): p for p in sorted(out.rglob("*")) if p.is_file()}


def svg_structure(path: Path) -> tuple[int, list[str]]:
    root = ET.parse(path).getroot()
    labels = [t.text for t in root.iter(f"{SVG_NS}text")]
    return len(root.findall(f"{SVG_NS}polyline")), labels


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, tmp_path):
    fresh = output_files(run_case(name, tmp_path))
    golden = output_files(GOLDEN / name)
    assert sorted(fresh) == sorted(golden)
    for rel, path in golden.items():
        if rel.endswith(".svg"):
            assert svg_structure(fresh[rel]) == svg_structure(path), rel
        else:
            assert fresh[rel].read_bytes() == path.read_bytes(), f"{name}/{rel} drifted"


def test_every_case_is_recorded():
    recorded = {p.name for p in GOLDEN.iterdir() if p.is_dir() and p != INPUTS}
    assert recorded == set(CASES)


def record() -> None:
    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            out = run_case(name, Path(tmp))
            shutil.rmtree(GOLDEN / name, ignore_errors=True)
            shutil.copytree(out, GOLDEN / name)
        print(f"recorded {name}")


if __name__ == "__main__":
    sys.exit(record())
