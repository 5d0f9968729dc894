"""Fast tests of the benchmark itself, at tiny sizes.

    python -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = 300


def bench(workload: str, trace: int, seed: int = 0, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "0.2", "--trace", str(trace), "--modules", str(TINY)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=120)


def test_spec_lists_exactly_what_the_benchmark_reports():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    assert max(m["bound"] for m in SPEC["end_to_end"]) == next(
        m["bound"] for m in SPEC["end_to_end"] if m["name"] == "setup_s"
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_tiny_run_reports_every_metric(workload, trace):
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    values = {name: m["value"] for name, m in result["metrics"].items()}
    if trace and workload == "suite-grid":
        # the optimal ranking is rebuilt for every cell: 9 cells + 3 drivers
        assert values["ranking.optimal_ranking.calls"] == 12
        # the strong score vector beats the defect-blind optimal curve
        assert values["curves.popt_out_of_range"] >= 1
    if not trace:
        assert all(v > 0 for v in values.values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("suite-grid", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_run_says_when_a_seed_has_no_recorded_digests():
    recorded = bench("cli-import-id", 0, seed=0)
    unrecorded = bench("cli-import-id", 0, seed=10**6)
    assert json.loads(unrecorded.stdout.strip().splitlines()[-1])["correct"]
    assert "digests=recorded" in recorded.stdout and "warning" not in recorded.stderr
    assert "digests=not recorded" in unrecorded.stdout
    assert "no reference digests" in unrecorded.stderr


def test_inputs_are_a_function_of_the_seed():
    def files(seed):
        directory = gen.inputs("import", TINY, seed)
        return {p.name: p.read_bytes() for p in directory.iterdir() if p.suffix == ".csv"}

    first = files(7)
    shutil.rmtree(gen.CACHE / "import" / f"n{TINY}-s7")
    assert files(7) == first
    assert files(8) != first


def _corrupting(target: str, edit):
    real = run.timed_child

    def timed_child(cmd, cwd, err_path):
        outcome = real(cmd, cwd, err_path)
        if "--out-dir" in cmd:
            path = Path(cwd) / "out" / target
            path.write_text(edit(path.read_text()))
        return outcome

    return timed_child


@pytest.mark.parametrize(
    "target, edit, problem",
    [
        # caught only by the recorded digests
        ("tables.csv", lambda text: text.replace("project", "Project"), "digest"),
        # caught by the curve invariants whatever the digests say
        ("curves/modules_density_LOC.csv", lambda text: text.replace("\n0.0,0.0\n", "\n0.0,0.5\n", 1),
         "start at (0, 0)"),
        # SVG bytes are not digest-checked, but the plot must still parse
        ("curves/modules_density.svg", lambda text: text.replace("</svg>", ""), "unreadable output"),
    ],
)
def test_corrupted_output_raises_error_rate(monkeypatch, target, edit, problem):
    assert checks.DigestBook("cli-import-id", TINY, 0).recorded
    monkeypatch.setattr(run, "timed_child", _corrupting(target, edit))
    result, samples = run.run("cli-import-id", 0, 0.0, 0, TINY)
    assert not result["correct"]
    assert result["failed"] / result["attempted"] == 1.0
    assert any(problem in p for p in samples.problems)


def test_suite_check_catches_a_wrong_reading():
    import dataclasses

    import eameval
    from eameval.report import report_dict

    d = eameval.load_dataset(gen.inputs("suite", TINY, 0) / "suite.csv")
    drivers = [eameval.parse_driver("LOC")]
    result = eameval.evaluate_suite(d, d.measure_vector("McCC"), drivers, (0.2,), benefit="defects")
    book = checks.DigestBook("suite-grid", TINY, 10**6)
    assert checks.suite_report_problems(result, report_dict, book, 0) == []

    cell = result.cells[0]
    wrong = dataclasses.replace(cell.budgets[0], value=cell.budgets[0].value + 0.01)
    corrupted = dataclasses.replace(result, cells=(dataclasses.replace(cell, budgets=(wrong,)),))
    problems = checks.suite_report_problems(corrupted, report_dict, book, 0)
    assert any("disagrees with its curve" in p for p in problems)
    assert any("digest" in p for p in problems)
