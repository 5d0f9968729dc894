"""eameval benchmark: one workload run, measured end to end or traced.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; eameval is imported from src/.
Inputs are generated from --seed by gen.py (cached, never timed). The load
is a closed loop with one client: one operation at a time, started only
while it is expected to finish within --seconds (at least one operation;
two with --trace 1; suite-grid runs each score vector at least once). Every operation's output is
checked (checks.py); an operation that exits non-zero, raises or fails a
check counts as failed. suite-grid runs in rounds, each a fresh worker
process that sets up and then runs its share of the loop.

Workloads (see BENCHMARK.json for why each exists):
  cli-evaluate-wide  `eameval evaluate` subprocess, fitted model, 100k x 20
  suite-grid         in-process evaluate_suite, 3 policies x 3 drivers x 3 budgets, 10k
  cli-import-id      `eameval evaluate` subprocess, scores imported by id, 10k

--trace 0 reports the end-to-end metrics: run_s (median seconds per
operation: spawn to exit for the CLI workloads, one evaluate_suite call
for suite-grid), cells_per_s ((policy, driver) cells x modules / run_s),
setup_s (median of fresh set-ups spread through the run: `import
eameval.cli`, SETUP_PER_OP times before each CLI operation; import, load
and fit up to the first timed call of each suite-grid round)
and peak_rss_mb (peak RSS of the operation's own process, from wait4).

--trace 1 alternates untraced and traced operations and reports the
per-layer metrics: median per traced operation of each layer function's
self time and call count (functions that run only in suite-grid's set-up
report their set-up value), counters, and the tracing overhead.
curves.popt_out_of_range counts the cells whose Popt lies outside [0, 1]
over one operation of each config (for suite-grid, each score vector); it
is reported, never counted as a failure.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import gen
from checks import DigestBook, cli_output_problems
from tracer import aggregate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = gen.CACHE / "work"
SETUP_PER_OP = 3  # CLI workloads: `import eameval.cli` samples before each operation
SUITE_ROUNDS = 12  # suite-grid: aimed-for rounds (set-up samples) per run

END_TO_END = {"run_s": "s", "cells_per_s": "cells/s", "setup_s": "s", "peak_rss_mb": "MB"}
SELF_TIMED = (
    "dataset.load_dataset", "dataset.Dataset.with_measure",
    "model.import_scores", "model.derive_predictor", "model.fit_blr",
    "ranking.rank_by_score", "ranking.rank_by_density", "ranking.optimal_ranking",
    "effort.driver_values", "effort.cumulative_effort_fractions", "effort.budget_to_cutoff",
    "curves.cost_efficiency_curve", "curves.popt", "curves.pofb_at",
    "metrics.confusion_at_cutoff", "metrics.roc_auc",
    "evaluate.evaluate_suite",
    "report.write_curve_csv", "report.write_report_json", "report.write_tables_csv",
    "svg.render_curves", "cli.import",
)
COUNTED = (
    "dataset.Dataset.measure_vector", "dataset.Dataset.labels", "ranking.optimal_ranking",
    "effort.driver_values", "effort.cumulative_effort_fractions", "effort.budget_to_cutoff",
    "curves.cost_efficiency_curve", "curves.popt", "curves.pofb_at",
)
PER_LAYER = {
    **{f"{name}.self_s": "s" for name in SELF_TIMED},
    **{f"{name}.calls": "count" for name in COUNTED},
    "model.fit_blr.iterations": "count",
    "svg.render_curves.bytes": "bytes",
    "curves.popt_out_of_range": "count",
    "cli.output_mb": "MB",
    "trace.run_s": "s",
    "trace.overhead_s": "s",
}


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: str  # gen.py generator
    modules: int
    cells: int  # (policy, driver) cells per operation
    cli_args: tuple[str, ...] = ()  # empty for the in-process suite-grid
    drivers: int = 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "cli-evaluate-wide", "wide", 100_000, cells=2, drivers=2,
            cli_args=(
                "evaluate", "--data", "wide.csv", "--predictors", "LOC,McCC/LOC",
                "--effort", "LOC", "--effort", "McCC", "--budgets", "0.2,0.5",
                "--rank", "score", "--benefit", "modules", "--out-dir", "out",
            ),
        ),
        Workload("suite-grid", "suite", 10_000, cells=9),
        Workload(
            "cli-import-id", "import", 10_000, cells=1, drivers=1,
            cli_args=(
                "evaluate", "--data", "modules.csv", "--scores", "scores.csv",
                "--score-match", "id", "--score-kind", "raw", "--rank", "density",
                "--norm", "LOC", "--effort", "LOC", "--budgets", "0.2", "--out-dir", "out",
            ),
        ),
    )
}


@dataclass
class Samples:
    """What one workload run observed."""

    attempted: int = 0
    failed: int = 0
    op_s: list = field(default_factory=list)
    traced_op_s: list = field(default_factory=list)
    setup_s: list = field(default_factory=list)
    rss_mb: list = field(default_factory=list)
    output_bytes: list = field(default_factory=list)
    popt_out_of_range: dict = field(default_factory=dict)  # per operation config
    layers: dict = field(default_factory=dict)  # aggregate() of the run's spans
    problems: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)  # first output digests per config
    digests_recorded: bool = False

    def fail(self, op: int, problems: list[str]) -> None:
        self.failed += 1
        self.problems += [f"op {op}: {p}" for p in problems[:3]]


def child_env() -> dict:
    env = dict(os.environ)
    paths = [str(SRC), str(BENCH)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def reap(proc: subprocess.Popen) -> tuple[int, float]:
    """Wait for a child; (exit code, peak RSS in MB) from wait4."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def timed_child(cmd: list[str], cwd: Path, err_path: Path) -> tuple[float, int, float]:
    """(seconds from spawn to exit, exit code, peak RSS MB) of one child."""
    with err_path.open("w") as err:
        begin = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=child_env(), stdout=subprocess.DEVNULL, stderr=err)
        code, rss = reap(proc)
        return time.perf_counter() - begin, code, rss


def import_setup_s() -> float:
    """Seconds for a fresh interpreter to `import eameval.cli`."""
    seconds, code, _ = timed_child(
        [sys.executable, "-c", "import eameval.cli"], ROOT, WORK / "setup.err"
    )
    if code != 0:
        raise RuntimeError("import eameval.cli failed: " + (WORK / "setup.err").read_text())
    return seconds


def run_cli(w: Workload, modules: int, seed: int, seconds: float, trace: int) -> Samples:
    inputs = gen.inputs(w.inputs, modules, seed)
    book = DigestBook(w.name, modules, seed)
    s = Samples(digests_recorded=book.recorded)
    if not trace:
        import_setup_s()  # warms .pyc files; not a sample
    err_path = WORK / f"{w.name}.err"
    out_dir = inputs / "out"

    def operate(op: int) -> None:
        traced = trace and op % 2 == 1
        spans_path = WORK / f"{w.name}-{op}.spans.json"
        if not trace:
            s.setup_s += [import_setup_s() for _ in range(SETUP_PER_OP)]
        cmd = [sys.executable, "-m", "eameval", *w.cli_args]
        if traced:
            cmd = [sys.executable, str(BENCH / "traced_cli.py"), str(spans_path), str(op), "--", *w.cli_args]
        shutil.rmtree(out_dir, ignore_errors=True)
        elapsed, code, rss = timed_child(cmd, inputs, err_path)
        (s.traced_op_s if traced else s.op_s).append(elapsed)
        s.rss_mb.append(rss)
        if code != 0:
            s.fail(op, [f"exit code {code}: {err_path.read_text()[-500:]}"])
            return
        if traced:
            s.layers.update(aggregate(json.loads(spans_path.read_text())))
        try:
            problems, facts = cli_output_problems(out_dir, w.drivers, book)
        except Exception as exc:  # malformed output fails the operation, not the run
            problems, facts = [f"unreadable output: {exc!r}"], {}
        if problems:
            s.fail(op, problems)
        if facts:
            s.output_bytes.append(facts["output_bytes"])
            s.popt_out_of_range["cli"] = facts["popt_out_of_range"]

    s.attempted = closed_loop(operate, 1 + trace, seconds)
    s.digests = book.observed
    return s


def closed_loop(operate, min_ops: int, seconds: float) -> int:
    """Call operate(0), operate(1), ... one at a time; returns how many ran.

    Runs at least min_ops operations, then starts another only while the
    previous one (with its check) would still finish within `seconds`.
    """
    start = time.perf_counter()
    done, step = 0, 0.0
    while done < min_ops or time.perf_counter() - start + step <= seconds:
        began = time.perf_counter()
        operate(done)
        step = time.perf_counter() - began
        done += 1
    return done


def suite_round(inputs: Path, modules: int, seed: int, seconds: float, trace: int,
                first_op: int, min_ops: int, spans: Path) -> tuple[float, dict, float]:
    """Spawn one suite_worker.py round; (seconds until ready, final JSON, peak RSS MB)."""
    cmd = [
        sys.executable, str(BENCH / "suite_worker.py"), "--inputs", str(inputs),
        "--modules", str(modules), "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--spans", str(spans),
        "--first-op", str(first_op), "--min-ops", str(min_ops),
    ]
    err_path = WORK / "suite-grid.err"
    with err_path.open("w") as err:
        begin = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                                stderr=err, text=True)
        ready = proc.stdout.readline()
        ready_s = time.perf_counter() - begin
        rest = proc.stdout.read()
        proc.stdout.close()
        code, rss = reap(proc)
    if ready.strip() != "ready" or code != 0:
        raise RuntimeError(f"suite worker failed (exit {code}): {err_path.read_text()[-2000:]}")
    return ready_s, json.loads(rest.strip().splitlines()[-1]), rss


def run_suite(w: Workload, modules: int, seed: int, seconds: float, trace: int) -> Samples:
    """Rounds of seconds / SUITE_ROUNDS each, until every score vector ran once and time is up."""
    inputs = gen.inputs(w.inputs, modules, seed)
    s = Samples(digests_recorded=DigestBook(w.name, modules, seed).recorded)
    spans = WORK / "suite-grid.spans.json"
    suite_round(inputs, modules, seed, 0.0, 0, 0, 0, spans)  # warms .pyc files; not a sample

    def play(min_ops: int) -> None:
        ready_s, out, rss = suite_round(inputs, modules, seed, seconds / SUITE_ROUNDS, trace,
                                        s.attempted, min_ops, spans)
        s.setup_s.append(ready_s)
        s.rss_mb.append(rss)
        s.op_s += out["op_s"]
        s.traced_op_s += out["traced_op_s"]
        s.popt_out_of_range.update(out["popt_out_of_range"])
        s.problems += out["problems"]
        s.attempted += out["attempted"]
        s.failed += out["failed"]
        for config, digests in out["digests"].items():
            # each round checks itself; rounds must also agree with each other
            if s.digests.setdefault(config, digests) != digests:
                s.fail(s.attempted, [f"config {config}: outputs differ between rounds"])
        if trace:
            s.layers.update(aggregate(json.loads(spans.read_text())))

    closed_loop(lambda _: play(1), 1, seconds)
    if s.attempted < gen.SUITE_VECTORS:
        play(gen.SUITE_VECTORS - s.attempted)
    return s


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def end_to_end(w: Workload, modules: int, s: Samples) -> dict:
    run_s = median(s.op_s)
    return {
        "run_s": run_s,
        "cells_per_s": w.cells * modules / run_s,
        "setup_s": median(s.setup_s),
        "peak_rss_mb": median(s.rss_mb),
    }


def per_layer(s: Samples) -> dict:
    setup = s.layers.get("setup", {})
    ops = [values for op, values in s.layers.items() if op != "setup"]
    values = {}
    for name in PER_LAYER:
        if any(name in op for op in ops):
            values[name] = median([op.get(name, 0.0) for op in ops])
        else:
            values[name] = setup.get(name, 0.0)
    values["curves.popt_out_of_range"] = sum(s.popt_out_of_range.values())
    values["cli.output_mb"] = median(s.output_bytes) / 1e6
    values["trace.run_s"] = median(s.traced_op_s)
    values["trace.overhead_s"] = values["trace.run_s"] - median(s.op_s)
    return values


def run(name: str, seed: int, seconds: float, trace: int,
        modules: int | None = None) -> tuple[dict, Samples]:
    """One workload run; returns the result object printed as the last line."""
    w = WORKLOADS[name]
    modules = modules or w.modules
    WORK.mkdir(parents=True, exist_ok=True)
    runner = run_cli if w.cli_args else run_suite
    s = runner(w, modules, seed, seconds, trace)
    metrics = per_layer(s) if trace else end_to_end(w, modules, s)
    units = PER_LAYER if trace else END_TO_END
    samples = len(s.traced_op_s) if trace else len(s.op_s)
    for problem in s.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    print(f"# {name}: modules={modules} seed={seed} trace={trace} "
          f"operations={s.attempted} failed={s.failed} error_rate={s.failed / s.attempted:g} "
          f"timed samples={samples} setup samples={len(s.setup_s)} "
          f"digests={'recorded' if s.digests_recorded else 'not recorded for this seed'}")
    if not s.digests_recorded:
        print(f"warning: no reference digests for {name} at {modules} modules, seed {seed}: "
              "outputs were checked against the curve invariants and against each other, "
              "not against recorded digests", file=sys.stderr)
    for metric, value in metrics.items():
        print(f"{name:18s} {metric:44s} {value:14.6g} {units[metric]}")
    result = {
        "correct": s.failed == 0,
        "attempted": s.attempted,
        "failed": s.failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }
    return result, s


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="eameval benchmark (one workload run)")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--modules", type=int, default=None,
                        help="override the workload's dataset size (tests use tiny sizes)")
    args = parser.parse_args(argv)
    if not (SRC / "eameval" / "__init__.py").is_file():
        print(f"error: no eameval sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    try:
        result, _ = run(args.workload, args.seed, args.seconds, args.trace, args.modules)
    except (RuntimeError, OSError, ValueError):
        traceback.print_exc()
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
