"""Run the benchmark over several seeds and summarize every metric.

    python3 bench/sweep.py [--seeds 10] [--out FILE]

For each workload in BENCHMARK.json and seed 0..N-1 it runs bench/run.py
for run_seconds, untraced and traced, one run at a time, and reports each
metric's median, quartiles and spread (interquartile distance over the
median, from statistics.quantiles(values, n=4)), flagging every
end-to-end spread that is not below a third of the metric's bound. With --seeds 1
it is the one command that prints every end-to-end and per-layer metric
of every workload with its unit. --out writes all raw values and
summaries as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0, "n": len(values)}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report: dict = {}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            runs = []
            for seed in range(args.seeds):
                cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                       "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
                if proc.returncode != 0:
                    print(proc.stdout + proc.stderr, file=sys.stderr)
                    return 1
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                runs.append({"seed": seed, **result})
                ok &= result["correct"]
                print(f"{workload} trace={trace} seed={seed} attempted={result['attempted']} "
                      f"failed={result['failed']}", flush=True)
            attempted = sum(r["attempted"] for r in runs)
            failed = sum(r["failed"] for r in runs)
            summary = {}
            for name, metric in runs[0]["metrics"].items():
                summary[name] = {"unit": metric["unit"],
                                 **summarize([r["metrics"][name]["value"] for r in runs])}
            report.setdefault(workload, {})[f"trace{trace}"] = {
                "error_rate": failed / attempted, "attempted": attempted, "runs": runs, "summary": summary,
            }
            print(f"# {workload} trace={trace}: error_rate={failed / attempted:g} over {attempted} operations")
            for name, s in summary.items():
                flag = ""
                if name in bounds and s["spread"] >= bounds[name] / 3:
                    flag = f"  SPREAD >= bound/3 ({bounds[name] / 3:.3f})"
                print(f"{workload:18s} {name:44s} {s['median']:14.6g} {s['unit']:8s} "
                      f"q1={s['q1']:.6g} q3={s['q3']:.6g} spread={s['spread']:.4f} n={s['n']}{flag}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
