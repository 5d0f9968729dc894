"""One round of the suite-grid workload: set-up, then evaluate_suite in a closed loop.

Set-up imports eameval, loads suite.csv, derives McCC/LOC and fits the
logistic model once, then builds the score vectors: the fitted logit plus
seeded noise, and a strong model's scores (gen.py), all rounded to 2
decimals so that many scores tie. The worker prints `ready` just before
the first timed call, so the parent can time set-up from spawn. Then it
calls evaluate_suite over the policy x driver x budget grid, starting at
operation --first-op and cycling through the score vectors and
tie-breaks, until --seconds have passed and at least --min-ops operations
ran; it checks every result and prints one JSON line.

With --trace 1, set-up and every second operation run traced and the spans
go to --spans; the untraced operations in between give the overhead.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback

from tracer import Tracer

WORKLOAD = "suite-grid"
POLICIES = ("score", "density", "optimal")
DRIVERS = ("LOC", "McCC", "composite:LOC,McCC,0.5,minmax")
BUDGETS = (0.1, 0.2, 0.5)
TIE_BREAKS = ("asc", "desc", "input")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--modules", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans")
    parser.add_argument("--first-op", type=int, default=0)
    parser.add_argument("--min-ops", type=int, default=1)
    args = parser.parse_args(argv)

    tracer = Tracer() if args.trace else None
    start = time.perf_counter()
    import eameval
    import eameval.cli  # noqa: F401  (the package's full import, as the CLI pays it)
    import numpy as np
    from eameval.report import report_dict

    from checks import DigestBook, suite_report_problems
    from run import closed_loop

    if tracer:
        tracer.span("cli.import", start, time.perf_counter())
        tracer.install()
    d = eameval.load_dataset(f"{args.inputs}/suite.csv")
    d = eameval.derive_predictor(d, "McCC/LOC")
    fitted = eameval.fit_blr(d, ["LOC", "McCC/LOC"])
    p = eameval.predict_proba(fitted, d).values
    if tracer:
        tracer.uninstall()
    logit = np.log(p) - np.log1p(-p)
    vectors = list(logit + np.load(f"{args.inputs}/noise.npy")) + [np.load(f"{args.inputs}/strong.npy")]
    configs = [
        (eameval.ScoreVector(np.round(v, 2), kind="raw"), TIE_BREAKS[k % len(TIE_BREAKS)])
        for k, v in enumerate(vectors)
    ]
    drivers = [eameval.parse_driver(text) for text in DRIVERS]
    print("ready", flush=True)

    book = DigestBook(WORKLOAD, args.modules, args.seed)
    op_s, traced_s, problems = [], [], []
    out_of_range: dict[str, int] = {}  # per score vector
    failed = 0

    def operate(done: int) -> None:
        nonlocal failed
        i = args.first_op + done
        k = i % len(configs)
        scores, tie_break = configs[k]
        traced = tracer is not None and i % 2 == 1
        if traced:
            tracer.op = str(i)
            tracer.install()
        begin = time.perf_counter()
        try:
            result = eameval.evaluate_suite(
                d, scores, drivers, BUDGETS, policies=POLICIES, norm="LOC",
                tie_break=tie_break, benefit="defects", dataset_name="suite",
            )
        except Exception:
            result = None
            error = traceback.format_exc(limit=3)
        finally:
            (traced_s if traced else op_s).append(time.perf_counter() - begin)
            if traced:
                tracer.uninstall()
        if result is not None:
            try:
                found = suite_report_problems(result, report_dict, book, k)
                out_of_range[str(k)] = sum(not 0.0 <= cell.popt <= 1.0 for cell in result.cells)
            except Exception:
                found = [traceback.format_exc(limit=3)]
        else:
            found = [error]
        if found:
            failed += 1
            problems.extend(f"op {i}: {p}" for p in found[:3])

    attempted = closed_loop(operate, args.min_ops, args.seconds)
    if tracer:
        tracer.dump(args.spans)
    print(json.dumps({
        "attempted": attempted,
        "failed": failed,
        "op_s": op_s,
        "traced_op_s": traced_s,
        "popt_out_of_range": out_of_range,
        "digests": book.observed,
        "problems": problems[:10],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
