"""Command-line interface: evaluate, compare, selftest.

evaluate runs the full metric suite for one dataset and writes
report.json, tables.csv, and per-curve CSV/SVG files. compare overlays
the cost-efficiency curves of two or more effort drivers in a single
plot. selftest runs the built-in toy-instance oracle suite.

Exit codes: 0 success, 1 computation error, 2 usage or IO error.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

from . import __version__
from .curves import BENEFIT_MODES, INTERPOLATIONS
from .dataset import load_dataset
from .effort import budget_label, check_budget, check_distinct, parse_driver
from .evaluate import evaluate_suite
from .model import (
    SCORE_KINDS,
    SCORE_MATCHES,
    derive_predictor,
    fit_blr,
    import_scores,
    predict_proba,
)
from .ranking import POLICIES, TIE_BREAKS
from .report import (
    report_dict,
    write_compare_csv,
    write_curve_csv,
    write_report_json,
    write_tables_csv,
)
from .selftest import run_selftest
from .svg import render_curves


class UsageError(Exception):
    """Bad flag combination; maps to exit code 2."""


def _add_data_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--data", required=True, help="dataset CSV path")
    parser.add_argument("--label-col", default=None, metavar="NAME",
                        help="label column (default: sidecar or 'Defective')")
    parser.add_argument("--count-col", default=None, metavar="NAME",
                        help="defect count column (default: absent)")
    parser.add_argument("--predictors", default=None, metavar="LIST",
                        help="comma-separated predictors for the logistic model; "
                             "A/B derives a density ratio, e.g. LOC,McCC/LOC")
    parser.add_argument("--scores", default=None, metavar="CSV",
                        help="precomputed scores instead of fitting a model")
    parser.add_argument("--score-kind", choices=SCORE_KINDS, default="probability",
                        help="interpretation of imported scores")
    parser.add_argument("--score-match", choices=SCORE_MATCHES, default="id",
                        help="match imported scores by module id or by file order")
    parser.add_argument("--rank", choices=POLICIES, default="score",
                        help="ranking policy")
    parser.add_argument("--norm", default="LOC", metavar="MEASURE",
                        help="normalizing measure for density ranking")
    parser.add_argument("--effort", action="append", default=None, metavar="DRIVER",
                        help="effort driver: a measure name or "
                             "'composite:A,B,<weight>[,minmax]'; repeatable")
    parser.add_argument("--tie-break", choices=TIE_BREAKS, default="asc",
                        help="order among equal-score modules: ascending driver value, "
                             "descending, or dataset order")
    parser.add_argument("--benefit", choices=BENEFIT_MODES, default="modules",
                        help="count defective modules found, or defects (needs --count-col)")
    parser.add_argument("--popt-interp", choices=INTERPOLATIONS, default="linear",
                        help="curve interpolation used for Popt areas")
    parser.add_argument("--out-dir", default="eameval-out", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eameval",
        description="Effort-aware evaluation of defect prediction models.",
    )
    parser.add_argument("--version", action="version", version=f"eameval {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("evaluate", help="run the metric suite on one dataset")
    _add_data_flags(p_eval)
    p_eval.add_argument("--budgets", default="0.2,0.5", metavar="LIST",
                        help="comma-separated effort budgets in [0,1]")

    p_cmp = sub.add_parser("compare", help="overlay curves for two or more drivers")
    _add_data_flags(p_cmp)

    sub.add_parser("selftest", help="run the built-in oracle checks")
    return parser


def _parse_budgets(text: str) -> list[float]:
    budgets = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            budgets.append(float(chunk))
        except ValueError:
            raise UsageError(f"bad budget {chunk!r}") from None
    try:
        budgets = [check_budget(b) for b in budgets]
        check_distinct("budget", map(budget_label, budgets))
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    return budgets


def _parse_drivers(args) -> list:
    """The --effort drivers, each parsed, none repeated, no two slugged alike."""
    try:
        drivers = [parse_driver(text) for text in args.effort or ["LOC"]]
        check_distinct("effort driver", (repr(drv.name) for drv in drivers))
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    slugged = {}
    for drv in drivers:
        seen = slugged.setdefault(_slug(drv.name), drv)
        if seen is not drv:
            raise UsageError(f"effort drivers {seen.name!r} and {drv.name!r} "
                             f"share the slug {_slug(drv.name)!r}")
    return drivers


def _prepare(args):
    """Load the dataset and produce scores, once every flag has been checked."""
    if (args.predictors is None) == (args.scores is None):
        raise UsageError("exactly one of --predictors or --scores is required")
    names = [p.strip() for p in (args.predictors or "").split(",") if p.strip()]
    if args.predictors is not None and not names:
        raise UsageError("--predictors is empty")
    d = load_dataset(args.data, label_column=args.label_col, count_column=args.count_col)
    if args.predictors is not None:
        for name in names:
            if "/" in name:
                d = derive_predictor(d, name)
        fitted = fit_blr(d, names)
        scores = predict_proba(fitted, d)
        model = {
            "kind": "blr",
            "predictors": list(fitted.predictors),
            "coefficients": [float(c) for c in fitted.coefficients],
            "converged": fitted.converged,
            "iterations": fitted.iterations,
            "log_likelihood": fitted.log_likelihood,
            "separation": fitted.separation,
        }
    else:
        scores = import_scores(args.scores, d, kind=args.score_kind, match=args.score_match)
        model = {"kind": "imported", "path": args.scores, "score_kind": args.score_kind}
    return d, scores, model


def _evaluate(args, drivers, budgets):
    """The one evaluation grid for the flags: the chosen policy under every driver."""
    d, scores, model = _prepare(args)
    return evaluate_suite(
        d, scores, drivers, budgets, policies=[args.rank], norm=args.norm,
        tie_break=args.tie_break, benefit=args.benefit, interpolation=args.popt_interp,
        dataset_name=Path(args.data).stem, model=model,
    )


def _echo_flags(args, command: str) -> dict:
    flags = {
        "command": command,
        "data": args.data,
        "label_col": args.label_col,
        "count_col": args.count_col,
        "predictors": args.predictors,
        "scores": args.scores,
        "rank": args.rank,
        "effort": list(args.effort or ["LOC"]),
        "out_dir": args.out_dir,
    }
    if args.scores is not None:
        flags["score_kind"] = args.score_kind
        flags["score_match"] = args.score_match
    return flags


def _slug(text: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "-", text)


def _plot(path: Path, result, args, title: str) -> None:
    """One SVG overlaying the curves of every cell of the grid."""
    if args.benefit == "defects":
        y_label = "proportion of defects found"
    else:
        y_label = "proportion of defective modules found"
    curves = [(cell.driver, cell.curve.xs, cell.curve.ys) for cell in result.cells]
    render_curves(path, curves, title=title, y_label=y_label)


def cmd_evaluate(args) -> int:
    drivers = _parse_drivers(args)
    budgets = _parse_budgets(args.budgets)
    result = _evaluate(args, drivers, budgets)
    name = result.dataset_name

    out_dir = Path(args.out_dir)
    curves_dir = out_dir / "curves"
    curves_dir.mkdir(parents=True, exist_ok=True)

    svg_name = f"{name}_{args.rank}.svg"
    curve_files = {}
    for cell in result.cells:
        csv_name = f"{name}_{cell.policy}_{_slug(cell.driver)}.csv"
        write_curve_csv(curves_dir / csv_name, cell.curve)
        curve_files[(cell.policy, cell.driver)] = {
            "csv": f"curves/{csv_name}",
            "svg": f"curves/{svg_name}",
        }
    _plot(curves_dir / svg_name, result, args, f"{name} ({args.rank} ranking)")

    payload = report_dict(result, curve_files, flags=_echo_flags(args, "evaluate"))
    write_report_json(out_dir / "report.json", payload)
    write_tables_csv(out_dir / "tables.csv", result)
    print(f"wrote {out_dir / 'report.json'}")
    print(f"wrote {out_dir / 'tables.csv'}")
    print(f"wrote {len(result.cells)} curve file(s) under {curves_dir}")
    return 0


def cmd_compare(args) -> int:
    drivers = _parse_drivers(args)
    if len(drivers) < 2:
        raise UsageError("need >=2 drivers: repeat --effort")
    result = _evaluate(args, drivers, ())
    name = result.dataset_name

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    svg_path = out_dir / f"{name}_compare.svg"
    _plot(svg_path, result, args, f"{name}: effort drivers compared ({args.rank} ranking)")
    csv_path = out_dir / f"{name}_compare.csv"
    write_compare_csv(csv_path, [cell.curve for cell in result.cells])
    print(f"wrote {svg_path}")
    print(f"wrote {csv_path}")
    return 0


def cmd_selftest(args) -> int:
    results = run_selftest()
    width = max(len(name) for name, _, _ in results)
    failures = 0
    for name, passed, detail in results:
        status = "ok  " if passed else "FAIL"
        line = f"{status}  {name.ljust(width)}"
        if detail:
            line += f"  {detail}"
        print(line)
        failures += 0 if passed else 1
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = {
        "evaluate": cmd_evaluate,
        "compare": cmd_compare,
        "selftest": cmd_selftest,
    }[args.command]
    try:
        return handler(args)
    except (UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
