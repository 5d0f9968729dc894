"""Acceptance gate: one test per release criterion, each ending in a single
PASS line (pytest's own status is the fail line).

Criteria 1-3 replay the reference results on the cleaned NASA datasets.
Those files are not distributed with the repository and this environment
cannot download them, so the tests locate them under data/nasa/ (or
$EAMEVAL_DATA_DIR) and skip loudly when absent; the assertions themselves
are at full strength. Everything else runs self-contained.
"""

import itertools
import json
import time
import warnings

import numpy as np
import pytest

from eameval.curves import cost_efficiency_curve, pofb_at, popt
from eameval.effort import (
    EffortDriver,
    cumulative_effort_fractions,
    cutoff_from_fractions,
    driver_values,
)
from eameval.evaluate import evaluate_suite
from eameval.metrics import confusion_at_cutoff, roc_auc
from eameval.model import (
    derive_predictor,
    fit_blr,
    log_likelihood_and_gradient,
    predict_proba,
)
from eameval.ranking import RankedList, optimal_ranking, rank

from conftest import (
    LOC_COLUMNS,
    MCCC_COLUMNS,
    build_dataset,
    curves_coincide,
    find_nasa_file,
    load_nasa,
    random_instance,
    resolve_measure,
)

TOLERANCE = 0.05  # absolute, for all reference-value reproductions

# Reference values for the cleaned NASA PC3 project: full-dataset fit with
# predictors LOC and McCC/LOC, score ranking.
PC3_POFB = {("LOC", 0.2): 0.12, ("McCC", 0.2): 0.39,
            ("LOC", 0.5): 0.55, ("McCC", 0.5): 0.72}
PC3_POPT = {"LOC": 0.55, "McCC": 0.68}
PC3_NPOFB = {("LOC", 0.2): 0.26, ("McCC", 0.2): 0.28,
             ("LOC", 0.5): 0.68, ("McCC", 0.5): 0.72}
PC3_DENSITY_POPT = {"LOC": 0.67, "McCC": 0.69}

PROJECTS = ("CM1", "JM1", "KC1", "KC3", "MC1", "MC2", "PC1", "PC2", "PC3", "PC4", "PC5")


def fit_project(project):
    """Load a NASA project, fit the reference model, return what the
    reproduction checks need: dataset, column names, drivers, scores."""
    d = load_nasa(project)
    loc = resolve_measure(d, LOC_COLUMNS)
    mccc = resolve_measure(d, MCCC_COLUMNS)
    ratio = f"{mccc}/{loc}"
    d = derive_predictor(d, ratio)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # tolerate separation on real data
        model = fit_blr(d, [loc, ratio])
    scores = predict_proba(model, d)
    drivers = {
        "LOC": EffortDriver(measures=(loc,)),
        "McCC": EffortDriver(measures=(mccc,)),
    }
    return d, loc, drivers, scores


def project_popts(project, policy="score", norm=None):
    d, loc, drivers, scores = fit_project(project)
    report = evaluate_suite(
        d, scores, list(drivers.values()), budgets=[],
        policies=(policy,), norm=norm or loc,
    )
    names = {drivers[k].name: k for k in drivers}
    return {names[c.driver]: c.popt for c in report.cells}


def test_criterion_1_pc3_pofb_reproduction():
    started = time.perf_counter()
    d, loc, drivers, scores = fit_project("PC3")
    report = evaluate_suite(
        d, scores, [drivers["LOC"], drivers["McCC"]], budgets=[0.2, 0.5]
    )
    elapsed = time.perf_counter() - started

    values = {}
    curves = {}
    for cell in report.cells:
        key = "LOC" if cell.driver == drivers["LOC"].name else "McCC"
        curves[key] = cell.curve
        for b in cell.budgets:
            values[(key, b.budget)] = b.value

    for key, expected in PC3_POFB.items():
        assert values[key] == pytest.approx(expected, abs=TOLERANCE), (
            f"PofB@{key[1]:g} ({key[0]}) = {values[key]:.4f}, expected {expected}"
        )
    assert elapsed < 5.0, f"fit+evaluate took {elapsed:.2f}s"
    # qualitative shape at 20% effort: LOC at or below the no-skill
    # diagonal, McCC well above it
    assert pofb_at(curves["LOC"], 0.2) <= 0.2 + 1e-9
    assert pofb_at(curves["McCC"], 0.2) == pytest.approx(0.40, abs=TOLERANCE)
    print(f"\ncriterion 1 PASS: PC3 PofB readings within {TOLERANCE} ({elapsed:.2f}s)")


def test_criterion_2_popt_ordering_across_projects():
    available = [p for p in PROJECTS if find_nasa_file(p)]
    if "PC3" not in available or len(available) < 3:
        pytest.skip(
            f"needs PC3 plus at least 3 of {PROJECTS} under data/nasa/ "
            f"(found: {available or 'none'}); datasets cannot be fetched here"
        )
    for project in available:
        popts = project_popts(project)
        assert popts["LOC"] < popts["McCC"], (
            f"{project}: Popt(LOC)={popts['LOC']:.3f} not below "
            f"Popt(McCC)={popts['McCC']:.3f}"
        )
    pc3 = project_popts("PC3")
    for key, expected in PC3_POPT.items():
        assert pc3[key] == pytest.approx(expected, abs=TOLERANCE)
    print(f"\ncriterion 2 PASS: Popt(LOC) < Popt(McCC) on {len(available)} projects")


def test_criterion_3_pc3_density_ranking_spot_checks():
    d, loc, drivers, scores = fit_project("PC3")
    report = evaluate_suite(
        d, scores, [drivers["LOC"], drivers["McCC"]], budgets=[0.2, 0.5],
        policies=("density",), norm=loc,
    )
    values = {}
    popts = {}
    for cell in report.cells:
        key = "LOC" if cell.driver == drivers["LOC"].name else "McCC"
        popts[key] = cell.popt
        for b in cell.budgets:
            values[(key, b.budget)] = b.value

    for key, expected in PC3_NPOFB.items():
        assert values[key] == pytest.approx(expected, abs=TOLERANCE)
    for key, expected in PC3_DENSITY_POPT.items():
        assert popts[key] == pytest.approx(expected, abs=TOLERANCE)
    # the only reference gap wide enough to pin a direction (0.04): the
    # half-budget reading must favor the McCC driver
    assert values[("McCC", 0.5)] > values[("LOC", 0.5)]
    print("\ncriterion 3 PASS: PC3 NPofB and density Popt within tolerance")


def test_criterion_4_toy_instance_matches_hand_enumeration(toy, toy_scores):
    loc = EffortDriver(measures=("LOC",))
    mccc = EffortDriver(measures=("McCC",))
    rank_loc = rank("score", toy_scores, toy, loc)
    rank_mccc = rank("score", toy_scores, toy, mccc)

    fractions_loc = cumulative_effort_fractions(loc, rank_loc, toy)
    assert list(fractions_loc) == [0.05, 0.15, 0.30, 0.50, 1.00]
    assert cutoff_from_fractions(fractions_loc, 0.5) == 4
    assert cutoff_from_fractions(cumulative_effort_fractions(mccc, rank_mccc, toy), 0.5) == 2

    curve_loc = cost_efficiency_curve(rank_loc, loc, toy)
    curve_mccc = cost_efficiency_curve(rank_mccc, mccc, toy)
    assert curve_loc.xs.tolist() == [0.0, 0.05, 0.15, 0.30, 0.50, 1.00]
    assert curve_loc.ys.tolist() == [0.0, 1 / 3, 1 / 3, 2 / 3, 2 / 3, 1.0]
    assert curve_mccc.xs.tolist() == [0.0, 0.25, 0.30, 0.75, 0.85, 1.00]

    assert pofb_at(curve_loc, 0.5) == 2 / 3
    assert pofb_at(curve_loc, 0.2) == 1 / 3
    assert pofb_at(curve_mccc, 0.5) == 1 / 3

    c_loc = confusion_at_cutoff(rank_loc, toy, 4)
    assert (c_loc.tp, c_loc.fp, c_loc.tn, c_loc.fn) == (2, 2, 0, 1)
    c_mccc = confusion_at_cutoff(rank_mccc, toy, 2)
    assert (c_mccc.tp, c_mccc.fp, c_mccc.tn, c_mccc.fn) == (1, 1, 1, 2)

    ids = lambda r: [toy.ids[i] for i in r.order]
    assert ids(optimal_ranking(toy, loc)) == ["A", "C", "E", "B", "D"]
    assert ids(optimal_ranking(toy, mccc)) == ["E", "A", "C", "B", "D"]

    optimal_loc = cost_efficiency_curve(optimal_ranking(toy, loc), loc, toy)
    assert abs(popt(curve_loc, optimal_loc) - 13 / 15) <= 1e-12
    assert roc_auc(toy_scores, toy) == 0.5
    print("\ncriterion 4 PASS: toy instance matches hand enumeration exactly")


def _best_defects_by_brute_force(efforts, labels, budgets, perms):
    """Max defective-module count reachable within each effort budget over
    every permutation (exhaustive)."""
    eff = np.cumsum(efforts[perms], axis=1)
    found = np.cumsum(labels[perms].astype(int), axis=1)
    best = []
    for budget in budgets:
        within = eff <= budget  # prefix mask per row: efforts are >= 0
        k = within.sum(axis=1)
        rows = np.arange(len(perms))
        counts = np.where(k > 0, found[rows, np.maximum(k - 1, 0)], 0)
        best.append(int(counts.max()))
    return best


def test_criterion_5_optimal_ranking_dominates_exhaustively():
    rng = np.random.default_rng(2025)
    drv = EffortDriver(measures=("m",))
    perm_cache = {}
    checked = 0
    for _ in range(200):
        efforts, labels, scores = random_instance(rng)
        n = len(efforts)
        d = build_dataset({"m": efforts}, labels.tolist())
        if n not in perm_cache:
            perm_cache[n] = np.array(list(itertools.permutations(range(n))))
        perms = perm_cache[n]

        optimal = optimal_ranking(d, drv)
        opt_eff = np.cumsum(efforts[np.asarray(optimal.order)])
        opt_found = np.cumsum(labels[np.asarray(optimal.order)].astype(int))
        tol = 1e-9 * opt_eff[-1]
        budgets = opt_eff + tol
        best = _best_defects_by_brute_force(efforts, labels, budgets, perms)
        for k in range(n):
            achieved = int(opt_found[np.searchsorted(opt_eff, budgets[k], side="right") - 1])
            assert best[k] == achieved, (
                f"an ordering finds {best[k]} defective modules within the "
                f"optimal ranking's boundary {k + 1}, optimal finds {achieved}"
            )

        optimal_curve = cost_efficiency_curve(optimal, drv, d)
        rankings = [rank("score", scores, d, drv)]
        for _ in range(3):
            perm = tuple(int(i) for i in rng.permutation(n))
            rankings.append(RankedList(order=perm, policy="score"))
        for ranking in rankings:
            curve = cost_efficiency_curve(ranking, drv, d)
            value = popt(curve, optimal_curve)
            assert value <= 1.0 + 1e-12
            if curves_coincide(curve, optimal_curve, tol=1e-9):
                assert value > 1.0 - 1e-9
            else:
                assert value < 1.0 - 1e-12
        checked += 1
    assert checked == 200
    print("\ncriterion 5 PASS: optimal ranking dominates all orderings on 200 instances")


def test_criterion_6_effort_units_cancel():
    rng = np.random.default_rng(77)
    grid = np.linspace(0.0, 1.0, 11)
    for _ in range(100):
        efforts, labels, scores = random_instance(rng, max_n=12, allow_zero_effort=False)
        k = float(rng.uniform(1e-3, 1e3))
        d = build_dataset({"s": efforts, "q": k * efforts}, labels.tolist())
        drv_s = EffortDriver(measures=("s",))
        drv_q = EffortDriver(measures=("q",))

        rank_s = rank("score", scores, d, drv_s)
        rank_q = rank("score", scores, d, drv_q)
        assert np.array_equal(rank_s.order, rank_q.order)

        curve_s = cost_efficiency_curve(rank_s, drv_s, d)
        curve_q = cost_efficiency_curve(rank_q, drv_q, d)
        assert np.allclose(curve_s.xs, curve_q.xs, rtol=0, atol=1e-12)
        assert np.allclose(curve_s.ys, curve_q.ys, rtol=0, atol=1e-12)

        fractions_s = cumulative_effort_fractions(drv_s, rank_s, d)
        fractions_q = cumulative_effort_fractions(drv_q, rank_q, d)
        for t in grid:
            assert abs(pofb_at(curve_s, t) - pofb_at(curve_q, t)) <= 1e-12
            assert cutoff_from_fractions(fractions_s, t) == cutoff_from_fractions(fractions_q, t)

        opt_s = cost_efficiency_curve(optimal_ranking(d, drv_s), drv_s, d)
        opt_q = cost_efficiency_curve(optimal_ranking(d, drv_q), drv_q, d)
        assert abs(popt(curve_s, opt_s) - popt(curve_q, opt_q)) <= 1e-12
    print("\ncriterion 6 PASS: effort unit scaling cancels to 1e-12 on 100 instances")


def test_criterion_7_monotonicity_suite():
    rng = np.random.default_rng(123)
    grid = np.linspace(0.0, 1.0, 41)
    for _ in range(100):
        efforts, labels, scores = random_instance(rng, max_n=12)
        d = build_dataset({"m": efforts}, labels.tolist())
        drv = EffortDriver(measures=("m",))
        ranking = rank("score", scores, d, drv)
        curve = cost_efficiency_curve(ranking, drv, d)

        readings = [pofb_at(curve, float(t)) for t in grid]
        assert all(b >= a for a, b in zip(readings, readings[1:]))

        fractions = cumulative_effort_fractions(drv, ranking, d)
        cutoffs = [cutoff_from_fractions(fractions, float(t)) for t in grid]
        assert cutoffs == sorted(cutoffs)

        cells = [confusion_at_cutoff(ranking, d, k) for k in range(d.n + 1)]
        for prev, cur in zip(cells, cells[1:]):
            assert cur.tp >= prev.tp and cur.fp >= prev.fp
            assert cur.fn <= prev.fn and cur.tn <= prev.tn
    print("\ncriterion 7 PASS: PofB, cutoffs, and confusion cells are monotone")


def test_criterion_8_model_numerics():
    rng = np.random.default_rng(31)

    converged_fits = 0
    attempts = 0
    while converged_fits < 25 and attempts < 120:
        attempts += 1
        n = int(rng.integers(30, 80))
        a = rng.uniform(0.5, 40, n)
        b = rng.uniform(0.5, 10, n)
        p = 1 / (1 + np.exp(-(0.08 * a - 0.3 * b)))
        labels = rng.random(n) < p
        if labels.all() or not labels.any():
            continue
        d = build_dataset({"a": a, "b": b}, labels.tolist())
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            model = fit_blr(d, ["a", "b"])
        if not model.converged:
            continue
        _, grad = log_likelihood_and_gradient(model.coefficients, d, ["a", "b"])
        assert np.max(np.abs(grad)) < 1e-6, f"gradient {np.max(np.abs(grad)):.2e} at optimum"
        converged_fits += 1
    assert converged_fits == 25

    h = 1e-6
    for _ in range(25):
        n = int(rng.integers(20, 60))
        d = build_dataset(
            {"a": rng.uniform(0.1, 30, n), "b": rng.uniform(0.1, 30, n)},
            (rng.random(n) < 0.5).tolist() if n > 2 else [True, False],
        )
        beta = rng.normal(0, 0.3, 3)
        _, grad = log_likelihood_and_gradient(beta, d, ["a", "b"])
        for j in range(3):
            e = np.zeros(3)
            e[j] = h
            up, _ = log_likelihood_and_gradient(beta + e, d, ["a", "b"])
            dn, _ = log_likelihood_and_gradient(beta - e, d, ["a", "b"])
            fd = (up - dn) / (2 * h)
            assert abs(grad[j] - fd) <= 1e-6 * max(1.0, abs(grad[j]))

    for _ in range(20):
        n = int(rng.integers(4, 40))
        labels = (rng.random(n) < rng.uniform(0.2, 0.8)).tolist()
        if all(labels) or not any(labels):
            continue
        d = build_dataset({"m": rng.uniform(1, 9, n)}, labels)
        model = fit_blr(d, [])
        fitted = 1 / (1 + np.exp(-model.coefficients[0]))
        assert abs(fitted - d.prevalence) <= 1e-9
    print("\ncriterion 8 PASS: gradients vanish, match finite differences, "
          "intercept-only recovers prevalence")


def test_criterion_9_reports_are_byte_identical(tmp_path):
    from eameval.cli import main

    data = tmp_path / "toy.csv"
    data.write_text(
        "id,LOC,McCC,Defective\n"
        "A,10,5,Y\nB,20,1,N\nC,30,9,Y\nD,40,2,N\nE,100,3,Y\n"
    )
    scores = tmp_path / "scores.csv"
    scores.write_text("0.9\n0.8\n0.6\n0.4\n0.3\n")
    out = tmp_path / "out"
    flags = [
        "evaluate", "--data", str(data), "--scores", str(scores),
        "--score-match", "order", "--effort", "LOC", "--effort", "McCC",
        "--budgets", "0.2,0.5", "--out-dir", str(out),
    ]
    assert main(flags) == 0
    first = (out / "report.json").read_bytes()
    assert main(flags) == 0
    second = (out / "report.json").read_bytes()
    assert first == second
    json.loads(first)  # and it parses
    print("\ncriterion 9 PASS: identical flags give byte-identical report.json")
