import re
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eameval.effort as effort_module
import eameval.evaluate as evaluate_module
from eameval.curves import BENEFIT_MODES, INTERPOLATIONS, budget_reading, cost_efficiency_curve, pofb_at, popt
from eameval.dataset import _MEMO_DRIVERS
from eameval.effort import (EffortDriver, cumulative_effort_fractions, cutoff_from_fractions,
                            driver_values)
from eameval.evaluate import evaluate_suite
from eameval.metrics import classification_metrics, confusion_at_cutoff, roc_auc
from eameval.ranking import (SCORE_POLICIES, TIE_BREAKS, _dense_rank, _primary_key, _score_groups, _ties,
                             optimal_ranking, rank)
from eameval.report import report_dict

from conftest import build_dataset, random_instance


@pytest.fixture
def suite(toy, toy_scores, loc_driver, mccc_driver):
    return evaluate_suite(
        toy,
        toy_scores,
        [loc_driver, mccc_driver],
        budgets=[0.2, 0.5],
        policies=("score", "density"),
        dataset_name="toy",
    )


class TestEvaluateSuite:
    def test_cell_grid(self, suite):
        assert len(suite.cells) == 4  # 2 policies x 2 drivers
        assert {(c.policy, c.driver) for c in suite.cells} == {
            ("score", "LOC"), ("score", "McCC"),
            ("density", "LOC"), ("density", "McCC"),
        }

    def test_headline_numbers(self, suite):
        assert suite.n == 5
        assert suite.num_defective == 3
        assert suite.prevalence == pytest.approx(0.6)
        assert suite.auc == pytest.approx(0.5)

    def test_score_loc_cell(self, suite):
        cell = next(c for c in suite.cells if c.policy == "score" and c.driver == "LOC")
        assert cell.popt == pytest.approx(13 / 15, abs=1e-9)
        by_budget = {b.budget: b for b in cell.budgets}
        assert by_budget[0.5].value == pytest.approx(2 / 3)
        assert by_budget[0.5].cutoff == 4
        assert by_budget[0.5].metrics.tpr == pytest.approx(2 / 3)

    def test_optimal_policy_cell(self, toy, toy_scores, loc_driver):
        report = evaluate_suite(
            toy, toy_scores, [loc_driver], budgets=[0.5], policies=("optimal",)
        )
        cell = report.cells[0]
        assert cell.popt == 1.0

    def test_tie_break_checked_without_a_score_cell(self, toy, toy_scores, loc_driver):
        with pytest.raises(ValueError, match=r"tie_break must be one of \('asc', 'desc', 'input'\), got 'bogus'"):
            evaluate_suite(toy, toy_scores, [loc_driver], [], policies=("optimal",), tie_break="bogus")

    def test_nan_score_rejected_under_optimal_policy_alone(self, loc_driver):
        d = build_dataset({"LOC": [10, 20, 30, 40]}, [True, False, True, False], ids=list("abcd"))
        with pytest.raises(ValueError, match="NaN score for module 'b'"):
            evaluate_suite(d, np.array([0.5, np.nan, 0.2, 0.1]), [loc_driver], [0.5],
                           policies=("optimal",))

    def test_nan_score_rejected_on_single_class_data(self, loc_driver):
        d = build_dataset({"LOC": [5, 6]}, [True, True])
        with pytest.raises(ValueError, match="NaN score"):
            evaluate_suite(d, np.array([0.5, np.nan]), [loc_driver], [0.5], policies=("optimal",))

    def test_auc_none_when_single_class(self, loc_driver):
        d = build_dataset({"LOC": [5, 6, 7]}, [True, True, True])
        report = evaluate_suite(
            d, np.array([0.9, 0.5, 0.1]), [loc_driver], budgets=[0.5]
        )
        assert report.auc is None

    def test_empty_budget_list(self, toy, toy_scores, loc_driver):
        report = evaluate_suite(toy, toy_scores, [loc_driver], budgets=[])
        assert report.cells[0].budgets == ()

    def test_budget_out_of_range(self, toy, toy_scores, loc_driver):
        with pytest.raises(ValueError, match="budget"):
            evaluate_suite(toy, toy_scores, [loc_driver], budgets=[1.2])

    @pytest.mark.parametrize("drivers, budgets, message", [
        (["LOC", "LOC"], [0.2], "effort driver 'LOC' given twice"),
        (["LOC"], [0.2, 0.5, 0.2], "budget 0.2 given twice"),
        (["LOC"], [0.2, 0.2000000000001], "budget 0.2 given twice"),  # one PofB@0.2 column
    ])
    def test_repeated_driver_or_budget_rejected(self, toy, toy_scores, drivers, budgets, message):
        drivers = [EffortDriver(measures=(name,)) for name in drivers]
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            evaluate_suite(toy, toy_scores, drivers, budgets, policies=())

    def test_zero_and_negative_zero_weights_are_one_driver(self, toy, toy_scores):
        drivers = [EffortDriver(("LOC", "McCC"), 0.0), EffortDriver(("LOC", "McCC"), -0.0)]
        assert drivers[1].name == "composite:LOC,McCC,0"
        with pytest.raises(ValueError, match=r"^effort driver 'composite:LOC,McCC,0' given twice$"):
            evaluate_suite(toy, toy_scores, drivers, [0.5])

    def test_near_equal_weights_are_two_drivers(self, toy, toy_scores):
        drivers = [EffortDriver(("LOC", "McCC"), 0.1234567), EffortDriver(("LOC", "McCC"), 0.1234568)]
        report = evaluate_suite(toy, toy_scores, drivers, [0.5])
        assert [c.driver for c in report.cells] == ["composite:LOC,McCC,0.1234567", "composite:LOC,McCC,0.1234568"]

    def test_unknown_policy(self, toy, toy_scores, loc_driver):
        with pytest.raises(ValueError, match="policy"):
            evaluate_suite(toy, toy_scores, [loc_driver], budgets=[], policies=("best",))

    def test_settings_checked_without_a_cell(self, toy, toy_scores):
        with pytest.raises(ValueError, match=r"policy must be one of \('score', 'density', 'optimal'\), got 'nope'"):
            evaluate_suite(toy, toy_scores, [], [], benefit="bogus", interpolation="spline",
                           norm="nope", policies=("nope",))

    @pytest.mark.parametrize("settings, message", [
        ({"policies": ("score", "best")}, r"policy must be one of .*, got 'best'"),
        ({"benefit": "bogus"}, r"benefit must be one of \('modules', 'defects'\), got 'bogus'"),
        ({"interpolation": "spline"}, r"interpolation must be one of \('linear', 'step'\), got 'spline'"),
        ({"norm": "nope", "policies": ("optimal", "density")}, r"unknown measure 'nope'"),
        ({"policies": ("score", "optimal", "score")}, r"^policy 'score' given twice$"),
    ], ids=["policy", "benefit", "interpolation", "norm", "repeated-policy"])
    def test_each_setting_checked_with_no_driver(self, toy, toy_scores, settings, message):
        with pytest.raises(ValueError, match=message):
            evaluate_suite(toy, toy_scores, [], [], **settings)

    def test_norm_left_unchecked_without_a_density_policy(self, toy, toy_scores, loc_driver):
        report = evaluate_suite(toy, toy_scores, [loc_driver], [0.5], norm="nope")
        assert report.config["norm"] == "nope"

    def test_config_echoes_inputs(self, suite):
        assert suite.config["budgets"] == [0.2, 0.5]
        assert suite.config["drivers"] == ["LOC", "McCC"]
        assert suite.config["norm"] == "LOC"


class TestSharedWork:
    @pytest.mark.parametrize("tie_break", TIE_BREAKS)
    def test_optimal_ranking_built_once_per_driver(self, toy, toy_scores, monkeypatch, tie_break):
        # the optimal, score and density rankings of a driver share its
        # values: one read per driver, and none on a second call on the
        # same dataset, which shares the first call's optimal curves
        calls = []
        values_of = effort_module._effort

        def counting(drv, d):
            calls.append(drv.name)
            return values_of(drv, d)

        monkeypatch.setattr(effort_module, "_effort", counting)
        drivers = [EffortDriver(measures=("LOC",)), EffortDriver(measures=("McCC",))]
        grid = dict(budgets=[0.5], policies=("score", "density", "optimal"), tie_break=tie_break)
        report = evaluate_suite(toy, toy_scores, drivers, **grid)
        assert sorted(calls) == ["LOC", "McCC"]
        for cell in report.cells:
            twin = next(c for c in report.cells if c.policy == "optimal" and c.driver == cell.driver)
            assert cell.optimal_curve is twin.curve
        calls.clear()
        again = evaluate_suite(toy, toy_scores, drivers, **grid)
        assert calls == []
        for first, second in zip(report.cells, again.cells):
            assert second.optimal_curve is first.optimal_curve
        assert evaluate_suite(replace(toy), toy_scores, drivers, budgets=[0.5], policies=()).cells == ()
        assert calls == []

    @pytest.mark.parametrize("tie_break", TIE_BREAKS)
    def test_one_score_sort_per_call(self, toy, toy_scores, loc_driver, mccc_driver, monkeypatch, tie_break):
        # the score key and the AUC read one np.unique of the scores; the
        # drivers' sorts sit in the memo after the first call
        grid = dict(budgets=[0.5], policies=("score", "optimal"), tie_break=tie_break)
        evaluate_suite(toy, toy_scores, [loc_driver, mccc_driver], **grid)
        sorted_values = []
        unique = np.unique

        def counting(values, *args, **kwargs):
            sorted_values.append(values)
            return unique(values, *args, **kwargs)

        monkeypatch.setattr(np, "unique", counting)
        report = evaluate_suite(toy, toy_scores, [loc_driver, mccc_driver], **grid)
        assert len(sorted_values) == 1
        assert np.array_equal(sorted_values[0], toy_scores.values)
        assert report.auc == roc_auc(toy_scores, toy)

    @pytest.mark.parametrize("interpolation", INTERPOLATIONS)
    def test_each_area_computed_once(self, toy, toy_scores, loc_driver, mccc_driver, monkeypatch, interpolation):
        # an area is one np.diff of the curve's xs: once per cell curve, once
        # per optimal curve per dataset, and none for it on a second call
        diffed = []
        diff = np.diff

        def spying(values, *args, **kwargs):
            diffed.append(values)
            return diff(values, *args, **kwargs)

        monkeypatch.setattr(np, "diff", spying)
        grid = dict(budgets=[0.5], policies=("score", "density", "optimal"), interpolation=interpolation)
        for call in range(2):
            diffed.clear()
            report = evaluate_suite(toy, toy_scores, [loc_driver, mccc_driver], **grid)
            for cell in report.cells:
                expected = int(cell.policy != "optimal" or call == 0)
                assert sum(xs is cell.curve.xs for xs in diffed) == expected

    def test_optimal_readings_once_per_dataset(self, toy, toy_scores, loc_driver, mccc_driver, monkeypatch):
        # an optimal cell's metrics at a cutoff sit in the memo after the
        # first call, whatever the benefit; the other cells read their own
        policies = []
        confusion = evaluate_module.confusion_at_cutoff

        def counting(ranking, d, cutoff):
            policies.append(ranking.policy)
            return confusion(ranking, d, cutoff)

        monkeypatch.setattr(evaluate_module, "confusion_at_cutoff", counting)
        counted = replace(toy, defect_counts=[2.0, 0.0, 1.0, 0.0, 3.0])
        drivers = [loc_driver, mccc_driver]
        for call, benefit in enumerate(["modules", "modules", "defects"]):
            policies.clear()
            grid = dict(budgets=[0.0, 0.2, 0.5, 1.0], policies=("score", "optimal"), benefit=benefit)
            report = evaluate_suite(counted, toy_scores, drivers, **grid)
            assert policies.count("score") == 8
            cutoffs = {(c.driver, b.cutoff) for c in report.cells if c.policy == "optimal" for b in c.budgets}
            assert policies.count("optimal") == (len(cutoffs) if call == 0 else 0)
            assert report_dict(report) == report_dict(evaluate_suite(replace(counted), toy_scores, drivers, **grid))

    def test_signed_zero_budgets_keep_their_own_budget(self, toy, toy_scores, loc_driver):
        # -0.0 and 0.0 are one cutoff in the memo but two budgets in the report
        for _ in range(2):
            report = evaluate_suite(toy, toy_scores, [loc_driver], [-0.0, 0.0], policies=("score", "optimal"))
            for cell in report_dict(report)["results"]:
                assert [repr(b["budget"]) for b in cell["budgets"]] == ["-0.0", "0.0"]
                assert [b["cutoff"] for b in cell["budgets"]] == [0, 0]

    def test_defective_count_follows_the_labels(self, toy):
        assert toy.num_defective == 3
        assert toy.with_measure("X", np.ones(toy.n)).num_defective == 3
        flipped = replace(toy, labels=~toy.labels)
        assert flipped.num_defective == 2
        assert flipped.with_measure("X", np.ones(toy.n)).num_defective == 2
        assert replace(flipped, labels=np.ones(toy.n, dtype=bool)).num_defective == 5

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from([-np.inf, -2.5, -0.0, 0.0, 0.25, 1.0, np.inf]), st.booleans()),
                    min_size=1, max_size=12))
    def test_shared_sort_is_exact(self, rows):
        scores = np.array([s for s, _ in rows])
        labels = [y for _, y in rows]
        d = build_dataset({"LOC": np.arange(1.0, len(rows) + 1)}, labels)
        assert np.array_equal(_primary_key("score", scores, d, None, _score_groups(scores)),
                              _dense_rank(-scores))
        report = evaluate_suite(d, scores, [], [], policies=())
        if 0 < sum(labels) < len(labels):
            # reference: the same rank-sum AUC from a sort of its own
            _, group, counts = np.unique(scores, return_inverse=True, return_counts=True)
            ranks = np.cumsum(counts) - (counts - 1) / 2.0
            ap, an = sum(labels), len(labels) - sum(labels)
            reference = (float(ranks[group[np.array(labels)]].sum()) - ap * (ap + 1) / 2.0) / (ap * an)
            assert report.auc == roc_auc(scores, d) == reference

    @pytest.mark.parametrize("benefit", ["modules", "defects"])
    @pytest.mark.parametrize("interpolation", ["linear", "step"])
    def test_cells_match_function_by_function_path(self, benefit, interpolation):
        rng = np.random.default_rng(11)
        budgets = [0.0, 0.1, 0.25, 0.5, 0.9, 1.0]
        for _ in range(40):
            efforts, labels, scores = random_instance(rng, max_n=12)
            counts = [int(rng.integers(1, 4)) if y else 0 for y in labels]
            d = build_dataset({"m": efforts + 1.0, "e": efforts}, labels.tolist(), counts=counts)
            drivers = {"e": EffortDriver(measures=("e",)), "m": EffortDriver(measures=("m",))}
            best = {name: cost_efficiency_curve(optimal_ranking(d, drv), drv, d, benefit=benefit)
                    for name, drv in drivers.items()}
            for tie_break in TIE_BREAKS:
                report = evaluate_suite(d, scores, list(drivers.values()), budgets,
                                        policies=("score", "density", "optimal"), norm="m",
                                        tie_break=tie_break, benefit=benefit,
                                        interpolation=interpolation)
                for cell in report.cells:
                    drv = drivers[cell.driver]
                    if cell.policy == "optimal":
                        ranking = optimal_ranking(d, drv)
                    else:
                        ranking = rank(cell.policy, scores, d, drv, norm="m", tie_break=tie_break)
                    curve = cost_efficiency_curve(ranking, drv, d, benefit=benefit)
                    assert cell.ranking.policy == ranking.policy
                    assert np.array_equal(cell.ranking.order, ranking.order)
                    assert (cell.curve.driver, cell.curve.policy, cell.curve.benefit) == (
                        curve.driver, curve.policy, curve.benefit
                    )
                    assert np.array_equal(cell.curve.xs, curve.xs)
                    assert np.array_equal(cell.curve.ys, curve.ys)
                    assert cell.popt == popt(curve, best[cell.driver], interpolation=interpolation)
                    for b, result in zip(budgets, cell.budgets):
                        fractions = cumulative_effort_fractions(drv, ranking, d)
                        cutoff = cutoff_from_fractions(fractions, b)
                        assert result.cutoff == cutoff
                        assert result.value == pofb_at(curve, b)
                        assert result.metrics == classification_metrics(
                            confusion_at_cutoff(ranking, d, cutoff)
                        )


class TestDriverMemo:
    """A Dataset keeps what its evaluation under a driver needs whatever the
    scores; keeping it must change no result and leak into no other dataset."""

    DRIVERS = (
        EffortDriver(measures=("A",)),
        EffortDriver(measures=("B",)),
        EffortDriver(measures=("A", "B"), weight=0.25),
        EffortDriver(measures=("A", "B"), weight=0.5, normalize=True),
    )
    BUDGETS = (0.0, 0.3, 1.0)

    @staticmethod
    def _curve_bits(curve, optimal, interpolation):
        return (curve.driver, curve.policy, curve.benefit, curve.xs.tobytes(), curve.ys.tobytes(),
                repr(popt(curve, optimal, interpolation=interpolation)),
                [budget_reading(curve, b) for b in TestDriverMemo.BUDGETS])

    def _outcome(self, d, call):
        """What one drawn call gives on d, bit for bit, or the error it raises."""
        kind, drivers, scores, policy, tie_break, benefit, interpolation = call
        drv = drivers[0]
        try:
            if kind == "suite":
                report = evaluate_suite(d, scores, drivers, self.BUDGETS, ("score", "density", "optimal"),
                                        norm="N", tie_break=tie_break, benefit=benefit,
                                        interpolation=interpolation)
                return [(c.policy, c.driver, c.ranking.order.tobytes(), c.curve.xs.tobytes(),
                         c.curve.ys.tobytes(), c.optimal_curve.xs.tobytes(), c.optimal_curve.ys.tobytes(),
                         repr(c.popt), [(b.cutoff, repr(b.value), repr(b.metrics)) for b in c.budgets])
                        for c in report.cells]
            if kind == "rank":
                return rank(policy, scores, d, drv, norm="N", tie_break=tie_break).order.tobytes()
            if kind == "optimal":
                return optimal_ranking(d, drv).order.tobytes()
            if kind == "values":
                return driver_values(drv, d).tobytes()
            ranking = rank(policy, scores, d, drv, norm="N", tie_break=tie_break)
            optimal = cost_efficiency_curve(optimal_ranking(d, drv), drv, d, benefit=benefit)
            curve = cost_efficiency_curve(ranking, drv, d, benefit=benefit)
            return ranking.order.tobytes(), self._curve_bits(curve, optimal, interpolation)
        except ValueError as err:
            return "raises", str(err)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_any_call_sequence_matches_a_fresh_dataset(self, data):
        n = data.draw(st.integers(2, 8), label="n")
        column = st.lists(st.sampled_from([0.0, 1.0, 2.0, 5.0]), min_size=n, max_size=n)
        a, b = data.draw(column, label="A"), data.draw(column, label="B")
        labels = data.draw(st.lists(st.booleans(), min_size=n, max_size=n).filter(any), label="labels")
        counts = [2 if y else 0 for y in labels]
        measures = {"A": a, "B": b, "N": [1.0 + v for v in a]}

        def fresh():
            return build_dataset(measures, labels, counts=counts)

        d = fresh()
        values = st.sampled_from([-0.0, 0.0, 0.1, 0.5, 0.9])
        for _ in range(data.draw(st.integers(1, 8), label="calls")):
            call = (
                data.draw(st.sampled_from(["suite", "rank", "optimal", "values", "curve"])),
                [self.DRIVERS[i] for i in data.draw(
                    st.lists(st.integers(0, len(self.DRIVERS) - 1), min_size=1, max_size=3, unique=True))],
                np.array(data.draw(st.lists(values, min_size=n, max_size=n))),
                data.draw(st.sampled_from(SCORE_POLICIES)),
                data.draw(st.sampled_from(TIE_BREAKS)),
                data.draw(st.sampled_from(BENEFIT_MODES)),
                data.draw(st.sampled_from(INTERPOLATIONS)),
            )
            assert self._outcome(d, call) == self._outcome(fresh(), call)

    def test_with_measure_keeps_its_own_memo(self, toy, toy_scores):
        over_x = EffortDriver(measures=("X",))
        toy_with_x = toy.with_measure("X", [3.0, 1.0, 4.0, 1.0, 5.0])
        report = evaluate_suite(toy_with_x, toy_scores, [over_x], [0.5], ("score", "optimal"))
        assert [c.driver for c in report.cells] == ["X", "X"]
        for _ in range(2):
            with pytest.raises(ValueError, match="unknown measure 'X'"):
                evaluate_suite(toy, toy_scores, [over_x], [0.5], ("score", "optimal"))
            with pytest.raises(ValueError, match="unknown measure 'X'"):
                optimal_ranking(toy, over_x)

    def test_replace_starts_an_empty_memo(self, toy, toy_scores, loc_driver):
        def optimal_curve():
            return evaluate_suite(toy, toy_scores, [loc_driver], [], ("optimal",)).cells[0].optimal_curve

        ties, before = _ties(toy, loc_driver, "asc"), optimal_curve()
        assert driver_values(loc_driver, toy).tolist() == [10.0, 20.0, 30.0, 40.0, 100.0]
        mirrored = replace(toy, measures={"LOC": [100.0, 40.0, 30.0, 20.0, 10.0]})
        assert driver_values(loc_driver, mirrored).tolist() == [100.0, 40.0, 30.0, 20.0, 10.0]
        assert optimal_ranking(mirrored, loc_driver).order.tolist() == [4, 2, 0, 3, 1]
        assert _ties(toy, loc_driver, "asc") is ties
        assert optimal_curve() is before

    def test_a_driver_that_raises_raises_every_time(self, toy, toy_scores):
        constant = replace(toy, measures={"LOC": [7.0] * 5, "McCC": [5.0, 1.0, 9.0, 2.0, 3.0]})
        minmax = EffortDriver(measures=("LOC", "McCC"), weight=0.5, normalize=True)
        for _ in range(3):
            with pytest.raises(ValueError, match="cannot min-max normalize constant measure 'LOC'"):
                evaluate_suite(constant, toy_scores, [minmax], [0.5])
            with pytest.raises(ValueError, match="cannot min-max normalize constant measure 'LOC'"):
                driver_values(minmax, constant)

    def test_memo_arrays_are_read_only(self, toy, toy_scores):
        composite = EffortDriver(measures=("LOC", "McCC"), weight=0.5, normalize=True)
        expected = driver_values(composite, replace(toy)).tolist()
        report = evaluate_suite(toy, toy_scores, [composite], [0.5], ("score", "optimal"), tie_break="desc")
        optimal = report.cells[1]
        arrays = [driver_values(composite, toy), optimal.ranking.order, optimal.curve.xs, optimal.curve.ys,
                  _ties(toy, composite, "asc"), _ties(toy, composite, "desc")]
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0
        assert driver_values(composite, toy).tolist() == expected

    def test_the_oldest_driver_is_dropped_past_the_cap(self, toy, monkeypatch):
        calls = []
        values_of = effort_module._effort

        def counting(drv, d):
            calls.append(drv.weight)
            return values_of(drv, d)

        monkeypatch.setattr(effort_module, "_effort", counting)
        weights = [k / (2 * _MEMO_DRIVERS) for k in range(_MEMO_DRIVERS + 1)]
        sweep = [EffortDriver(measures=("LOC", "McCC"), weight=w) for w in weights]
        for drv in sweep:
            optimal_ranking(toy, drv)
        assert calls == weights and len(toy._memo) == _MEMO_DRIVERS
        for drv in sweep[1:]:
            optimal_ranking(toy, drv)
        assert calls == weights
        fresh = replace(toy)
        assert optimal_ranking(toy, sweep[0]).order.tolist() == optimal_ranking(fresh, sweep[0]).order.tolist()
        assert calls == [*weights, weights[0], weights[0]]
        assert len(toy._memo) == _MEMO_DRIVERS

    def test_zero_and_negative_zero_weights_keep_their_names(self, toy, toy_scores):
        # one driver, one name: the memo's parts built under either weight
        # carry the name of both
        for weight in (0.0, -0.0, 0.0):
            drv = EffortDriver(measures=("LOC", "McCC"), weight=weight)
            cell = evaluate_suite(toy, toy_scores, [drv], [0.5]).cells[0]
            assert cell.curve.driver == cell.optimal_curve.driver == drv.name

    def test_threads_sharing_one_dataset_agree(self, toy, toy_scores):
        drivers = [EffortDriver(measures=("LOC", "McCC"), weight=k / 40) for k in range(_MEMO_DRIVERS + 4)]

        def grid(d):
            report = evaluate_suite(d, toy_scores, drivers, [0.5], ("score", "optimal"), tie_break="desc")
            return [(c.ranking.order.tolist(), c.curve.ys.tolist(), c.popt) for c in report.cells]

        expected = grid(replace(toy))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(grid, toy) for _ in range(16)]
                results = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert all(r == expected for r in results)
        assert len(toy._memo) <= _MEMO_DRIVERS


class TestReportDict:
    def test_float_rounding_six_significant_digits(self, suite):
        doc = report_dict(suite)
        loc = next(r for r in doc["results"] if r["driver"] == "LOC")
        popt = loc["Popt"]
        assert popt == float(f"{13 / 15:.6g}")
        assert len(repr(popt).replace("0.", "")) <= 6

    def test_stable_top_level_key_order(self, suite):
        doc = report_dict(suite)
        assert list(doc) == ["tool", "dataset", "model", "config", "AUC", "results"]

    def test_flags_merged_into_config(self, suite):
        doc = report_dict(suite, flags={"out_dir": "somewhere"})
        assert doc["config"]["out_dir"] == "somewhere"

    def test_density_cells_use_npofb_key(self, suite):
        doc = report_dict(suite)
        density = next(r for r in doc["results"] if r["policy"] == "density")
        assert "NPofB" in density["budgets"][0]
        assert "PofB" not in density["budgets"][0]
