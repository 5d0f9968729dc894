import re

import numpy as np
import pytest

import eameval.ranking as ranking_module
from eameval.curves import cost_efficiency_curve, pofb_at, popt
from eameval.effort import (EffortDriver, cumulative_effort_fractions, cutoff_from_fractions,
                            driver_values)
from eameval.evaluate import evaluate_suite
from eameval.metrics import classification_metrics, confusion_at_cutoff
from eameval.ranking import TIE_BREAKS, optimal_ranking, rank
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
    ], ids=["policy", "benefit", "interpolation", "norm"])
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
    def test_optimal_ranking_built_once_per_driver(self, toy, toy_scores, monkeypatch):
        # under "asc" the optimal, score and density rankings of a driver
        # share its tie positions: one driver_values call per driver
        calls = []

        def counting(drv, d):
            calls.append(drv.name)
            return driver_values(drv, d)

        monkeypatch.setattr(ranking_module, "driver_values", counting)
        drivers = [EffortDriver(measures=("LOC",)), EffortDriver(measures=("McCC",))]
        report = evaluate_suite(toy, toy_scores, drivers, budgets=[0.5],
                                policies=("score", "density", "optimal"))
        assert sorted(calls) == ["LOC", "McCC"]
        for cell in report.cells:
            twin = next(c for c in report.cells if c.policy == "optimal" and c.driver == cell.driver)
            assert cell.optimal_curve is twin.curve
        calls.clear()
        assert evaluate_suite(toy, toy_scores, drivers, budgets=[0.5], policies=()).cells == ()
        assert calls == []

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
