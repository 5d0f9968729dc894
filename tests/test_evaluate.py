import numpy as np
import pytest

import eameval.evaluate as evaluate_module
from eameval.curves import cost_efficiency_curve, pofb_at, popt
from eameval.effort import EffortDriver, cumulative_effort_fractions, cutoff_from_fractions
from eameval.evaluate import evaluate_suite
from eameval.metrics import classification_metrics, confusion_at_cutoff
from eameval.ranking import optimal_ranking, rank
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

    def test_unknown_policy(self, toy, toy_scores, loc_driver):
        with pytest.raises(ValueError, match="policy"):
            evaluate_suite(toy, toy_scores, [loc_driver], budgets=[], policies=("best",))

    def test_config_echoes_inputs(self, suite):
        assert suite.config["budgets"] == [0.2, 0.5]
        assert suite.config["drivers"] == ["LOC", "McCC"]
        assert suite.config["norm"] == "LOC"


class TestSharedWork:
    def test_optimal_ranking_built_once_per_driver(self, toy, toy_scores, monkeypatch):
        calls = []

        def counting(d, drv):
            calls.append(drv.name)
            return optimal_ranking(d, drv)

        monkeypatch.setattr(evaluate_module, "optimal_ranking", counting)
        drivers = [EffortDriver(measures=("LOC",)), EffortDriver(measures=("McCC",))]
        report = evaluate_suite(toy, toy_scores, drivers, budgets=[0.5],
                                policies=("score", "density", "optimal"))
        assert sorted(calls) == ["LOC", "McCC"]
        for cell in report.cells:
            twin = next(c for c in report.cells if c.policy == "optimal" and c.driver == cell.driver)
            assert cell.optimal_curve is twin.curve

    @pytest.mark.parametrize("benefit", ["modules", "defects"])
    @pytest.mark.parametrize("interpolation", ["linear", "step"])
    def test_cells_match_function_by_function_path(self, benefit, interpolation):
        rng = np.random.default_rng(11)
        budgets = [0.0, 0.1, 0.25, 0.5, 0.9, 1.0]
        for _ in range(40):
            efforts, labels, scores = random_instance(rng, max_n=12)
            counts = [int(rng.integers(1, 4)) if y else 0 for y in labels]
            d = build_dataset({"m": efforts + 1.0, "e": efforts}, labels.tolist(), counts=counts)
            drv = EffortDriver(measures=("e",))
            report = evaluate_suite(d, scores, [drv], budgets,
                                    policies=("score", "density", "optimal"), norm="m",
                                    benefit=benefit, interpolation=interpolation)
            best = cost_efficiency_curve(optimal_ranking(d, drv), drv, d, benefit=benefit)
            for cell in report.cells:
                ranking = rank(cell.policy, scores, d, drv, norm="m")
                curve = cost_efficiency_curve(ranking, drv, d, benefit=benefit)
                assert cell.ranking.policy == ranking.policy
                assert np.array_equal(cell.ranking.order, ranking.order)
                assert np.array_equal(cell.ranking.key_values, ranking.key_values)
                assert (cell.curve.driver, cell.curve.policy, cell.curve.benefit) == (
                    curve.driver, curve.policy, curve.benefit
                )
                assert np.array_equal(cell.curve.xs, curve.xs)
                assert np.array_equal(cell.curve.ys, curve.ys)
                assert cell.popt == popt(curve, best, interpolation=interpolation)
                for b, result in zip(budgets, cell.budgets):
                    cutoff = cutoff_from_fractions(cumulative_effort_fractions(drv, ranking, d), b)
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
