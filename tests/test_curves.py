import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eameval.curves import (
    CostEfficiencyCurve,
    cost_efficiency_curve,
    budget_reading,
    pofb_at,
    popt,
)
from eameval.dataset import Dataset
from eameval.effort import EffortDriver
from eameval.evaluate import evaluate_suite
from eameval.ranking import RankedList, optimal_ranking, rank

from conftest import (
    build_dataset,
    polyline_left_limit,
    polyline_right_limit,
    random_instance,
)


def popt_by_merged_grid(model, optimal):
    """Independent area oracle: integrate the gap between the polylines over
    the union of their x grids, handling vertical segments with one-sided
    limits so every merged interval is genuinely linear."""
    grid = np.unique(np.concatenate([model.xs, optimal.xs]))

    def area(curve):
        total = 0.0
        for a, b in zip(grid, grid[1:]):
            total += (b - a) * (polyline_right_limit(curve, a) + polyline_left_limit(curve, b)) / 2
        return total

    return 1.0 - (area(optimal) - area(model))


@pytest.fixture
def toy_curves(toy, toy_scores, loc_driver):
    ranking = rank("score", toy_scores, toy, loc_driver)
    model = cost_efficiency_curve(ranking, loc_driver, toy)
    optimal = cost_efficiency_curve(optimal_ranking(toy, loc_driver), loc_driver, toy)
    return model, optimal


class TestCurveConstruction:
    def test_toy_loc_points(self, toy_curves):
        model, _ = toy_curves
        assert model.xs.tolist() == [0.0, 0.05, 0.15, 0.30, 0.50, 1.00]
        assert model.ys[0] == 0.0
        assert model.ys[1] == pytest.approx(1 / 3)
        assert model.ys[2] == pytest.approx(1 / 3)
        assert model.ys[3] == pytest.approx(2 / 3)
        assert model.ys[4] == pytest.approx(2 / 3)
        assert model.ys[5] == 1.0

    def test_toy_optimal_loc_points(self, toy_curves):
        _, optimal = toy_curves
        assert optimal.xs.tolist() == [0.0, 0.05, 0.20, 0.70, 0.80, 1.00]
        assert [round(y, 10) for y in optimal.ys] == [
            0.0,
            round(1 / 3, 10),
            round(2 / 3, 10),
            1.0,
            1.0,
            1.0,
        ]

    def test_toy_mccc_points(self, toy, toy_scores, mccc_driver):
        ranking = rank("score", toy_scores, toy, mccc_driver)
        curve = cost_efficiency_curve(ranking, mccc_driver, toy)
        assert curve.xs.tolist() == [0.0, 0.25, 0.30, 0.75, 0.85, 1.00]

    def test_endpoints_are_pinned(self, toy_curves):
        for curve in toy_curves:
            assert (curve.xs[0], curve.ys[0]) == (0.0, 0.0)
            assert (curve.xs[-1], curve.ys[-1]) == (1.0, 1.0)

    def test_monotone_axes(self, toy_curves):
        for curve in toy_curves:
            assert np.all(np.diff(curve.xs) >= 0)
            assert np.all(np.diff(curve.ys) >= 0)

    def test_validation_rejects_bad_polyline(self):
        with pytest.raises(ValueError):
            CostEfficiencyCurve(
                xs=(0.0, 0.5, 1.0), ys=(0.0, 0.4, 0.9),
                driver="LOC", policy="score", benefit="modules",
            )
        with pytest.raises(ValueError):
            CostEfficiencyCurve(
                xs=(0.0, 0.6, 0.5, 1.0), ys=(0.0, 0.2, 0.4, 1.0),
                driver="LOC", policy="score", benefit="modules",
            )

    @pytest.mark.parametrize("xs, ys, message", [
        ((0.0, 0.5, 1.0), (0.0, 1.0), r"expected 3 values for benefit, got shape \(2,\)"),
        ((0.1, 0.5, 1.0), (0.0, 0.5, 1.0), r"curve must start at \(0, 0\)"),
        ((0.0, 0.3, 0.6, 1.0), (0.0, 0.6, 0.4, 1.0), r"benefit must be non-decreasing"),
    ])
    def test_validation_messages(self, xs, ys, message):
        with pytest.raises(ValueError, match=message):
            CostEfficiencyCurve(xs=xs, ys=ys, driver="LOC", policy="score", benefit="modules")

    def test_nan_point_rejected(self):
        with pytest.raises(ValueError, match="effort fractions must be non-decreasing"):
            CostEfficiencyCurve(xs=(0.0, np.nan, 1.0), ys=(0.0, np.nan, 1.0),
                                driver="LOC", policy="score", benefit="modules")
        with pytest.raises(ValueError, match="benefit must be non-decreasing"):
            CostEfficiencyCurve(xs=(0.0, 0.5, 1.0), ys=(0.0, np.nan, 1.0),
                                driver="LOC", policy="score", benefit="modules")

    def test_no_defective_modules_rejected(self, loc_driver):
        d = build_dataset({"LOC": [5, 6]}, [False, False])
        ranking = rank("score", np.array([0.9, 0.1]), d, None)
        with pytest.raises(ValueError, match="no defective"):
            cost_efficiency_curve(ranking, loc_driver, d)

    def test_single_defective_module(self, loc_driver):
        d = build_dataset({"LOC": [5]}, [True])
        ranking = rank("score", np.array([0.9]), d, None)
        curve = cost_efficiency_curve(ranking, loc_driver, d)
        assert (curve.xs.tolist(), curve.ys.tolist()) == ([0.0, 1.0], [0.0, 1.0])
        assert pofb_at(curve, 1.0) == 1.0
        assert pofb_at(curve, 0.5) == 0.0

    def test_zero_effort_module_is_free_benefit(self, loc_driver):
        d = build_dataset({"LOC": [0, 10]}, [True, False], ids=["free", "paid"])
        ranking = rank("score", np.array([0.9, 0.1]), d, None)
        curve = cost_efficiency_curve(ranking, loc_driver, d)
        assert pofb_at(curve, 0.0) == 1.0


class TestPofbReadings:
    def test_toy_values(self, toy_curves):
        model, _ = toy_curves
        assert pofb_at(model, 0.5) == pytest.approx(2 / 3)
        assert pofb_at(model, 0.2) == pytest.approx(1 / 3)

    def test_budget_extremes(self, toy_curves):
        model, _ = toy_curves
        assert pofb_at(model, 0.0) == 0.0
        assert pofb_at(model, 1.0) == 1.0

    def test_step_semantics_between_modules(self, toy_curves):
        # nothing new is found strictly between whole-module boundaries
        model, _ = toy_curves
        assert pofb_at(model, 0.49) == pofb_at(model, 0.30)

    def test_boundary_budget_includes_module(self, toy_curves):
        model, _ = toy_curves
        assert pofb_at(model, 0.30) == pytest.approx(2 / 3)

    def test_monotone_in_budget(self, toy_curves):
        model, _ = toy_curves
        readings = [pofb_at(model, b) for b in np.linspace(0, 1, 101)]
        assert all(b >= a for a, b in zip(readings, readings[1:]))

    def test_budget_reading_gives_cutoff_and_value(self, toy_curves):
        model, _ = toy_curves
        x = model.xs[3]  # exactly where the third module ends; 1e-13 is inside BUDGET_TOL
        for budget, cutoff in [(0.0, 0), (1.0, 5), (x, 3), (x - 1e-13, 3), (x + 1e-13, 3)]:
            got = budget_reading(model, budget)
            assert type(got[0]) is int and type(got[1]) is float
            assert got == (cutoff, model.ys[cutoff])
            assert pofb_at(model, budget) == got[1]

    @pytest.mark.parametrize("budget", [-0.1, 1.5])
    def test_budget_range_validated(self, toy_curves, budget):
        with pytest.raises(ValueError, match="budget"):
            pofb_at(toy_curves[0], budget)
        with pytest.raises(ValueError, match="budget"):
            budget_reading(toy_curves[0], budget)


class TestPopt:
    def test_toy_value_is_thirteen_fifteenths(self, toy_curves):
        model, optimal = toy_curves
        assert popt(model, optimal) == pytest.approx(13 / 15, abs=1e-12)

    def test_matches_merged_grid_oracle(self, toy_curves):
        model, optimal = toy_curves
        assert popt(model, optimal) == pytest.approx(
            popt_by_merged_grid(model, optimal), abs=1e-12
        )

    def test_oracle_agreement_on_random_instances(self):
        rng = np.random.default_rng(42)
        drv = EffortDriver(measures=("m",))
        for _ in range(50):
            driver_vals, labels, scores = random_instance(rng)
            d = build_dataset({"m": driver_vals}, labels.tolist())
            ranking = rank("score", scores, d, drv)
            model = cost_efficiency_curve(ranking, drv, d)
            optimal = cost_efficiency_curve(optimal_ranking(d, drv), drv, d)
            assert popt(model, optimal) == pytest.approx(
                popt_by_merged_grid(model, optimal), abs=1e-9
            )

    def test_optimal_against_itself_is_one(self, toy, loc_driver):
        optimal = cost_efficiency_curve(optimal_ranking(toy, loc_driver), loc_driver, toy)
        assert popt(optimal, optimal) == 1.0

    def test_step_convention_shifts_both_areas_equally(self):
        # each module's area contribution difference between the two
        # interpolations is order-independent, so Popt agrees
        rng = np.random.default_rng(9)
        drv = EffortDriver(measures=("m",))
        for _ in range(30):
            driver_vals, labels, scores = random_instance(rng, allow_zero_effort=False)
            d = build_dataset({"m": driver_vals}, labels.tolist())
            ranking = rank("score", scores, d, drv)
            model = cost_efficiency_curve(ranking, drv, d)
            optimal = cost_efficiency_curve(optimal_ranking(d, drv), drv, d)
            assert popt(model, optimal, interpolation="step") == popt(model, optimal, interpolation="linear")

    def test_curves_of_different_sizes_rejected(self, toy_curves):
        model, _ = toy_curves
        short = CostEfficiencyCurve(xs=(0.0, 1.0), ys=(0.0, 1.0), driver="LOC",
                                    policy="optimal", benefit="modules")
        with pytest.raises(ValueError, match="curves describe datasets of different sizes"):
            popt(model, short)

    def test_interpolation_name_validated(self, toy_curves):
        with pytest.raises(ValueError, match="interpolation"):
            popt(*toy_curves, interpolation="spline")

    def test_driver_mismatch_rejected(self, toy, toy_scores, loc_driver, mccc_driver):
        model = cost_efficiency_curve(
            rank("score", toy_scores, toy, loc_driver), loc_driver, toy
        )
        wrong = cost_efficiency_curve(
            optimal_ranking(toy, mccc_driver), mccc_driver, toy
        )
        with pytest.raises(ValueError, match="driver"):
            popt(model, wrong)

    def test_near_equal_weights_are_another_driver(self, toy, toy_scores):
        model_driver = EffortDriver(("LOC", "McCC"), 0.2)
        optimal_driver = EffortDriver(("LOC", "McCC"), 0.2000001)
        model = cost_efficiency_curve(rank("score", toy_scores, toy, model_driver), model_driver, toy)
        near = cost_efficiency_curve(optimal_ranking(toy, optimal_driver), optimal_driver, toy)
        with pytest.raises(ValueError, match="driver mismatch"):
            popt(model, near)

    def test_second_argument_must_be_optimal(self, toy_curves):
        model, _ = toy_curves
        with pytest.raises(ValueError, match="optimal"):
            popt(model, model)


class TestBenefitModes:
    def test_defect_counts_weight_the_benefit(self, loc_driver):
        d = build_dataset(
            {"LOC": [10, 10, 10, 10]},
            [True, False, True, False],
            counts=[3, 0, 1, 0],
            ids=list("ABCD"),
        )
        ranking = rank("score", np.array([0.9, 0.8, 0.7, 0.6]), d, None)
        curve = cost_efficiency_curve(ranking, loc_driver, d, benefit="defects")
        assert curve.benefit == "defects"
        assert curve.ys[1] == pytest.approx(0.75)  # 3 of 4 defects up front

    def test_unit_counts_match_module_benefit(self, loc_driver):
        d = build_dataset(
            {"LOC": [10, 20, 30]},
            [True, False, True],
            counts=[1, 0, 1],
        )
        ranking = rank("score", np.array([0.9, 0.5, 0.7]), d, None)
        by_modules = cost_efficiency_curve(ranking, loc_driver, d, benefit="modules")
        by_defects = cost_efficiency_curve(ranking, loc_driver, d, benefit="defects")
        assert np.allclose(by_modules.ys, by_defects.ys)

    def test_fractional_counts_build_a_curve(self, loc_driver):
        # In ranked order 1.1 + 0.1 + 0.1 sums one ulp above counts.sum().
        d = Dataset(
            ids=list("abcd"),
            labels=[True, True, True, False],
            measures={"LOC": [10.0] * 4},
            defect_counts=[0.1, 0.1, 1.1, 0.0],
        )
        scores = np.array([0.6, 0.4, 0.9, 0.1])
        curve = cost_efficiency_curve(rank("score", scores, d, None), loc_driver, d, benefit="defects")
        sums = np.cumsum([1.1, 0.1, 0.1, 0.0])
        assert curve.ys.tolist() == [0.0, *(sums[:-1] / sums[-1]).tolist(), 1.0]
        report = evaluate_suite(d, scores, [loc_driver], [0.5], ["score", "optimal"], benefit="defects")
        assert report.cells[0].curve.ys.tolist() == curve.ys.tolist()

    @settings(max_examples=200, deadline=None)
    @given(
        tenths=st.lists(st.integers(0, 50), min_size=1, max_size=40).filter(any),
        data=st.data(),
    )
    def test_fractional_counts_share_the_prefix_sum_rule(self, tenths, data):
        counts = np.array(tenths) / 10.0
        n = len(counts)
        d = Dataset(
            ids=[f"m{i}" for i in range(n)],
            labels=(counts > 0).tolist(),
            measures={"LOC": [10.0] * n},
            defect_counts=counts,
        )
        order = np.array(data.draw(st.permutations(range(n))))
        curve = cost_efficiency_curve(RankedList(order, "score"), EffortDriver(("LOC",)), d, benefit="defects")
        sums = np.cumsum(counts[order])
        assert np.all(curve.ys[:-1] <= curve.ys[1:])
        assert curve.ys[-1] == 1.0
        assert curve.ys[1:].tobytes() == np.append(sums[:-1] / sums[-1], 1.0).tobytes()

    def test_counts_required(self, toy, toy_scores, loc_driver):
        ranking = rank("score", toy_scores, toy, None)
        with pytest.raises(ValueError, match="count"):
            cost_efficiency_curve(ranking, loc_driver, toy, benefit="defects")

    def test_all_zero_counts_rejected(self, loc_driver):
        d = build_dataset({"LOC": [10, 20]}, [False, False], counts=[0, 0])
        ranking = rank("score", np.array([0.9, 0.1]), d, None)
        with pytest.raises(ValueError, match="no defects recorded: benefit proportion is undefined"):
            cost_efficiency_curve(ranking, loc_driver, d, benefit="defects")

    def test_unknown_benefit_rejected(self, toy, toy_scores, loc_driver):
        ranking = rank("score", toy_scores, toy, None)
        with pytest.raises(ValueError, match=r"benefit must be one of \('modules', 'defects'\), got 'bugs'"):
            cost_efficiency_curve(ranking, loc_driver, toy, benefit="bugs")

    def test_benefit_mismatch_in_popt(self, loc_driver):
        d = build_dataset(
            {"LOC": [10, 20, 30]}, [True, False, True], counts=[2, 0, 1]
        )
        ranking = rank("score", np.array([0.9, 0.5, 0.7]), d, None)
        model = cost_efficiency_curve(ranking, loc_driver, d, benefit="modules")
        optimal = cost_efficiency_curve(
            optimal_ranking(d, loc_driver), loc_driver, d, benefit="defects"
        )
        with pytest.raises(ValueError, match="benefit"):
            popt(model, optimal)


class TestScaleProportionality:
    def test_proportional_drivers_trace_the_same_curve(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            driver_vals, labels, scores = random_instance(rng, allow_zero_effort=False)
            k = float(rng.uniform(1e-3, 1e3))
            d = build_dataset(
                {"s": driver_vals, "q": (k * driver_vals)},
                labels.tolist(),
            )
            drv_s, drv_q = EffortDriver(measures=("s",)), EffortDriver(measures=("q",))
            rank_s = rank("score", scores, d, drv_s)
            rank_q = rank("score", scores, d, drv_q)
            assert np.array_equal(rank_s.order, rank_q.order)
            curve_s = cost_efficiency_curve(rank_s, drv_s, d)
            curve_q = cost_efficiency_curve(rank_q, drv_q, d)
            assert np.allclose(curve_s.xs, curve_q.xs, rtol=0, atol=1e-12)
            assert np.array_equal(curve_s.ys, curve_q.ys)
