import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eameval.effort import (
    BUDGET_TOL,
    EffortDriver,
    cumulative_effort_fractions,
    cutoff_from_fractions,
    driver_values,
    parse_driver,
)
from eameval.ranking import RankedList, rank

from conftest import build_dataset


def as_ranking(order):
    return RankedList(order=order, policy="score")


IDENTITY = as_ranking(range(5))


def budget_cutoff(drv, ranking, d, budget):
    return cutoff_from_fractions(cumulative_effort_fractions(drv, ranking, d), budget)


class TestParseDriver:
    def test_single_measure(self):
        drv = parse_driver("LOC")
        assert drv.measures == ("LOC",)
        assert not drv.is_composite
        assert drv.name == "LOC"

    def test_composite(self):
        drv = parse_driver("composite:LOC,McCC,0.2")
        assert drv.measures == ("LOC", "McCC")
        assert drv.weight == 0.2
        assert not drv.normalize
        assert drv.name == "composite:LOC,McCC,0.2"

    def test_composite_minmax(self):
        drv = parse_driver("composite:LOC,McCC,0.7,minmax")
        assert drv.normalize
        assert drv.name == "composite:LOC,McCC,0.7,minmax"

    @pytest.mark.parametrize(
        "text",
        [
            "composite:LOC,McCC",
            "composite:LOC,McCC,1.5",
            "composite:LOC,McCC,-0.1",
            "composite:LOC,McCC,zero",
            "composite:LOC",
            "composite:LOC,McCC,0.5,sigmoid",
            "",
        ],
    )
    def test_malformed_specs(self, text):
        with pytest.raises(ValueError):
            parse_driver(text)

    def test_name_round_trips(self):
        for text in ("LOC", "composite:A,B,0.25", "composite:A,B,0.25,minmax",
                     "composite:A,B,0.1234567", "composite:A,B,0.1234568", "composite:A,B,0.3333333333333333"):
            assert parse_driver(parse_driver(text).name).name == text

    # a measure name a loaded header can hold, which parse_driver reads as one
    MEASURE = st.text(min_size=1).filter(
        lambda name: "," not in name and name == name.strip() and not name.startswith("composite:"))

    @settings(max_examples=300, deadline=None)
    @given(
        measures=st.lists(MEASURE, min_size=1, max_size=2),
        weight=st.floats(0, 1) | st.sampled_from([-0.0, 1 / 3, 0.1234567]),
        normalize=st.booleans(),
    )
    def test_name_is_the_driver(self, measures, weight, normalize):
        composite = len(measures) == 2
        drv = EffortDriver(tuple(measures), weight if composite else None, normalize and composite)
        twin = EffortDriver(tuple(measures), weight if composite else None, normalize and composite)
        assert drv.name is drv.name  # built once per driver
        assert parse_driver(drv.name) == drv
        assert parse_driver(drv.name).name == drv.name
        assert drv == twin and hash(drv) == hash(twin)  # the cached name is not a field

    @pytest.mark.parametrize("measures, weight", [
        (("a,b", "c"), 0.5),
        (("c", "a,b"), 0.5),
        (("composite:x,y,0.5",), None),
        (("",), None),
        ((" LOC",), None),
        (("LOC", "McCC\t"), 0.5),
    ])
    def test_names_that_would_not_read_back_are_rejected(self, measures, weight):
        bad = next(m for m in measures if m not in ("c", "LOC"))
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            EffortDriver(measures, weight)

    def test_a_single_measure_may_hold_a_comma(self):
        drv = EffortDriver(("a,b",))
        assert parse_driver(drv.name) == drv

    @settings(max_examples=300, deadline=None)
    @given(
        measures=st.lists(st.text(max_size=12) | st.sampled_from(["a,b", "composite:a,b,0.5", " a", "a\x1f"]),
                          min_size=1, max_size=2),
        weight=st.floats(0, 1),
        normalize=st.booleans(),
    )
    def test_any_text_name_raises_or_reads_back(self, measures, weight, normalize):
        composite = len(measures) == 2
        try:
            drv = EffortDriver(tuple(measures), weight if composite else None, normalize and composite)
        except ValueError:
            return
        assert parse_driver(drv.name) == drv


class TestModuleEffort:
    def test_single_measure(self, toy, loc_driver):
        assert driver_values(loc_driver, toy).tolist() == [10.0, 20.0, 30.0, 40.0, 100.0]

    def test_composite_blend(self, toy):
        drv = EffortDriver(measures=("LOC", "McCC"), weight=0.5)
        # 0.5 * 10 + 0.5 * 5
        assert driver_values(drv, toy)[0] == 7.5

    def test_weight_one_is_first_measure(self, toy):
        drv = EffortDriver(measures=("LOC", "McCC"), weight=1.0)
        assert np.array_equal(driver_values(drv, toy), toy.measure_vector("LOC"))

    def test_weight_zero_is_second_measure(self, toy):
        drv = EffortDriver(measures=("LOC", "McCC"), weight=0.0)
        assert np.array_equal(driver_values(drv, toy), toy.measure_vector("McCC"))

    def test_driver_validation(self):
        with pytest.raises(ValueError):
            EffortDriver(measures=())
        with pytest.raises(ValueError):
            EffortDriver(measures=("A", "B"))  # composite without weight
        with pytest.raises(ValueError):
            EffortDriver(measures=("A",), weight=0.5)
        with pytest.raises(ValueError, match=r"^measures must be a sequence of measure names, got the string 'AB'$"):
            EffortDriver(measures="AB", weight=0.5)
        with pytest.raises(ValueError, match=r"^measure name must be a str, got 1$"):
            EffortDriver(measures=("LOC", 1), weight=0.5)
        drv = EffortDriver(measures=["LOC"])
        assert drv.measures == ("LOC",)
        assert drv == EffortDriver(measures=("LOC",)) and hash(drv) == hash(EffortDriver(measures=("LOC",)))


class TestNormalizedComposite:
    def test_minmax_maps_extremes(self, toy):
        drv = EffortDriver(measures=("LOC", "McCC"), weight=1.0, normalize=True)
        vals = driver_values(drv, toy)
        # LOC 10..100 maps onto 0..1
        assert vals[0] == 0.0
        assert vals[-1] == 1.0

    def test_single_measure_driver_rejected(self):
        with pytest.raises(ValueError, match="normalize applies to composite drivers only"):
            EffortDriver(measures=("LOC",), normalize=True)

    def test_constant_measure_rejected(self):
        d = build_dataset({"A": [5, 5, 5], "B": [1, 2, 3]}, [True, False, True])
        drv = EffortDriver(measures=("A", "B"), weight=0.5, normalize=True)
        with pytest.raises(ValueError, match="constant"):
            driver_values(drv, d)


class TestCumulativeFractions:
    def test_toy_fractions_exact(self, toy, loc_driver):
        fr = cumulative_effort_fractions(loc_driver, IDENTITY, toy)
        assert list(fr) == [0.05, 0.15, 0.30, 0.50, 1.00]

    def test_last_fraction_is_exactly_one(self, toy, mccc_driver):
        fr = cumulative_effort_fractions(mccc_driver, as_ranking([4, 2, 0, 1, 3]), toy)
        assert fr[-1] == 1.0

    def test_monotone_nondecreasing(self, toy, loc_driver):
        fr = cumulative_effort_fractions(loc_driver, as_ranking([2, 0, 4, 1, 3]), toy)
        assert np.all(np.diff(fr) >= 0)

    def test_accepts_ranked_list(self, toy, toy_scores, loc_driver):
        ranking = rank("score", toy_scores, toy, loc_driver)
        fr = cumulative_effort_fractions(loc_driver, ranking, toy)
        assert fr[-1] == 1.0

    def test_zero_total_effort_rejected(self, loc_driver):
        d = build_dataset({"LOC": [0, 0]}, [True, False])
        with pytest.raises(ValueError, match="degenerate"):
            cumulative_effort_fractions(loc_driver, as_ranking([0, 1]), d)

    def test_non_permutation_rejected(self, toy, loc_driver):
        # a ranking of a 2-module dataset read against the 5-module toy
        with pytest.raises(ValueError, match=r"not a permutation of 0\.\.4"):
            cumulative_effort_fractions(loc_driver, as_ranking([0, 1]), toy)


class TestBudgetCutoff:
    def test_toy_loc_budget_half(self, toy, loc_driver):
        assert budget_cutoff(loc_driver, IDENTITY, toy, 0.5) == 4

    def test_toy_mccc_budget_half(self, toy, mccc_driver):
        assert budget_cutoff(mccc_driver, IDENTITY, toy, 0.5) == 2

    def test_budget_extremes(self, toy, loc_driver):
        assert budget_cutoff(loc_driver, IDENTITY, toy, 0.0) == 0
        assert budget_cutoff(loc_driver, IDENTITY, toy, 1.0) == toy.n

    def test_boundary_budget_includes_module(self, toy, loc_driver):
        # cumulative fractions are [.05, .15, .30, .50, 1]; a budget equal
        # to a boundary admits the module that lands exactly on it
        assert budget_cutoff(loc_driver, IDENTITY, toy, 0.30) == 3

    def test_tolerance_absorbs_float_noise(self):
        fr = np.array([0.1, 0.2 + 5e-13, 1.0])
        assert cutoff_from_fractions(fr, 0.2) == 2

    def test_zero_effort_modules_are_free(self):
        d = build_dataset({"LOC": [0, 0, 5]}, [True, False, True])
        drv = EffortDriver(measures=("LOC",))
        assert budget_cutoff(drv, as_ranking([0, 1, 2]), d, 0.0) == 2

    def test_monotone_in_budget(self, toy, loc_driver):
        budgets = np.linspace(0, 1, 41)
        cuts = [budget_cutoff(loc_driver, IDENTITY, toy, float(b)) for b in budgets]
        assert cuts == sorted(cuts)

    @pytest.mark.parametrize("budget", [-0.01, 1.01])
    def test_budget_out_of_range(self, toy, loc_driver, budget):
        with pytest.raises(ValueError, match="budget"):
            budget_cutoff(loc_driver, IDENTITY, toy, budget)


class TestScaleInvariance:
    @settings(max_examples=80, deadline=None)
    @given(
        values=st.lists(
            st.floats(min_value=0.01, max_value=1e6, allow_nan=False),
            min_size=2,
            max_size=12,
        ),
        k=st.floats(min_value=1e-3, max_value=1e3),
        budget=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_scaling_driver_values_changes_nothing(self, values, k, budget):
        n = len(values)
        d = build_dataset(
            {"s": values, "q": [k * v for v in values]},
            [i % 2 == 0 for i in range(n)],
        )
        order = as_ranking(range(n))
        fr_s = cumulative_effort_fractions(EffortDriver(measures=("s",)), order, d)
        fr_q = cumulative_effort_fractions(EffortDriver(measures=("q",)), order, d)
        assert np.allclose(fr_s, fr_q, rtol=0, atol=1e-12)
        assert abs(cutoff_from_fractions(fr_s, budget) - cutoff_from_fractions(fr_q, budget)) <= (
            1 if min(abs(budget - f) for f in fr_s) < 1e-9 else 0
        )


def test_budget_tolerance_constant():
    assert BUDGET_TOL == 1e-12
