import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eameval.dataset import DataQualityWarning
from eameval.effort import EffortDriver
from eameval.model import ScoreVector
from eameval.ranking import (
    TIE_BREAKS,
    RankedList,
    optimal_ranking,
    rank_by_density,
    rank_by_score,
)

from conftest import build_dataset


def ids_in_order(d, ranking):
    return [d.ids[i] for i in ranking.order]


def sorted_reference(keys, tie_values, tie_break):
    """The sorted-key ordering the rankings are defined by: descending key,
    then the driver value (ascending, descending, or not at all), then
    dataset order. The lexsort rankings must reproduce it exactly."""

    def tie(i):
        if tie_values is None or tie_break == "input":
            return ()
        return (tie_values[i],) if tie_break == "asc" else (-tie_values[i],)

    return sorted(range(len(keys)), key=lambda i: (-keys[i], *tie(i), i))


class TestScoreRanking:
    def test_toy_descending(self, toy, toy_scores):
        r = rank_by_score(toy_scores, toy)
        assert ids_in_order(toy, r) == ["A", "B", "C", "D", "E"]
        assert r.policy == "score"

    def test_key_values_track_order(self, toy, toy_scores):
        r = rank_by_score(toy_scores, toy)
        assert list(r.key_values) == sorted(r.key_values, reverse=True)

    def test_nan_score_rejected_with_module_named(self, toy):
        scores = np.array([0.9, 0.8, math.nan, 0.4, 0.3])
        with pytest.raises(ValueError, match="C"):
            rank_by_score(scores, toy)

    def test_score_vector_constructor_also_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            ScoreVector(values=[0.9, math.nan], kind="raw")

    def test_plain_array_accepted(self, toy):
        r = rank_by_score(np.array([0.1, 0.5, 0.2, 0.9, 0.3]), toy)
        assert ids_in_order(toy, r) == ["D", "B", "E", "C", "A"]

    def test_length_mismatch(self, toy):
        with pytest.raises(ValueError):
            rank_by_score(np.array([0.1, 0.2]), toy)


class TestTieBreaking:
    @pytest.fixture
    def tied(self):
        # B and C tie on score; LOC 30 vs 20
        return build_dataset(
            {"LOC": [50, 30, 20, 10]},
            [True, False, True, False],
            ids=list("ABCD"),
        )

    SCORES = np.array([0.9, 0.5, 0.5, 0.1])

    def test_asc_puts_cheaper_module_first(self, tied):
        drv = EffortDriver(measures=("LOC",))
        r = rank_by_score(self.SCORES, tied, driver=drv, tie_break="asc")
        assert ids_in_order(tied, r) == ["A", "C", "B", "D"]

    def test_desc_puts_costlier_module_first(self, tied):
        drv = EffortDriver(measures=("LOC",))
        r = rank_by_score(self.SCORES, tied, driver=drv, tie_break="desc")
        assert ids_in_order(tied, r) == ["A", "B", "C", "D"]

    def test_input_keeps_dataset_order(self, tied):
        drv = EffortDriver(measures=("LOC",))
        r = rank_by_score(self.SCORES, tied, driver=drv, tie_break="input")
        assert ids_in_order(tied, r) == ["A", "B", "C", "D"]

    def test_no_driver_falls_back_to_dataset_order(self, tied):
        r = rank_by_score(self.SCORES, tied, tie_break="asc")
        assert ids_in_order(tied, r) == ["A", "B", "C", "D"]

    def test_all_scores_equal_equal_driver_keeps_dataset_order(self):
        d = build_dataset({"LOC": [7, 7, 7]}, [True, False, True], ids=list("XYZ"))
        drv = EffortDriver(measures=("LOC",))
        r = rank_by_score(np.array([0.5, 0.5, 0.5]), d, driver=drv)
        assert ids_in_order(d, r) == ["X", "Y", "Z"]

    def test_unknown_policy(self, tied):
        with pytest.raises(ValueError, match="tie_break"):
            rank_by_score(self.SCORES, tied, tie_break="random")

    def test_policies_registry(self):
        assert TIE_BREAKS == ("asc", "desc", "input")


class TestMonotoneTransformInvariance:
    @settings(max_examples=120, deadline=None)
    @given(
        raw=st.lists(
            st.integers(min_value=-50, max_value=50), min_size=2, max_size=15
        ),
        scale=st.floats(min_value=0.01, max_value=100),
        shift=st.floats(min_value=-1e3, max_value=1e3),
    )
    def test_affine_transform_preserves_order(self, raw, scale, shift):
        # integer-valued raw scores keep tie structure intact under the map
        n = len(raw)
        d = build_dataset({"m": list(range(1, n + 1))}, [i % 2 == 0 for i in range(n)])
        base = np.array(raw, dtype=float)
        moved = scale * base + shift
        a = rank_by_score(base, d)
        b = rank_by_score(moved, d)
        assert np.array_equal(a.order, b.order)

    def test_exp_transform_preserves_order(self, toy, toy_scores):
        a = rank_by_score(toy_scores, toy)
        b = rank_by_score(np.exp(np.asarray(toy_scores.values)), toy)
        assert np.array_equal(a.order, b.order)


class TestDensityRanking:
    def test_density_reorders_by_score_per_effort(self):
        d = build_dataset({"LOC": [100, 10]}, [True, True], ids=["big", "small"])
        r = rank_by_density(np.array([0.9, 0.8]), "LOC", d)
        assert ids_in_order(d, r) == ["small", "big"]
        assert r.policy == "density"

    def test_constant_norm_matches_score_ranking(self, toy, toy_scores):
        d = toy.with_measure("unit", np.ones(toy.n))
        by_density = rank_by_density(toy_scores, "unit", d)
        by_score = rank_by_score(toy_scores, d)
        assert np.array_equal(by_density.order, by_score.order)

    def test_zero_measure_modules_go_last_with_warning(self):
        d = build_dataset({"LOC": [0, 10, 20]}, [True, False, True], ids=list("ABC"))
        with pytest.warns(DataQualityWarning, match="A"):
            r = rank_by_density(np.array([0.99, 0.5, 0.4]), "LOC", d)
        assert ids_in_order(d, r)[-1] == "A"
        assert r.key_values[-1] == -math.inf

    def test_multiple_zero_measure_modules_keep_dataset_order(self):
        d = build_dataset({"LOC": [0, 10, 0]}, [True, False, True], ids=list("ABC"))
        with pytest.warns(DataQualityWarning):
            r = rank_by_density(np.array([0.9, 0.5, 0.8]), "LOC", d)
        assert ids_in_order(d, r) == ["B", "A", "C"]

    def test_unknown_norm_measure(self, toy, toy_scores):
        with pytest.raises(ValueError, match="unknown measure"):
            rank_by_density(toy_scores, "volume", toy)


class TestOptimalRanking:
    def test_toy_loc(self, toy, loc_driver):
        r = optimal_ranking(toy, loc_driver)
        assert ids_in_order(toy, r) == ["A", "C", "E", "B", "D"]
        assert r.policy == "optimal"

    def test_toy_mccc(self, toy, mccc_driver):
        r = optimal_ranking(toy, mccc_driver)
        assert ids_in_order(toy, r) == ["E", "A", "C", "B", "D"]

    def test_all_defective_sorts_by_effort(self, loc_driver):
        d = build_dataset({"LOC": [30, 10, 20]}, [True, True, True], ids=list("ABC"))
        r = optimal_ranking(d, loc_driver)
        assert ids_in_order(d, r) == ["B", "C", "A"]

    def test_effort_ties_keep_dataset_order(self, loc_driver):
        d = build_dataset({"LOC": [5, 5, 5, 5]}, [False, True, False, True], ids=list("ABCD"))
        r = optimal_ranking(d, loc_driver)
        assert ids_in_order(d, r) == ["B", "D", "A", "C"]

    def test_defective_always_precede_clean(self, loc_driver):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(2, 10))
            d = build_dataset(
                {"LOC": rng.uniform(1, 100, n).tolist()},
                (rng.random(n) < 0.5).tolist(),
            )
            r = optimal_ranking(d, loc_driver)
            flags = d.labels[r.order].tolist()
            first_clean = flags.index(False) if False in flags else len(flags)
            assert all(not f for f in flags[first_clean:])


class TestLexsortMatchesSortedReference:
    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.integers(0, 3),                    # score: heavy ties
                st.sampled_from([0.0, 1.0, 2.0, 5.0]),  # LOC: ties and zeros
                st.booleans(),
            ),
            min_size=1, max_size=25,
        ),
        tie_break=st.sampled_from(TIE_BREAKS),
        with_driver=st.booleans(),
    )
    def test_score_density_and_optimal(self, rows, tie_break, with_driver):
        scores = np.array([s / 4 for s, _, _ in rows])
        loc = [m for _, m, _ in rows]
        labels = [y for _, _, y in rows]
        d = build_dataset({"LOC": loc}, labels)
        drv = EffortDriver(measures=("LOC",))
        tie_values = np.array(loc) if with_driver else None
        driver = drv if with_driver else None

        r = rank_by_score(scores, d, driver=driver, tie_break=tie_break)
        assert r.order.tolist() == sorted_reference(scores, tie_values, tie_break)
        assert r.key_values.tolist() == [float(scores[i]) for i in r.order]

        zero = np.array(loc) == 0
        density = np.where(zero, -np.inf, scores / np.where(zero, 1.0, loc))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DataQualityWarning)
            r = rank_by_density(scores, "LOC", d, driver=driver, tie_break=tie_break)
        assert r.order.tolist() == sorted_reference(density, tie_values, tie_break)
        assert r.key_values.tolist() == [float(density[i]) for i in r.order]

        r = optimal_ranking(d, drv)
        assert r.order.tolist() == sorted(range(d.n), key=lambda i: (not labels[i], loc[i], i))
        assert r.key_values.tolist() == [float(loc[i]) for i in r.order]


class TestRankedList:
    def test_permutation_validated(self):
        with pytest.raises(ValueError):
            RankedList(order=(0, 0, 1), policy="score", key_values=(3.0, 2.0, 1.0))

    def test_out_of_range_and_non_integer_indices_rejected(self):
        with pytest.raises(ValueError):
            RankedList(order=(0, 3, 1), policy="score", key_values=(3.0, 2.0, 1.0))
        with pytest.raises(ValueError, match=r"not a permutation of 0\.\.4"):
            RankedList(order=(0, 0, 1, 2, 3), policy="score", key_values=(5.0, 4.0, 3.0, 2.0, 1.0))
        with pytest.raises(ValueError):
            RankedList(order=(0.0, 1.0), policy="score", key_values=(2.0, 1.0))

    def test_fields_stored_as_read_only_array_copies(self):
        order, keys = [1, 0], np.array([2.0, 1.0])
        r = RankedList(order=order, policy="score", key_values=keys)
        assert r.order.dtype.kind == "i" and r.order.tolist() == [1, 0]
        assert r.key_values.dtype == float and r.key_values.tolist() == [2.0, 1.0]
        assert not np.shares_memory(r.key_values, keys)
        for field in (r.order, r.key_values):
            with pytest.raises(ValueError):
                field[0] = 0

    def test_key_length_validated(self):
        with pytest.raises(ValueError):
            RankedList(order=(0, 1), policy="score", key_values=(1.0,))

    def test_iterable_protocol(self, toy, toy_scores):
        r = rank_by_score(toy_scores, toy)
        assert len(r.order) == toy.n
        assert sorted(r.order) == list(range(toy.n))
