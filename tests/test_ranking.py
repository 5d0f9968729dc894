import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from eameval.dataset import DataQualityWarning
from eameval.effort import EffortDriver, driver_values, parse_driver
from eameval.evaluate import evaluate_suite
from eameval.model import ScoreVector
from eameval.ranking import (
    POLICIES,
    TIE_BREAKS,
    RankedList,
    _sorted,
    _ties,
    optimal_ranking,
    rank,
)

from conftest import build_dataset


def ids_in_order(d, ranking):
    return [d.ids[i] for i in ranking.order]


def sorted_reference(keys, tie_values, tie_break):
    """The sorted-key ordering the rankings are defined by: descending key,
    then the driver value (ascending, descending, or not at all), then
    dataset order. The rankings must reproduce it exactly."""

    def tie(i):
        if tie_values is None or tie_break == "input":
            return ()
        return (tie_values[i],) if tie_break == "asc" else (-tie_values[i],)

    return sorted(range(len(keys)), key=lambda i: (-keys[i], *tie(i), i))


class TestScoreRanking:
    def test_toy_descending(self, toy, toy_scores):
        r = rank("score", toy_scores, toy, None)
        assert ids_in_order(toy, r) == ["A", "B", "C", "D", "E"]
        assert r.policy == "score"

    def test_scores_descend_along_order(self, toy, toy_scores):
        r = rank("score", toy_scores, toy, None)
        ordered = toy_scores.values[r.order].tolist()
        assert ordered == sorted(ordered, reverse=True)

    def test_nan_score_rejected_with_module_named(self, toy):
        scores = np.array([0.9, 0.8, math.nan, 0.4, 0.3])
        with pytest.raises(ValueError, match="C"):
            rank("score", scores, toy, None)

    def test_score_vector_constructor_also_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            ScoreVector(values=[0.9, math.nan], kind="raw")

    def test_plain_array_accepted(self, toy):
        r = rank("score", np.array([0.1, 0.5, 0.2, 0.9, 0.3]), toy, None)
        assert ids_in_order(toy, r) == ["D", "B", "E", "C", "A"]

    def test_length_mismatch(self, toy):
        with pytest.raises(ValueError):
            rank("score", np.array([0.1, 0.2]), toy, None)


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
        r = rank("score", self.SCORES, tied, drv, tie_break="asc")
        assert ids_in_order(tied, r) == ["A", "C", "B", "D"]

    def test_desc_puts_costlier_module_first(self, tied):
        drv = EffortDriver(measures=("LOC",))
        r = rank("score", self.SCORES, tied, drv, tie_break="desc")
        assert ids_in_order(tied, r) == ["A", "B", "C", "D"]

    def test_input_keeps_dataset_order(self, tied):
        drv = EffortDriver(measures=("LOC",))
        r = rank("score", self.SCORES, tied, drv, tie_break="input")
        assert ids_in_order(tied, r) == ["A", "B", "C", "D"]

    def test_no_driver_falls_back_to_dataset_order(self, tied):
        r = rank("score", self.SCORES, tied, None, tie_break="asc")
        assert ids_in_order(tied, r) == ["A", "B", "C", "D"]

    def test_all_scores_equal_equal_driver_keeps_dataset_order(self):
        d = build_dataset({"LOC": [7, 7, 7]}, [True, False, True], ids=list("XYZ"))
        drv = EffortDriver(measures=("LOC",))
        r = rank("score", np.array([0.5, 0.5, 0.5]), d, drv)
        assert ids_in_order(d, r) == ["X", "Y", "Z"]

    def test_unknown_policy(self, tied):
        with pytest.raises(ValueError, match="tie_break"):
            rank("score", self.SCORES, tied, None, tie_break="random")

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
        a = rank("score", base, d, None)
        b = rank("score", moved, d, None)
        assert np.array_equal(a.order, b.order)

    def test_exp_transform_preserves_order(self, toy, toy_scores):
        a = rank("score", toy_scores, toy, None)
        b = rank("score", np.exp(np.asarray(toy_scores.values)), toy, None)
        assert np.array_equal(a.order, b.order)


class TestDensityRanking:
    def test_density_reorders_by_score_per_effort(self):
        d = build_dataset({"LOC": [100, 10]}, [True, True], ids=["big", "small"])
        r = rank("density", np.array([0.9, 0.8]), d, None, norm="LOC")
        assert ids_in_order(d, r) == ["small", "big"]
        assert r.policy == "density"

    def test_constant_norm_matches_score_ranking(self, toy, toy_scores):
        d = toy.with_measure("unit", np.ones(toy.n))
        by_density = rank("density", toy_scores, d, None, norm="unit")
        by_score = rank("score", toy_scores, d, None)
        assert np.array_equal(by_density.order, by_score.order)

    def test_zero_measure_modules_go_last_with_warning(self):
        d = build_dataset({"LOC": [0, 10, 20]}, [True, False, True], ids=list("ABC"))
        with pytest.warns(DataQualityWarning, match="A"):
            r = rank("density", np.array([0.99, 0.5, 0.4]), d, None, norm="LOC")
        assert ids_in_order(d, r)[-1] == "A"
        # A has the highest score; only its -inf density puts it last
        assert np.array([0.99, 0.5, 0.4])[r.order].tolist() == [0.5, 0.4, 0.99]

    def test_multiple_zero_measure_modules_keep_dataset_order(self):
        d = build_dataset({"LOC": [0, 10, 0]}, [True, False, True], ids=list("ABC"))
        with pytest.warns(DataQualityWarning):
            r = rank("density", np.array([0.9, 0.5, 0.8]), d, None, norm="LOC")
        assert ids_in_order(d, r) == ["B", "A", "C"]

    def test_zero_measure_warning_points_at_the_caller(self):
        d = build_dataset({"LOC": [0, 10, 20]}, [True, False, True], ids=list("ABC"))
        scores, drv = np.array([0.99, 0.5, 0.4]), EffortDriver(measures=("LOC",))
        with pytest.warns(DataQualityWarning) as by_rank:
            rank("density", scores, d, drv)
        with pytest.warns(DataQualityWarning) as by_suite:
            evaluate_suite(d, scores, [drv], [], policies=("density",))
        assert [w.filename for w in (*by_rank, *by_suite)] == [__file__, __file__]

    def test_unknown_norm_measure(self, toy, toy_scores):
        with pytest.raises(ValueError, match="unknown measure"):
            rank("density", toy_scores, toy, None, norm="volume")


class TestOptimalRanking:
    def test_toy_loc(self, toy, loc_driver):
        r = optimal_ranking(toy, loc_driver)
        assert ids_in_order(toy, r) == ["A", "C", "E", "B", "D"]
        assert r.policy == "optimal"

    def test_toy_mccc(self, toy, mccc_driver):
        r = optimal_ranking(toy, mccc_driver)
        assert ids_in_order(toy, r) == ["E", "A", "C", "B", "D"]

    def test_no_driver_keeps_dataset_order_within_each_class(self, toy):
        # the rule rank applies with no driver: ties fall to dataset order
        assert optimal_ranking(toy, None).order.tolist() == [0, 2, 4, 1, 3]

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


# Signed scores with heavy ties, -0.0 beside 0.0 (equal, so tied) and both
# infinities; a -inf score ties with the density key of a zero-LOC module.
SIGNED_SCORES = st.sampled_from([-math.inf, -1.0, -0.25, -0.0, 0.0, 0.25, 0.5, math.inf])


def densities(scores, loc):
    """The density key by its definition: -inf where the measure is zero."""
    loc = np.asarray(loc, dtype=float)
    zero = loc == 0
    return np.where(zero, -np.inf, np.asarray(scores) / np.where(zero, 1.0, loc))


class TestRankingsMatchSortedReference:
    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                SIGNED_SCORES,
                st.sampled_from([0.0, 1.0, 2.0, 5.0]),  # LOC: ties and zeros
                st.booleans(),
            ),
            min_size=1, max_size=25,
        ),
        tie_break=st.sampled_from(TIE_BREAKS),
        with_driver=st.booleans(),
    )
    def test_score_density_and_optimal(self, rows, tie_break, with_driver):
        scores = np.array([s for s, _, _ in rows])
        loc = [m for _, m, _ in rows]
        labels = [y for _, _, y in rows]
        d = build_dataset({"LOC": loc}, labels)
        drv = EffortDriver(measures=("LOC",))
        tie_values = np.array(loc) if with_driver else None
        driver = drv if with_driver else None

        r = rank("score", scores, d, driver, tie_break=tie_break)
        assert r.order.tolist() == sorted_reference(scores, tie_values, tie_break)

        density = densities(scores, loc)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DataQualityWarning)
            r = rank("density", scores, d, driver, norm="LOC", tie_break=tie_break)
        assert r.order.tolist() == sorted_reference(density, tie_values, tie_break)

        expected = sorted(range(d.n), key=lambda i: (not labels[i], loc[i] if with_driver else 0, i))
        assert optimal_ranking(d, driver).order.tolist() == expected
        with pytest.raises(ValueError, match=re.escape("policy must be one of ('score', 'density'), got 'optimal'")):
            rank("optimal", scores, d, driver, tie_break=tie_break)

    @settings(max_examples=100, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                SIGNED_SCORES,
                st.sampled_from([0.0, 1.0, 2.0, 5.0]),  # LOC
                st.sampled_from([1.0, 3.0, 4.0]),       # McCC
                st.booleans(),
            ),
            min_size=2, max_size=25,
        ),
        tie_break=st.sampled_from(TIE_BREAKS),
    )
    def test_every_cell_of_a_three_driver_grid(self, rows, tie_break):
        # evaluate_suite shares each policy's key and each driver's tie
        # positions among the cells; every cell must still be its own sort
        scores, loc, mccc, labels = (list(column) for column in zip(*rows))
        assume(any(labels) and len(set(loc)) > 1 and len(set(mccc)) > 1)
        d = build_dataset({"LOC": loc, "McCC": mccc}, labels)
        drivers = [parse_driver(t) for t in ("LOC", "McCC", "composite:LOC,McCC,0.5,minmax")]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DataQualityWarning)
            report = evaluate_suite(d, np.array(scores), drivers, [0.5], policies=POLICIES,
                                    tie_break=tie_break)
        keys = {"score": np.array(scores), "density": densities(scores, loc)}
        grid = [(policy, drv) for policy in POLICIES for drv in drivers]
        assert [(c.policy, c.driver) for c in report.cells] == [(p, drv.name) for p, drv in grid]
        for cell, (policy, drv) in zip(report.cells, grid):
            values = driver_values(drv, d)
            if policy == "optimal":
                expected = sorted(range(d.n), key=lambda i: (not labels[i], values[i], i))
            else:
                expected = sorted_reference(keys[policy], values, tie_break)
            assert cell.ranking.order.tolist() == expected


class TestSortedIsExact:
    """_sorted packs (primary, place in the tie order) into one int64 per
    module and value-sorts them; it must give the stable sorted order."""

    SIZES = st.integers(1, 70) | st.sampled_from([2**k + j for k in range(7) for j in (0, 1)])

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), n=SIZES, tie_break=st.sampled_from(TIE_BREAKS))
    def test_matches_the_sorted_reference(self, data, n, tie_break):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        primary = data.draw(st.sampled_from([
            np.zeros(n, dtype=np.intp),              # all equal
            rng.permutation(n).astype(np.intp),      # all distinct
            rng.integers(0, n, n).astype(np.intp),   # up to n - 1
        ]), label="primary")
        effort = rng.integers(0, 3, n).astype(float)
        d = build_dataset({"T": effort}, [True] * n)
        tie_order = _ties(d, EffortDriver(measures=("T",)), tie_break)
        direction = {"asc": 1, "desc": -1, "input": 0}[tie_break]
        assert tie_order.tolist() == sorted(range(n), key=lambda i: (direction * effort[i], i))
        place = np.empty(n, dtype=np.intp)
        place[tie_order] = np.arange(n)

        before = primary.copy()
        order = _sorted(primary, tie_order)
        assert order.tolist() == sorted(range(n), key=lambda i: (primary[i], place[i]))
        assert np.array_equal(order, np.argsort(primary * n + place))  # one argsort of distinct keys
        assert np.array_equal(primary, before)  # evaluate_suite shares one key among drivers

    def test_bit_width_at_two_to_the_seventeen_plus_one(self):
        n = 2**17 + 1  # n - 1 needs 18 bits: one fewer would mix the place into the primary
        rng = np.random.default_rng(17)
        primary = rng.integers(0, n, n).astype(np.intp)
        primary[:2] = n - 1
        tie_order = rng.permutation(n).astype(np.intp)
        place = np.empty(n, dtype=np.intp)
        place[tie_order] = np.arange(n)
        assert np.array_equal(_sorted(primary, tie_order), np.lexsort((place, primary)))


class TestRankedList:
    def test_permutation_validated(self):
        with pytest.raises(ValueError):
            RankedList(order=(0, 0, 1), policy="score")

    def test_out_of_range_and_non_integer_indices_rejected(self):
        with pytest.raises(ValueError):
            RankedList(order=(0, 3, 1), policy="score")
        with pytest.raises(ValueError, match=r"not a permutation of 0\.\.4"):
            RankedList(order=(0, 0, 1, 2, 3), policy="score")
        with pytest.raises(ValueError):
            RankedList(order=(0.0, 1.0), policy="score")

    @pytest.mark.parametrize("order", [(1, -1, 0), (0, 1, -3), (2, 3, 1), (0, 0, 0), ((0, 1, 2),)])
    def test_bad_orders_rejected_without_wrapping(self, order):
        # -1 would index the last module, and a 2-D order holds each index once
        n = len(order)
        with pytest.raises(ValueError, match=rf"^order is not a permutation of 0\.\.{n - 1}$"):
            RankedList(order=np.array(order), policy="score")

    def test_empty_order_rejected(self):
        with pytest.raises(ValueError, match=r"^order is not a permutation of 0\.\.-1$"):
            RankedList(order=np.array([], dtype=np.intp), policy="score")

    def test_unsigned_order_accepted(self):
        r = RankedList(order=np.array([2, 0, 1], dtype=np.uint64), policy="score")
        assert r.order.dtype == np.intp and r.order.tolist() == [2, 0, 1]

    def test_fields_stored_as_read_only_array_copies(self):
        order = np.array([1, 0])
        r = RankedList(order=order, policy="score")
        assert r.order.dtype.kind == "i" and r.order.tolist() == [1, 0]
        assert not np.shares_memory(r.order, order)
        with pytest.raises(ValueError):
            r.order[0] = 0

    def test_iterable_protocol(self, toy, toy_scores):
        r = rank("score", toy_scores, toy, None)
        assert len(r.order) == toy.n
        assert sorted(r.order) == list(range(toy.n))
