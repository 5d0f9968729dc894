import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eameval.metrics import (
    ClassificationMetrics,
    ConfusionMatrix,
    classification_metrics,
    confusion_at_cutoff,
    roc_auc,
)
from eameval.ranking import rank

from conftest import build_dataset


def auc_by_pair_enumeration(scores, labels):
    """O(n^2) oracle: concordant pairs count 1, ties 0.5."""
    pos = [s for s, y in zip(scores, labels) if y]
    neg = [s for s, y in zip(scores, labels) if not y]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


class TestConfusion:
    def test_toy_cutoff_four(self, toy, toy_scores):
        r = rank("score", toy_scores, toy, None)
        c = confusion_at_cutoff(r, toy, 4)
        assert (c.tp, c.fp, c.tn, c.fn) == (2, 2, 0, 1)

    def test_cutoff_zero(self, toy, toy_scores):
        r = rank("score", toy_scores, toy, None)
        c = confusion_at_cutoff(r, toy, 0)
        assert (c.tp, c.fp, c.tn, c.fn) == (0, 0, 2, 3)

    def test_cutoff_n(self, toy, toy_scores):
        r = rank("score", toy_scores, toy, None)
        c = confusion_at_cutoff(r, toy, toy.n)
        assert (c.tp, c.fp, c.tn, c.fn) == (3, 2, 0, 0)

    def test_negative_cell_rejected(self):
        with pytest.raises(ValueError, match="confusion cells must be non-negative"):
            ConfusionMatrix(tp=1, fp=-1, tn=2, fn=0)

    @pytest.mark.parametrize("cutoff", [-1, 6])
    def test_cutoff_out_of_range(self, toy, toy_scores, cutoff):
        r = rank("score", toy_scores, toy, None)
        with pytest.raises(ValueError, match="cutoff"):
            confusion_at_cutoff(r, toy, cutoff)

    @pytest.mark.parametrize("cutoff", [4, 5])
    def test_ranking_of_another_dataset_rejected(self, toy, cutoff):
        small = build_dataset({"LOC": [1, 2, 3]}, [True, False, True])
        r = rank("score", [0.9, 0.5, 0.1], small, None)
        with pytest.raises(ValueError, match=r"order is not a permutation of 0\.\.4"):
            confusion_at_cutoff(r, toy, cutoff)

    def test_margin_properties(self):
        c = ConfusionMatrix(tp=3, fp=2, tn=5, fn=1)
        assert c.estimated_positive == 5
        assert c.estimated_negative == 6
        assert c.actual_positive == 4
        assert c.actual_negative == 7
        assert c.n == 11

    @settings(max_examples=100, deadline=None)
    @given(
        labels=st.lists(st.booleans(), min_size=1, max_size=20),
        data=st.data(),
    )
    def test_cells_partition_the_dataset(self, labels, data):
        n = len(labels)
        d = build_dataset({"m": list(range(1, n + 1))}, labels)
        scores = np.array(data.draw(st.lists(
            st.integers(0, 5), min_size=n, max_size=n)), dtype=float)
        cutoff = data.draw(st.integers(0, n))
        c = confusion_at_cutoff(rank("score", scores, d, None), d, cutoff)
        assert c.tp + c.fp == cutoff
        assert c.tp + c.fn == d.num_defective
        assert c.tn + c.fp == d.num_clean
        assert c.n == n

    def test_monotone_in_cutoff(self, toy, toy_scores):
        r = rank("score", toy_scores, toy, None)
        cells = [confusion_at_cutoff(r, toy, k) for k in range(toy.n + 1)]
        for prev, cur in zip(cells, cells[1:]):
            assert cur.tp >= prev.tp and cur.fp >= prev.fp
            assert cur.fn <= prev.fn and cur.tn <= prev.tn


class TestDerivedMetrics:
    def test_toy_cutoff_four_values(self, toy, toy_scores):
        r = rank("score", toy_scores, toy, None)
        m = classification_metrics(confusion_at_cutoff(r, toy, 4))
        assert m.tpr == pytest.approx(2 / 3)
        assert m.ppv == pytest.approx(1 / 2)
        assert m.f1 == pytest.approx(4 / 7)
        assert m.tnr == 0.0
        assert m.fpr == 1.0

    def test_perfect_classifier(self):
        m = classification_metrics(ConfusionMatrix(tp=4, fp=0, tn=6, fn=0))
        assert (m.tpr, m.tnr, m.ppv, m.accuracy, m.balanced_accuracy) == (1, 1, 1, 1, 1)
        assert m.gmean == 1.0 and m.f1 == 1.0 and m.mcc == 1.0

    def test_undefined_ratios_are_none(self):
        m = classification_metrics(ConfusionMatrix(tp=0, fp=0, tn=2, fn=3))
        assert m.ppv is None
        assert m.f1 is None
        assert m.mcc is None
        assert m.tpr == 0.0  # defined: AP = 3

    def test_no_actual_positives(self):
        m = classification_metrics(ConfusionMatrix(tp=0, fp=2, tn=3, fn=0))
        assert m.tpr is None
        assert m.balanced_accuracy is None
        assert m.gmean is None

    def test_as_dict_keys(self):
        m = classification_metrics(ConfusionMatrix(tp=1, fp=1, tn=1, fn=1))
        assert list(m.as_dict()) == [
            "TPR", "TNR", "FPR", "PPV", "Acc", "BA", "Gmean", "F1", "MCC",
        ]

    @settings(max_examples=150, deadline=None)
    @given(
        tp=st.integers(0, 30), fp=st.integers(0, 30),
        tn=st.integers(0, 30), fn=st.integers(0, 30),
    )
    def test_textbook_identities(self, tp, fp, tn, fn):
        if tp + fp + tn + fn == 0:
            return
        m = classification_metrics(ConfusionMatrix(tp=tp, fp=fp, tn=tn, fn=fn))
        assert m.accuracy == pytest.approx((tp + tn) / (tp + fp + tn + fn))
        if m.tpr is not None and m.tnr is not None:
            assert m.balanced_accuracy == pytest.approx((m.tpr + m.tnr) / 2)
            assert m.gmean == pytest.approx(math.sqrt(m.tpr * m.tnr))
        if m.fpr is not None and m.tnr is not None:
            assert m.fpr == pytest.approx(1 - m.tnr)
        if m.f1 is not None:
            assert m.f1 == pytest.approx(2 * tp / (2 * tp + fp + fn))
        if m.mcc is not None:
            assert -1 - 1e-12 <= m.mcc <= 1 + 1e-12

    @settings(max_examples=100, deadline=None)
    @given(
        tp=st.integers(0, 20), fp=st.integers(0, 20),
        tn=st.integers(0, 20), fn=st.integers(0, 20),
    )
    def test_mcc_sign_flips_when_predictions_invert(self, tp, fp, tn, fn):
        m1 = classification_metrics(ConfusionMatrix(tp=tp, fp=fp, tn=tn, fn=fn))
        m2 = classification_metrics(ConfusionMatrix(tp=fn, fp=tn, tn=fp, fn=tp))
        if m1.mcc is not None and m2.mcc is not None:
            assert m1.mcc == pytest.approx(-m2.mcc)


class TestRocAuc:
    def test_toy_auc(self, toy, toy_scores):
        assert roc_auc(toy_scores, toy) == pytest.approx(0.5)

    def test_perfect_separation(self):
        d = build_dataset({"m": [1, 2, 3, 4]}, [False, False, True, True])
        assert roc_auc(np.array([0.1, 0.2, 0.8, 0.9]), d) == 1.0

    def test_inverted_scores(self):
        d = build_dataset({"m": [1, 2, 3, 4]}, [False, False, True, True])
        assert roc_auc(np.array([0.9, 0.8, 0.2, 0.1]), d) == 0.0

    def test_all_tied_scores(self):
        d = build_dataset({"m": [1, 2, 3]}, [True, False, True])
        assert roc_auc(np.full(3, 0.7), d) == 0.5

    def test_single_class_rejected(self):
        d = build_dataset({"m": [1, 2]}, [True, True])
        with pytest.raises(ValueError, match="defective and clean"):
            roc_auc(np.array([0.5, 0.6]), d)

    def test_nan_score_rejected_with_module_named(self, toy):
        with pytest.raises(ValueError, match="NaN score for module 'B'"):
            roc_auc(np.array([0.9, math.nan, 0.6, 0.4, 0.3]), toy)

    @settings(max_examples=150, deadline=None)
    @given(
        labels=st.lists(st.booleans(), min_size=2, max_size=20),
        data=st.data(),
    )
    def test_matches_pair_enumeration_oracle(self, labels, data):
        if not (any(labels) and not all(labels)):
            return
        n = len(labels)
        scores = data.draw(st.lists(
            st.integers(0, 8), min_size=n, max_size=n))
        d = build_dataset({"m": list(range(1, n + 1))}, labels)
        got = roc_auc(np.array(scores, dtype=float), d)
        assert got == pytest.approx(auc_by_pair_enumeration(scores, labels), abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(st.sampled_from([-1.5, 0.0, 0.25, 0.25, 3.0]), st.booleans()),
            min_size=2, max_size=40,
        )
    )
    def test_heavy_ties_match_mann_whitney_count(self, pairs):
        # few distinct scores, so most pairs tie; the brute-force count is
        # exact in integers (doubled), and so are the half-integer rank sums
        scores = [s for s, _ in pairs]
        labels = [y for _, y in pairs]
        ap = sum(labels)
        an = len(labels) - ap
        if ap == 0 or an == 0:
            return
        doubled = sum(
            2 if p > q else 1 if p == q else 0
            for p, y in pairs if y
            for q, z in pairs if not z
        )
        d = build_dataset({"m": [1.0] * len(pairs)}, labels)
        assert roc_auc(np.array(scores), d) == doubled / 2 / (ap * an)

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(3)
        labels = [True, False, True, False, False, True, False]
        d = build_dataset({"m": range(1, 8)}, labels)
        s = rng.random(7)
        assert roc_auc(s, d) == pytest.approx(roc_auc(np.exp(4 * s), d))
