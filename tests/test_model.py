import math

import numpy as np
import pytest

from eameval.model import (
    BlrModel,
    ScoreVector,
    SeparationWarning,
    _sigmoid,
    derive_predictor,
    fit_blr,
    import_scores,
    log_likelihood_and_gradient,
    predict_proba,
)

from conftest import build_dataset

# Reference fit for m ~ [1..6], labels N,N,Y,N,Y,Y: computed with an
# independent damped-Newton implementation and checked against a coarse
# grid scan of the likelihood surface before being frozen here.
REF_INTERCEPT = -4.249096550479971
REF_SLOPE = 1.21402758585142
REF_LOGLIK = -2.477986835049612


@pytest.fixture
def sixrow():
    return build_dataset(
        {"m": [1, 2, 3, 4, 5, 6]},
        [False, False, True, False, True, True],
    )


class TestFit:
    def test_matches_reference_fit(self, sixrow):
        model = fit_blr(sixrow, ["m"])
        assert model.converged
        assert model.coefficients[0] == pytest.approx(REF_INTERCEPT, rel=1e-4)
        assert model.coefficients[1] == pytest.approx(REF_SLOPE, rel=1e-4)
        assert model.log_likelihood == pytest.approx(REF_LOGLIK, rel=1e-9)

    def test_gradient_vanishes_at_reported_optimum(self, sixrow):
        model = fit_blr(sixrow, ["m"])
        _, grad = log_likelihood_and_gradient(model.coefficients, sixrow, ["m"])
        assert np.max(np.abs(grad)) < 1e-6

    def test_intercept_only_recovers_prevalence(self):
        d = build_dataset({"m": [3, 3, 3, 9]}, [True, False, False, False])
        model = fit_blr(d, [])
        p = 1 / (1 + math.exp(-model.coefficients[0]))
        assert p == pytest.approx(0.25, abs=1e-9)

    def test_refit_is_bit_identical(self, sixrow):
        a = fit_blr(sixrow, ["m"])
        b = fit_blr(sixrow, ["m"])
        assert np.array_equal(a.coefficients, b.coefficients)
        assert a.iterations == b.iterations

    def test_two_predictors_run(self):
        rng = np.random.default_rng(5)
        n = 80
        a = rng.uniform(1, 50, n)
        b = rng.uniform(1, 10, n)
        labels = rng.random(n) < 1 / (1 + np.exp(-(0.05 * a - 2)))
        labels[:3] = [True, False, True]  # guarantee both classes
        d = build_dataset({"a": a, "b": b}, labels.tolist())
        model = fit_blr(d, ["a", "b"])
        assert model.converged
        assert len(model.coefficients) == 3
        assert model.predictors == ("a", "b")

    def test_single_class_rejected(self):
        d = build_dataset({"m": [1, 2, 3]}, [True, True, True])
        with pytest.raises(ValueError, match="same label"):
            fit_blr(d, ["m"])

    def test_too_few_rows_rejected(self):
        d = build_dataset({"m": [1, 2]}, [True, False])
        with pytest.raises(ValueError, match="modules"):
            fit_blr(d, ["m"])

    def test_constant_predictor_rejected(self):
        d = build_dataset({"m": [4, 4, 4, 4], "k": [1, 2, 3, 4]}, [True, False, True, False])
        with pytest.raises(ValueError, match="constant"):
            fit_blr(d, ["m", "k"])

    def test_duplicate_predictor_collinear(self):
        d = build_dataset(
            {"a": [1, 2, 3, 4, 5], "b": [2, 4, 6, 8, 10]},
            [False, True, False, True, True],
        )
        with pytest.raises(ValueError) as exc:
            fit_blr(d, ["a", "b"])
        assert "a" in str(exc.value) and "b" in str(exc.value)

    def test_rank_deficient_design_without_a_collinear_pair(self):
        # C = A + B: no two columns are near-duplicates, yet the design is
        # rank-deficient, so the message names every predictor.
        a = [1, 4, 2, 8, 5, 7]
        b = [3, 1, 4, 1, 5, 9]
        d = build_dataset(
            {"A": a, "B": b, "C": [x + y for x, y in zip(a, b)]},
            [False, True, False, True, True, False],
        )
        with pytest.raises(ValueError, match=r"^collinear predictors among: A, B, C$"):
            fit_blr(d, ["A", "B", "C"])

    def test_unknown_predictor(self, toy):
        with pytest.raises(ValueError, match="unknown measure"):
            fit_blr(toy, ["halstead"])


def two_branch_sigmoid(eta):
    """The masked formula _sigmoid replaced, kept as its reference."""
    out = np.empty_like(eta)
    pos = eta >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-eta[pos]))
    exp_eta = np.exp(eta[~pos])
    out[~pos] = exp_eta / (1.0 + exp_eta)
    return out


class TestSigmoid:
    def test_bits_match_the_two_branch_formula(self):
        rng = np.random.default_rng(28)
        draws = [rng.standard_normal(20_000) * scale for scale in (1e-300, 1e-8, 1.0, 30.0, 700.0, 1e300)]
        edges = [0.0, np.inf, 709.8, 745.2, 1e-320]
        eta = np.concatenate(draws + [np.array(edges), -np.array(edges)])
        got = _sigmoid(eta)
        assert np.array_equal(got.view(np.int64), two_branch_sigmoid(eta).view(np.int64))

    def test_nan_maps_to_nan(self):
        assert np.isnan(_sigmoid(np.array([np.nan, -np.nan]))).all()


class TestSeparation:
    def test_separable_data_warns_and_flags(self):
        d = build_dataset({"m": [1, 2, 3, 4]}, [False, False, True, True])
        with pytest.warns(SeparationWarning):
            model = fit_blr(d, ["m"])
        assert model.separation
        assert not model.converged

    def test_separable_fit_still_ranks_correctly(self):
        d = build_dataset({"m": [1, 2, 3, 4]}, [False, False, True, True])
        with pytest.warns(SeparationWarning):
            model = fit_blr(d, ["m"])
        scores = predict_proba(model, d)
        assert np.all(np.diff(scores.values) > 0)


class TestPredict:
    def test_zero_coefficients_give_half(self, toy):
        model = BlrModel(
            predictors=("LOC",),
            coefficients=np.zeros(2),
            converged=True,
            iterations=0,
            log_likelihood=0.0,
            separation=False,
        )
        assert np.all(predict_proba(model, toy).values == 0.5)

    def test_huge_intercept_saturates_within_clamp(self, toy):
        model = BlrModel(
            predictors=(),
            coefficients=np.array([30.0]),
            converged=True,
            iterations=0,
            log_likelihood=0.0,
            separation=False,
        )
        p = predict_proba(model, toy).values
        assert np.all(p > 1 - 1e-9)
        assert np.all(p < 1.0)

    def test_extreme_intercept_never_reaches_bounds(self, toy):
        for mu in (-500.0, 500.0):
            model = BlrModel(
                predictors=(),
                coefficients=np.array([mu]),
                converged=True,
                iterations=0,
                log_likelihood=0.0,
                separation=False,
            )
            p = predict_proba(model, toy).values
            assert np.all((p > 0) & (p < 1))

    def test_monotone_in_positive_coefficient(self, toy):
        model = BlrModel(
            predictors=("LOC",),
            coefficients=np.array([-1.0, 0.02]),
            converged=True,
            iterations=0,
            log_likelihood=0.0,
            separation=False,
        )
        p = predict_proba(model, toy).values
        loc = toy.measure_vector("LOC")
        assert np.all(np.diff(p[np.argsort(loc)]) >= 0)

    def test_missing_predictor_measure(self, toy):
        model = BlrModel(
            predictors=("volume",),
            coefficients=np.array([0.0, 1.0]),
            converged=True,
            iterations=0,
            log_likelihood=0.0,
            separation=False,
        )
        with pytest.raises(ValueError, match="unknown measure"):
            predict_proba(model, toy)

    def test_probability_kind(self, toy):
        model = fit_blr(toy, ["LOC"])
        assert predict_proba(model, toy).kind == "probability"


class TestLikelihoodAndGradient:
    def test_zero_coefficients_balanced(self):
        d = build_dataset({"m": [1, 2, 3, 4]}, [True, False, True, False])
        ll, grad = log_likelihood_and_gradient(np.zeros(2), d, ["m"])
        assert ll == pytest.approx(4 * math.log(0.5))

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(11)
        d = build_dataset(
            {"a": rng.uniform(0.1, 30, 25), "b": rng.uniform(0.1, 30, 25)},
            (rng.random(25) < 0.4).tolist(),
        )
        beta = np.array([0.3, -0.05, 0.08])
        _, grad = log_likelihood_and_gradient(beta, d, ["a", "b"])
        h = 1e-6
        for j in range(3):
            e = np.zeros(3)
            e[j] = h
            up, _ = log_likelihood_and_gradient(beta + e, d, ["a", "b"])
            dn, _ = log_likelihood_and_gradient(beta - e, d, ["a", "b"])
            fd = (up - dn) / (2 * h)
            assert abs(grad[j] - fd) <= 1e-6 * max(1.0, abs(grad[j]))

    def test_duplicated_row_adds_its_own_term(self, sixrow):
        beta = np.array([-0.5, 0.25])
        ll1, _ = log_likelihood_and_gradient(beta, sixrow, ["m"])
        bigger = build_dataset(
            {"m": [1, 2, 3, 4, 5, 6, 6]},
            [False, False, True, False, True, True, True],
        )
        ll2, _ = log_likelihood_and_gradient(beta, bigger, ["m"])
        eta = beta[0] + beta[1] * 6.0
        expected = eta - math.log1p(math.exp(eta))
        assert ll2 - ll1 == pytest.approx(expected, abs=1e-12)

    def test_dimension_mismatch(self, sixrow):
        with pytest.raises(ValueError, match="coefficients"):
            log_likelihood_and_gradient(np.zeros(3), sixrow, ["m"])


class TestDerivePredictor:
    def test_ratio_values(self):
        d = build_dataset({"McCC": [5, 1], "LOC": [10, 20]}, [True, False])
        d2 = derive_predictor(d, "McCC/LOC")
        assert list(d2.measure_vector("McCC/LOC")) == [0.5, 0.05]

    def test_self_ratio_is_ones(self, toy):
        d2 = derive_predictor(toy, "LOC/LOC")
        assert np.all(d2.measure_vector("LOC/LOC") == 1.0)

    def test_existing_column_returned_unchanged(self, toy):
        d2 = derive_predictor(toy, "McCC/LOC")
        d3 = derive_predictor(d2, "McCC/LOC")
        assert d3 is d2

    def test_zero_denominator_names_module(self):
        d = build_dataset({"McCC": [5, 1], "LOC": [10, 0]}, [True, False], ids=["p", "q"])
        message = r"^cannot derive 'McCC/LOC': LOC is zero for module 'q'$"
        with pytest.raises(ValueError, match=message):
            derive_predictor(d, "McCC/LOC")

    @pytest.mark.parametrize("spec", ["McCC", "a/b/c", "/LOC", "McCC/"])
    def test_malformed_ratio_spec(self, toy, spec):
        with pytest.raises(ValueError):
            derive_predictor(toy, spec)

    def test_unknown_numerator(self, toy):
        with pytest.raises(ValueError, match="unknown measure"):
            derive_predictor(toy, "volume/LOC")


class TestImportScores:
    def test_id_matched_with_header(self, tmp_path, toy):
        path = tmp_path / "s.csv"
        path.write_text("id,score\nE,0.9\nD,0.7\nC,0.5\nB,0.3\nA,0.1\n")
        sv = import_scores(path, toy, kind="probability", match="id")
        assert list(sv.values) == [0.1, 0.3, 0.5, 0.7, 0.9]

    def test_stray_quote_names_its_row(self, tmp_path, toy):
        path = tmp_path / "s.csv"
        path.write_text('id,score\nE,0.9\n"D,0.7\n' + "x,0.5\n" * 30_000)
        with pytest.raises(ValueError, match=r"^s\.csv: row 3: field larger than field limit \(131072\)$"):
            import_scores(path, toy, match="id")

    def test_order_matched_single_column(self, tmp_path, toy):
        path = tmp_path / "s.csv"
        path.write_text("0.9\n0.8\n0.6\n0.4\n0.3\n")
        sv = import_scores(path, toy, kind="probability", match="order")
        assert list(sv.values) == [0.9, 0.8, 0.6, 0.4, 0.3]

    def test_order_matched_header_detected(self, tmp_path, toy):
        path = tmp_path / "s.csv"
        path.write_text("score\n0.9\n0.8\n0.6\n0.4\n0.3\n")
        sv = import_scores(path, toy, kind="probability", match="order")
        assert sv.values[0] == 0.9

    def test_order_wrong_row_count(self, tmp_path, toy):
        path = tmp_path / "s.csv"
        path.write_text("0.9\n0.8\n")
        with pytest.raises(ValueError, match="5"):
            import_scores(path, toy, match="order")

    def test_unknown_id_listed(self, tmp_path, toy):
        path = tmp_path / "s.csv"
        path.write_text("A,0.1\nB,0.2\nC,0.3\nD,0.4\nZZ,0.5\n")
        with pytest.raises(ValueError, match="ZZ"):
            import_scores(path, toy, match="id")

    def test_missing_id_listed(self, tmp_path, toy):
        path = tmp_path / "s.csv"
        path.write_text("A,0.1\nB,0.2\nC,0.3\nD,0.4\n")
        with pytest.raises(ValueError, match="E"):
            import_scores(path, toy, match="id")

    def test_missing_and_unknown_ids_both_listed(self, tmp_path, toy):
        path = tmp_path / "s.csv"
        path.write_text("A,0.1\nB,0.2\nC,0.3\nYY,0.4\nZZ,0.5\n")
        with pytest.raises(ValueError) as exc:
            import_scores(path, toy, match="id")
        assert "missing ids: D, E; unknown ids: YY, ZZ" in str(exc.value)

    def test_duplicate_id_rejected(self, tmp_path, toy):
        path = tmp_path / "s.csv"
        path.write_text("A,0.1\nA,0.2\nB,0.3\nC,0.4\nD,0.5\nE,0.6\n")
        with pytest.raises(ValueError, match="duplicate"):
            import_scores(path, toy, match="id")

    def test_duplicate_id_names_both_rows(self, tmp_path, toy):
        path = tmp_path / "s.csv"
        path.write_text("id,score\nA,0.1\n\nB,0.2\nA,0.3\nC,0.4\nD,0.5\nE,0.6\n")
        with pytest.raises(ValueError, match="duplicate module id 'A' in rows 2 and 5"):
            import_scores(path, toy, match="id")

    def test_non_numeric_score_names_row_and_module(self, tmp_path, toy):
        path = tmp_path / "s.csv"
        path.write_text("A,0.9\n\nB,x\nC,0.2\nD,0.4\nE,0.3\n")
        with pytest.raises(ValueError, match=r"row 3 \(module 'B'\): non-numeric score 'x'"):
            import_scores(path, toy, match="id")

    @pytest.mark.parametrize("match, text", [
        ("id", "A,0.9\n ,\t\nB,x\nC,0.2\nD,0.4\nE,0.3\n"),
        ("order", "0.9\n ,\t\nx\n0.2\n0.4\n0.3\n"),
    ])
    def test_whitespace_only_record_is_skipped_but_counted(self, match, text, tmp_path, toy):
        # " ,\t" has two fields and no character in either: it is a blank
        # record, not a score row, and the bad score after it is row 3
        path = tmp_path / "s.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=r"^s\.csv: row 3 \(module 'B'\): non-numeric score 'x'$"):
            import_scores(path, toy, kind="raw", match=match)

    @pytest.mark.parametrize("cell", ["inf", "-inf", "nan", "1e999"])
    def test_non_finite_score_rejected_as_non_numeric(self, tmp_path, toy, cell):
        path = tmp_path / "s.csv"
        path.write_text(f"0.9\n{cell}\n0.6\n0.4\n0.3\n")
        with pytest.raises(ValueError, match=rf"^s.csv: row 2 \(module 'B'\): non-numeric score '{cell}'$"):
            import_scores(path, toy, kind="raw", match="order")

    def test_out_of_range_score_in_order_mode_names_row_and_module(self, tmp_path, toy):
        path = tmp_path / "s.csv"
        path.write_text("score\n0.9\n1.5\n0.6\n0.4\n0.3\n")
        with pytest.raises(ValueError, match=r"row 3 \(module 'B'\): probability score 1.5 out of"):
            import_scores(path, toy, kind="probability", match="order")

    def test_first_row_with_a_dataset_id_is_not_a_header(self, tmp_path, toy):
        # Taken as a header, this file would report "missing ids: A".
        path = tmp_path / "s.csv"
        path.write_text("A,x\nB,0.1\nC,0.2\nD,0.4\nE,0.3\n")
        with pytest.raises(ValueError, match=r"row 1 \(module 'A'\): non-numeric score 'x'"):
            import_scores(path, toy, match="id")

    def test_probability_out_of_range_rejected(self, tmp_path, toy):
        path = tmp_path / "s.csv"
        path.write_text("1.5\n0.8\n0.6\n0.4\n0.3\n")
        with pytest.raises(ValueError, match="probability"):
            import_scores(path, toy, kind="probability", match="order")

    def test_boundary_probabilities_clipped_interior(self, tmp_path, toy):
        path = tmp_path / "s.csv"
        path.write_text("1.0\n0.8\n0.6\n0.4\n0.0\n")
        sv = import_scores(path, toy, kind="probability", match="order")
        assert 0 < sv.values[-1] < sv.values[-2]
        assert sv.values[0] < 1.0

    def test_count_estimates(self, tmp_path, toy):
        path = tmp_path / "s.csv"
        path.write_text("3\n0\n2\n0\n1\n")
        sv = import_scores(path, toy, kind="defect-count-estimate", match="order")
        assert sv.kind == "defect-count-estimate"
        assert list(sv.values) == [3.0, 0.0, 2.0, 0.0, 1.0]

    def test_negative_count_rejected(self, tmp_path, toy):
        path = tmp_path / "s.csv"
        path.write_text("3\n-1\n2\n0\n1\n")
        with pytest.raises(ValueError, match="negative"):
            import_scores(path, toy, kind="defect-count-estimate", match="order")

    def test_raw_scores_allow_any_finite(self, tmp_path, toy):
        path = tmp_path / "s.csv"
        path.write_text("-2.5\n0.0\n7.1\n-0.1\n3.3\n")
        sv = import_scores(path, toy, kind="raw", match="order")
        assert sv.values[0] == -2.5

    @pytest.mark.parametrize("option, message", [
        ({"match": "name"}, r"match must be one of \('id', 'order'\), got 'name'"),
        ({"kind": "logit"}, r"kind must be one of \('probability', 'defect-count-estimate', 'raw'\), got 'logit'"),
    ])
    def test_unknown_option_rejected(self, option, message, tmp_path, toy):
        path = tmp_path / "s.csv"
        path.write_text("0.9\n0.8\n0.6\n0.4\n0.3\n")
        with pytest.raises(ValueError, match=message):
            import_scores(path, toy, **option)

    @pytest.mark.parametrize("match, text, message", [
        ("order", "0.9\n0.8,0.1\n0.6\n0.4\n0.3\n", r"s\.csv: row 2: match='order' expects a single score column"),
        ("id", "A,0.9\nB\nC,0.6\nD,0.4\nE,0.3\n", r"s\.csv: row 2: match='id' expects columns \(id, score\)"),
    ])
    def test_wrong_field_count_names_the_row(self, match, text, message, tmp_path, toy):
        path = tmp_path / "s.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=message):
            import_scores(path, toy, kind="raw", match=match)

    def test_missing_file(self, tmp_path, toy):
        with pytest.raises(FileNotFoundError):
            import_scores(tmp_path / "nope.csv", toy)


class TestScoreVector:
    def test_probability_bounds(self):
        with pytest.raises(ValueError):
            ScoreVector(values=[0.0, 0.5], kind="probability")
        with pytest.raises(ValueError):
            ScoreVector(values=[0.5, 1.0], kind="probability")

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            ScoreVector(values=[0.5], kind="logit")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ScoreVector(values=[], kind="raw")

    def test_negative_count_estimate_rejected(self):
        with pytest.raises(ValueError, match="defect-count estimates must be finite and non-negative"):
            ScoreVector(values=[1.0, -0.5], kind="defect-count-estimate")

    def test_caller_array_left_writable_and_unshared(self):
        values = np.array([0.2, 0.5, 0.9])
        s = ScoreVector(values=values, kind="probability")
        assert values.flags.writeable
        assert not np.shares_memory(values, s.values)
        values[0] = 0.7
        assert s.values[0] == 0.2

    def test_values_read_only(self, toy_scores):
        with pytest.raises(ValueError):
            toy_scores.values[0] = 0.1
