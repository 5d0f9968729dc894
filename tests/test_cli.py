import argparse
import json
from pathlib import Path

import pytest

import eameval.selftest as selftest_module
from eameval.cli import build_parser, main
from eameval.curves import BENEFIT_MODES, INTERPOLATIONS
from eameval.model import SCORE_KINDS, SCORE_MATCHES
from eameval.ranking import POLICIES, TIE_BREAKS

GOLDEN = Path(__file__).resolve().parent / "golden"


TOY_CSV = (
    "id,LOC,McCC,Defective\n"
    "A,10,5,Y\n"
    "B,20,1,N\n"
    "C,30,9,Y\n"
    "D,40,2,N\n"
    "E,100,3,Y\n"
)


@pytest.fixture
def toy_csv(tmp_path):
    path = tmp_path / "toy.csv"
    path.write_text(TOY_CSV)
    return path


@pytest.fixture
def scores_csv(tmp_path):
    path = tmp_path / "scores.csv"
    path.write_text("0.9\n0.8\n0.6\n0.4\n0.3\n")
    return path


def run(argv):
    return main([str(a) for a in argv])


class TestEvaluate:
    def test_end_to_end_with_scores(self, toy_csv, scores_csv, tmp_path, capsys):
        out = tmp_path / "out"
        code = run([
            "evaluate", "--data", toy_csv, "--scores", scores_csv,
            "--score-match", "order", "--effort", "LOC", "--effort", "McCC",
            "--budgets", "0.2,0.5", "--out-dir", out,
        ])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["dataset"]["modules"] == 5
        assert report["dataset"]["defective"] == 3
        assert report["model"]["kind"] == "imported"
        assert {r["driver"] for r in report["results"]} == {"LOC", "McCC"}
        loc = next(r for r in report["results"] if r["driver"] == "LOC")
        assert loc["Popt"] == pytest.approx(13 / 15, abs=1e-6)
        by_budget = {b["budget"]: b for b in loc["budgets"]}
        assert by_budget[0.5]["PofB"] == pytest.approx(2 / 3, abs=1e-6)
        assert by_budget[0.2]["PofB"] == pytest.approx(1 / 3, abs=1e-6)
        assert by_budget[0.5]["cutoff"] == 4
        assert (out / "tables.csv").exists()
        assert (out / "curves" / "toy_score_LOC.csv").exists()
        assert (out / "curves" / "toy_score_McCC.csv").exists()
        assert (out / "curves" / "toy_score.svg").exists()
        assert "report.json" in capsys.readouterr().out

    def test_end_to_end_with_fit(self, toy_csv, tmp_path):
        out = tmp_path / "out"
        with pytest.warns(Warning):  # the toy is separable, which is fine here
            code = run([
                "evaluate", "--data", toy_csv,
                "--predictors", "LOC,McCC/LOC", "--out-dir", out,
            ])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["model"]["kind"] == "blr"
        assert report["model"]["predictors"] == ["LOC", "McCC/LOC"]
        assert len(report["model"]["coefficients"]) == 3
        assert "AUC" in report

    def test_density_policy_reports_npofb(self, toy_csv, scores_csv, tmp_path):
        out = tmp_path / "out"
        code = run([
            "evaluate", "--data", toy_csv, "--scores", scores_csv,
            "--score-match", "order", "--rank", "density", "--out-dir", out,
        ])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        cell = report["results"][0]
        assert cell["policy"] == "density"
        assert "NPofB" in cell["budgets"][0]

    def test_metrics_block_present_with_nulls_at_zero_cutoff(
        self, toy_csv, scores_csv, tmp_path
    ):
        out = tmp_path / "out"
        run([
            "evaluate", "--data", toy_csv, "--scores", scores_csv,
            "--score-match", "order", "--budgets", "0.0,0.5", "--out-dir", out,
        ])
        report = json.loads((out / "report.json").read_text())
        zero = next(
            b for b in report["results"][0]["budgets"] if b["budget"] == 0.0
        )
        assert zero["cutoff"] == 0
        assert zero["metrics"]["PPV"] is None
        assert zero["metrics"]["TPR"] == 0.0

    def test_composite_driver_accepted(self, toy_csv, scores_csv, tmp_path):
        out = tmp_path / "out"
        code = run([
            "evaluate", "--data", toy_csv, "--scores", scores_csv,
            "--score-match", "order",
            "--effort", "composite:LOC,McCC,0.2", "--out-dir", out,
        ])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["results"][0]["driver"] == "composite:LOC,McCC,0.2"

    def test_tables_csv_shape(self, toy_csv, scores_csv, tmp_path):
        out = tmp_path / "out"
        run([
            "evaluate", "--data", toy_csv, "--scores", scores_csv,
            "--score-match", "order", "--budgets", "0.2,0.5", "--out-dir", out,
        ])
        lines = (out / "tables.csv").read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header[:3] == ["project", "policy", "driver"]
        assert "PofB@0.2" in header and "PofB@0.5" in header
        assert "Popt" in header and "AUC" in header
        assert len(lines) == 2  # one policy x one driver

    def test_svg_is_self_contained(self, toy_csv, scores_csv, tmp_path):
        out = tmp_path / "out"
        run([
            "evaluate", "--data", toy_csv, "--scores", scores_csv,
            "--score-match", "order", "--effort", "LOC", "--effort", "McCC",
            "--out-dir", out,
        ])
        svg = (out / "curves" / "toy_score.svg").read_text()
        assert svg.startswith("<svg")
        assert "http" not in svg.replace("http://www.w3.org", "")
        assert svg.count("<polyline") >= 2
        assert 'stroke-dasharray' in svg  # the no-skill diagonal


class TestExitCodes:
    def test_missing_data_file(self, tmp_path, capsys):
        code = run(["evaluate", "--data", tmp_path / "missing.csv",
                    "--predictors", "LOC", "--out-dir", tmp_path / "o"])
        assert code == 2
        assert "missing.csv" in capsys.readouterr().err

    def test_scores_and_predictors_conflict(self, toy_csv, scores_csv, tmp_path):
        code = run([
            "evaluate", "--data", toy_csv, "--scores", scores_csv,
            "--predictors", "LOC", "--out-dir", tmp_path / "o",
        ])
        assert code == 2

    def test_neither_scores_nor_predictors(self, toy_csv, tmp_path):
        code = run(["evaluate", "--data", toy_csv, "--out-dir", tmp_path / "o"])
        assert code == 2

    def test_malformed_budget_list(self, toy_csv, scores_csv, tmp_path):
        code = run([
            "evaluate", "--data", toy_csv, "--scores", scores_csv,
            "--score-match", "order", "--budgets", "0.2,huh",
            "--out-dir", tmp_path / "o",
        ])
        assert code == 2

    def test_budget_out_of_range(self, toy_csv, scores_csv, tmp_path):
        code = run([
            "evaluate", "--data", toy_csv, "--scores", scores_csv,
            "--score-match", "order", "--budgets", "0.2,1.5",
            "--out-dir", tmp_path / "o",
        ])
        assert code == 2

    def test_unknown_effort_measure_is_computation_error(
        self, toy_csv, scores_csv, tmp_path, capsys
    ):
        code = run([
            "evaluate", "--data", toy_csv, "--scores", scores_csv,
            "--score-match", "order", "--effort", "volume",
            "--out-dir", tmp_path / "o",
        ])
        assert code == 1
        assert "volume" in capsys.readouterr().err

    def test_unparseable_scores_file(self, toy_csv, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b,c\n")
        code = run([
            "evaluate", "--data", toy_csv, "--scores", bad,
            "--score-match", "order", "--out-dir", tmp_path / "o",
        ])
        assert code == 1

    @pytest.mark.parametrize("flag, role", [("--label-col", "label"), ("--count-col", "count")])
    def test_empty_column_flag_is_not_a_default(self, flag, role, toy_csv, scores_csv, tmp_path, capsys):
        code = run([
            "evaluate", "--data", toy_csv, "--scores", scores_csv, "--score-match", "order",
            flag, "", "--out-dir", tmp_path / "o",
        ])
        assert code == 1
        assert f"toy.csv: {role} column '' not found" in capsys.readouterr().err

    def test_empty_predictor_list_is_usage_error(self, toy_csv, tmp_path, capsys):
        code = run(["evaluate", "--data", toy_csv, "--predictors", ",", "--out-dir", tmp_path / "o"])
        assert code == 2
        assert "--predictors is empty" in capsys.readouterr().err

    def test_empty_budget_chunk_is_skipped(self, toy_csv, scores_csv, tmp_path):
        out = tmp_path / "o"
        code = run([
            "evaluate", "--data", toy_csv, "--scores", scores_csv, "--score-match", "order",
            "--budgets", "0.2,,0.5", "--out-dir", out,
        ])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert [b["budget"] for b in report["results"][0]["budgets"]] == [0.2, 0.5]

    def test_malformed_csv_is_computation_error(self, tmp_path, capsys):
        data = tmp_path / "bad.csv"
        data.write_text(TOY_CSV.replace("C,30", '"C,30') + "F,1,1,N\n" * 30_000)
        code = run(["evaluate", "--data", data, "--predictors", "LOC", "--out-dir", tmp_path / "o"])
        assert code == 1
        assert "error: bad.csv: row 4: field larger than field limit (131072)" in capsys.readouterr().err

    @pytest.mark.parametrize("name, content, message", [
        ("toy.csv", TOY_CSV.encode().replace(b"N\n", b"\xff\n", 1),
         "toy.csv: 'utf-8' codec can't decode byte 0xff in position 38: invalid start byte"),
        ("scores.csv", b"0.9\n0.8\n\xff\n0.4\n0.3\n",
         "scores.csv: 'utf-8' codec can't decode byte 0xff in position 8: invalid start byte"),
        ("toy.schema.json", b'{"label": "Defective",}',
         "toy.schema.json: Expecting property name enclosed in double quotes: line 1 column 23 (char 22)"),
    ], ids=["data", "scores", "sidecar"])
    def test_unreadable_file_is_named(self, name, content, message, toy_csv, scores_csv,
                                      tmp_path, capsys):
        (tmp_path / name).write_bytes(content)
        code = run(["evaluate", "--data", toy_csv, "--scores", scores_csv, "--score-match", "order",
                    "--out-dir", tmp_path / "o"])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("spec, message", [
        ("composite:LOC", "bad composite driver spec 'composite:LOC'"),
        ("composite:LOC,McCC,2", "composite weight must be in [0, 1], got 2.0"),
    ])
    def test_malformed_driver_checked_before_data_is_read(self, spec, message, tmp_path, capsys):
        code = run(["evaluate", "--data", tmp_path / "missing.csv", "--predictors", "LOC",
                    "--effort", spec, "--out-dir", tmp_path / "o"])
        assert code == 2
        assert message in capsys.readouterr().err

    def test_budget_checked_before_data_is_read(self, tmp_path, capsys):
        code = run(["evaluate", "--data", tmp_path / "missing.csv", "--predictors", "LOC",
                    "--budgets", "0.2,1.5", "--out-dir", tmp_path / "o"])
        assert code == 2
        assert "budget must be in [0, 1], got 1.5" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["evaluate", "compare"])
    def test_repeated_driver_rejected(self, command, toy_csv, scores_csv, tmp_path, capsys):
        code = run([
            command, "--data", toy_csv, "--scores", scores_csv, "--score-match", "order",
            "--effort", "LOC", "--effort", "McCC", "--effort", " LOC", "--out-dir", tmp_path / "o",
        ])
        assert code == 2
        assert "effort driver 'LOC' given twice" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    # 0.2000000000001 is another float but the same PofB@0.2 column
    @pytest.mark.parametrize("budgets", ["0.2,0.5, 0.20", "0.2,0.2000000000001"])
    def test_repeated_budget_rejected(self, budgets, toy_csv, scores_csv, tmp_path, capsys):
        code = run([
            "evaluate", "--data", toy_csv, "--scores", scores_csv, "--score-match", "order",
            "--budgets", budgets, "--out-dir", tmp_path / "o",
        ])
        assert code == 2
        assert "budget 0.2 given twice" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["evaluate", "compare"])
    def test_drivers_sharing_a_curve_file_name_rejected(self, command, scores_csv, tmp_path, capsys):
        data = tmp_path / "t.csv"
        data.write_text("id,a b,a-b,Defective\nA,1,2,Y\nB,2,1,N\nC,3,3,Y\nD,4,4,N\nE,5,5,Y\n")
        code = run([
            command, "--data", data, "--scores", scores_csv, "--score-match", "order",
            "--effort", "a b", "--effort", "a-b", "--out-dir", tmp_path / "o",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "effort drivers 'a b' and 'a-b' share the slug 'a-b'" in err
        assert not (tmp_path / "o").exists()

    def test_drivers_with_distinct_slugs_each_get_a_curve_file(self, scores_csv, tmp_path):
        data = tmp_path / "t.csv"
        data.write_text("id,a b,a+c,Defective\nA,1,2,Y\nB,2,1,N\nC,3,3,Y\nD,4,4,N\nE,5,5,Y\n")
        out = tmp_path / "o"
        code = run([
            "evaluate", "--data", data, "--scores", scores_csv, "--score-match", "order",
            "--effort", "a b", "--effort", "a+c", "--out-dir", out,
        ])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert [r["curve_csv"] for r in report["results"]] == [
            "curves/t_score_a-b.csv", "curves/t_score_a-c.csv",
        ]
        assert all((out / r["curve_csv"]).exists() for r in report["results"])

    def test_argparse_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["evaluate", "--nonsense"])
        assert exc.value.code == 2


class TestCompare:
    def test_needs_two_drivers(self, toy_csv, scores_csv, tmp_path, capsys):
        code = run([
            "compare", "--data", toy_csv, "--scores", scores_csv,
            "--score-match", "order", "--effort", "LOC",
            "--out-dir", tmp_path / "o",
        ])
        assert code == 2
        assert "--effort" in capsys.readouterr().err

    def test_writes_overlay_and_long_csv(self, toy_csv, scores_csv, tmp_path):
        out = tmp_path / "out"
        code = run([
            "compare", "--data", toy_csv, "--scores", scores_csv,
            "--score-match", "order",
            "--effort", "LOC", "--effort", "McCC",
            "--effort", "composite:LOC,McCC,0.2",
            "--out-dir", out,
        ])
        assert code == 0
        svg = (out / "toy_compare.svg").read_text()
        assert svg.count("<polyline") == 3
        import csv

        with open(out / "toy_compare.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["driver", "policy", "effort_fraction", "benefit"]
        drivers = {row[0] for row in rows[1:]}
        assert drivers == {"LOC", "McCC", "composite:LOC,McCC,0.2"}


class TestSelftest:
    def test_passes_and_reports_count(self, capsys):
        assert run(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "9/9 checks passed" in out

    def test_output_is_deterministic(self, capsys):
        run(["selftest"])
        first = capsys.readouterr().out
        run(["selftest"])
        second = capsys.readouterr().out
        assert first == second

    def test_detects_computation_drift(self, capsys, monkeypatch):
        # negative control: silently corrupt one computation and the
        # matching check must fail, naming itself
        monkeypatch.setattr(selftest_module, "pofb_at", lambda curve, budget: 0.123)
        assert run(["selftest"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "PofB readings" in out


class TestDeterminism:
    def test_same_flags_byte_identical_report(self, toy_csv, scores_csv, tmp_path):
        out = tmp_path / "out"
        args = [
            "evaluate", "--data", toy_csv, "--scores", scores_csv,
            "--score-match", "order", "--effort", "LOC", "--effort", "McCC",
            "--budgets", "0.2,0.5", "--out-dir", out,
        ]
        assert run(args) == 0
        first = (out / "report.json").read_bytes()
        first_tables = (out / "tables.csv").read_bytes()
        assert run(args) == 0
        assert (out / "report.json").read_bytes() == first
        assert (out / "tables.csv").read_bytes() == first_tables

    def test_out_dir_created_recursively(self, toy_csv, scores_csv, tmp_path):
        out = tmp_path / "deep" / "nested" / "dir"
        assert run([
            "evaluate", "--data", toy_csv, "--scores", scores_csv,
            "--score-match", "order", "--out-dir", out,
        ]) == 0
        assert (out / "report.json").exists()


class TestParser:
    @pytest.fixture
    def subparsers(self):
        action = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        return action.choices

    @pytest.mark.parametrize("command", ["evaluate", "compare"])
    def test_choices_are_the_library_tuples(self, command, subparsers):
        choices = {a.dest: a.choices for a in subparsers[command]._actions if a.choices is not None}
        expected = {
            "score_kind": SCORE_KINDS,
            "score_match": SCORE_MATCHES,
            "rank": POLICIES,
            "tie_break": TIE_BREAKS,
            "benefit": BENEFIT_MODES,
            "popt_interp": INTERPOLATIONS,
        }
        assert choices.keys() == expected.keys()
        for dest, values in expected.items():
            assert choices[dest] is values, dest

    @pytest.mark.parametrize("command", ["evaluate", "compare"])
    def test_help_text_unchanged(self, command, subparsers, monkeypatch):
        # Recorded at 80 columns with Python 3.11; argparse's layout can
        # differ in other Python versions.
        monkeypatch.setenv("COLUMNS", "80")
        expected = (GOLDEN / f"{command}_help.txt").read_text(encoding="utf-8")
        assert subparsers[command].format_help() == expected
