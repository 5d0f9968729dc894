import csv
import json
import math
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eameval import dataset as dataset_module
from eameval.curves import CostEfficiencyCurve
from eameval.dataset import (
    DataQualityWarning,
    Dataset,
    DuplicateIdError,
    load_dataset,
    save_dataset,
)
from eameval.model import ScoreVector
from eameval.ranking import RankedList

from conftest import build_dataset, find_nasa_file, load_nasa

NOT_UTF8 = r"'utf-8' codec can't decode byte 0xff in position \d+: invalid start byte$"


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def row_reference(path, label_column=None, count_column=None, id_column=None) -> Dataset:
    """The row-by-row loader load_dataset is defined by: the whole file read
    into memory, then every cell parsed with its own Python call, row after
    row. Rows are numbered by CSV record, blank records included. The
    streamed, column-wise load_dataset must reproduce its ids, columns,
    warnings and errors exactly."""

    def parse_bool(cell):
        text = cell.strip().lower()
        if text in dataset_module.TRUE_SPELLINGS:
            return True
        if text in dataset_module.FALSE_SPELLINGS:
            return False
        return None

    def parse_finite(cell):
        try:
            value = float(cell)
        except ValueError:
            return None
        return value if math.isfinite(value) else None

    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"dataset file not found: {path}")
    roles = dataset_module._sidecar_roles(path)
    label_column = label_column or roles.get("label") or "Defective"
    count_column = count_column or roles.get("count")
    id_column = id_column or roles.get("id")
    wanted_measures = roles.get("measures")

    with path.open(newline="", encoding="utf-8-sig") as fh:
        rows = [
            (number, row)
            for number, row in enumerate(csv.reader(fh), start=1)
            if row and any(c.strip() for c in row)
        ]
    if not rows:
        raise ValueError(f"{path.name}: file is empty")
    header = [c.strip() for c in rows[0][1]]
    data_rows = rows[1:]
    if not data_rows:
        raise ValueError(f"{path.name}: no data rows")

    if len(set(header)) != len(header):
        raise ValueError(f"{path.name}: duplicate column names in header")
    if label_column not in header:
        raise ValueError(f"{path.name}: label column {label_column!r} not found")
    for role, name in (("count", count_column), ("id", id_column)):
        if name is not None and name not in header:
            raise ValueError(f"{path.name}: {role} column {name!r} not found")
    if id_column is None:
        id_column = next((c for c in header if c.lower() == "id"), None)
    if count_column is None:
        count_column = next((c for c in header if c.lower() == "defect_count"), None)
    role_columns = {
        label_column, count_column, id_column, roles.get("label"), roles.get("count"), roles.get("id"),
    } - {None}
    if wanted_measures is not None:
        missing = [m for m in wanted_measures if m not in header]
        if missing:
            raise ValueError(f"{path.name}: sidecar measures not in header: {missing}")
        measure_columns = [c for c in header if c in set(wanted_measures)]
    else:
        measure_columns = [c for c in header if c not in role_columns]

    col_index = {c: i for i, c in enumerate(header)}
    for name in measure_columns:
        i = col_index[name]
        cells = [row[i] for _, row in data_rows if len(row) == len(header)]
        if not any(parse_finite(c) is not None for c in cells):
            raise ValueError(f"{path.name}: non-numeric measure column {name!r}")

    def reject(file_row, reason):
        warnings.warn(f"{path.name}: row {file_row}: {reason}; row rejected", DataQualityWarning)

    ids, file_rows, labels, counts = [], [], [], []
    columns = [[] for _ in measure_columns]
    for ordinal, (file_row, row) in enumerate(data_rows, start=1):
        if len(row) != len(header):
            reject(file_row, f"expected {len(header)} fields, got {len(row)}")
            continue
        defective = parse_bool(row[col_index[label_column]])
        if defective is None:
            reject(file_row, f"unparseable label {row[col_index[label_column]]!r}")
            continue
        values = []
        bad_cell = None
        for name in measure_columns:
            value = parse_finite(row[col_index[name]])
            if value is None:
                bad_cell = f"measure {name!r} value {row[col_index[name]]!r} is not a finite number"
                break
            if value < 0:
                bad_cell = f"measure {name!r} is negative"
                break
            values.append(value)
        if bad_cell:
            reject(file_row, bad_cell)
            continue
        if count_column is not None:
            raw = parse_finite(row[col_index[count_column]])
            if raw is None or raw < 0 or abs(raw - round(raw)) > 1e-9:
                reject(file_row, f"defect count {row[col_index[count_column]]!r} is not a non-negative integer")
                continue
            defect_count = int(round(raw))
            if (defect_count > 0) != defective:
                reject(file_row, f"defect count {defect_count} contradicts label")
                continue
            counts.append(defect_count)
        ids.append(row[col_index[id_column]].strip() if id_column else str(ordinal))
        file_rows.append(file_row)
        labels.append(defective)
        for column, value in zip(columns, values):
            column.append(value)

    if not ids:
        raise ValueError(f"{path.name}: empty dataset after filtering")
    first_row = {}
    for module_id, file_row in zip(ids, file_rows):
        a = first_row.setdefault(module_id, file_row)
        if a != file_row:
            raise ValueError(f"{path.name}: duplicate module id {module_id!r} in rows {a} and {file_row}")
    return Dataset(
        ids=ids,
        labels=labels,
        measures=dict(zip(measure_columns, columns)),
        defect_counts=counts if count_column is not None else None,
    )


BASIC = "id,LOC,McCC,Defective\na,10,5,Y\nb,20,1,N\nc,30,9,Y\n"


class TestLoading:
    def test_basic_load(self, tmp_path):
        d = load_dataset(write(tmp_path / "t.csv", BASIC))
        assert d.n == 3
        assert d.schema == ("LOC", "McCC")
        assert d.num_defective == 2
        assert d.num_clean == 1
        assert d.prevalence == pytest.approx(2 / 3)
        assert list(d.measure_vector("LOC")) == [10.0, 20.0, 30.0]
        assert list(d.measure_vector("McCC")) == [5.0, 1.0, 9.0]
        assert d.labels.tolist() == [True, False, True]

    @pytest.mark.parametrize(
        "token,expected",
        [
            ("Y", True), ("y", True), ("yes", True), ("TRUE", True), ("1", True),
            ("N", False), ("no", False), ("False", False), ("0", False),
        ],
    )
    def test_label_spellings(self, tmp_path, token, expected):
        d = load_dataset(write(tmp_path / "t.csv", f"LOC,Defective\n10,{token}\n20,Y\n"))
        assert d.labels.tolist()[0] is expected

    def test_id_column_detected(self, tmp_path):
        d = load_dataset(write(tmp_path / "t.csv", "id,LOC,Defective\nmod_a,10,Y\nmod_b,20,N\n"))
        assert d.ids == ("mod_a", "mod_b")
        assert "id" not in d.schema

    def test_ordinal_ids_without_id_column(self, tmp_path):
        d = load_dataset(write(tmp_path / "t.csv", "LOC,Defective\n10,Y\n20,N\n"))
        assert d.ids == ("1", "2")

    def test_custom_label_column(self, tmp_path):
        d = load_dataset(
            write(tmp_path / "t.csv", "LOC,bug\n10,Y\n20,N\n"), label_column="bug"
        )
        assert d.num_defective == 1

    def test_utf8_bom_tolerated(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"\xef\xbb\xbf" + BASIC.encode())
        assert load_dataset(path).n == 3

    def test_defect_counts(self, tmp_path):
        d = load_dataset(
            write(tmp_path / "t.csv", "LOC,bugs,Defective\n10,3,Y\n20,0,N\n"),
            count_column="bugs",
        )
        assert tuple(d.defect_counts) == (3.0, 0.0)

    def test_counts_absent_is_none(self, tmp_path):
        d = load_dataset(write(tmp_path / "t.csv", BASIC))
        assert d.defect_counts is None


class TestRowRejection:
    def test_unparseable_measure_drops_row(self, tmp_path):
        path = write(tmp_path / "t.csv", "LOC,Defective\n10,Y\nabc,N\n30,Y\n")
        with pytest.warns(DataQualityWarning, match="row 3"):
            d = load_dataset(path)
        assert d.n == 2
        assert list(d.measure_vector("LOC")) == [10.0, 30.0]

    @pytest.mark.parametrize("bad", ["-5", "nan", "inf", ""])
    def test_invalid_measure_values_dropped(self, tmp_path, bad):
        path = write(tmp_path / "t.csv", f"LOC,Defective\n{bad},Y\n30,Y\n")
        with pytest.warns(DataQualityWarning):
            d = load_dataset(path)
        assert d.n == 1

    def test_unparseable_label_drops_row(self, tmp_path):
        path = write(tmp_path / "t.csv", "LOC,Defective\n10,maybe\n30,Y\n")
        with pytest.warns(DataQualityWarning, match="label"):
            d = load_dataset(path)
        assert d.n == 1

    def test_short_row_dropped(self, tmp_path):
        path = write(tmp_path / "t.csv", "LOC,McCC,Defective\n10,5,Y\n20,N\n30,9,Y\n")
        with pytest.warns(DataQualityWarning, match="fields"):
            d = load_dataset(path)
        assert d.n == 2

    def test_count_contradicting_label_drops_row(self, tmp_path):
        path = write(
            tmp_path / "t.csv", "LOC,bugs,Defective\n10,0,Y\n20,2,Y\n30,0,N\n"
        )
        with pytest.warns(DataQualityWarning, match="contradicts"):
            d = load_dataset(path, count_column="bugs")
        assert d.n == 2

    def test_warning_names_the_file(self, tmp_path):
        path = write(tmp_path / "odd name.csv", "LOC,Defective\nbogus,Y\n1,Y\n")
        with pytest.warns(DataQualityWarning, match="odd name.csv"):
            load_dataset(path)


class TestFatalErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_dataset(tmp_path / "nope.csv")

    def test_empty_file(self, tmp_path):
        with pytest.raises(ValueError, match="empty"):
            load_dataset(write(tmp_path / "t.csv", ""))

    def test_missing_label_column(self, tmp_path):
        with pytest.raises(ValueError, match="Defective"):
            load_dataset(write(tmp_path / "t.csv", "LOC,target\n10,Y\n"))

    @pytest.mark.parametrize("role", ["label", "count"])
    def test_empty_column_argument_is_not_a_default(self, role, tmp_path):
        with pytest.raises(ValueError, match=rf"t\.csv: {role} column '' not found"):
            load_dataset(write(tmp_path / "t.csv", BASIC), **{f"{role}_column": ""})

    def test_missing_count_column(self, tmp_path):
        with pytest.raises(ValueError, match=r"t\.csv: count column 'bugs' not found"):
            load_dataset(write(tmp_path / "t.csv", BASIC), count_column="bugs")

    def test_duplicate_header(self, tmp_path):
        with pytest.raises(ValueError, match="duplicate"):
            load_dataset(write(tmp_path / "t.csv", "LOC,LOC,Defective\n10,10,Y\n"))

    def test_duplicate_module_id_names_id_and_both_rows(self, tmp_path):
        text = "id,LOC,Defective\na,10,Y\nb,20,N\nc,5,N\nb,30,Y\n"
        with pytest.raises(ValueError, match=r"duplicate module id 'b' in rows 3 and 5"):
            load_dataset(write(tmp_path / "t.csv", text))

    def test_duplicate_rows_counted_past_rejected_rows(self, tmp_path):
        text = "id,LOC,Defective\nq,-1,N\na,10,Y\nr,x,N\nb,20,N\nc,5,N\nb,30,Y\n"
        with pytest.warns(DataQualityWarning), pytest.raises(
            ValueError, match=r"duplicate module id 'b' in rows 5 and 7"
        ):
            load_dataset(write(tmp_path / "t.csv", text))

    def test_rejected_row_does_not_claim_its_id(self, tmp_path):
        text = "id,LOC,Defective\na,10,Y\nb,x,N\nb,30,Y\n"
        with pytest.warns(DataQualityWarning, match="row 3"):
            d = load_dataset(write(tmp_path / "t.csv", text))
        assert d.ids == ("a", "b")

    def test_entirely_non_numeric_column_is_fatal(self, tmp_path):
        path = write(tmp_path / "t.csv", "LOC,lang,Defective\n10,c,Y\n20,ada,N\n")
        with pytest.raises(ValueError, match="lang"):
            load_dataset(path)

    def test_all_rows_rejected(self, tmp_path):
        path = write(tmp_path / "t.csv", "LOC,Defective\n5,huh\n7,what\n")
        with pytest.warns(DataQualityWarning):
            with pytest.raises(ValueError, match="after filtering"):
                load_dataset(path)

    def test_header_only(self, tmp_path):
        with pytest.raises(ValueError, match="no data rows"):
            load_dataset(write(tmp_path / "t.csv", "LOC,Defective\n"))

    def test_byte_that_is_not_utf8_in_a_later_block_names_the_file(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"LOC,Defective\n" + b"10,Y\n" * 10_000 + b"20,\xff\n")
        with pytest.raises(ValueError, match=r"^t\.csv: line 10002: " + NOT_UTF8):
            load_dataset(path)

    def test_byte_that_is_not_utf8_named_by_its_line_and_file_offset(self, tmp_path):
        # far past the decoder's first chunk, and after a byte-order mark
        good = ("\ufeffid,LOC,Defective\n" + "".join(f"m{i},{i},N\n" for i in range(10_000))).encode()
        path = tmp_path / "t.csv"
        path.write_bytes(good + "é,5,N\n".encode("latin-1"))
        with pytest.raises(ValueError) as err:
            load_dataset(path)
        assert len(good) > 8192
        assert str(err.value) == (
            f"t.csv: line 10002: 'utf-8' codec can't decode byte 0xe9 in position {len(good)}: "
            "invalid continuation byte"
        )

    def test_stray_quote_names_the_row_it_opens(self, tmp_path):
        text = 'id,LOC,Defective\na,1,Y\n"b,2,N\n' + "".join(f"m{i},{i},N\n" for i in range(30_000))
        with pytest.raises(ValueError, match=r"^t\.csv: row 3: field larger than field limit \(131072\)$"):
            load_dataset(write(tmp_path / "t.csv", text))


class TestSidecar:
    def test_sidecar_roles_override(self, tmp_path):
        write(tmp_path / "t.csv", "module,size,complexity,status\nm1,10,5,1\nm2,20,1,0\n")
        (tmp_path / "t.schema.json").write_text(
            json.dumps({"label": "status", "id": "module", "measures": ["size"]})
        )
        d = load_dataset(tmp_path / "t.csv")
        assert d.schema == ("size",)
        assert d.ids == ("m1", "m2")
        assert d.num_defective == 1

    def test_sidecar_count_role(self, tmp_path):
        write(tmp_path / "t.csv", "LOC,n_bugs,Defective\n10,2,Y\n20,0,N\n")
        (tmp_path / "t.schema.json").write_text(json.dumps({"count": "n_bugs"}))
        d = load_dataset(tmp_path / "t.csv")
        assert tuple(d.defect_counts) == (2.0, 0.0)

    def test_sidecar_measures_must_be_a_list_of_names(self, tmp_path):
        write(tmp_path / "t.csv", BASIC)
        for measures in ("LOC", ["LOC", 1]):
            (tmp_path / "t.schema.json").write_text(json.dumps({"measures": measures}))
            with pytest.raises(ValueError, match=r"t\.schema\.json: 'measures' must be a list of column names"):
                load_dataset(tmp_path / "t.csv")

    def test_sidecar_role_must_be_a_column_name(self, tmp_path):
        write(tmp_path / "t.csv", BASIC)
        (tmp_path / "t.schema.json").write_text(json.dumps({"label": 3}))
        with pytest.raises(ValueError, match=r"t\.schema\.json: 'label' must be a column name, got 3"):
            load_dataset(tmp_path / "t.csv")

    @pytest.mark.parametrize("key", ["label", "count", "id"])
    def test_sidecar_role_must_not_be_empty(self, key, tmp_path):
        write(tmp_path / "t.csv", BASIC)
        (tmp_path / "t.schema.json").write_text(json.dumps({key: ""}))
        with pytest.raises(ValueError, match=rf"t\.schema\.json: '{key}' must be a column name, got ''"):
            load_dataset(tmp_path / "t.csv")

    def test_sidecar_must_be_a_json_object(self, tmp_path):
        write(tmp_path / "t.csv", BASIC)
        (tmp_path / "t.schema.json").write_text(json.dumps(["label"]))
        with pytest.raises(ValueError, match=r"t\.schema\.json: expected a JSON object"):
            load_dataset(tmp_path / "t.csv")

    def test_sidecar_id_column_must_be_in_header(self, tmp_path):
        write(tmp_path / "t.csv", BASIC)
        (tmp_path / "t.schema.json").write_text(json.dumps({"id": "module"}))
        with pytest.raises(ValueError, match=r"t\.csv: id column 'module' not found"):
            load_dataset(tmp_path / "t.csv")

    def test_sidecar_measures_must_be_in_header(self, tmp_path):
        write(tmp_path / "t.csv", BASIC)
        (tmp_path / "t.schema.json").write_text(json.dumps({"measures": ["LOC", "Halstead"]}))
        with pytest.raises(ValueError, match=r"t\.csv: sidecar measures not in header: \['Halstead'\]"):
            load_dataset(tmp_path / "t.csv")

    def test_sidecar_unknown_key_rejected(self, tmp_path):
        write(tmp_path / "t.csv", BASIC)
        (tmp_path / "t.schema.json").write_text(json.dumps({"lable": "Defective"}))
        with pytest.raises(ValueError, match=r"t\.schema\.json: unknown key 'lable'"):
            load_dataset(tmp_path / "t.csv")

    def test_sidecar_that_is_not_utf8_named(self, tmp_path):
        write(tmp_path / "t.csv", BASIC)
        (tmp_path / "t.schema.json").write_bytes(b'{"label": "\xff"}')
        with pytest.raises(ValueError, match=r"^t\.schema\.json: " + NOT_UTF8):
            load_dataset(tmp_path / "t.csv")

    def test_explicit_argument_beats_sidecar(self, tmp_path):
        write(tmp_path / "t.csv", "LOC,a,b\n10,Y,N\n")
        (tmp_path / "t.schema.json").write_text(json.dumps({"label": "a"}))
        d = load_dataset(tmp_path / "t.csv", label_column="b")
        assert d.num_defective == 0


class TestRoundTrip:
    def test_save_then_load(self, tmp_path, toy):
        path = tmp_path / "saved.csv"
        save_dataset(toy, path)
        back = load_dataset(path)
        assert back.schema == toy.schema
        assert back.ids == toy.ids
        assert np.array_equal(back.labels, toy.labels)
        for name in toy.schema:
            assert np.array_equal(back.measure_vector(name), toy.measure_vector(name))

    def test_save_then_load_with_counts(self, tmp_path):
        d = build_dataset({"LOC": [1.5, 2.25]}, [True, False], counts=[4, 0])
        save_dataset(d, tmp_path / "c.csv")
        assert tuple(load_dataset(tmp_path / "c.csv").defect_counts) == (4.0, 0.0)

    @settings(max_examples=60, deadline=None)
    @given(
        values=st.lists(
            st.floats(min_value=0, max_value=1e12, allow_nan=False),
            min_size=1,
            max_size=25,
        ),
        bits=st.lists(st.booleans(), min_size=1, max_size=25),
    )
    def test_roundtrip_preserves_float_values_exactly(self, tmp_path_factory, values, bits):
        n = min(len(values), len(bits))
        if not any(bits[:n]):
            bits = [True] + bits[1:]
        d = build_dataset({"m": values[:n]}, bits[:n])
        path = tmp_path_factory.mktemp("rt") / "d.csv"
        save_dataset(d, path)
        back = load_dataset(path)
        assert np.array_equal(back.measure_vector("m"), d.measure_vector("m"))


class TestDatasetApi:
    def test_measure_vector_unknown_name(self, toy):
        with pytest.raises(ValueError, match="LOC"):
            toy.measure_vector("halstead")

    def test_with_measure(self, toy):
        d2 = toy.with_measure("density", [0.5, 0.05, 0.3, 0.05, 0.03])
        assert d2.schema == ("LOC", "McCC", "density")
        assert toy.schema == ("LOC", "McCC")
        assert d2.measure_vector("density")[0] == 0.5

    def test_columns_are_built_once_and_read_only(self, toy):
        assert toy.measure_vector("LOC") is toy.measure_vector("LOC")
        assert toy.labels is toy.labels
        for column in (toy.measure_vector("LOC"), toy.labels):
            with pytest.raises(ValueError):
                column[0] = 0

    def test_with_measure_carries_built_columns(self):
        d = build_dataset({"LOC": [1, 2]}, [True, False], counts=[3, 0])
        d2 = d.with_measure("density", [0.5, 0.1])
        assert d2.ids is d.ids
        assert d2.labels is d.labels
        assert d2.defect_counts is d.defect_counts
        assert d2.measure_vector("LOC") is d.measure_vector("LOC")
        assert d2.measure_vector("density").tolist() == [0.5, 0.1]
        assert not d2.measure_vector("density").flags.writeable

    def test_with_measure_checks_only_the_new_column(self, toy, monkeypatch):
        def fail(ids):
            raise AssertionError("with_measure re-checked the shared ids")

        monkeypatch.setattr(dataset_module, "_check_unique", fail)
        d2 = toy.with_measure("density", [0.5, 0.05, 0.3, 0.05, 0.03])
        assert d2.ids is toy.ids and d2.schema == ("LOC", "McCC", "density")
        with pytest.raises(ValueError, match="measure 'bad' of module 'B' must be finite"):
            toy.with_measure("bad", [1.0, math.nan, 3.0, 4.0, 5.0])

    def test_with_measure_rejects_duplicate_name(self, toy):
        with pytest.raises(ValueError, match="already"):
            toy.with_measure("LOC", [1, 2, 3, 4, 5])

    def test_with_measure_rejects_wrong_length(self, toy):
        with pytest.raises(ValueError, match="expected 5 values"):
            toy.with_measure("x", [1.0, 2.0])

    def test_with_measure_rejects_negative(self, toy):
        with pytest.raises(ValueError, match="negative"):
            toy.with_measure("x", [1, 2, 3, 4, -1])

    def test_prevalence_extremes(self):
        assert build_dataset({"m": [1, 2]}, [True, True]).prevalence == 1.0
        assert build_dataset({"m": [1, 2]}, [False, False]).prevalence == 0.0

    def test_columns_are_immutable(self):
        d = build_dataset({"LOC": [1, 2]}, [True, False], counts=[3, 0], ids=["a", "b"])
        with pytest.raises(AttributeError):
            d.labels = np.array([False, False])
        with pytest.raises(TypeError):
            d.ids[0] = "c"
        with pytest.raises(TypeError):
            d.measures["LOC"] = np.zeros(2)
        for column in (d.labels, d.defect_counts, d.measure_vector("LOC")):
            with pytest.raises(ValueError):
                column[0] = 0


class TestConstructor:
    def test_built_directly_from_columns(self):
        d = Dataset(ids=["a", "b"], labels=[True, False], measures={"LOC": [10, 20], "McCC": [2, 1]})
        assert d.ids == ("a", "b")
        assert d.schema == ("LOC", "McCC")
        assert d.labels.dtype == bool and d.num_defective == 1
        assert d.measure_vector("LOC").tolist() == [10.0, 20.0]
        assert d.defect_counts is None

    def test_input_arrays_are_copied_not_frozen(self):
        loc = np.array([10.0, 20.0])
        d = Dataset(ids=["a", "b"], labels=[True, False], measures={"LOC": loc})
        assert loc.flags.writeable
        loc[0] = 99.0
        assert d.measure_vector("LOC")[0] == 10.0

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="at least one module"):
            Dataset(ids=[], labels=[], measures={"LOC": []})

    @pytest.mark.parametrize(
        "labels,measures,counts",
        [
            ([True], {"LOC": [1.0, 2.0]}, None),
            ([True, False], {"LOC": [1.0]}, None),
            ([True, False], {"LOC": [1.0, 2.0]}, [1]),
            ([True, False], {"LOC": [[1.0, 2.0]]}, None),
        ],
    )
    def test_column_of_wrong_length_rejected(self, labels, measures, counts):
        with pytest.raises(ValueError, match="expected 2 values"):
            Dataset(ids=["a", "b"], labels=labels, measures=measures, defect_counts=counts)

    @pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf])
    def test_negative_or_non_finite_measure_rejected(self, bad):
        with pytest.raises(ValueError, match=r"measure 'LOC' of module 'b' must be finite and non-negative"):
            Dataset(ids=["a", "b"], labels=[True, False], measures={"LOC": [1.0, bad]})

    @pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf])
    def test_negative_or_non_finite_defect_count_rejected(self, bad):
        with pytest.raises(ValueError, match=r"defect count of module 'b' must be finite and non-negative"):
            Dataset(ids=["a", "b", "c"], labels=[False, True, True], measures={"LOC": [1.0, 2.0, 3.0]},
                    defect_counts=[0.0, bad, 2.0])


STORED = {
    "Dataset.measures": lambda v: Dataset(
        ids=list("abcd"), labels=[True] * 4, measures={"m": v}).measure_vector("m"),
    "RankedList.order": lambda v: RankedList(order=v, policy="score").order,
    "CostEfficiencyCurve.xs": lambda v: CostEfficiencyCurve(
        xs=v, ys=[0.0, 0.5, 0.5, 1.0], driver="m", policy="score", benefit="modules").xs,
    "ScoreVector.values": lambda v: ScoreVector(values=v, kind="raw").values,
}


def stored_input(field: str, writeable: bool) -> tuple[np.ndarray, np.ndarray]:
    """(the array given, which owns its data; the array the value type
    stored for it)."""
    values = np.arange(4) if field == "RankedList.order" else np.array([0.0, 0.25, 0.5, 1.0])
    values.flags.writeable = writeable
    return values, STORED[field](values)


class TestArrayRule:
    """Every value type stores an array by one rule: a read-only array of
    the field's dtype that owns its data is shared, anything else copied,
    and the caller's array is never frozen."""

    @pytest.mark.parametrize("field", sorted(STORED))
    def test_writable_input_is_copied_and_left_writable(self, field):
        values, stored = stored_input(field, writeable=True)
        assert values.flags.writeable and not stored.flags.writeable
        assert not np.shares_memory(stored, values)

    @pytest.mark.parametrize("field", sorted(STORED))
    def test_read_only_input_is_shared(self, field):
        values, stored = stored_input(field, writeable=False)
        assert stored is values

    @pytest.mark.parametrize("field", sorted(STORED))
    def test_read_only_view_is_copied(self, field):
        # the view is read-only, but the array it views can still change
        owner, _ = stored_input(field, writeable=True)
        view = owner.view()
        view.flags.writeable = False
        stored = STORED[field](view)
        before = stored.tolist()
        owner[0] = 7
        assert not np.shares_memory(stored, owner)
        assert stored.tolist() == before and owner.flags.writeable


class TestNasaFile:
    """Runs only when a cleaned NASA CSV has been dropped into data/nasa/."""

    def test_pc3_label_counts_match_raw_text(self):
        d = load_nasa("PC3")
        path = find_nasa_file("PC3")
        # independent oracle: count label tokens straight off the text
        import csv

        with open(path, newline="", encoding="utf-8-sig") as fh:
            rows = list(csv.reader(fh))
        header = rows[0]
        label_idx = next(
            i for i, h in enumerate(header) if h.strip().lower() in ("defective", "label", "defects")
        )
        raw = [r[label_idx].strip().lower() for r in rows[1:] if len(r) == len(header)]
        raw_defective = sum(1 for v in raw if v in ("y", "yes", "true", "1"))
        assert d.num_defective == raw_defective
        assert d.n == len(raw)


class TestRowNumbers:
    """A row is a CSV record number, blank records included."""

    def test_rejection_counts_blank_records(self, tmp_path):
        path = write(tmp_path / "t.csv", "id,LOC,Defective\na,1,Y\n\nb,x,N\nc,3,N\n")
        with pytest.warns(DataQualityWarning, match=r"t\.csv: row 4: measure 'LOC' value 'x'"):
            d = load_dataset(path)
        assert d.ids == ("a", "c")

    def test_duplicate_id_counts_blank_records(self, tmp_path):
        path = write(tmp_path / "t.csv", "id,LOC,Defective\na,1,Y\n\nb,2,N\na,3,N\n")
        with pytest.raises(ValueError, match=r"duplicate module id 'a' in rows 2 and 5"):
            load_dataset(path)

    def test_empty_line_of_a_one_column_file_is_counted(self, tmp_path):
        path = write(tmp_path / "t.csv", "Defective\nY\n\nN\nmaybe\n")
        with pytest.warns(DataQualityWarning, match=r"row 5: unparseable label 'maybe'"):
            d = load_dataset(path)
        assert d.ids == ("1", "2") and d.labels.tolist() == [True, False]

    def test_default_ids_count_non_blank_records_only(self, tmp_path):
        path = write(tmp_path / "t.csv", "\nLOC,Defective\n1,Y\n \n2,N\n,\n3,N\n")
        assert load_dataset(path).ids == ("1", "2", "3")


class TestUniqueIds:
    def test_constructor_rejects_repeated_id(self):
        with pytest.raises(DuplicateIdError, match=r"duplicate module id 'a' at positions 0 and 2") as err:
            Dataset(ids=["a", "b", "a"], labels=[True, False, False], measures={"LOC": [1, 2, 3]})
        assert (err.value.module_id, err.value.first, err.value.second) == ("a", 0, 2)

    def test_score_import_by_id_never_sees_a_repeated_id(self, tmp_path):
        from eameval.model import import_scores

        scores = write(tmp_path / "s.csv", "a,0.9\nb,0.1\n")
        with pytest.raises(ValueError, match="duplicate module id 'a'"):
            d = Dataset(ids=["a", "b", "a"], labels=[True, False, False], measures={"LOC": [1, 2, 3]})
            import_scores(scores, d, match="id")

    def test_first_repeat_in_module_order_is_named(self):
        with pytest.raises(DuplicateIdError, match=r"'b' at positions 1 and 3"):
            Dataset(ids=["a", "b", "c", "b", "a"], labels=[False] * 5, measures={"LOC": [1] * 5})


# Cells that pass their column's check, then cells that fail it. An id with
# {k} in it is made fresh by putting the row's index there; the quoted ones
# hold line breaks, so their records span lines (and blocks).
GOOD_CELLS = {
    "m": ["1", "0", "-0", "2.5", " 3 ", "1e3", "1_0", "7.25", '"4"', "\u0661"],
    "label": ["Y", "n", " yes ", "TRUE", "0", "1", '"N"'],
    "count": ["0", "1", "3", "2.0", "1e0", "-0", "0.9999999999"],
    "id": ["m{k}", "m{k}", '"m{k}\nx"', '"m{k}\r\n\ny"', "m{k}\x00", "#m{k}", "a", " a", "b"],
}
BAD_CELLS = {
    "m": ["nan", "inf", "-inf", "-5", "abc", "", "  ", '"1,5"', "#", "3\x1c"],
    "label": ["maybe", "", '"yes, no"', "Y\x00"],
    "count": ["1.5", "-1", "x", "", "nan", "1\x1f"],
    "id": [],
}
BLANK_LINES = ["", "   ", "\t \t", " , ", ",,", '""']
# Quoted cells, which make a block go to csv.reader. A cell numpy cannot
# read as a float ('1_0', '\u0661', '', 'abc') only makes it parse the
# block again as text.
NOT_PLAIN = {'"4"', '"N"', '"m{k}\nx"', '"m{k}\r\n\ny"', '"1,5"', '"yes, no"'}


@st.composite
def csv_files(draw):
    """A random CSV dataset (text, sidecar roles, load_dataset kwargs)."""
    with_id = draw(st.booleans())
    # With no measure, id or count column a line is one field, and an empty
    # line has the header's comma count.
    measures = [f"M{j}" for j in range(draw(st.integers(0, 3)))]
    label = draw(st.sampled_from(["Defective", "status"]))
    count = draw(st.sampled_from([None, "bugs", "defect_count", "n_bugs"]))
    roles, kwargs = {}, {}
    if label == "status":
        roles["label"] = "status"
    if count == "bugs":
        kwargs["count_column"] = "bugs"
    elif count == "n_bugs":
        roles["count"] = "n_bugs"
    if len(measures) > 1 and draw(st.booleans()):
        roles["measures"] = measures[1:]
    kinds = (["id"] if with_id else []) + ["m"] * len(measures) + ["label"] + (["count"] if count else [])
    header = (["id"] if with_id else []) + measures + [label] + ([count] if count else [])

    plain = draw(st.booleans())  # rows mostly of cells that numpy's reader takes
    lines = [draw(st.sampled_from(BLANK_LINES)) for _ in range(draw(st.integers(0, 2)))]
    lines.append(",".join(header))
    for k in range(draw(st.integers(0, 14))):
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(BLANK_LINES)))
            continue
        cells = GOOD_CELLS if draw(st.booleans()) else {k: GOOD_CELLS[k] + BAD_CELLS[k] for k in GOOD_CELLS}
        if plain:
            cells = {kind: [c for c in v if c not in NOT_PLAIN] for kind, v in cells.items()}
        row = [draw(st.sampled_from(cells[kind])) for kind in kinds]
        row = [cell.replace("{k}", str(k)) for cell in row]
        width = draw(st.sampled_from(["ok"] * 6 + ["short", "long"]))
        if width == "short":
            row = row[:-1]
        elif width == "long":
            row.append("1")
        lines.append(",".join(row))
    ending = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = ending.join(lines) + draw(st.sampled_from(["", ending]))
    return text, roles, kwargs


def load_outcome(loader, path, **kwargs):
    """Everything a load shows: the columns (bitwise) or the error, and the warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            d = loader(path, **kwargs)
        except ValueError as err:
            result = ("error", str(err))
        else:
            result = (
                d.ids,
                d.labels.tolist(),
                {name: column.tobytes() for name, column in d.measures.items()},
                None if d.defect_counts is None else d.defect_counts.tobytes(),
            )
    return result, [(w.category, str(w.message)) for w in caught]


class TestAgainstRowReference:
    @settings(max_examples=300, deadline=None)
    @given(case=csv_files())
    def test_streamed_load_matches_row_reference(self, tmp_path_factory, case):
        text, roles, kwargs = case
        directory = tmp_path_factory.mktemp("ref")
        path = write(directory / "d.csv", text)
        if roles:
            (directory / "d.schema.json").write_text(json.dumps(roles))
        expected = load_outcome(row_reference, path, **kwargs)
        # Blocks of 3 records put block boundaries inside runs of rejected rows.
        with mock.patch.object(dataset_module, "_BLOCK_ROWS", 3):
            assert load_outcome(load_dataset, path, **kwargs) == expected

    @staticmethod
    def write_plain(path, empty_every=None):
        """A 10k-row file of cells numpy reads as csv.reader does; with
        empty_every, every empty_every-th row has an empty McCC cell, the
        lead row's excepted."""
        rng = np.random.default_rng(3)
        counts = np.where(rng.random(10_000) < 0.2, rng.integers(1, 5, 10_000), 0)
        with path.open("w", encoding="utf-8") as fh:
            fh.write("id,LOC,McCC,Defective,defect_count\n")
            fh.writelines(
                f"m{i}, {rng.integers(1, 900)},"
                f"{'' if empty_every and i % empty_every == empty_every - 1 else f'{rng.lognormal(1.0, 1.0):.3f}'},"
                f"{'Y' if c else 'n'},{c}\n"
                for i, c in enumerate(counts.tolist())
            )
        return path

    @staticmethod
    def load_counting_csv_reader_lines(path):
        """load_outcome of load_dataset, and the lines csv.reader read."""
        lines_read, csv_reader = [], csv.reader

        def reader(lines):
            return csv_reader(line for line in lines if not lines_read.append(line))

        with mock.patch.object(csv, "reader", reader):
            return load_outcome(load_dataset, path), len(lines_read)

    def test_plain_file_reads_only_header_and_lead_with_csv_reader(self, tmp_path):
        path = self.write_plain(tmp_path / "plain.csv")
        outcome, lines_read = self.load_counting_csv_reader_lines(path)
        assert lines_read == 2  # the header and the lead record
        assert len(outcome[0][0]) == 10_000 and outcome[1] == []
        assert outcome == load_outcome(row_reference, path)

    def test_unreadable_number_cell_leaves_its_block_to_numpy(self, tmp_path):
        path = self.write_plain(tmp_path / "plain.csv", empty_every=1000)
        outcome, lines_read = self.load_counting_csv_reader_lines(path)
        # the header and the lead record, then each rejected row alone, for its message
        assert lines_read == 2 + 10
        assert len(outcome[0][0]) == 9_990
        assert outcome[1][0] == (
            DataQualityWarning, "plain.csv: row 1001: measure 'McCC' value '' is not a finite number; row rejected")
        assert outcome == load_outcome(row_reference, path)

    @pytest.mark.parametrize("last", ["x,1,N", '"x",1,N'])
    def test_separator_after_a_number_rejected_whichever_reader_parses_the_block(self, tmp_path, last):
        # numpy strips \x1c-\x1f around a float, float() rejects them; the
        # quote in the last row sends the whole block to csv.reader.
        path = write(tmp_path / "t.csv", f"id,LOC,Defective\na,2,Y\nb,3\x1c,N\n{last}\n")
        (ids, _, measures, _), caught = load_outcome(load_dataset, path)
        assert ids == ("a", "x")
        assert measures["LOC"] == np.array([2.0, 1.0]).tobytes()
        assert caught == [
            (DataQualityWarning, "t.csv: row 3: measure 'LOC' value '3\\x1c' is not a finite number; row rejected")
        ]

    def test_block_of_empty_lines_loads_without_a_numpy_warning(self, tmp_path):
        # One column, so an empty line has the header's field count.
        path = write(tmp_path / "t.csv", "Defective\nY\n\n\n\nN\n")
        with mock.patch.object(dataset_module, "_BLOCK_ROWS", 3):
            outcome = load_outcome(load_dataset, path)
        assert outcome == ((("1", "2"), [True, False], {}, None), [])
        assert outcome == load_outcome(row_reference, path)

    def test_label_column_listed_as_a_measure_is_read_both_ways(self, tmp_path):
        # The sidecar makes the label and count columns measures too, so
        # numpy reads the label as text, and float() reads its numbers.
        path = write(tmp_path / "t.csv", "id,LOC,Defective,bugs\na,1,1,1\nb,2,0,0\nc,3, 1 ,2\nd,4,x,0\ne,5,0,0\n")
        (tmp_path / "t.schema.json").write_text(json.dumps({"measures": ["LOC", "Defective", "bugs"], "count": "bugs"}))
        with mock.patch.object(dataset_module, "_BLOCK_ROWS", 2):
            outcome = load_outcome(load_dataset, path)
        assert outcome[0][2]["Defective"] == np.array([1.0, 0.0, 1.0, 0.0]).tobytes()
        assert outcome == load_outcome(row_reference, path)

    @pytest.mark.parametrize("last", ["c,3,N", '"c",3,N'])
    def test_field_over_the_size_limit_fails_as_csv_reader_does(self, tmp_path, last):
        long = "9" * (csv.field_size_limit() + 1)
        path = write(tmp_path / "t.csv", f"id,LOC,Defective\na,1,Y\nb,{long},N\n{last}\n")
        with path.open(newline="") as fh, pytest.raises(csv.Error) as expected:
            list(csv.reader(fh))
        with pytest.raises(ValueError) as got:
            load_dataset(path)
        assert str(got.value) == f"t.csv: row 3: {expected.value}"

    def test_peak_memory_is_at_most_half_the_row_reference(self, tmp_path):
        rng = np.random.default_rng(0)
        values = np.round(rng.lognormal(3.0, 1.0, (20_000, 20)), 2).tolist()
        path = tmp_path / "wide.csv"
        with path.open("w", encoding="utf-8") as fh:
            fh.write(",".join(["id", *(f"X{j}" for j in range(20)), "Defective"]) + "\n")
            fh.writelines(
                f"m{i},{','.join(map(str, row))},{'Y' if i % 5 == 0 else 'N'}\n"
                for i, row in enumerate(values)
            )

        def peak(loader):
            tracemalloc.start()
            try:
                loader(path)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(load_dataset) <= 0.5 * peak(row_reference)
