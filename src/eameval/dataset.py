"""Defect dataset loading and validation (NASA-collection CSV layout).

A dataset is a CSV file with a header row, one row per software module:
numeric code measures (LOC, cyclomatic complexity, ...), a boolean
defectiveness label, and optionally a defect count. Rows with malformed
cells are rejected individually with a diagnostic; the rest of the file
still loads.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType

import numpy as np

TRUE_SPELLINGS = {"y", "yes", "true", "1"}
FALSE_SPELLINGS = {"n", "no", "false", "0"}


class DataQualityWarning(UserWarning):
    """A row was rejected or specially handled while processing a dataset."""


@dataclass(frozen=True, eq=False)
class Dataset:
    """Immutable ordered collection of modules, stored column by column.

    ids is a tuple of module ids; labels (bool), the optional defect_counts
    (float; None when the data carries no counts) and one float column per
    measure, keyed by name in schema order, are read-only 1-D arrays of one
    length. Module order is preserved verbatim from the source file; it is
    the final tie-breaking key for every ranking, so it must never be
    shuffled. The constructor is the one place the columns are checked: at
    least one module, equal lengths, finite non-negative measures. An array
    passed in that is already read-only is shared, not copied, so
    with_measure hands every existing column on to the new dataset.
    """

    ids: tuple[str, ...]
    labels: np.ndarray
    measures: Mapping[str, np.ndarray]
    defect_counts: np.ndarray | None = None

    def __post_init__(self) -> None:
        ids = tuple(self.ids)
        n = len(ids)
        if n == 0:
            raise ValueError("dataset must contain at least one module")
        measures = {}
        for name, values in self.measures.items():
            column = _read_only(values, float, n, f"measure {name!r}")
            bad = np.flatnonzero(~(np.isfinite(column) & (column >= 0)))
            if bad.size:
                raise ValueError(
                    f"measure {name!r} of module {ids[bad[0]]!r} must be finite and non-negative"
                )
            measures[name] = column
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "labels", _read_only(self.labels, bool, n, "labels"))
        object.__setattr__(self, "measures", MappingProxyType(measures))
        if self.defect_counts is not None:
            counts = _read_only(self.defect_counts, float, n, "defect counts")
            object.__setattr__(self, "defect_counts", counts)

    @property
    def schema(self) -> tuple[str, ...]:
        return tuple(self.measures)

    @property
    def n(self) -> int:
        return len(self.ids)

    @property
    def num_defective(self) -> int:
        return int(np.count_nonzero(self.labels))

    @property
    def num_clean(self) -> int:
        return self.n - self.num_defective

    @property
    def prevalence(self) -> float:
        """Fraction of modules that are actually defective."""
        return self.num_defective / self.n

    def measure_vector(self, name: str) -> np.ndarray:
        """Values of one measure in module order (a read-only array)."""
        if name not in self.measures:
            available = ", ".join(self.schema)
            raise ValueError(f"unknown measure {name!r}; available: {available}")
        return self.measures[name]

    def with_measure(self, name: str, values) -> "Dataset":
        """A new Dataset with an extra measure column appended."""
        if name in self.measures:
            raise ValueError(f"measure {name!r} already present")
        return Dataset(self.ids, self.labels, {**self.measures, name: values}, self.defect_counts)


def _read_only(values, dtype, n: int, what: str) -> np.ndarray:
    if isinstance(values, np.ndarray) and values.dtype == dtype and not values.flags.writeable:
        column = values
    else:
        column = np.array(values, dtype=dtype)
    if column.shape != (n,):
        raise ValueError(f"expected {n} values for {what}, got shape {column.shape}")
    column.flags.writeable = False
    return column


def _parse_bool(cell: str) -> bool | None:
    text = cell.strip().lower()
    if text in TRUE_SPELLINGS:
        return True
    if text in FALSE_SPELLINGS:
        return False
    return None


def _parse_finite(cell: str) -> float | None:
    try:
        value = float(cell)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def _sidecar_roles(path: Path) -> dict:
    """Optional JSON sidecar (<stem>.schema.json) overriding column roles."""
    sidecar = path.with_suffix(".schema.json")
    if not sidecar.exists():
        return {}
    roles = json.loads(sidecar.read_text(encoding="utf-8"))
    if not isinstance(roles, dict):
        raise ValueError(f"{sidecar.name}: expected a JSON object")
    return roles


def load_dataset(
    path,
    label_column: str | None = None,
    count_column: str | None = None,
    id_column: str | None = None,
) -> Dataset:
    """Load a defect dataset from a CSV file.

    Column roles come from the arguments, then from a JSON sidecar named
    <stem>.schema.json (keys "label", "count", "id", "measures"), then from
    defaults: label column "Defective", a column literally named "id" (case
    insensitive) as the identifier if present, and every remaining column
    as a numeric measure. Module ids must be unique: a repeated id is an
    error naming both file rows. Rows with missing, non-numeric, negative, or
    non-finite measure cells, unparseable labels, or defect counts that
    contradict the label are rejected one by one; each rejection emits a
    DataQualityWarning naming the file row (header = row 1).
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"dataset file not found: {path}")

    roles = _sidecar_roles(path)
    label_column = label_column or roles.get("label") or "Defective"
    count_column = count_column or roles.get("count")
    id_column = id_column or roles.get("id")
    wanted_measures = roles.get("measures")

    with path.open(newline="", encoding="utf-8-sig") as fh:
        rows = [row for row in csv.reader(fh) if row and any(c.strip() for c in row)]
    if not rows:
        raise ValueError(f"{path.name}: file is empty")
    header = [c.strip() for c in rows[0]]
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
        # the column name save_dataset emits, so saved files round-trip
        count_column = next((c for c in header if c.lower() == "defect_count"), None)

    # Columns the sidecar assigns a role stay excluded from the measure set
    # even when an explicit argument points the role elsewhere.
    role_columns = {
        label_column,
        count_column,
        id_column,
        roles.get("label"),
        roles.get("count"),
        roles.get("id"),
    } - {None}
    if wanted_measures is not None:
        missing = [m for m in wanted_measures if m not in header]
        if missing:
            raise ValueError(f"{path.name}: sidecar measures not in header: {missing}")
        measure_columns = [c for c in header if c in set(wanted_measures)]
    else:
        measure_columns = [c for c in header if c not in role_columns]

    col_index = {c: i for i, c in enumerate(header)}
    # A measure column must contain at least one numeric cell; otherwise the
    # file likely has a text column that needs a sidecar role.
    for name in measure_columns:
        i = col_index[name]
        cells = [row[i] for row in data_rows if len(row) == len(header)]
        if not any(_parse_finite(c) is not None for c in cells):
            raise ValueError(f"{path.name}: non-numeric measure column {name!r}")

    rejected_rows = []

    def reject(file_row: int, reason: str) -> None:
        rejected_rows.append(file_row)
        warnings.warn(
            f"{path.name}: row {file_row}: {reason}; row rejected",
            DataQualityWarning,
            stacklevel=3,
        )

    ids, labels, counts = [], [], []
    columns = [[] for _ in measure_columns]
    for ordinal, row in enumerate(data_rows, start=1):
        file_row = ordinal + 1  # header occupies row 1
        if len(row) != len(header):
            reject(file_row, f"expected {len(header)} fields, got {len(row)}")
            continue

        defective = _parse_bool(row[col_index[label_column]])
        if defective is None:
            reject(file_row, f"unparseable label {row[col_index[label_column]]!r}")
            continue

        values = []
        bad_cell = None
        for name in measure_columns:
            value = _parse_finite(row[col_index[name]])
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
            raw = _parse_finite(row[col_index[count_column]])
            if raw is None or raw < 0 or abs(raw - round(raw)) > 1e-9:
                reject(file_row, f"defect count {row[col_index[count_column]]!r} is not a non-negative integer")
                continue
            defect_count = int(round(raw))
            if (defect_count > 0) != defective:
                reject(file_row, f"defect count {defect_count} contradicts label")
                continue
            counts.append(defect_count)

        ids.append(row[col_index[id_column]].strip() if id_column else str(ordinal))
        labels.append(defective)
        for column, value in zip(columns, values):
            column.append(value)

    if not ids:
        raise ValueError(f"{path.name}: empty dataset after filtering")
    del rows, data_rows  # free the raw cells before the id check
    _check_unique_ids(path.name, ids, rejected_rows)
    return Dataset(
        ids=ids,
        labels=labels,
        measures=dict(zip(measure_columns, columns)),
        defect_counts=counts if count_column is not None else None,
    )


def _check_unique_ids(filename: str, ids, rejected_rows) -> None:
    # Sorted 64-bit string hashes find the common case, no repeated id, in
    # a fraction of the memory a set of 100k ids takes; a repeated hash is
    # then resolved exactly.
    hashes = np.sort(np.fromiter(map(hash, ids), dtype=np.int64, count=len(ids)))
    if not np.any(hashes[1:] == hashes[:-1]):
        return
    first: dict[str, int] = {}
    for k, module_id in enumerate(ids):
        j = first.setdefault(module_id, k)
        if j != k:
            a, b = (_file_row(i, rejected_rows) for i in (j, k))
            raise ValueError(f"{filename}: duplicate module id {module_id!r} in rows {a} and {b}")


def _file_row(k: int, rejected_rows) -> int:
    """File row of the k-th accepted data row, given the rejected rows in file order."""
    row = k + 2  # header occupies row 1
    for rejected in rejected_rows:
        if rejected <= row:
            row += 1
    return row


def save_dataset(d: Dataset, path) -> None:
    """Write a Dataset back to CSV so that load_dataset reproduces it exactly.

    Floats are written in their shortest round-trip form. The defect count
    column is written only when the dataset carries counts.
    """
    path = Path(path)
    with_counts = d.defect_counts is not None
    header = ["id", *d.schema, "Defective"] + (["defect_count"] if with_counts else [])
    columns = [d.ids, *(d.measures[name].tolist() for name in d.schema)]
    columns.append(["Y" if defective else "N" for defective in d.labels.tolist()])
    if with_counts:
        columns.append(d.defect_counts.astype(int).tolist())
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*columns))
