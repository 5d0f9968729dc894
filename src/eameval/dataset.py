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
from dataclasses import dataclass
from pathlib import Path

import numpy as np

TRUE_SPELLINGS = {"y", "yes", "true", "1"}
FALSE_SPELLINGS = {"n", "no", "false", "0"}


class DataQualityWarning(UserWarning):
    """A row was rejected or specially handled while processing a dataset."""


@dataclass(frozen=True)
class ModuleRecord:
    """One software module: named code measures plus its defect label."""

    id: str
    measures: dict[str, float]
    defective: bool
    defect_count: int | None = None


@dataclass(frozen=True)
class Dataset:
    """Immutable ordered collection of modules with a fixed measure schema.

    Record order is preserved verbatim from the source file; it is the
    final tie-breaking key for every ranking, so it must never be shuffled.
    The label, defect-count and measure columns are built from the records
    once, on first use, as read-only arrays; with_measure hands the columns
    already built on to the new dataset.
    """

    records: tuple[ModuleRecord, ...]
    schema: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.records:
            raise ValueError("dataset must contain at least one module")
        schema = set(self.schema)
        for r in self.records:
            if r.measures.keys() != schema:
                raise ValueError(f"module {r.id!r} does not match the measure schema")
        object.__setattr__(self, "_columns", {})

    def _column(self, key: str, build):
        columns = self._columns
        if key not in columns:
            column = build()
            if column is not None:
                column.flags.writeable = False
            columns[key] = column
        return columns[key]

    @property
    def n(self) -> int:
        return len(self.records)

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

    @property
    def labels(self) -> np.ndarray:
        return self._column(
            "label", lambda: np.array([r.defective for r in self.records], dtype=bool)
        )

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(r.id for r in self.records)

    @property
    def defect_counts(self) -> np.ndarray | None:
        """Per-module defect counts in record order, or None if any are absent."""

        def build():
            counts = [r.defect_count for r in self.records]
            if any(c is None for c in counts):
                return None
            return np.array(counts, dtype=float)

        return self._column("count", build)

    def measure_vector(self, name: str) -> np.ndarray:
        """Values of one measure in record order (a read-only array)."""
        if name not in self.schema:
            available = ", ".join(self.schema)
            raise ValueError(f"unknown measure {name!r}; available: {available}")
        return self._column(
            "measure:" + name,
            lambda: np.array([r.measures[name] for r in self.records], dtype=float),
        )

    def with_measure(self, name: str, values) -> "Dataset":
        """A new Dataset with an extra measure column appended."""
        if name in self.schema:
            raise ValueError(f"measure {name!r} already present")
        values = np.array(values, dtype=float)
        if values.shape != (self.n,):
            raise ValueError(f"expected {self.n} values for measure {name!r}")
        if not np.all(np.isfinite(values)) or np.any(values < 0):
            raise ValueError(f"measure {name!r} must be finite and non-negative")
        records = tuple(
            ModuleRecord(
                id=r.id,
                measures={**r.measures, name: v},
                defective=r.defective,
                defect_count=r.defect_count,
            )
            for r, v in zip(self.records, values.tolist())
        )
        derived = Dataset(records=records, schema=self.schema + (name,))
        values.flags.writeable = False
        derived._columns.update(self._columns)
        derived._columns["measure:" + name] = values
        return derived


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

    records = []
    for ordinal, row in enumerate(data_rows, start=1):
        file_row = ordinal + 1  # header occupies row 1
        if len(row) != len(header):
            reject(file_row, f"expected {len(header)} fields, got {len(row)}")
            continue

        defective = _parse_bool(row[col_index[label_column]])
        if defective is None:
            reject(file_row, f"unparseable label {row[col_index[label_column]]!r}")
            continue

        measures = {}
        bad_cell = None
        for name in measure_columns:
            value = _parse_finite(row[col_index[name]])
            if value is None:
                bad_cell = f"measure {name!r} value {row[col_index[name]]!r} is not a finite number"
                break
            if value < 0:
                bad_cell = f"measure {name!r} is negative"
                break
            measures[name] = value
        if bad_cell:
            reject(file_row, bad_cell)
            continue

        defect_count = None
        if count_column is not None:
            raw = _parse_finite(row[col_index[count_column]])
            if raw is None or raw < 0 or abs(raw - round(raw)) > 1e-9:
                reject(file_row, f"defect count {row[col_index[count_column]]!r} is not a non-negative integer")
                continue
            defect_count = int(round(raw))
            if (defect_count > 0) != defective:
                reject(file_row, f"defect count {defect_count} contradicts label")
                continue

        module_id = row[col_index[id_column]].strip() if id_column else str(ordinal)
        records.append(
            ModuleRecord(
                id=module_id,
                measures=measures,
                defective=defective,
                defect_count=defect_count,
            )
        )

    if not records:
        raise ValueError(f"{path.name}: empty dataset after filtering")
    del rows, data_rows  # free the raw cells before the id check
    _check_unique_ids(path.name, records, rejected_rows)
    return Dataset(records=tuple(records), schema=tuple(measure_columns))


def _check_unique_ids(filename: str, records, rejected_rows) -> None:
    # Sorted 64-bit string hashes find the common case, no repeated id, in
    # a fraction of the memory a set of 100k ids takes; a repeated hash is
    # then resolved exactly.
    hashes = np.sort(np.fromiter((hash(r.id) for r in records), dtype=np.int64, count=len(records)))
    if not np.any(hashes[1:] == hashes[:-1]):
        return
    first: dict[str, int] = {}
    for k, module_id in enumerate(r.id for r in records):
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

    Floats are written with repr (shortest round-trip form). The defect
    count column is written only when every record carries one.
    """
    path = Path(path)
    with_counts = all(r.defect_count is not None for r in d.records)
    header = ["id", *d.schema, "Defective"] + (["defect_count"] if with_counts else [])
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for r in d.records:
            row = [r.id]
            row += [repr(r.measures[name]) for name in d.schema]
            row.append("Y" if r.defective else "N")
            if with_counts:
                row.append(str(r.defect_count))
            writer.writerow(row)


def prevalence(d: Dataset) -> float:
    """Fraction of actually defective modules, in [0, 1]."""
    return d.prevalence
