"""Defect dataset loading and validation (NASA-collection CSV layout).

A dataset is a CSV file with a header row, one row per software module:
numeric code measures (LOC, cyclomatic complexity, ...), a boolean
defectiveness label, and optionally a defect count. Rows with malformed
cells are rejected individually with a diagnostic; the rest of the file
still loads.
"""

from __future__ import annotations

import contextlib
import copy
import csv
import functools
import itertools
import json
import math
import threading
import warnings
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType

import numpy as np

TRUE_SPELLINGS = {"y", "yes", "true", "1"}
FALSE_SPELLINGS = {"n", "no", "false", "0"}
_LABEL_CODES = {**dict.fromkeys(TRUE_SPELLINGS, 1), **dict.fromkeys(FALSE_SPELLINGS, 0)}

# Lines per block of load_dataset's stream: one block's lines, and its cells,
# are all it holds of the file at any time.
_BLOCK_ROWS = 4096

# How far a defect count cell may lie from a whole number and still be read
# as that number.
_COUNT_TOL = 1e-9

# The most effort drivers whose parts one Dataset's memo keeps: past it the
# oldest driver's are dropped, so a sweep over many composite weights keeps
# at most this many drivers' arrays alive.
_MEMO_DRIVERS = 16
# Guards each memo's check-and-insert; builds run outside it.
_MEMO_LOCK = threading.Lock()


class DataQualityWarning(UserWarning):
    """A row was rejected or specially handled while processing a dataset."""


class DuplicateIdError(ValueError):
    """Two modules of a Dataset share an id; first and second are their
    0-based module positions."""

    def __init__(self, module_id: str, first: int, second: int):
        super().__init__(f"duplicate module id {module_id!r} at positions {first} and {second}")
        self.module_id, self.first, self.second = module_id, first, second


@dataclass(frozen=True, eq=False)
class Dataset:
    """Immutable ordered collection of modules, stored column by column.

    ids is a tuple of module ids; labels (bool), the optional defect_counts
    (float; None when the data carries no counts) and one float column per
    measure, keyed by name in schema order, are read-only 1-D arrays of one
    length. Module order is preserved verbatim from the source file; it is
    the final tie-breaking key for every ranking, so it must never be
    shuffled. The constructor is the one place the columns are checked: at
    least one module, unique str ids (a repeat raises DuplicateIdError), equal
    lengths, finite non-negative measures and defect counts, and a positive
    count, whole or not, exactly on the modules labelled defective. An array
    passed in that is already read-only and owns its data is shared, not
    copied; with_measure hands every existing column on to the new dataset
    and checks only the one it adds.

    A dataset also keeps a private memo of what its evaluation under an
    effort driver needs whatever the scores (see _driver_memo); the new
    dataset of with_measure or dataclasses.replace starts with an empty one.
    """

    ids: tuple[str, ...]
    labels: np.ndarray
    measures: Mapping[str, np.ndarray]
    defect_counts: np.ndarray | None = None
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        ids = tuple(self.ids)
        n = len(ids)
        if n == 0:
            raise ValueError("dataset must contain at least one module")
        if not all(map(isinstance, ids, itertools.repeat(str))):
            k = next(k for k, module_id in enumerate(ids) if not isinstance(module_id, str))
            raise ValueError(f"module id {ids[k]!r} at position {k} is not a str")
        _check_unique(ids)
        measures = {name: _checked_column(f"measure {name!r}", values, ids)
                    for name, values in self.measures.items()}
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "labels", _read_only(self.labels, bool, n, "labels"))
        object.__setattr__(self, "measures", MappingProxyType(measures))
        if self.defect_counts is not None:
            counts = _checked_column("defect count", self.defect_counts, ids)
            bad = np.flatnonzero((counts > 0) != self.labels)
            if bad.size:
                k = bad[0]
                raise ValueError(f"module {ids[k]!r}: defect count {counts[k]} contradicts the module's label")
            object.__setattr__(self, "defect_counts", counts)

    @property
    def schema(self) -> tuple[str, ...]:
        return tuple(self.measures)

    @property
    def n(self) -> int:
        return len(self.ids)

    @functools.cached_property
    def num_defective(self) -> int:
        """Counted once: the labels are read-only."""
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
            raise _unknown_measure(name, self.schema)
        return self.measures[name]

    def with_measure(self, name: str, values) -> "Dataset":
        """A new Dataset with an extra measure column appended.

        Only the new column is checked: the new dataset shares every other
        field with this one, which its constructor checked.
        """
        if name in self.measures:
            raise ValueError(f"measure {name!r} already present")
        extended = copy.copy(self)
        measures = {**self.measures, name: _checked_column(f"measure {name!r}", values, self.ids)}
        object.__setattr__(extended, "measures", MappingProxyType(measures))
        object.__setattr__(extended, "_memo", {})
        return extended

    def _driver_memo(self, driver, part: str | tuple, build):
        """A part of this dataset's evaluation under an effort driver that
        does not depend on the scores: build() on the first request, the
        stored result on every later one.

        The memo keeps the parts of at most _MEMO_DRIVERS drivers and drops
        the oldest driver's first. A build that raises stores nothing, so
        the request raises again next time.
        """
        parts = self._memo.get(driver)
        if parts is not None and part in parts:
            return parts[part]
        value = build()
        with _MEMO_LOCK:
            parts = self._memo.get(driver)  # a nested build may have added it
            if parts is None:
                if len(self._memo) >= _MEMO_DRIVERS:
                    del self._memo[next(iter(self._memo))]
                parts = self._memo[driver] = {}
            return parts.setdefault(part, value)


def _unknown_measure(name: str, available) -> ValueError:
    """The error for a measure name that is not among the available ones."""
    return ValueError(f"unknown measure {name!r}; available: {', '.join(available) or 'none'}")


def _check_unique(ids: tuple[str, ...]) -> None:
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
            raise DuplicateIdError(module_id, j, k)


def _checked_column(what: str, values, ids: tuple[str, ...]) -> np.ndarray:
    """A read-only float column (a measure or the defect counts, as what
    names it), checked finite and non-negative."""
    column = _read_only(values, float, len(ids), what)
    bad = np.flatnonzero(~(np.isfinite(column) & (column >= 0)))
    if bad.size:
        raise ValueError(f"{what} of module {ids[bad[0]]!r} must be finite and non-negative")
    return column


def _read_only(values, dtype, n: int, what: str) -> np.ndarray:
    """values as a read-only array of dtype and shape (n,): the one way the
    value types store an array. A read-only array of that dtype that owns
    its data is shared; anything else, a view included, is copied, so a
    caller's array is never frozen and no other array can write to it."""
    if (isinstance(values, np.ndarray) and values.dtype == dtype
            and not values.flags.writeable and values.base is None):
        column = values
    else:
        column = np.array(values, dtype=dtype)
    if column.shape != (n,):
        raise ValueError(f"expected {n} values for {what}, got shape {column.shape}")
    column.flags.writeable = False
    return column


def _frozen(array: np.ndarray) -> np.ndarray:
    """An array the package has just built, and no one else holds, made
    read-only in place, so that _read_only shares it rather than copying it."""
    array.flags.writeable = False
    return array


def _check_choice(what: str, value: str, choices: tuple[str, ...]) -> None:
    """The one check of a named setting against its allowed values."""
    if value not in choices:
        raise ValueError(f"{what} must be one of {choices}, got {value!r}")


def _float_or_nan(cell: str) -> float:
    try:
        return float(cell)
    except ValueError:
        return math.nan


def _floats(cells) -> np.ndarray:
    """A column of cells parsed with float() in one call. When a cell is one
    float() cannot parse, the column is parsed again cell by cell, and its
    unparseable cells read NaN."""
    try:
        return np.fromiter(map(float, cells), float, count=len(cells))
    except ValueError:
        return np.fromiter(map(_float_or_nan, cells), float, count=len(cells))


def _whole_counts(raw: np.ndarray):
    """raw rounded to whole numbers (-0.0 as 0.0, as int() reads it), and where raw is within _COUNT_TOL of them."""
    counts = np.round(raw) + 0.0
    with np.errstate(invalid="ignore"):  # inf - inf
        return counts, np.abs(raw - counts) <= _COUNT_TOL


def _label_codes(cells) -> np.ndarray:
    """1 for a true spelling, 0 for a false one, -1 for anything else."""
    code = {c: _LABEL_CODES.get(c.strip().lower(), -1) for c in set(cells)}
    return np.fromiter(map(code.__getitem__, cells), np.int8, count=len(cells))


def _blank(row) -> bool:
    return not "".join(row).strip()


def _sidecar_roles(path: Path) -> dict:
    """Optional JSON sidecar (<stem>.schema.json) overriding column roles."""
    sidecar = path.with_suffix(".schema.json")
    if not sidecar.exists():
        return {}
    try:
        roles = json.loads(sidecar.read_text(encoding="utf-8"))
    except ValueError as err:  # bytes that are not UTF-8, or text that is not JSON
        raise ValueError(f"{sidecar.name}: {err}") from None
    if not isinstance(roles, dict):
        raise ValueError(f"{sidecar.name}: expected a JSON object")
    for key, value in roles.items():
        if key not in ("label", "count", "id", "measures"):
            raise ValueError(f"{sidecar.name}: unknown key {key!r}; expected label, count, id or measures")
        if key == "measures":
            if not (isinstance(value, list) and all(isinstance(m, str) for m in value)):
                raise ValueError(f"{sidecar.name}: 'measures' must be a list of column names, got {value!r}")
        elif not isinstance(value, str) or not value:
            raise ValueError(f"{sidecar.name}: {key!r} must be a column name, got {value!r}")
    return roles


@contextlib.contextmanager
def open_csv(path: Path):
    """path opened as CSV text; a byte that is not UTF-8, wherever the
    reading meets it, is a ValueError naming the file, the byte's line and
    its offset in the file."""
    try:
        with path.open(newline="", encoding="utf-8-sig") as fh:
            yield fh
    except UnicodeDecodeError:
        # the stream's error counts from the start of the decoder's chunk;
        # decoding the raw bytes whole counts from the start of the file
        raw = path.read_bytes()
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError as err:
            line = raw.count(b"\n", 0, err.start) + 1
            raise ValueError(f"{path.name}: line {line}: {err}") from None
        raise


def csv_records(lines, name: str, first: int = 1, stop: int | None = None):
    """(record number, cells) for each record csv.reader reads from lines,
    numbering from first; with stop, the last is the record that reaches
    the stop-th line. A csv.Error, such as a field over
    csv.field_size_limit() after a stray quote, becomes a ValueError naming
    the file and the record it is in."""
    reader = csv.reader(lines)
    number = first
    try:
        for cells in reader:
            yield number, cells
            if stop is not None and reader.line_num >= stop:
                return
            number += 1
    except csv.Error as err:
        raise ValueError(f"{name}: row {number}: {err}") from None


def load_dataset(
    path,
    label_column: str | None = None,
    count_column: str | None = None,
    keep: Iterable[str] | None = None,
) -> Dataset:
    """Load a defect dataset from a CSV file.

    Column roles come from the arguments (label and count), then from a
    JSON sidecar named <stem>.schema.json (keys "label", "count", "id",
    "measures"), then from defaults: label column "Defective", a column
    literally named "id" (case insensitive) as the identifier if present,
    and every remaining column as a numeric measure. Blank records (no
    cell with text) are skipped.
    Without an id column, module ids are "1", "2", ... in file order,
    counting the non-blank data records only. One column may hold one role
    only: a column that is two of the label, count and id columns, or one
    of them and a sidecar measure, is an error.

    keep names the measure columns the Dataset stores, in header order; by
    default it stores every one. Every measure column is parsed and checked
    whatever keep names, so the accepted rows, the warnings and the errors
    do not depend on it. The first name in keep that is not a measure
    column is the error Dataset.measure_vector raises for it, raised once
    the file has loaded.

    A "row" in a message is a CSV record number: the first record of the
    file is row 1, and blank records are counted. Module ids must be
    unique: a repeated id is an error naming both rows. Rows with missing,
    non-numeric, negative, or non-finite measure cells, unparseable labels,
    or defect counts that contradict the label are rejected one by one; each
    rejection emits a DataQualityWarning naming the row, in file order, once
    the whole file has been read. A measure column without a single finite
    cell is an error, raised before any warning.

    The file is read as a stream, one block of lines at a time. numpy's C
    reader parses a block of plain lines (no quote) of the header's field
    count whose number cells it can all read. A plain block with a short or
    long row or a number cell numpy cannot read ('', 'NA') is split at its
    commas, and any other is read with csv.reader, which may read past the
    block to finish a quoted cell; both read the numbers with float().
    Both feed the same column checks. A record csv.reader cannot read (a
    stray quote) is an error naming its row.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"dataset file not found: {path}")
    if isinstance(keep, str):
        raise ValueError(f"keep must be a sequence of measure names, got the string {keep!r}")
    keep = None if keep is None else tuple(keep)

    roles = _sidecar_roles(path)
    if label_column is None:
        label_column = roles.get("label", "Defective")
    if count_column is None:
        count_column = roles.get("count")
    id_column = roles.get("id")
    wanted_measures = roles.get("measures")

    with open_csv(path) as fh:
        records = csv_records(fh, path.name)
        for header_row, row in records:
            if not _blank(row):
                header = [c.strip() for c in row]
                break
        else:
            raise ValueError(f"{path.name}: file is empty")
        # The first non-blank data record is read ahead, so that a file
        # without one is reported as such before any header problem.
        lead = []
        for _, row in records:
            lead.append(row)
            if not _blank(row):
                break
        else:
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
        role_of = {}
        for role, name in (("label", label_column), ("count", count_column), ("id", id_column)):
            if name in role_of:
                raise ValueError(f"{path.name}: column {name!r} is both the {role_of[name]} and the {role} column")
            if name is not None:
                role_of[name] = role
        for name in wanted_measures or ():
            if name in role_of:
                raise ValueError(f"{path.name}: column {name!r} is both the {role_of[name]} column and a measure")

        # Columns the sidecar assigns a role stay excluded from the measure set
        # even when an explicit argument points the role elsewhere.
        role_columns = {
            label_column,
            count_column,
            id_column,
            roles.get("label"),
            roles.get("count"),
        } - {None}
        if wanted_measures is not None:
            missing = [m for m in wanted_measures if m not in header]
            if missing:
                raise ValueError(f"{path.name}: sidecar measures not in header: {missing}")
            measure_columns = [c for c in header if c in set(wanted_measures)]
        else:
            measure_columns = [c for c in header if c not in role_columns]

        col_index = {c: i for i, c in enumerate(header)}
        table = _Table(
            width=len(header),
            label_at=col_index[label_column],
            count_at=col_index.get(count_column),
            id_at=col_index.get(id_column),
            measures=[(name, col_index[name]) for name in measure_columns],
            stored=[c for c in measure_columns if keep is None or c in keep],
        )
        table.add(lead, header_row + 1)
        first = header_row + 1 + len(lead)  # row number of a block's first record
        for lines in iter(lambda: list(itertools.islice(fh, _BLOCK_ROWS)), []):
            if table.add_lines(lines, first):
                first += len(lines)
                continue
            records = csv_records(itertools.chain(lines, fh), path.name, first, stop=len(lines))
            block = [row for _, row in records]
            table.add(block, first)
            first += len(block)

    # A measure column must contain at least one finite cell (in a row of the
    # right length); otherwise the file likely has a text column that needs a
    # sidecar role.
    for name, seen in zip(measure_columns, table.seen_finite):
        if not seen:
            raise ValueError(f"{path.name}: non-numeric measure column {name!r}")
    for row_number, reason in table.rejections:
        warnings.warn(
            f"{path.name}: row {row_number}: {reason}; row rejected",
            DataQualityWarning,
            stacklevel=2,
        )
    kept_rows = np.concatenate(table.rows or [np.zeros(0, dtype=int)])
    if not kept_rows.size:
        raise ValueError(f"{path.name}: empty dataset after filtering")
    if table.id_at is None:
        ordinals = kept_rows - header_row - np.searchsorted(table.blank_rows, kept_rows)
        ids = list(map(str, ordinals.tolist()))
    else:
        ids = table.ids
    try:
        d = Dataset(
            ids=ids,
            labels=_column(table.labels),
            measures={name: _column(parts) for name, parts in table.columns.items()},
            defect_counts=None if table.count_at is None else _column(table.counts),
        )
    except DuplicateIdError as err:
        a, b = kept_rows[err.first], kept_rows[err.second]
        raise ValueError(
            f"{path.name}: duplicate module id {err.module_id!r} in rows {a} and {b}"
        ) from None
    for name in keep or ():
        if name not in measure_columns:
            raise _unknown_measure(name, measure_columns)
    return d


class _Table:
    """The columns of a CSV table, accumulated block by block.

    width is the header's length; label_at, count_at and id_at are the
    positions of the role columns (count_at and id_at may be None), and
    measures holds a (name, position) pair per measure column, every one of
    which is checked. The measures and the count are read as numbers, every
    other column as text. Each block's accepted rows extend rows (their row
    numbers), ids, labels, counts and, in columns, one part list per measure
    named in stored; its rejected rows go to rejections as (row number,
    reason), or to blank_rows when they hold no text."""

    def __init__(self, width: int, label_at: int, count_at, id_at, measures, stored) -> None:
        self.width, self.label_at, self.count_at, self.id_at = width, label_at, count_at, id_at
        self.measures = measures
        self.seen_finite = [False] * len(measures)
        self.rows, self.ids, self.labels, self.counts = [], [], [], []
        self.columns = {name: [] for name in stored}
        self.rejections, self.blank_rows = [], []
        # One field per header column, so numpy raises on a line of another
        # field count: float parses a measure or count cell, and object keeps
        # any other cell exactly, NULs and whitespace included.
        self.numbers = {i for _, i in measures} | ({count_at} - {None})
        self.fields = np.dtype([(f"c{i}", float if i in self.numbers else object) for i in range(width)])

    def add(self, block: list, first: int) -> None:
        """Check one block of records read as text (lists of cells); first is the row number of block[0]."""
        full_width = np.array([len(row) == self.width for row in block], dtype=bool)
        full = block if full_width.all() else list(itertools.compress(block, full_width))
        cells = list(zip(*full)) or [()] * self.width
        self._check(first, full_width, lambda i: _floats(cells[i]) if i in self.numbers else cells[i],
                    block.__getitem__)

    def add_lines(self, lines: list, first: int) -> bool:
        """Check one block of raw lines parsed by numpy's C reader, as add does.
        False, having added nothing, if numpy might read it otherwise than
        csv.reader: a quote or NUL, one of the separators \x1c-\x1f (numpy
        strips them around a number, float() does not), a line over csv's
        field size limit or an empty one (numpy skips it).

        For any other block, _cells(line) is the cells csv.reader reads from
        a line. When numpy raises, on a line of another field count or a
        number cell it cannot read as a float ('', 'NA', '1_0'), the block's
        cells go to add, which reads the numbers with float()."""
        text = "".join(lines)
        if any(c in text for c in '"\0\x1c\x1d\x1e\x1f') or max(map(len, lines)) > csv.field_size_limit():
            return False
        if any(ending in lines for ending in ("\n", "\r\n", "\r")):
            return False  # numpy would skip the empty line, and warn if all are
        try:
            table = np.loadtxt(lines, delimiter=",", comments=None, quotechar=None, ndmin=1, dtype=self.fields)
        except ValueError:
            self.add(list(map(_cells, lines)), first)
            return True
        self._check(first, np.ones(len(lines), dtype=bool), lambda i: table[f"c{i}"], lambda k: _cells(lines[k]))
        return True

    def _check(self, first, full_width, column, record) -> None:
        """The row rules of one block, whichever reader parsed it.
        full_width marks the block's records of the header's width; column(i)
        is column i's cells of those records: floats for a number column, NaN
        where float() cannot read one, and text for any other. record(k) is
        the cells of the block's k-th record.

        Each rule pairs the mask of the full-width records that pass it with
        the reason, from the record r and its index j among them, that one
        failing it gets. A rejected record is named by its field count or by
        the first rule it fails."""
        labels = _label_codes(column(self.label_at))
        rules = [(labels >= 0, lambda r, j: f"unparseable label {r[self.label_at]!r}")]
        values = []
        for j, (name, i) in enumerate(self.measures):
            floats = column(i)
            finite = np.isfinite(floats)
            self.seen_finite[j] = self.seen_finite[j] or bool(finite.any())
            rules.append((finite, lambda r, j, m=name, i=i: f"measure {m!r} value {r[i]!r} is not a finite number"))
            rules.append((floats >= 0, lambda r, j, m=name: f"measure {m!r} is negative"))
            if name in self.columns:
                values.append((self.columns[name], floats))
        if self.count_at is not None:
            raw = column(self.count_at)
            counts, whole = _whole_counts(raw)
            rules.append((np.isfinite(raw) & (raw >= 0) & whole,
                          lambda r, j: f"defect count {r[self.count_at]!r} is not a non-negative integer"))
            rules.append(((counts > 0) == (labels == 1),
                          lambda r, j: f"defect count {int(counts[j])} contradicts label"))
        good = np.logical_and.reduce([passed for passed, _ in rules])
        if self.count_at is not None:
            self.counts.append(counts[good])
        accepted = np.zeros(len(full_width), dtype=bool)
        accepted[full_width] = good
        self.rows.append(first + np.flatnonzero(accepted))
        if self.id_at is not None:
            self.ids.extend(map(str.strip, itertools.compress(column(self.id_at), good.tolist())))
        self.labels.append(labels[good] == 1)
        for parts, floats in values:
            parts.append(floats[good])
        for k in np.flatnonzero(~accepted).tolist():
            row = record(k)
            if _blank(row):
                self.blank_rows.append(first + k)
            elif not full_width[k]:
                self.rejections.append((first + k, f"expected {self.width} fields, got {len(row)}"))
            else:
                j = np.count_nonzero(full_width[:k])
                self.rejections.append((first + k, next(why(row, j) for passed, why in rules if not passed[j])))


def _cells(line: str) -> list:
    """The cells csv.reader reads from a line with no quote: the line split at its commas, less its line ending."""
    return line.rstrip("\r\n").split(",")


def _column(parts) -> np.ndarray:
    return _frozen(np.concatenate(parts))


def save_dataset(d: Dataset, path) -> None:
    """Write a Dataset back to CSV so that load_dataset reproduces it exactly.

    Floats are written in their shortest round-trip form. The defect count
    column is written only when the dataset carries counts, each count as
    the whole number load_dataset reads it as. A dataset the loader would
    read back otherwise is a ValueError naming the first column or module
    at fault, before anything is written: a measure name or module id with
    surrounding whitespace (the loader strips both), a measure named like
    the id, label or count column it writes, or a defect count more than
    _COUNT_TOL from a whole number. A count that contradicts its module's
    label cannot reach it: the Dataset constructor rejects it.
    """
    path = Path(path)
    for name in d.schema:
        if name != name.strip():
            raise ValueError(f"measure {name!r}: load_dataset strips the whitespace around a column name")
        if name in ("id", "Defective") or name.lower() == "defect_count":
            raise ValueError(f"measure {name!r}: load_dataset reads this column name as a role, not a measure")
    for module_id in d.ids:
        if module_id != module_id.strip():
            raise ValueError(f"module {module_id!r}: load_dataset strips the whitespace around an id")
    with_counts = d.defect_counts is not None
    header = ["id", *d.schema, "Defective"] + (["defect_count"] if with_counts else [])
    columns = [d.ids, *(d.measures[name].tolist() for name in d.schema)]
    columns.append(["Y" if defective else "N" for defective in d.labels.tolist()])
    if with_counts:
        counts, whole = _whole_counts(d.defect_counts)
        bad = np.flatnonzero(~whole)
        if bad.size:
            k = bad[0]
            raise ValueError(f"module {d.ids[k]!r}: defect count {d.defect_counts[k]} is not a whole number")
        columns.append(counts.astype(int).tolist())
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*columns))
