"""Two-sample dataset model, missingness contract, and the CSV codec.

The combined dataset holds one row per unit with a sample label: "E"
rows (experimental) observe (a, s, w, x) and mask (y, z); "O" rows
(observational) observe (y, z, s, w, x) and mask a. Masked entries are
stored as NaN internally and as "NA" (or an empty cell) in CSV form.
Rows whose missingness departs from this pattern are rejected, never
imputed, because every estimator formula downstream assumes exactly
this pattern.

One reader and one writer hold the CSV format for both files: the
combined file, with a g column of sample labels, and the unmasked
experimental file, without one. Files are UTF-8 text. The reader opens a
file once and parses its data lines in bulk with ``np.loadtxt``: in one
pass, or, for a file of at least two 4 MiB chunks cut just after LFs,
one pass per chunk over ``_fork.ordered_map``, whose forked workers read
their chunks through the open file. Only where a bulk pass and the row
reader could differ, which includes every file with a bad cell, does it
read the whole file again row by row. Data rows are numbered from 1
after the header; parse errors, bytes that are not UTF-8, unknown labels
and masking or finiteness violations name the first offending row by
that number. The writer quotes with ``csv.writer`` only the header and
the two sample labels; data rows are joined from their formatted cells,
chunks of them formatted over ``_fork.ordered_map`` and written in order.
"""

from __future__ import annotations

import csv
import io
import math
import os
import warnings
from array import array
from dataclasses import dataclass, fields
from functools import partial
from pathlib import Path

import numpy as np

from ._fork import ordered_map
from ._records import Record
from .errors import (
    ParseError,
    RoleUnavailableError,
    SchemaViolationError,
    ValidationError,
)

MISSING_TOKEN = "NA"
# Rows per block when the writer formats columns. Small blocks keep the
# strings of a block from leaving megabytes of freed heap behind.
_BLOCK_ROWS = 512
# Rows per writer chunk and bytes per reader chunk, the items that
# ``_fork.ordered_map`` hands to workers: a few MiB of text each.
_CHUNK_ROWS = 32 * _BLOCK_ROWS
_SPLIT_BYTES = 4 << 20
# Numeric roles in CSV column order; the g column follows "a".
_ROLES = ("y", "a", "w", "z", "s", "x")


@dataclass(frozen=True)
class CombinedDataset:
    """Column-oriented two-sample dataset; immutable after construction."""

    y: np.ndarray  # (n,), NaN on E rows
    w: np.ndarray  # (n, dim_w)
    z: np.ndarray  # (n, dim_z), NaN on E rows
    s: np.ndarray  # (n, dim_s)
    a: np.ndarray  # (n,), NaN on O rows
    x: np.ndarray  # (n, dim_x)
    is_e: np.ndarray  # (n,), bool

    @property
    def n(self) -> int:
        return self.is_e.shape[0]

    @property
    def n_e(self) -> int:
        return int(self.is_e.sum())

    @property
    def n_o(self) -> int:
        return self.n - self.n_e

    @classmethod
    def from_arrays(cls, y, w, z, s, a, x, is_e) -> "CombinedDataset":
        y = np.asarray(y, dtype=float).reshape(-1)
        a = np.asarray(a, dtype=float).reshape(-1)
        is_e = np.asarray(is_e, dtype=bool).reshape(-1)
        n = is_e.shape[0]
        w = _as_2d(w, n, "w")
        z = _as_2d(z, n, "z")
        s = _as_2d(s, n, "s")
        x = _as_2d(x, n, "x")
        if y.shape[0] != n or a.shape[0] != n:
            raise ValidationError("column lengths disagree")
        ds = cls(y=y, w=w, z=z, s=s, a=a, x=x, is_e=is_e)
        ds._validate()
        for arr in (y, w, z, s, a, x, is_e):
            arr.setflags(write=False)
        return ds

    @classmethod
    def masked(cls, y, w, z, s, a, x, is_e) -> "CombinedDataset":
        """A dataset from fully observed columns: y and z masked on E rows, a on O rows."""
        return cls.from_arrays(
            y=np.where(is_e, np.nan, y), w=w, z=np.where(is_e[:, None], np.nan, z), s=s,
            a=np.where(is_e, a, np.nan), x=x, is_e=is_e,
        )

    def _validate(self) -> None:
        if self.n_e < 1 or self.n_o < 1:
            raise ValidationError(
                f"both samples must be nonempty (n_e={self.n_e}, n_o={self.n_o})"
            )
        e, o = self.is_e, ~self.is_e
        ez, oz = e[:, None], o[:, None]  # broadcast over the columns of z
        _reject_first(e & np.isfinite(self.y), SchemaViolationError, "y present on an E row")
        _reject_first(ez & np.isfinite(self.z), SchemaViolationError, "z present on an E row")
        _reject_first(o & np.isfinite(self.a), SchemaViolationError, "a present on an O row")
        _reject_first(o & ~np.isfinite(self.y), SchemaViolationError, "y missing on an O row")
        _reject_first(oz & ~np.isfinite(self.z), SchemaViolationError, "z missing on an O row")
        _reject_first(e & ~np.isfinite(self.a), SchemaViolationError, "a missing on an E row")
        for name in ("w", "s", "x"):
            _reject_first(
                ~np.isfinite(getattr(self, name)), SchemaViolationError,
                f"{name} must be present and finite on every row",
            )
        _reject_first(
            e & ~np.isin(self.a, (0.0, 1.0)), ValidationError, "treatment must be binary 0/1"
        )


def _reject_first(bad: np.ndarray, error: type[ValidationError], message: str) -> None:
    """Raise ``error`` naming the first 1-based data row where a cell of ``bad`` is set."""
    rows = np.nonzero(bad)[0]  # row indices in row-major order, so rows[0] is the first
    if rows.size:
        raise error(f"row {rows[0] + 1}: {message}")


# Roles observable per sample label (Table-1 masking pattern).
_SAMPLE_ROLES = {
    "E": ("w", "s", "x", "a"),
    "O": ("w", "s", "x", "z", "y"),
}
# Roles that one sample masks; in a combined file their cells may be NA.
_MASKED_ROLES = tuple(r for r in _ROLES if not all(r in obs for obs in _SAMPLE_ROLES.values()))


@dataclass(frozen=True)
class SampleView:
    """Read-only row projection of one sample of a dataset."""

    data: CombinedDataset
    indices: np.ndarray  # sorted positions into data rows
    sample: str  # "E" or "O"

    @property
    def n(self) -> int:
        return self.indices.shape[0]

    def role_matrix(self, role: str) -> np.ndarray:
        if role not in _SAMPLE_ROLES[self.sample]:
            raise RoleUnavailableError(f"role {role!r} unavailable on {self.sample} rows")
        if role in ("a", "y"):
            return getattr(self.data, role)[self.indices].reshape(-1, 1)
        return getattr(self.data, role)[self.indices]

    @property
    def a(self) -> np.ndarray:
        return self.role_matrix("a")[:, 0]

    @property
    def y(self) -> np.ndarray:
        return self.role_matrix("y")[:, 0]


def split_by_sample(data: CombinedDataset) -> tuple[SampleView, SampleView]:
    """Partition into (experimental view, observational view)."""
    idx = np.arange(data.n)
    return (
        SampleView(data, idx[data.is_e], "E"),
        SampleView(data, idx[~data.is_e], "O"),
    )


@dataclass(frozen=True)
class FullyObservedSample:
    """An experimental sample before any masking: all roles observed.

    This is the input to the surrogacy diagnostics, which need (y, a)
    jointly; ``gen-data --unmasked`` writes one.
    """

    y: np.ndarray
    a: np.ndarray
    s: np.ndarray
    x: np.ndarray
    w: np.ndarray
    z: np.ndarray

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @classmethod
    def from_arrays(cls, y, a, s, x, w, z) -> "FullyObservedSample":
        y = np.asarray(y, dtype=float).reshape(-1)
        a = np.asarray(a, dtype=float).reshape(-1)
        n = y.shape[0]
        s = _as_2d(s, n, "s")
        x = _as_2d(x, n, "x")
        w = _as_2d(w, n, "w")
        z = _as_2d(z, n, "z")
        if a.shape[0] != n:
            raise ValidationError("column lengths disagree")
        for name, arr in (("y", y), ("a", a), ("s", s), ("x", x), ("w", w), ("z", z)):
            _reject_first(
                ~np.isfinite(arr), ValidationError,
                f"{name} must be finite everywhere in an unmasked sample",
            )
        _reject_first(~np.isin(a, (0.0, 1.0)), ValidationError, "treatment must be binary 0/1")
        return cls(y=y, a=a, s=s, x=x, w=w, z=z)


def _as_2d(arr, n: int, name: str) -> np.ndarray:
    out = np.asarray(arr, dtype=float)
    if out.ndim == 1:
        out = out.reshape(-1, 1)
    if out.ndim != 2 or out.shape[0] != n:
        raise ValidationError(f"{name} must have {n} rows")
    return out


@dataclass(frozen=True)
class CsvSchema(Record):
    """Column-role mapping for CSV files.

    Multi-column roles take either an explicit tuple of column names or
    a single string prefix, which claims the columns named prefix or
    prefix + ASCII digits (w, w1, w2, ...) in header order, so files stay
    loadable after column reordering; claiming none of the columns that
    start with it is an error. Every name and label must encode as UTF-8,
    the files' encoding, and may not start or end with whitespace, which
    the reader strips from header cells and labels.
    """

    y: str = "y"
    a: str = "a"
    g: str = "g"
    w: tuple[str, ...] | str = "w"
    z: tuple[str, ...] | str = "z"
    s: tuple[str, ...] | str = "s"
    x: tuple[str, ...] | str = "x"
    e_label: str = "E"
    o_label: str = "O"

    def __post_init__(self):
        if self.e_label == self.o_label:
            raise ValidationError("e_label and o_label must differ")
        for f in fields(self):
            value = getattr(self, f.name)
            for name in (value,) if isinstance(value, str) else value:
                try:
                    name.encode("utf-8")
                except UnicodeEncodeError:
                    raise ValidationError(
                        f"{f.name}: {name!r} cannot be written as UTF-8") from None
                if name != name.strip():
                    raise ValidationError(f"{f.name}: {name!r} starts or ends with whitespace, "
                                          "which the CSV reader strips")

    def columns_for(self, role: str, header: list[str]) -> list[str]:
        decl = getattr(self, role)
        if isinstance(decl, str):
            near = [h for h in header if h.startswith(decl)]
            cols = [h for h in near if not h[len(decl):].strip("0123456789")]
            if not cols and near:
                raise ValidationError(f"prefix {decl!r} claims only {decl!r} + digits; list {near} "
                                      f"explicitly in the schema for role {role!r}")
            if not cols and role != "x":
                raise ValidationError(f"no header column matches prefix {decl!r} for role {role!r}")
            return cols
        missing = [c for c in decl if c not in header]
        if missing:
            raise ValidationError(f"schema columns {missing} for role {role!r} not in header")
        return list(decl)


def _resolve_columns(schema: CsvSchema, header: list[str], *, with_g: bool) -> dict[str, list[str]]:
    if not with_g and schema.g in header:
        raise ValidationError(f"column {schema.g!r} holds sample labels: this is a combined "
                              "two-sample CSV, which `estimate` reads, not an unmasked sample")
    scalar_roles = ["y", "a"] + (["g"] if with_g else [])
    out: dict[str, list[str]] = {}
    for role in scalar_roles:
        col = getattr(schema, role)
        if col not in header:
            raise ValidationError(f"column {col!r} for role {role!r} not in header")
        out[role] = [col]
    for role in ("w", "z", "s", "x"):
        out[role] = schema.columns_for(role, header)
    claimed: dict[str, str] = {}
    for role, cols in out.items():
        for c in cols:
            if c in claimed:
                raise ValidationError(
                    f"column {c!r} mapped to both roles {claimed[c]!r} and {role!r}"
                )
            claimed[c] = role
    return out


def _parse_cell(raw: str, row_idx: int, col: str) -> float:
    text = raw.strip()
    if text == "" or text == MISSING_TOKEN:
        return float("nan")
    try:
        value = float(text)
    except ValueError:
        raise ParseError(row_idx, f"column {col!r}: cannot parse {raw!r} as a number")
    if not math.isfinite(value):
        raise ParseError(row_idx, f"column {col!r}: non-finite value {raw!r}")
    return value


def _read_table(path: str | Path, schema: CsvSchema, *, with_g: bool) -> dict[str, np.ndarray]:
    """Read a CSV into one array per role (plus ``is_e`` with g).

    ``np.loadtxt`` parses the data rows in bulk: in one pass, or, for a
    file of at least two ``_SPLIT_BYTES`` chunks, one pass per chunk over
    ``_fork.ordered_map``. Where its result could differ from the
    row-wise reader's, the row-wise reader reads the rows again from the
    header, so each error names its first offending row.
    """
    path = Path(path)
    try:
        fh = path.open(encoding="utf-8", errors="surrogateescape", newline="")
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}")
    with fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise ValidationError(f"{path}: empty file")
        except csv.Error as exc:
            raise ValidationError(f"{path}: header: {exc}")
        if bad := _undecodable(header):
            raise ValidationError(f"{path}: header: {bad}")
        cols = _resolve_columns(schema, header, with_g=with_g)
        parse = partial(_parse_bulk, header=header, cols=cols, schema=schema, with_g=with_g)
        if spans := _spans(fh.fileno()):
            tables = _parse_spans(fh.fileno(), spans, parse, len(header))
        else:
            tables = [parse(fh)]
        if tables[0] is None:
            fh.seek(0)
            reader = csv.reader(fh)
            next(reader)
            tables = [_parse_rows(reader, header, cols, schema, with_g=with_g)]
    if not sum(map(len, tables)):
        raise ValidationError(f"{path}: no data rows")
    out = {role: _gather(tables, [header.index(c) for c in cols[role]]) for role in _ROLES}
    if with_g:
        out["is_e"] = _gather(tables, [header.index(schema.g)])[:, 0] == 1.0
    return out


def _spans(fd: int) -> list[tuple[int, int]]:
    """Byte ranges of the data lines of the file open as ``fd``, about
    ``_SPLIT_BYTES`` each and cut just after an LF, or [] if the file is
    not split: it holds fewer than two chunks of data, or its first line
    does not end in LF or holds a quote or another CR, so that line need
    not be the header ``csv.reader`` read."""
    size = os.fstat(fd).st_size
    if size < 2 * _SPLIT_BYTES:
        return []
    start = _after_lf(fd, 0, _SPLIT_BYTES)
    first = os.pread(fd, start, 0)
    body = first[:-2] if first.endswith(b"\r\n") else first[:-1]
    if (size - start < 2 * _SPLIT_BYTES or not first.endswith(b"\n")
            or b'"' in body or b"\r" in body):
        return []
    cuts = [start]
    while cuts[-1] + 2 * _SPLIT_BYTES <= size:
        cuts.append(_after_lf(fd, cuts[-1] + _SPLIT_BYTES, size))
    if cuts[-1] < size:
        cuts.append(size)
    return list(zip(cuts, cuts[1:]))


def _after_lf(fd: int, pos: int, size: int) -> int:
    """The offset just after the first LF at or after ``pos``, else ``size``."""
    while pos < size and (window := os.pread(fd, 1 << 16, pos)):
        if (lf := window.find(b"\n")) >= 0:
            return pos + lf + 1
        pos += len(window)
    return size


def _parse_spans(fd: int, spans: list[tuple[int, int]], parse, width: int) -> list:
    """One table per span from ``parse``, or [None] once it doubts a span."""
    tables = []
    with ordered_map(partial(_parse_span, fd, parse), spans) as parts:
        for part in parts:
            if not part:
                return [None]
            tables.append(np.frombuffer(part).reshape(-1, width))
    return tables


def _parse_span(fd: int, parse, span: tuple[int, int]):
    """The table of the lines in byte range ``span`` of the file open as
    ``fd``, as bytes; empty where ``parse`` doubts them or the range is no
    longer there. The range is decoded as the reader decodes the whole
    file, a few KiB at a time, and a cut after an LF splits no line and
    no UTF-8 sequence."""
    start, end = span
    raw = os.pread(fd, end - start, start)
    if len(raw) != end - start:
        return b""
    table = parse(io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8", errors="surrogateescape",
                                   newline=""))
    return b"" if table is None else memoryview(table)


def _gather(tables: list[np.ndarray], idx: list[int]) -> np.ndarray:
    """Columns ``idx`` of ``tables`` stacked by row, with no copy of a whole table."""
    out = np.empty((sum(map(len, tables)), len(idx)))
    lo = 0
    for table in tables:
        out[lo:lo + len(table)] = table[:, idx]
        lo += len(table)
    return out


def _parse_bulk(fh, header: list[str], cols: dict[str, list[str]], schema: CsvSchema,
                *, with_g: bool) -> np.ndarray | None:
    """Parse the data lines left in ``fh`` in one ``np.loadtxt`` pass.

    ``fh``, opened with ``newline=""``, splits lines at CR, LF and CRLF,
    as ``csv.reader`` does. A filter counts the lines and stops at the
    first one the two readers could split differently: a bare line end
    (``np.loadtxt`` skips it, the row reader rejects it), a quote, a NUL
    or more than ``csv.field_size_limit()`` characters, or a byte that
    is not UTF-8, which the row reader rejects even in a column no role
    claims. Returns a table
    shaped like the file, as ``_parse_rows`` would, or None wherever the
    two could differ: a stopped line, no data line, a cell ``np.loadtxt``
    or a converter rejects, a shape other than (lines, header width), or
    a non-finite value in a column that may not hold NA. Python's
    ``float`` accepts forms that ``np.loadtxt`` rejects, such as ``1_0``
    in a column without NA or a padded ``" NA "``; such a file is read
    row by row, correctly but slowly.
    """
    labels = {schema.e_label: 1.0, schema.o_label: 0.0} if with_g else {}
    masked = _MASKED_ROLES if with_g else ()
    role_of = {header.index(c): role for role in _ROLES for c in cols[role]}
    converters = {i: _unclaimed for i in range(len(header)) if i not in role_of}
    converters.update({i: _masked_cell for i, role in role_of.items() if role in masked})
    if with_g:
        converters[header.index(schema.g)] = labels.__getitem__
    limit = csv.field_size_limit()
    n_lines = 0

    def plain_lines():
        nonlocal n_lines
        for line in fh:
            if (line in ("\n", "\r\n", "\r") or '"' in line or "\0" in line or len(line) > limit
                    or not line.isascii() and _undecodable([line])):
                n_lines = -1  # stopped: no table can match
                return
            n_lines += 1
            yield line

    try:
        with warnings.catch_warnings():  # no data lines: the count below decides
            warnings.simplefilter("ignore", UserWarning)
            table = np.loadtxt(plain_lines(), dtype=float, delimiter=",", comments=None,
                               quotechar=None, converters=converters, ndmin=2, encoding=None)
    except ValueError:  # numpy wraps converter errors in ValueError too
        return None
    strict = [i for i, role in role_of.items() if role not in masked]
    if n_lines < 1 or table.shape != (n_lines, len(header)) or not all(
        np.isfinite(table[:, i]).all() for i in strict
    ):
        return None
    return table


def _masked_cell(cell: str) -> float:
    """Converter for a column that may hold NA: NA or empty is NaN, else a finite float."""
    if cell == MISSING_TOKEN or cell == "":
        return math.nan
    value = float(cell)
    if value - value != 0.0:  # inf or nan
        raise ValueError(f"non-finite value {cell!r}")
    return value


def _unclaimed(cell: str) -> float:
    """Converter for a column no role claims: its content is never read."""
    return 0.0


def _undecodable(cells: list[str]) -> str | None:
    """Describe the first cell holding a byte that is not UTF-8, or None.

    The reader decodes with ``surrogateescape``, which turns each such
    byte into a lone surrogate instead of failing on the read chunk that
    holds it, so the error can name the row.
    """
    for cell in cells:
        if not cell.isascii() and any("\udc80" <= c <= "\udcff" for c in cell):
            return f"not UTF-8 text: {cell.encode(errors='surrogateescape')!r}"
    return None


def _parse_rows(reader, header: list[str], cols: dict[str, list[str]], schema: CsvSchema,
                *, with_g: bool) -> np.ndarray:
    """Parse the data rows one by one; raise on the first bad row.

    Returns a table shaped like the file: claimed cells parsed, g as 1.0
    for E and 0.0 for O, unclaimed cells 0.0.
    """
    # Cells are parsed in role order, so the first bad cell of a row is
    # the one reported.
    numeric = [(header.index(c), c) for role in _ROLES for c in cols[role]]
    g_pos = header.index(schema.g) if with_g else None
    values = array("d")
    row_idx = 0
    try:
        for row_idx, row in enumerate(reader, start=1):
            if len(row) != len(header):
                raise ParseError(row_idx, f"expected {len(header)} cells, got {len(row)}")
            if bad := _undecodable(row):
                raise ParseError(row_idx, bad)
            cells = [0.0] * len(header)
            if with_g:
                label = row[g_pos].strip()
                if label not in (schema.e_label, schema.o_label):
                    raise SchemaViolationError(
                        f"row {row_idx}: sample label {label!r} is neither "
                        f"{schema.e_label!r} nor {schema.o_label!r}"
                    )
                cells[g_pos] = float(label == schema.e_label)
            for i, c in numeric:
                cells[i] = _parse_cell(row[i], row_idx, c)
            values.extend(cells)
    except csv.Error as exc:  # raised while reading the row after row_idx
        raise ParseError(row_idx + 1, str(exc))
    return np.frombuffer(values, dtype=float).reshape(-1, len(header))


def _write_table(data, path: str | Path, schema: CsvSchema, *, with_g: bool) -> None:
    """Write the six roles of ``data`` (and its g labels) as one UTF-8 CSV.

    ``csv.writer`` writes the header. The rows are formatted in chunks of
    ``_CHUNK_ROWS`` over ``_fork.ordered_map`` and written in order.
    """
    header, columns = [], []
    for role in _ROLES:
        arr = getattr(data, role)
        if arr.ndim == 1:
            header.append(getattr(schema, role))
            columns.append(arr)
        else:
            header += _column_names(getattr(schema, role), arr.shape[1])
            columns += list(arr.T)
        if role == "a" and with_g:
            header.append(schema.g)
            columns.append(data.is_e)
    labels = (_quoted(schema.o_label), _quoted(schema.e_label))
    chunks = range(0, data.n, _CHUNK_ROWS)
    with ordered_map(partial(_format_rows, columns, labels), chunks) as formatted:
        try:
            with Path(path).open("wb") as fh:
                fh.write(_csv_line(header).encode())
                for rows in formatted:
                    fh.write(rows)
        except OSError as exc:
            raise ValidationError(f"cannot write {path}: {exc}")


def _format_rows(columns: list[np.ndarray], labels: tuple[str, str], lo: int) -> bytearray:
    """Rows ``lo`` to ``lo + _CHUNK_ROWS`` as UTF-8 lines.

    Cells are formatted a block of rows at a time, so no column is ever
    held as a whole list of strings, and each block's rows are joined
    directly: a number's ``repr`` and NA never need quotes, and each
    label is quoted once, as ``csv.writer`` would quote it in a data row.
    """
    out = bytearray()
    for b in range(lo, min(lo + _CHUNK_ROWS, len(columns[0])), _BLOCK_ROWS):
        block = [_cells(col[b:b + _BLOCK_ROWS], labels) for col in columns]
        out += ("\r\n".join(map(",".join, zip(*block))) + "\r\n").encode()
    return out


def _csv_line(cells: list[str]) -> str:
    """``cells`` as the line ``csv.writer`` writes for them."""
    buf = io.StringIO(newline="")
    csv.writer(buf).writerow(cells)
    return buf.getvalue()


def _quoted(label: str) -> str:
    """``label`` as ``csv.writer`` writes it in a row of two or more cells."""
    return _csv_line([label, ""])[:-len(",\r\n")]


def _cells(col: np.ndarray, labels: tuple[str, str]) -> list[str]:
    """Format a block of one column: g as its labels, numbers as ``repr``, NA if not finite."""
    if col.dtype == bool:
        return [labels[e] for e in col.tolist()]
    cells = list(map(repr, col.tolist()))
    for i in np.flatnonzero(~np.isfinite(col)).tolist():
        cells[i] = MISSING_TOKEN
    return cells


def load_csv(path: str | Path, schema: CsvSchema) -> CombinedDataset:
    """Read a combined two-sample CSV.

    The g column must hold exactly the two configured labels. Masked
    fields must be "NA" or empty; any other missingness pattern is a
    schema violation carrying the row index.
    """
    return CombinedDataset.from_arrays(**_read_table(path, schema, with_g=True))


def load_unmasked_csv(path: str | Path, schema: CsvSchema) -> FullyObservedSample:
    """Read a fully observed experimental CSV (all roles present, no g)."""
    return FullyObservedSample.from_arrays(**_read_table(path, schema, with_g=False))


def write_csv(data: CombinedDataset, path: str | Path, schema: CsvSchema) -> None:
    """Write a dataset in the load_csv format (absent fields as NA)."""
    _write_table(data, path, schema, with_g=True)


def write_unmasked_csv(sample: FullyObservedSample, path: str | Path, schema: CsvSchema) -> None:
    """Write a fully observed experimental sample (no g column)."""
    _write_table(sample, path, schema, with_g=False)


def _column_names(decl: tuple[str, ...] | str, dim: int) -> list[str]:
    if isinstance(decl, str):
        return [f"{decl}{j + 1}" for j in range(dim)]
    if len(decl) != dim:
        raise ValidationError(f"schema lists {len(decl)} columns but data has {dim}")
    return list(decl)
