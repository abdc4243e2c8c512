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
experimental file, without one. Files are UTF-8 text, with or without a
byte-order mark. The reader opens a file once, reads the header with
``csv.reader``, resolves the header position of each role once, and
parses the data lines in bulk with ``np.loadtxt``, one pass per byte
span over ``_fork.ordered_map``, whose forked workers read their spans
through the open file: under two 4 MiB chunks of data, one span; else
spans cut just after line ends, each read once and checked as bytes.
Each span is copied into the role arrays, sized from a count of the
lines, as it arrives. Both parsers read each label and each cell that
may hold NA with one function, padding and all. Only where the two could
differ, which includes every span with a bad cell, does the header's
reader read on row by row, from the first such span. A pipe or FIFO is
copied into a temporary file first, so it too is read in spans.
Data rows are numbered from 1 after the header; parse errors, bytes
that are not UTF-8, unknown labels and masking or finiteness violations
name the first offending row by that number. The writer quotes with
``csv.writer`` only the header and the two sample labels; data rows are
joined from their formatted cells, chunks of them formatted over
``_fork.ordered_map`` and written in order, one chunk held at a time.
"""

from __future__ import annotations

import csv
import io
import math
import os
import re
import shutil
import stat
import tempfile
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
# A field quoted whole (no quote, comma or line end inside); tried only at quotes.
_QUOTED_WHOLE = re.compile(rb'"(?<![^,\r\n]")([^",\r\n]*)"(?![^,\r\n])')
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
        """A dataset from fully observed columns, masked in place: y and z
        on E rows, a on O rows. Like ``from_arrays``, it keeps and freezes
        the arrays it is handed."""
        np.copyto(y, np.nan, where=is_e)
        np.copyto(z, np.nan, where=is_e[:, None])
        np.copyto(a, np.nan, where=~is_e)
        return cls.from_arrays(y=y, w=w, z=z, s=s, a=a, x=x, is_e=is_e)

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
    start with it is an error, as are a column listed twice in one role
    and an empty list for w, z or s (x may have no column).
    Every name and label must encode as UTF-8, the files' encoding, and
    may not start or end with whitespace, which the reader strips from
    header cells and labels.
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
            names = (value,) if isinstance(value, str) else value
            if not names and f.name in ("w", "z", "s"):
                raise ValidationError(f"{f.name}: lists no column; only x may have none")
            for i, name in enumerate(names):
                if name in names[:i]:
                    raise ValidationError(f"{f.name}: column {name!r} listed twice")
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


def _resolve_columns(schema: CsvSchema, header: list[str], *, with_g: bool) -> dict[str, list[int]]:
    """The header positions of each role's columns, and of g with ``with_g``;
    each column a role claims must be in the header once."""
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
            if claimed.setdefault(c, role) != role:
                raise ValidationError(
                    f"column {c!r} mapped to both roles {claimed[c]!r} and {role!r}"
                )
    if twice := [c for c in claimed if header.count(c) > 1]:
        raise ValidationError(f"header names column {twice[0]!r} twice")
    return {role: [header.index(c) for c in cols] for role, cols in out.items()}


def _read_table(path: str | Path, schema: CsvSchema, *, with_g: bool) -> dict[str, np.ndarray]:
    """Read a CSV into one array per role (plus ``is_e`` with g).

    ``csv.reader`` reads the header, after a byte-order mark if the file
    starts with one. Each role's header positions are resolved once, and
    ``_parse_span`` parses the data lines in byte spans (``_spans``)
    over ``_fork.ordered_map``. While the spans are parsed, the parent
    counts the data's lines and sizes the role arrays; each span's
    columns are copied into them as the span arrives, and its table is
    dropped. Where a span's table could differ from the row reader's,
    the header's reader reads on row by row from that span's first line,
    numbering its rows on from the rows copied, so each error names its
    first offending row. It reads all the data where the spans' rows
    differ from the count. A file that is not a regular file (a pipe or
    FIFO), which has no size to cut and no offsets to read at, is first
    copied into a temporary file, which is read as a regular file is.
    """
    path = Path(path)
    try:
        data = path.open("rb")
        if not stat.S_ISREG(os.fstat(data.fileno()).st_mode):  # a pipe or FIFO: no spans
            with data as stream:
                data = tempfile.TemporaryFile()
                shutil.copyfileobj(stream, data)
                data.seek(0)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}")
    with io.TextIOWrapper(data, encoding="utf-8", errors="surrogateescape", newline="") as fh:
        pulled = []  # the header's lines; None once it is read, so no data line is kept

        def lines():
            for i, line in enumerate(iter(fh.readline, "")):
                if pulled is not None:
                    pulled.append(line)
                yield line if i else line.removeprefix("\ufeff")  # a byte-order mark

        reader = csv.reader(lines())
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise ValidationError(f"{path}: empty file")
        except csv.Error as exc:
            raise ValidationError(f"{path}: header: {exc}")
        start = len("".join(pulled).encode(errors="surrogateescape"))
        pulled = None
        if bad := _undecodable(header):
            raise ValidationError(f"{path}: header: {bad}")
        pos = _resolve_columns(schema, header, with_g=with_g)
        labels = {schema.e_label: 1.0, schema.o_label: 0.0} if with_g else None
        spans = _spans(fh.fileno(), start)
        with ordered_map(partial(_parse_span, fh.fileno(), len(header), pos, labels),
                         spans) as parts:
            n = _count_lines(fh.fileno(), spans)
            out = {role: np.empty((n, len(idx)), bool if role == "g" else float)
                   for role, idx in pos.items()}  # g's 1.0 and 0.0 as True and False
            lo, resume = 0, None  # the rows copied; the first doubted span's start
            for (begin, _), part in zip(spans, parts):
                table = np.frombuffer(part).reshape(-1, len(header))
                if not len(table):  # doubted: the row reader reads on from its first line
                    resume = begin
                    break
                if len(table) > n - lo:  # more rows than counted
                    break
                for role, idx in pos.items():
                    out[role][lo:lo + len(table)] = table[:, idx]
                lo += len(table)
                del part, table  # unmap the span's table before the next arrives
        if resume is None and lo != n:  # the row reader reads all the data
            lo, resume = 0, start
        if resume is not None:
            if resume != start:  # a line start, where the UTF-8 decoder holds no state
                fh.seek(resume)
            kept = {role: arr[:lo].copy() for role, arr in out.items()}
            del out  # the arrays sized from the count, before the row reader's table grows
            table = _parse_rows(reader, header, pos, labels, lo)
            out = {role: np.concatenate((kept[role], table[:, idx])) if lo else table[:, idx]
                   for role, idx in pos.items()}
    if not len(out["y"]):
        raise ValidationError(f"{path}: no data rows")
    if with_g:
        out["is_e"] = out.pop("g")[:, 0] == 1.0
    return out


def _spans(fd: int, start: int) -> list[tuple[int, int]]:
    """Byte ranges of the data lines of the file open as ``fd``, which
    start at ``start``: one range for fewer than two ``_SPLIT_BYTES``
    chunks, else ranges of about a chunk each, cut just after a line end."""
    size = os.fstat(fd).st_size
    cuts = [start]
    while cuts[-1] + 2 * _SPLIT_BYTES <= size:
        cuts.append(_after_line_end(fd, cuts[-1] + _SPLIT_BYTES, size))
    if cuts[-1] < size:
        cuts.append(size)
    return list(zip(cuts, cuts[1:]))


def _count_lines(fd: int, spans: list[tuple[int, int]]) -> int:
    """The lines in byte ranges ``spans`` of the file open as ``fd``: the
    line ends (LF, CRLF or a lone CR) of each range, read whole and cut
    just after a line end, plus a last line with none."""
    lines = 0
    for start, end in spans:
        raw = os.pread(fd, end - start, start)
        lines += raw.count(b"\n") + raw.count(b"\r") - raw.count(b"\r\n")
        lines += not raw.endswith((b"\n", b"\r"))
    return lines


def _after_line_end(fd: int, pos: int, size: int) -> int:
    """The offset just after the first line end (LF, CRLF or a lone CR) at
    or after ``pos``, never between a CR and its LF; else ``size``."""
    while pos < size and (window := os.pread(fd, 1 << 16, pos)):
        if line_end := re.search(rb"\r\n?|\n", window):
            end = pos + line_end.end()  # a CR last in the window may still have its LF
            return end + (line_end[0] == b"\r" and os.pread(fd, 1, end) == b"\n")
        pos += len(window)
    return size


def _parse_span(fd: int, width: int, pos: dict[str, list[int]], labels: dict | None,
                span: tuple[int, int]):
    """The data lines in byte range ``span`` of the file open as ``fd``,
    parsed in one ``np.loadtxt`` pass into a table shaped like the file,
    as ``_parse_rows`` would shape it, as bytes; empty (doubted) wherever
    the two could differ or the range is no longer there.

    The range is read once and split with ``bytes.splitlines``, which
    breaks lines at LF, CRLF and a lone CR, as the row reader's
    ``newline=""`` file does; a cut after a line end splits no line and
    no UTF-8 sequence. A field quoted whole, whose content holds no
    quote, comma or line end, is replaced by its content, as
    ``csv.reader`` reads it. The span is doubted where the readers could
    split its lines differently: with no line, a blank line (``np.loadtxt``
    skips it, the row reader rejects it), any quote left or NUL, or a
    line of ``csv.field_size_limit()`` bytes or more. It is doubted too at
    a byte that is not UTF-8 (the decoder raises), which the row reader
    rejects even in a column no role claims, at a cell ``np.loadtxt`` or a
    converter rejects, at a shape other than (lines, ``width``), or at a
    non-finite value in a column that may not hold NA. The cells of a
    column that may hold NA and the labels are read as the row reader
    reads them, by ``_cell`` and ``_label``; the other columns keep
    ``np.loadtxt``'s parse, which rejects some forms ``float`` takes (``1_0``).
    """
    start, end = span
    raw = os.pread(fd, end - start, start)
    if len(raw) != end - start:
        return b""
    if b'"' in raw:
        raw = _QUOTED_WHOLE.sub(rb"\1", raw)
    if b'"' in raw or b"\0" in raw:
        return b""
    lines = raw.splitlines()
    del raw  # the lines copy its bytes: free them before np.loadtxt makes the table
    if not lines or b"" in lines or max(map(len, lines)) >= csv.field_size_limit():
        return b""
    role_of = {i: role for role, idx in pos.items() for i in idx}
    read = {"g": partial(_label, labels), **dict.fromkeys(_MASKED_ROLES, _cell)} if labels else {}
    converters = {i: read[role] for i, role in role_of.items() if role in read}
    converters.update({i: _unclaimed for i in range(width) if i not in role_of})
    strict = [i for i, role in role_of.items() if role not in read]
    try:
        table = np.loadtxt(lines, dtype=float, delimiter=",", comments=None, quotechar=None,
                           converters=converters, ndmin=2, encoding="utf-8")
    except ValueError:  # also a converter's error, which numpy wraps, and a byte not UTF-8
        return b""
    if table.shape != (len(lines), width) or not all(
        np.isfinite(table[:, i]).all() for i in strict
    ):
        return b""
    return memoryview(table)


def _cell(cell: str) -> float:
    """A numeric cell: NaN for NA or empty, padded or not, else a finite float."""
    if cell == MISSING_TOKEN or cell == "":
        return math.nan
    try:
        value = float(cell)
    except ValueError:  # padded NA, padding float keeps (U+001C to U+001F), or no number
        if (text := cell.strip()) == MISSING_TOKEN or text == "":
            return math.nan
        try:
            value = float(text)
        except ValueError:
            raise ValueError(f"cannot parse {cell!r} as a number") from None
    if value - value != 0.0:  # inf or nan
        raise ValueError(f"non-finite value {cell!r}")
    return value


def _label(labels: dict, cell: str) -> float:
    """A sample label's value, padding stripped: 1.0 for E, 0.0 for O."""
    return labels[cell.strip()]


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


def _parse_rows(reader, header: list[str], pos: dict[str, list[int]],
                labels: dict | None, before: int = 0) -> np.ndarray:
    """Parse the data rows one by one, numbered on from the ``before``
    rows already read; raise on the first bad row.

    Returns a table shaped like the file: claimed cells read by ``_cell``,
    g (with ``labels``) by ``_label``, unclaimed cells 0.0; a row's first
    bad cell, g first and then in role order, is the one reported.
    """
    numeric = [(i, header[i]) for role in _ROLES for i in pos[role]]
    g_pos = pos["g"][0] if labels else None
    values = array("d")
    row_idx = before
    try:
        for row_idx, row in enumerate(reader, start=before + 1):
            if len(row) != len(header):
                raise ParseError(row_idx, f"expected {len(header)} cells, got {len(row)}")
            if bad := _undecodable(row):
                raise ParseError(row_idx, bad)
            cells = [0.0] * len(header)
            try:
                if labels:
                    cells[g_pos] = _label(labels, row[g_pos])
                for i, c in numeric:
                    cells[i] = _cell(row[i])
            except KeyError as exc:
                e, o = labels
                raise SchemaViolationError(
                    f"row {row_idx}: sample label {exc.args[0]!r} is neither {e!r} nor {o!r}"
                ) from None
            except ValueError as exc:  # the cell of column c
                raise ParseError(row_idx, f"column {c!r}: {exc}") from None
            values.extend(cells)
    except csv.Error as exc:  # raised while reading the row after row_idx
        raise ParseError(row_idx + 1, str(exc))
    return np.frombuffer(values, dtype=float).reshape(-1, len(header))


def _write_table(data, path: str | Path, schema: CsvSchema, *, with_g: bool) -> None:
    """Write the six roles of ``data`` (and its g labels) as one UTF-8 CSV.

    ``csv.writer`` writes the header, which the reader must resolve with
    ``schema`` before any file is made. The rows are formatted in chunks
    of ``_CHUNK_ROWS`` over ``_fork.ordered_map`` and written in order by
    ``writelines``, which drops each chunk before it reads the next, so
    the parent holds one formatted chunk at a time.
    """
    matrices = _ROLES[2:]  # w, z, s and x: the roles of one or more columns
    header = _header(schema, {r: getattr(data, r).shape[1] for r in matrices}, with_g=with_g)
    columns = [data.y, data.a, *([data.is_e] if with_g else []),
               *(col for r in matrices for col in getattr(data, r).T)]
    labels = (_quoted(schema.o_label), _quoted(schema.e_label))
    chunks = range(0, data.n, _CHUNK_ROWS)
    with ordered_map(partial(_format_rows, columns, labels), chunks) as formatted:
        try:
            with Path(path).open("wb") as fh:
                fh.write(_csv_line(header).encode())
                fh.writelines(formatted)
        except OSError as exc:
            raise ValidationError(f"cannot write {path}: {exc}")


def _header(schema: CsvSchema, widths: dict[str, int], *, with_g: bool) -> list[str]:
    """The header of a file with ``widths[role]`` columns for each role but
    y and a, checked to resolve with ``schema`` as the reader resolves it."""
    header = []
    for role in _ROLES:
        decl = getattr(schema, role)
        header += _column_names(role, decl, widths[role]) if role in widths else [decl]
        if role == "a" and with_g:
            header.append(schema.g)
    _resolve_columns(schema, header, with_g=with_g)
    return header


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


def _column_names(role: str, decl: tuple[str, ...] | str, dim: int) -> list[str]:
    if isinstance(decl, str):
        return [f"{decl}{j + 1}" for j in range(dim)]
    if len(decl) != dim:
        raise ValidationError(f"schema lists {len(decl)} columns for role {role!r} "
                              f"but data has {dim}")
    return list(decl)
