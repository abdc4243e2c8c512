"""Two-sample dataset model, missingness contract, and CSV ingestion.

The combined dataset holds one row per unit with a sample label: "E"
rows (experimental) observe (a, s, w, x) and mask (y, z); "O" rows
(observational) observe (y, z, s, w, x) and mask a. Masked entries are
stored as NaN internally and as "NA" (or an empty cell) in CSV form.
Rows whose missingness departs from this pattern are rejected, never
imputed, because every estimator formula downstream assumes exactly
this pattern.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    ParseError,
    RoleUnavailableError,
    SchemaViolationError,
    ValidationError,
)

MISSING_TOKEN = "NA"


@dataclass(frozen=True)
class RoleDims:
    w: int
    z: int
    s: int
    x: int


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
    dims: RoleDims

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
        dims = RoleDims(w=w.shape[1], z=z.shape[1], s=s.shape[1], x=x.shape[1])
        ds = cls(y=y, w=w, z=z, s=s, a=a, x=x, is_e=is_e, dims=dims)
        ds._validate()
        for arr in (y, w, z, s, a, x, is_e):
            arr.setflags(write=False)
        return ds

    def _validate(self) -> None:
        if self.n_e < 1 or self.n_o < 1:
            raise ValidationError(
                f"both samples must be nonempty (n_e={self.n_e}, n_o={self.n_o})"
            )
        e, o = self.is_e, ~self.is_e
        if np.isfinite(self.y[e]).any():
            raise SchemaViolationError("y present on an E row")
        if np.isfinite(self.z[e]).any():
            raise SchemaViolationError("z present on an E row")
        if np.isfinite(self.a[o]).any():
            raise SchemaViolationError("a present on an O row")
        if not np.isfinite(self.y[o]).all():
            raise SchemaViolationError("y missing on an O row")
        if not np.isfinite(self.z[o]).all():
            raise SchemaViolationError("z missing on an O row")
        if not np.isfinite(self.a[e]).all():
            raise SchemaViolationError("a missing on an E row")
        for name in ("w", "s", "x"):
            if not np.isfinite(getattr(self, name)).all():
                raise SchemaViolationError(f"{name} must be present and finite on every row")
        a_e = self.a[e]
        if not np.isin(a_e, (0.0, 1.0)).all():
            raise ValidationError("treatment must be binary 0/1")


# Roles observable per sample label (Table-1 masking pattern).
_SAMPLE_ROLES = {
    "E": ("w", "s", "x", "a"),
    "O": ("w", "s", "x", "z", "y"),
}


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

    This is the input to the LaLonde-style evaluation design and to the
    diagnostics that need (y, a) jointly.
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
            if not np.isfinite(arr).all():
                raise ValidationError(f"{name} must be finite everywhere in an unmasked sample")
        if not np.isin(a, (0.0, 1.0)).all():
            raise ValidationError("treatment must be binary 0/1")
        return cls(y=y, a=a, s=s, x=x, w=w, z=z)


def _as_2d(arr, n: int, name: str) -> np.ndarray:
    out = np.asarray(arr, dtype=float)
    if out.ndim == 1:
        out = out.reshape(-1, 1)
    if out.ndim != 2 or out.shape[0] != n:
        raise ValidationError(f"{name} must have {n} rows")
    return out


@dataclass(frozen=True)
class CsvSchema:
    """Column-role mapping for CSV files.

    Multi-column roles take either an explicit tuple of column names or
    a single string treated as a header-name prefix (expanded in header
    order), so files stay loadable after column reordering.
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

    @classmethod
    def from_dict(cls, d: dict) -> "CsvSchema":
        known = {"y", "a", "g", "w", "z", "s", "x", "e_label", "o_label"}
        unknown = set(d) - known
        if unknown:
            raise ValidationError(f"unknown schema keys: {sorted(unknown)}")
        kw = dict(d)
        for role in ("w", "z", "s", "x"):
            if role in kw and isinstance(kw[role], list):
                kw[role] = tuple(kw[role])
        schema = cls(**kw)
        if schema.e_label == schema.o_label:
            raise ValidationError("e_label and o_label must differ")
        return schema

    def columns_for(self, role: str, header: list[str]) -> list[str]:
        decl = getattr(self, role)
        if isinstance(decl, str):
            cols = [h for h in header if h.startswith(decl)]
            if not cols and role != "x":
                raise ValidationError(f"no header column matches prefix {decl!r} for role {role!r}")
            return cols
        missing = [c for c in decl if c not in header]
        if missing:
            raise ValidationError(f"schema columns {missing} for role {role!r} not in header")
        return list(decl)


def _resolve_columns(schema: CsvSchema, header: list[str], *, with_g: bool) -> dict[str, list[str]]:
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
    if not np.isfinite(value):
        raise ParseError(row_idx, f"column {col!r}: non-finite value {raw!r}")
    return value


def load_csv(path: str | Path, schema: CsvSchema) -> CombinedDataset:
    """Read a combined two-sample CSV.

    The g column must hold exactly the two configured labels. Masked
    fields must be "NA" or empty; any other missingness pattern is a
    schema violation carrying the row index.
    """
    path = Path(path)
    try:
        fh = path.open(newline="")
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}")
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValidationError(f"{path}: empty file")
        header = [h.strip() for h in header]
        cols = _resolve_columns(schema, header, with_g=True)
        pos = {c: header.index(c) for cs in cols.values() for c in cs}

        rows: dict[str, list] = {r: [] for r in ("y", "a", "g", "w", "z", "s", "x")}
        for row_idx, row in enumerate(reader, start=1):
            if len(row) != len(header):
                raise ParseError(row_idx, f"expected {len(header)} cells, got {len(row)}")
            g_raw = row[pos[cols["g"][0]]].strip()
            if g_raw == schema.e_label:
                is_e = True
            elif g_raw == schema.o_label:
                is_e = False
            else:
                raise SchemaViolationError(
                    f"row {row_idx}: sample label {g_raw!r} is neither "
                    f"{schema.e_label!r} nor {schema.o_label!r}"
                )
            rows["g"].append(is_e)
            for role in ("y", "a"):
                c = cols[role][0]
                rows[role].append(_parse_cell(row[pos[c]], row_idx, c))
            for role in ("w", "z", "s", "x"):
                vec = [_parse_cell(row[pos[c]], row_idx, c) for c in cols[role]]
                rows[role].append(vec)

    if not rows["g"]:
        raise ValidationError(f"{path}: no data rows")
    n = len(rows["g"])
    return CombinedDataset.from_arrays(
        y=np.array(rows["y"]),
        w=np.array(rows["w"], dtype=float).reshape(n, len(cols["w"])),
        z=np.array(rows["z"], dtype=float).reshape(n, len(cols["z"])),
        s=np.array(rows["s"], dtype=float).reshape(n, len(cols["s"])),
        a=np.array(rows["a"]),
        x=np.array(rows["x"], dtype=float).reshape(n, len(cols["x"])),
        is_e=np.array(rows["g"]),
    )


def _fmt(value: float) -> str:
    return MISSING_TOKEN if not np.isfinite(value) else repr(float(value))


def write_csv(data: CombinedDataset, path: str | Path, schema: CsvSchema) -> None:
    """Write a dataset in the load_csv format (absent fields as NA)."""
    path = Path(path)
    names = {
        "y": [schema.y],
        "a": [schema.a],
        "w": _column_names(schema.w, data.dims.w),
        "z": _column_names(schema.z, data.dims.z),
        "s": _column_names(schema.s, data.dims.s),
        "x": _column_names(schema.x, data.dims.x),
    }
    header = names["y"] + names["a"] + [schema.g] + names["w"] + names["z"] + names["s"] + names["x"]
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(data.n):
            label = schema.e_label if data.is_e[i] else schema.o_label
            row = [_fmt(data.y[i]), _fmt(data.a[i]), label]
            row += [_fmt(v) for v in data.w[i]]
            row += [_fmt(v) for v in data.z[i]]
            row += [_fmt(v) for v in data.s[i]]
            row += [_fmt(v) for v in data.x[i]]
            writer.writerow(row)


def write_unmasked_csv(sample: FullyObservedSample, path: str | Path, schema: CsvSchema) -> None:
    """Write a fully observed experimental sample (no g column)."""
    path = Path(path)
    names = {
        "w": _column_names(schema.w, sample.w.shape[1]),
        "z": _column_names(schema.z, sample.z.shape[1]),
        "s": _column_names(schema.s, sample.s.shape[1]),
        "x": _column_names(schema.x, sample.x.shape[1]),
    }
    header = [schema.y, schema.a] + names["w"] + names["z"] + names["s"] + names["x"]
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(sample.n):
            row = [_fmt(sample.y[i]), _fmt(sample.a[i])]
            row += [_fmt(v) for v in sample.w[i]]
            row += [_fmt(v) for v in sample.z[i]]
            row += [_fmt(v) for v in sample.s[i]]
            row += [_fmt(v) for v in sample.x[i]]
            writer.writerow(row)


def load_unmasked_csv(path: str | Path, schema: CsvSchema) -> FullyObservedSample:
    """Read a fully observed experimental CSV (all roles present, no g)."""
    path = Path(path)
    try:
        fh = path.open(newline="")
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}")
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValidationError(f"{path}: empty file")
        header = [h.strip() for h in header]
        cols = _resolve_columns(schema, header, with_g=False)
        pos = {c: header.index(c) for cs in cols.values() for c in cs}
        rows: dict[str, list] = {r: [] for r in ("y", "a", "w", "z", "s", "x")}
        for row_idx, row in enumerate(reader, start=1):
            if len(row) != len(header):
                raise ParseError(row_idx, f"expected {len(header)} cells, got {len(row)}")
            for role in ("y", "a"):
                c = cols[role][0]
                rows[role].append(_parse_cell(row[pos[c]], row_idx, c))
            for role in ("w", "z", "s", "x"):
                rows[role].append([_parse_cell(row[pos[c]], row_idx, c) for c in cols[role]])
    if not rows["y"]:
        raise ValidationError(f"{path}: no data rows")
    n = len(rows["y"])
    return FullyObservedSample.from_arrays(
        y=np.array(rows["y"]),
        a=np.array(rows["a"]),
        s=np.array(rows["s"], dtype=float).reshape(n, len(cols["s"])),
        x=np.array(rows["x"], dtype=float).reshape(n, len(cols["x"])),
        w=np.array(rows["w"], dtype=float).reshape(n, len(cols["w"])),
        z=np.array(rows["z"], dtype=float).reshape(n, len(cols["z"])),
    )


def _column_names(decl: tuple[str, ...] | str, dim: int) -> list[str]:
    if isinstance(decl, str):
        return [f"{decl}{j + 1}" for j in range(dim)]
    if len(decl) != dim:
        raise ValidationError(f"schema lists {len(decl)} columns but data has {dim}")
    return list(decl)
