from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import math
import os
import re
import signal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import proxate as px
from proxate import data as codec
from proxate.errors import (
    ParseError,
    ProxateError,
    RoleUnavailableError,
    SchemaViolationError,
    ValidationError,
)

from conftest import assert_no_child_left, blas_threads, fifo_of, pin_workers

SCHEMA = px.CsvSchema(s=("s1", "s2"), w=("w1",), z=("z1",), x=("x1",))


def _write(tmp_path, text, name="data.csv"):
    """Write ``text`` as UTF-8; a lone surrogate U+DC80-U+DCFF stands for a byte that is not UTF-8."""
    path = tmp_path / name
    path.write_bytes(text.encode(errors="surrogateescape"))
    return path


MINIMAL = """y,a,g,w1,z1,s1,s2,x1
NA,1,E,0.1,NA,1.0,2.0,0.3
NA,0,E,0.2,NA,1.5,2.5,0.4
3.0,NA,O,0.3,0.9,1.1,2.1,0.5
4.0,NA,O,0.4,1.0,1.2,2.2,0.6
"""

UNMASKED = """y,a,w1,z1,s1,s2,x1
1.0,1,0.1,0.5,1.0,2.0,0.3
2.0,0,0.2,0.6,1.5,2.5,0.4
3.0,1,0.3,0.9,1.1,2.1,0.5
4.0,0,0.4,1.0,1.2,2.2,0.6
"""

READERS = {"masked": (px.load_csv, MINIMAL), "unmasked": (px.load_unmasked_csv, UNMASKED)}


def test_load_minimal(tmp_path):
    data = px.load_csv(_write(tmp_path, MINIMAL), SCHEMA)
    assert data.n_e == 2 and data.n_o == 2
    assert data.s.shape[1] == 2 and data.w.shape[1] == 1 and data.x.shape[1] == 1
    assert np.isnan(data.y[data.is_e]).all()
    assert np.isfinite(data.y[~data.is_e]).all()


def test_empty_cell_is_missing(tmp_path):
    text = MINIMAL.replace("NA,1,E", ",1,E", 1)
    data = px.load_csv(_write(tmp_path, text), SCHEMA)
    assert data.n_e == 2


def test_y_on_e_row_rejected(tmp_path):
    text = MINIMAL.replace("NA,1,E", "9.9,1,E", 1)
    with pytest.raises(SchemaViolationError):
        px.load_csv(_write(tmp_path, text), SCHEMA)


def test_a_on_o_row_rejected(tmp_path):
    text = MINIMAL.replace("3.0,NA,O", "3.0,1,O", 1)
    with pytest.raises(SchemaViolationError):
        px.load_csv(_write(tmp_path, text), SCHEMA)


def test_missing_z_on_o_row_rejected(tmp_path):
    text = MINIMAL.replace("3.0,NA,O,0.3,0.9", "3.0,NA,O,0.3,NA", 1)
    with pytest.raises(SchemaViolationError):
        px.load_csv(_write(tmp_path, text), SCHEMA)


def test_nonbinary_treatment_rejected(tmp_path):
    text = MINIMAL.replace("NA,1,E", "NA,2,E", 1)
    with pytest.raises(ValidationError):
        px.load_csv(_write(tmp_path, text), SCHEMA)


def test_malformed_cell_carries_row_index(tmp_path):
    text = MINIMAL.replace("0.2,NA,1.5", "oops,NA,1.5", 1)
    with pytest.raises(ParseError) as err:
        px.load_csv(_write(tmp_path, text), SCHEMA)
    assert err.value.row == 2


def _third_row_ragged(text):
    lines = text.splitlines(keepends=True)
    lines[3] = lines[3].rstrip("\n") + ",9\n"
    return "".join(lines)


MALFORMED = {
    "ragged": (_third_row_ragged, ParseError, 3, "expected {width} cells, got {extra}"),
    "bad_cell": (lambda t: t.replace("0.2,", "oops,", 1), ParseError, 2,
                 "column 'w1': cannot parse 'oops' as a number"),
    "trailing_blank": (lambda t: t + "\n", ParseError, 5, "expected {width} cells, got 0"),
    "empty": (lambda t: "", ValidationError, None, "empty file"),
    "header_only": (lambda t: t.splitlines(keepends=True)[0], ValidationError, None, "no data rows"),
    "claimed_twice": (lambda t: _with_note(t).replace("note", "s1", 1), ValidationError, None,
                      "header names column 's1' twice"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
@pytest.mark.parametrize("reader", sorted(READERS))
def test_malformed_file_rejected(tmp_path, reader, case):
    load, text = READERS[reader]
    edit, error, row, fragment = MALFORMED[case]
    width = text.splitlines()[0].count(",") + 1
    fragment = fragment.format(width=width, extra=width + 1)
    with pytest.raises(error) as err:
        load(_write(tmp_path, edit(text)), SCHEMA)
    assert type(err.value) is error
    message = str(err.value)
    if row is None:  # whole-file errors carry no row
        assert not message.startswith("row") and message.endswith(fragment)
    else:
        assert err.value.row == row and message == f"row {row}: {fragment}"


@pytest.mark.parametrize("reader", sorted(READERS))
def test_over_long_header_cell_rejected(tmp_path, reader):
    load, text = READERS[reader]
    path = _write(tmp_path, text.replace("x1", "x" * 200_000, 1))
    with pytest.raises(ValidationError) as err:
        load(path, SCHEMA)
    assert type(err.value) is ValidationError
    assert str(err.value) == f"{path}: header: field larger than field limit (131072)"


@pytest.mark.parametrize("reader", sorted(READERS))
def test_not_utf8_header_rejected(tmp_path, reader):
    load, text = READERS[reader]
    path = _write(tmp_path, text.replace("x1", "x\udcff1", 1))
    with pytest.raises(ValidationError) as err:
        load(path, SCHEMA)
    assert str(err.value) == f"{path}: header: not UTF-8 text: b'x\\xff1'"


@pytest.mark.parametrize("load,text,error,message", [
    pytest.param(px.load_csv, MINIMAL.replace("4.0,NA,O", "4.0,1,O"), SchemaViolationError,
                 "row 4: a present on an O row", id="a_on_o_row"),
    pytest.param(px.load_csv, MINIMAL.replace("NA,0,E", "NA,2,E"), ValidationError,
                 "row 2: treatment must be binary 0/1", id="nonbinary_a"),
    pytest.param(px.load_unmasked_csv, UNMASKED.replace("3.0,1,0.3,0.9", "3.0,1,0.3,NA"),
                 ValidationError, "row 3: z must be finite everywhere in an unmasked sample",
                 id="unmasked_na"),
])
def test_violation_names_first_offending_row(tmp_path, load, text, error, message):
    with pytest.raises(error) as err:
        load(_write(tmp_path, text), SCHEMA)
    assert type(err.value) is error and str(err.value) == message


def _with_note(text, notes=("k1", "k2", "k3", "k4")):
    """Append a ``note`` column, which no role claims, to a four-row file."""
    lines = text.splitlines()
    return "\n".join([lines[0] + ",note"] + [f"{ln},{n}" for ln, n in zip(lines[1:], notes)]) + "\n"


def _edit_row(text, row, edit):
    """Apply ``edit`` to data row ``row`` (1-based) of ``text``."""
    lines = text.splitlines(keepends=True)
    lines[row] = edit(lines[row])
    return "".join(lines)


def _non_finite_cases():
    for v in ("nan", "inf", "1e400"):
        yield pytest.param(px.load_csv, MINIMAL.replace("3.0,NA,O", f"{v},NA,O"), SCHEMA,
                           (ParseError, f"row 3: column 'y': non-finite value '{v}'"),
                           id=f"{v}_in_na_column")
        yield pytest.param(px.load_csv, MINIMAL.replace("0.3,0.9", f"{v},0.9"), SCHEMA,
                           (ParseError, f"row 3: column 'w1': non-finite value '{v}'"),
                           id=f"{v}_in_strict_column")
        yield pytest.param(px.load_unmasked_csv, UNMASKED.replace("3.0,1,", f"{v},1,"), SCHEMA,
                           (ParseError, f"row 3: column 'y': non-finite value '{v}'"),
                           id=f"{v}_in_unmasked_column")


def _r_style(text):
    """``text`` as R's ``write.csv`` writes it: header cells and sample labels quoted."""
    header, rows = text.split("\n", 1)
    return re.sub(r"[^,\r]+", r'"\g<0>"', header) + "\n" + re.sub(r",([EO]),", r',"\1",', rows)


# Edge cases of the CSV format, with the outcome the row-wise reader has
# always given (None: the file loads). The bulk parse must give the same.
EDGE_CASES = [
    *_non_finite_cases(),
    pytest.param(px.load_csv, MINIMAL.replace("NA,0,E", "nan,0,E"), SCHEMA,
                 (ParseError, "row 2: column 'y': non-finite value 'nan'"), id="nan_in_masked_cell"),
    pytest.param(px.load_csv, _edit_row(MINIMAL, 2, lambda ln: ln + "\n"), SCHEMA,
                 (ParseError, "row 3: expected 8 cells, got 0"), id="blank_line"),
    pytest.param(px.load_unmasked_csv, _edit_row(UNMASKED, 2, lambda ln: ln + "\n"), SCHEMA,
                 (ParseError, "row 3: expected 7 cells, got 0"), id="blank_line_unmasked"),
    pytest.param(px.load_csv, _edit_row(MINIMAL, 2, lambda ln: ln + "\n").replace("\n", "\r\n"),
                 SCHEMA, (ParseError, "row 3: expected 8 cells, got 0"), id="blank_crlf_line"),
    pytest.param(px.load_csv, MINIMAL.replace("\n", "\n\n", 1), SCHEMA,
                 (ParseError, "row 1: expected 8 cells, got 0"), id="blank_first_line"),
    pytest.param(px.load_csv, _edit_row(MINIMAL, 2, lambda ln: ln + "   \n"), SCHEMA,
                 (ParseError, "row 3: expected 8 cells, got 1"), id="spaces_line"),
    pytest.param(px.load_csv, _edit_row(_with_note(MINIMAL), 3, lambda ln: ln.replace(",k3", "")),
                 SCHEMA, (ParseError, "row 3: expected 9 cells, got 8"), id="short_row_unclaimed"),
    pytest.param(px.load_csv, _edit_row(_with_note(MINIMAL), 3, lambda ln: ln.replace("k3", "k3,9")),
                 SCHEMA, (ParseError, "row 3: expected 9 cells, got 10"), id="long_row_unclaimed"),
    pytest.param(px.load_unmasked_csv,
                 _edit_row(_with_note(UNMASKED), 3, lambda ln: ln.replace(",k3", "")), SCHEMA,
                 (ParseError, "row 3: expected 8 cells, got 7"), id="short_row_unclaimed_unmasked"),
    pytest.param(px.load_csv, MINIMAL.replace("\n", ",9\n").replace("x1,9", "x1"), SCHEMA,
                 (ParseError, "row 1: expected 8 cells, got 9"), id="every_row_long"),
    pytest.param(px.load_csv, MINIMAL.replace("3.0,NA,O", '"3.0",NA,O'), SCHEMA, None,
                 id="quoted_cell"),
    pytest.param(px.load_csv, _with_note(MINIMAL, ("k1", '"a,b"', "k3", "k4")), SCHEMA, None,
                 id="quoted_unclaimed_comma"),
    pytest.param(px.load_csv, _r_style(MINIMAL), SCHEMA, None, id="r_style_quoted"),
    pytest.param(px.load_csv, MINIMAL.replace("NA,1,E", 'NA,1,1"E"5'), SCHEMA,
                 (SchemaViolationError, """row 1: sample label '1"E"5' is neither 'E' nor 'O'"""),
                 id="quote_inside_label"),
    pytest.param(px.load_csv, _with_note(MINIMAL, ("k1", '"a""b"', "k3", "k4")), SCHEMA, None,
                 id="escaped_quote_unclaimed"),
    pytest.param(px.load_csv, _with_note(MINIMAL, ("k1", '"a\nb"', "k3", "k4")), SCHEMA, None,
                 id="quoted_line_break_unclaimed"),
    pytest.param(px.load_csv, MINIMAL.replace("3.0,NA,O", '3.0,NA,"O" '), SCHEMA, None,
                 id="quoted_label_trailing_space"),
    pytest.param(px.load_csv, MINIMAL.replace("\n", ',"a,b"\n').replace('x1,"a,b"', "x1,n1,n2"),
                 SCHEMA, (ParseError, "row 1: expected 10 cells, got 9"),
                 id="quoted_comma_on_every_row"),
    pytest.param(px.load_csv, _with_note(MINIMAL, ("nan", "", "x", "1e400")), SCHEMA, None,
                 id="unclaimed_anything"),
    pytest.param(px.load_csv, _with_note(MINIMAL, ("k1", "k\0", "k3", "k4")), SCHEMA, None,
                 id="nul_in_unclaimed"),
    pytest.param(px.load_csv, MINIMAL.replace("0.3,0.9", "0.3\0,0.9"), SCHEMA,
                 (ParseError, "row 3: column 'w1': cannot parse '0.3\\x00' as a number"),
                 id="nul_in_claimed"),
    pytest.param(px.load_csv, _with_note(MINIMAL, ("k1", "k" * 200_000, "k3", "k4")), SCHEMA,
                 (ParseError, "row 2: field larger than field limit (131072)"),
                 id="over_long_unclaimed_cell"),
    pytest.param(px.load_csv, MINIMAL.replace("0.3,0.9", "0.3\udcff,0.9"), SCHEMA,
                 (ParseError, "row 3: not UTF-8 text: b'0.3\\xff'"), id="not_utf8_claimed"),
    pytest.param(px.load_csv, MINIMAL.replace("4.0,NA,O", "4.0,NA,\udce9"), SCHEMA,
                 (ParseError, "row 4: not UTF-8 text: b'\\xe9'"), id="not_utf8_label"),
    pytest.param(px.load_csv, _with_note(MINIMAL, ("k1", "k\udcc3", "k3", "k4")), SCHEMA,
                 (ParseError, "row 2: not UTF-8 text: b'k\\xc3'"), id="not_utf8_unclaimed"),
    pytest.param(px.load_unmasked_csv, UNMASKED.replace("2.0,0,", "2.0,\udc800,"), SCHEMA,
                 (ParseError, "row 2: not UTF-8 text: b'\\x800'"), id="not_utf8_unmasked"),
    pytest.param(px.load_csv, MINIMAL.replace("O,", "é,").replace("\n", "\r\n"),
                 px.CsvSchema(s=("s1", "s2"), w=("w1",), z=("z1",), x=("x1",), o_label="é"),
                 None, id="non_ascii_label"),
    pytest.param(px.load_csv, MINIMAL.replace(",E,", ", E ,"), SCHEMA, None, id="padded_labels"),
    pytest.param(px.load_csv, MINIMAL.replace("NA,1,E", "Q,1,Q"), SCHEMA,
                 (SchemaViolationError, "row 1: sample label 'Q' is neither 'E' nor 'O'"),
                 id="unknown_label"),
    pytest.param(px.load_csv, MINIMAL.replace("NA,1,E", " NA ,1,E"), SCHEMA, None, id="padded_na"),
    pytest.param(px.load_csv, MINIMAL.replace("0.1,NA", "0.1, NA"), SCHEMA, None,
                 id="space_then_na"),
    pytest.param(px.load_csv, MINIMAL.replace(",E,", ", E,", 1), SCHEMA, None,
                 id="space_then_label"),
    pytest.param(px.load_csv, MINIMAL.replace(",O,", ",O ,", 1), SCHEMA, None,
                 id="label_then_space"),
    pytest.param(px.load_csv, _edit_row(MINIMAL, 3, lambda ln: ln.replace(",", ", ")), SCHEMA,
                 None, id="comma_space_row"),
    pytest.param(px.load_csv, MINIMAL.replace(",", ", "), SCHEMA, None, id="comma_space_file"),
    pytest.param(px.load_csv, MINIMAL.replace("3.0,NA,O", " x,NA,O"), SCHEMA,
                 (ParseError, "row 3: column 'y': cannot parse ' x' as a number"),
                 id="space_then_text_in_na_column"),
    pytest.param(px.load_csv, MINIMAL.replace("3.0,NA,O", "\x1c3.0,NA,O"), SCHEMA, None,
                 id="padding_float_keeps_in_na_column"),
    pytest.param(px.load_csv, MINIMAL.replace("0.3,0.9", " 0.3 ,0.9"), SCHEMA, None,
                 id="padded_number"),
    pytest.param(px.load_csv, MINIMAL.replace("\n", "\r"), SCHEMA, None, id="lone_cr"),
    pytest.param(px.load_csv, MINIMAL.replace("\n", "\r", 2), SCHEMA, None, id="one_lone_cr"),
    pytest.param(px.load_csv, _edit_row(MINIMAL.replace("\n", "\r\n"), 2,
                                        lambda ln: ln.replace("\r\n", "\r")),
                 SCHEMA, None, id="crlf_with_one_lone_cr"),
    pytest.param(px.load_unmasked_csv, UNMASKED.replace("\n", "\r"), SCHEMA, None,
                 id="lone_cr_unmasked"),
    pytest.param(px.load_csv, MINIMAL.rstrip("\n"), SCHEMA, None, id="no_final_line_end"),
    pytest.param(px.load_csv, MINIMAL.replace("NA,0,E", "#NA,0,E"), SCHEMA,
                 (ParseError, "row 2: column 'y': cannot parse '#NA' as a number"), id="hash_row"),
    pytest.param(px.load_unmasked_csv, UNMASKED.replace("2.0,0,", "#2.0,0,"), SCHEMA,
                 (ParseError, "row 2: column 'y': cannot parse '#2.0' as a number"),
                 id="hash_row_unmasked"),
    pytest.param(px.load_csv, MINIMAL.replace("3.0,NA,O", "1_0,NA,O"), SCHEMA, None,
                 id="underscore_in_na_column"),
    pytest.param(px.load_csv, MINIMAL.replace("0.3,0.9", "1_0,0.9"), SCHEMA, None,
                 id="underscore_in_strict_column"),
    pytest.param(px.load_csv,
                 MINIMAL.replace("NA,1,E,0.1,NA", ",1,E,0.1,").replace("3.0,NA,O", "3.0,,O"),
                 SCHEMA, None, id="empty_y_a_z"),
    pytest.param(px.load_csv, MINIMAL.replace("3.0,NA,O", ",NA,O"), SCHEMA,
                 (SchemaViolationError, "row 3: y missing on an O row"), id="empty_y_on_o_row"),
    pytest.param(px.load_csv, MINIMAL.replace("0.3,0.9", ",0.9"), SCHEMA,
                 (SchemaViolationError, "row 3: w must be present and finite on every row"),
                 id="empty_strict_cell"),
]


def _outcome(load, path, schema):
    """What a load gives: the error's class, message and row, or the arrays' bytes."""
    try:
        loaded = load(path, schema)
    except ValidationError as exc:
        return type(exc), str(exc), getattr(exc, "row", None)
    return {name: (arr.shape, arr.tobytes()) for name, arr in vars(loaded).items()}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("load,text,schema,expected", EDGE_CASES)
def test_bulk_parse_agrees_with_row_reader(tmp_path, monkeypatch, load, text, schema, expected):
    path = _write(tmp_path, text)
    bulk = _outcome(load, path, schema)
    monkeypatch.setattr(codec, "_parse_span", lambda *args: b"")
    assert bulk == _outcome(load, path, schema)
    if expected is None:
        assert isinstance(bulk, dict)
    else:
        assert bulk[:2] == expected


def _refuse_row_reader(*args, **kwargs):
    raise AssertionError("the row-wise reader ran on a file the bulk parse must read")


def test_bulk_parse_reads_crlf_split_across_blocks(tmp_path, monkeypatch, confounded_cfg):
    # write_csv ends lines in CRLF; a file this size spans many of the
    # text handle's read chunks.
    data, _ = px.generate(confounded_cfg, 15_000, 0.5, seed=41)
    full = px.generate_full(confounded_cfg, 15_000, seed=41)
    masked, unmasked = tmp_path / "masked.csv", tmp_path / "unmasked.csv"
    px.write_csv(data, masked, px.CsvSchema())
    px.write_unmasked_csv(full, unmasked, px.CsvSchema())
    monkeypatch.setattr(codec, "_parse_rows", _refuse_row_reader)
    for path, load, want in ((masked, px.load_csv, data), (unmasked, px.load_unmasked_csv, full)):
        back = load(path, px.CsvSchema())
        for name, arr in vars(want).items():
            got = getattr(back, name)
            assert got.shape == arr.shape and got.tobytes() == arr.tobytes(), name


LINE_ENDS = {
    "lf": lambda t: t,
    "crlf": lambda t: t.replace("\n", "\r\n"),
    "lone_cr": lambda t: t.replace("\n", "\r"),
    "crlf_and_lone_cr": lambda t: t.replace("\n", "\r\n").replace("\r\n", "\r", 2),
}


@pytest.mark.parametrize("ends", sorted(LINE_ENDS))
@pytest.mark.parametrize("reader", sorted(READERS))
def test_plain_file_is_opened_once(tmp_path, monkeypatch, reader, ends):
    load, text = READERS[reader]
    path = tmp_path / "data.csv"
    path.write_bytes(LINE_ENDS[ends](text).encode())
    opened, path_open = [], Path.open

    def counting_open(self, *args, **kwargs):
        opened.append(self)
        return path_open(self, *args, **kwargs)

    monkeypatch.setattr(Path, "open", counting_open)
    monkeypatch.setattr(codec, "_parse_rows", _refuse_row_reader)
    load(path, SCHEMA)
    assert opened == [path]


def _lines(text: str) -> list[str]:
    """``text`` split into lines as the reader splits it, line ends kept."""
    return io.StringIO(text, newline="").readlines()


def _record_spans(monkeypatch) -> list[list[tuple[int, int]]]:
    """The byte ranges each later load splits its file into, one list per load."""
    seen, real = [], codec._spans
    monkeypatch.setattr(codec, "_spans", lambda fd, start: seen.append(real(fd, start)) or seen[-1])
    return seen


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("load,text,schema,expected", EDGE_CASES)
def test_split_parse_agrees_with_row_reader(tmp_path, monkeypatch, load, text, schema, expected):
    # Each edge case's rows after a filler of its other rows, so the rows
    # of the case fall in the second of at least two spans, parsed by a
    # second worker, whatever the file's line ends. The outcome is the row
    # reader's: the same error, message and row, or the same arrays.
    header, *rows = _lines(text)
    bad = int(re.match(r"row (\d+):", expected[1]).group(1)) if expected else 0
    filler = "".join(row for i, row in enumerate(rows, start=1) if i != bad) * 40
    path = _write(tmp_path, header + filler + "".join(rows))
    monkeypatch.setattr(codec, "_SPLIT_BYTES", len(filler.encode(errors="surrogateescape")) // 2)
    pin_workers(monkeypatch, 2)
    spans = _record_spans(monkeypatch)
    split = _outcome(load, path, schema)
    assert_no_child_left()
    assert spans[0][0][0] == len(header.encode(errors="surrogateescape"))
    assert len(spans[0]) >= 2
    with monkeypatch.context() as m:
        m.setattr(codec, "_parse_span", lambda *args: b"")
        assert split == _outcome(load, path, schema)
    if expected is not None and isinstance(_outcome(load, _write(tmp_path, header + filler,
                                                                 "filler.csv"), schema), dict):
        assert split[:2] == (expected[0], re.sub(r"^row \d+",
                                                 f"row {len(_lines(filler)) + bad}", expected[1]))


def _split_sized(tmp_path, confounded_cfg, ends):
    """A 3,000-row combined file with line ends ``ends``, and its dataset."""
    data, _ = px.generate(confounded_cfg, 3_000, 0.5, seed=44)
    path = tmp_path / "split.csv"
    px.write_csv(data, path, px.CsvSchema())
    path.write_bytes(LINE_ENDS[ends](path.read_bytes().decode().replace("\r\n", "\n")).encode())
    return path, data


@pytest.mark.parametrize("ends, spans", [("lf", 11), ("crlf", 11), ("lone_cr", 11)])
def test_split_sized_file_loads_in_bulk(tmp_path, monkeypatch, confounded_cfg, ends, spans):
    # A file of many chunks is parsed in chunks, one per worker at a time,
    # and loads bit-identical with no row reader; lone CRs are line ends
    # to cut after like LFs.
    path, data = _split_sized(tmp_path, confounded_cfg, ends)
    monkeypatch.setattr(codec, "_SPLIT_BYTES", path.stat().st_size // 12)
    monkeypatch.setattr(codec, "_parse_rows", _refuse_row_reader)
    seen = _record_spans(monkeypatch)
    for workers in (1, 2):
        pin_workers(monkeypatch, workers)
        back = px.load_csv(path, px.CsvSchema())
        assert_no_child_left()
        assert len(seen[-1]) == spans
        for name, arr in vars(data).items():
            assert getattr(back, name).tobytes() == arr.tobytes(), (ends, workers, name)


def _assert_loads_in_bulk(monkeypatch, path, data):
    """``path`` loads as ``data``, bit-identical, in about 12 spans at 1 and
    2 workers, with no row reader."""
    monkeypatch.setattr(codec, "_SPLIT_BYTES", path.stat().st_size // 12)
    monkeypatch.setattr(codec, "_parse_rows", _refuse_row_reader)
    for workers in (1, 2):
        pin_workers(monkeypatch, workers)
        back = px.load_csv(path, px.CsvSchema())
        assert_no_child_left()
        for name, arr in vars(data).items():
            assert getattr(back, name).tobytes() == arr.tobytes(), (workers, name)


@pytest.mark.parametrize("ends", ["lf", "crlf"])
def test_split_sized_r_style_file_loads_in_bulk(tmp_path, monkeypatch, confounded_cfg, ends):
    # R's write.csv quotes the header cells and every label. csv.reader
    # reads a field quoted whole as its content, and so do the spans: the
    # file loads bit-identical with no row reader.
    path, data = _split_sized(tmp_path, confounded_cfg, ends)
    path.write_bytes(_r_style(path.read_bytes().decode()).encode())
    assert path.read_bytes().count(b',"E",') > 1_000
    _assert_loads_in_bulk(monkeypatch, path, data)


@pytest.mark.parametrize("ends", ["lf", "crlf"])
def test_split_sized_comma_space_file_loads_in_bulk(tmp_path, monkeypatch, confounded_cfg, ends):
    # A file with a space after each comma: np.loadtxt reads the padded
    # numbers, and the spans read padded NA and labels as the row reader
    # does, so the file loads bit-identical with no row reader.
    path, data = _split_sized(tmp_path, confounded_cfg, ends)
    path.write_bytes(path.read_bytes().replace(b",", b", "))
    assert path.read_bytes().count(b", E, ") > 1_000 and path.read_bytes().count(b", NA, ") > 1_000
    _assert_loads_in_bulk(monkeypatch, path, data)


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet='"a, ', min_size=1, max_size=12))
def test_fields_quoted_whole_read_as_csv_reader_reads_them(line):
    # Where the substitution leaves no quote, the line's cells are those
    # csv.reader reads from the line as written.
    unquoted = codec._QUOTED_WHOLE.sub(rb"\1", line.encode())
    if b'"' not in unquoted:
        assert unquoted.decode().split(",") == next(csv.reader([line]))


def test_split_sized_stream_loads_in_bulk(tmp_path, monkeypatch, confounded_cfg):
    # A FIFO is copied into a temporary file first, so it is parsed in
    # the regular file's spans by forked workers, with no row reader.
    path, data = _split_sized(tmp_path, confounded_cfg, "crlf")
    monkeypatch.setattr(codec, "_SPLIT_BYTES", path.stat().st_size // 12)
    monkeypatch.setattr(codec, "_parse_rows", _refuse_row_reader)
    seen = _record_spans(monkeypatch)
    pin_workers(monkeypatch, 2)
    with fifo_of(tmp_path, path.read_bytes()) as fifo:
        back = px.load_csv(fifo, px.CsvSchema())
    assert_no_child_left()
    assert len(seen[-1]) == 11
    for name, arr in vars(data).items():
        assert getattr(back, name).tobytes() == arr.tobytes(), name


@pytest.mark.parametrize("y", ["out,come", "out\ncome"], ids=["comma", "line_break"])
def test_split_sized_file_with_quoted_header_loads_in_bulk(tmp_path, monkeypatch, confounded_cfg,
                                                           y):
    # csv.writer quotes a header cell holding a comma or a line break; the
    # data start where the lines csv.reader pulled for the header end, so
    # the file is still parsed in spans, with no row reader.
    data, _ = px.generate(confounded_cfg, 3_000, 0.5, seed=44)
    schema = px.CsvSchema(y=y)
    path = tmp_path / "split.csv"
    px.write_csv(data, path, schema)
    raw = path.read_bytes()
    assert raw.startswith(f'"{y}",a,g,'.encode())
    monkeypatch.setattr(codec, "_SPLIT_BYTES", len(raw) // 12)
    monkeypatch.setattr(codec, "_parse_rows", _refuse_row_reader)
    spans = _record_spans(monkeypatch)
    for workers in (1, 2):
        pin_workers(monkeypatch, workers)
        back = px.load_csv(path, schema)
        assert_no_child_left()
        assert spans[-1][0][0] == raw.index(b"\r\n") + 2 and len(spans[-1]) == 11
        for name, arr in vars(data).items():
            assert getattr(back, name).tobytes() == arr.tobytes(), (workers, name)


def test_split_cut_between_cr_and_lf(tmp_path, monkeypatch, confounded_cfg):
    # A chunk that would end between the CR and the LF of a CRLF ends
    # after the LF instead.
    path, data = _split_sized(tmp_path, confounded_cfg, "crlf")
    raw = path.read_bytes()
    start = raw.index(b"\n") + 1
    lf = raw.index(b"\r\n", start + len(raw) // 3) + 1
    monkeypatch.setattr(codec, "_SPLIT_BYTES", lf - start)
    monkeypatch.setattr(codec, "_parse_rows", _refuse_row_reader)
    pin_workers(monkeypatch, 2)
    spans = _record_spans(monkeypatch)
    back = px.load_csv(path, px.CsvSchema())
    assert spans[0][0] == (start, lf + 1)
    for name, arr in vars(data).items():
        assert getattr(back, name).tobytes() == arr.tobytes(), name


def _row_reader_outcome(monkeypatch, path):
    """What ``load_csv`` gives when every span is doubted."""
    with monkeypatch.context() as m:
        m.setattr(codec, "_parse_span", lambda *args: b"")
        return _outcome(px.load_csv, path, px.CsvSchema())


@pytest.mark.parametrize("final_end", [True, False], ids=["final_end", "no_final_end"])
@pytest.mark.parametrize("ends", ["lf", "crlf", "lone_cr"])
def test_counted_lines_size_the_bulk_load(tmp_path, monkeypatch, confounded_cfg, ends,
                                          final_end):
    # The reader sizes its arrays from the line ends it counts in each
    # span before the spans' tables arrive; the count matches the spans'
    # rows, or the row reader would run.
    path, _ = _split_sized(tmp_path, confounded_cfg, ends)
    raw = path.read_bytes()
    if not final_end:
        path.write_bytes(raw := raw.rstrip(b"\r\n"))
    monkeypatch.setattr(codec, "_SPLIT_BYTES", len(raw) // 12)
    want = _row_reader_outcome(monkeypatch, path)
    assert isinstance(want, dict)
    monkeypatch.setattr(codec, "_parse_rows", _refuse_row_reader)
    for workers in (1, 2):
        pin_workers(monkeypatch, workers)
        assert _outcome(px.load_csv, path, px.CsvSchema()) == want, workers
        assert_no_child_left()


@pytest.mark.parametrize("case", ["last_span_doubted", "bad_cell_in_doubted_span", "count_low",
                                  "count_high"])
def test_row_reader_reads_a_file_the_spans_cannot_fill(tmp_path, monkeypatch, confounded_cfg,
                                                       case):
    # A doubted span keeps the rows of the spans before it, and the row
    # reader reads on from its first line, numbering rows on from them:
    # the file loads, or fails on the same row, as when the row reader
    # reads it all. A line count that the spans' rows do not match sends
    # the whole file to the row reader.
    path, _ = _split_sized(tmp_path, confounded_cfg, "crlf")
    raw = path.read_bytes()
    monkeypatch.setattr(codec, "_SPLIT_BYTES", len(raw) // 12)
    starts = [m.end() for m in re.finditer(rb"\r\n", raw)]  # each data line's start, then the end
    if case == "last_span_doubted":  # csv.reader reads the last row's label "E" , as E
        last = starts[-2]
        path.write_bytes(raw[:last] + re.sub(rb",([EO]),", rb',"\1" ,', raw[last:], count=1))
    elif case == "bad_cell_in_doubted_span":  # row 1700's w1 cell
        row = starts[1699]
        path.write_bytes(raw[:row] + re.sub(rb"^([^,]*,[^,]*,[^,]*,)[^,]*", rb"\1x",
                                            raw[row:], count=1))
    else:
        count = codec._count_lines
        shift = -1 if case == "count_low" else 1
        monkeypatch.setattr(codec, "_count_lines", lambda *args: count(*args) + shift)
    want = _row_reader_outcome(monkeypatch, path)
    if case == "bad_cell_in_doubted_span":
        assert want == (ParseError, "row 1700: column 'w1': cannot parse 'x' as a number", 1700)
    else:
        assert isinstance(want, dict)
    spans = _record_spans(monkeypatch)
    calls, parse_rows = [], codec._parse_rows

    def recorded(*args):
        """The rows read before the row reader starts, then the rows it reads."""
        calls.append([args[4], None])
        calls[-1][1] = len(table := parse_rows(*args))
        return table

    monkeypatch.setattr(codec, "_parse_rows", recorded)
    for workers in (1, 2):
        pin_workers(monkeypatch, workers)
        calls.clear()
        assert _outcome(px.load_csv, path, px.CsvSchema()) == want, workers
        assert_no_child_left()
        if case == "last_span_doubted":  # the row reader reads the last span's rows alone
            doubted = spans[-1][-1][0]
            assert calls == [[starts.index(doubted), len(starts) - 1 - starts.index(doubted)]]
        elif case == "bad_cell_in_doubted_span":  # it fails within the span holding row 1700
            doubted = max(begin for begin, _ in spans[-1] if begin <= starts[1699])
            assert calls == [[starts.index(doubted), None]] and starts.index(doubted) > 1_000
        else:
            assert calls == [[0, 3_000]]


@pytest.mark.parametrize("ends", ["lf", "crlf"])
@pytest.mark.parametrize("size", ["small", "split_sized"])
def test_byte_order_mark_is_dropped(tmp_path, monkeypatch, confounded_cfg, size, ends):
    # Excel's "CSV UTF-8" export starts the file with the bytes EF BB BF. A
    # copy with that mark loads bit-identical to the file without it, in
    # bulk, its data starting after the mark and the header line.
    if size == "small":
        path, schema = _write(tmp_path, LINE_ENDS[ends](MINIMAL)), SCHEMA
    else:
        (path, _), schema = _split_sized(tmp_path, confounded_cfg, ends), px.CsvSchema()
        monkeypatch.setattr(codec, "_SPLIT_BYTES", path.stat().st_size // 12)
    marked = tmp_path / "marked.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    monkeypatch.setattr(codec, "_parse_rows", _refuse_row_reader)
    pin_workers(monkeypatch, 2)
    spans = _record_spans(monkeypatch)
    plain = _outcome(px.load_csv, path, schema)
    assert isinstance(plain, dict)
    assert _outcome(px.load_csv, marked, schema) == plain
    assert [s[0] + 3 for s in spans[0]] == [s[0] for s in spans[1]]


def test_row_reader_numbers_rows_after_a_quoted_header_record(tmp_path):
    # The row reader continues the header's csv.reader, so a header cell
    # spanning two lines does not shift the row numbers.
    text = MINIMAL.replace("y,", '"y\nb",', 1).replace("0.3,0.9", "x,0.9")
    with pytest.raises(ParseError, match=r"^row 3: column 'w1': cannot parse 'x' as a number$"):
        px.load_csv(_write(tmp_path, text), dataclasses.replace(SCHEMA, y="y\nb"))


@pytest.mark.parametrize("unmasked", [False, True], ids=["masked", "unmasked"])
def test_stream_loads_like_a_regular_file(tmp_path, confounded_cfg, unmasked):
    # A FIFO has no size and no offsets to read at: it is copied into a
    # temporary file, whose spans give the regular file's table.
    path, schema = tmp_path / "d.csv", px.CsvSchema()
    if unmasked:
        px.write_unmasked_csv(px.generate_full(confounded_cfg, 500, seed=3), path, schema)
    else:
        px.write_csv(px.generate(confounded_cfg, 500, 0.5, seed=3)[0], path, schema)
    load = px.load_unmasked_csv if unmasked else px.load_csv
    with fifo_of(tmp_path, path.read_bytes()) as fifo:
        streamed = load(fifo, schema)
    regular = load(path, schema)
    for f in dataclasses.fields(regular):
        assert getattr(streamed, f.name).tobytes() == getattr(regular, f.name).tobytes(), f.name


def test_one_cpu_forks_nothing(tmp_path, monkeypatch, confounded_cfg):
    # Pinned to one CPU, a split-sized file is read and a many-chunk file
    # written in-process.
    def no_fork():
        raise AssertionError("forked on one CPU")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(os, "fork", no_fork)
    path, data = _split_sized(tmp_path, confounded_cfg, "crlf")
    monkeypatch.setattr(codec, "_SPLIT_BYTES", path.stat().st_size // 12)
    monkeypatch.setattr(codec, "_CHUNK_ROWS", codec._BLOCK_ROWS)
    back = px.load_csv(path, px.CsvSchema())
    px.write_csv(back, tmp_path / "again.csv", px.CsvSchema())
    assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()


@pytest.mark.parametrize("death, reason", [
    pytest.param(lambda: os._exit(3), "exit status 3", id="exit_3"),
    pytest.param(lambda: os.kill(os.getpid(), signal.SIGKILL), "signal SIGKILL", id="sigkill"),
])
def test_codec_worker_death_is_an_error(tmp_path, monkeypatch, confounded_cfg, death, reason,
                                        blas_at_two):
    # A reader or writer worker that dies leaves an error naming how it
    # ended, never a short table or file taken as whole, no child, and
    # the parent's OpenBLAS thread count restored.
    path, data = _split_sized(tmp_path, confounded_cfg, "crlf")
    monkeypatch.setattr(codec, "_SPLIT_BYTES", path.stat().st_size // 12)
    monkeypatch.setattr(codec, "_CHUNK_ROWS", codec._BLOCK_ROWS)
    pin_workers(monkeypatch, 2)
    parent = os.getpid()

    def dying(real):
        def call(*args, **kwargs):
            if os.getpid() != parent:
                death()
            return real(*args, **kwargs)
        return call

    message = rf"worker process \d+ ended without its result \({reason}\)"
    with monkeypatch.context() as m:
        m.setattr(codec, "_parse_span", dying(codec._parse_span))
        with pytest.raises(ProxateError, match=message) as caught:
            px.load_csv(path, px.CsvSchema())
        assert type(caught.value) is ProxateError
        assert_no_child_left()
        assert blas_threads() == blas_at_two
    with monkeypatch.context() as m:
        m.setattr(codec, "_cells", dying(codec._cells))
        with pytest.raises(ProxateError, match=message) as caught:
            px.write_csv(data, tmp_path / "out.csv", px.CsvSchema())
        assert type(caught.value) is ProxateError
        assert_no_child_left()
        assert blas_threads() == blas_at_two


def test_unknown_sample_label_rejected(tmp_path):
    text = MINIMAL.replace("NA,1,E,0.1", "NA,1,Q,0.1", 1)
    with pytest.raises(SchemaViolationError):
        px.load_csv(_write(tmp_path, text), SCHEMA)


def test_lowercase_na_is_not_missing(tmp_path):
    # The missing token is case-sensitive.
    text = MINIMAL.replace("NA,1,E", "na,1,E", 1)
    with pytest.raises(ParseError):
        px.load_csv(_write(tmp_path, text), SCHEMA)


def test_four_surrogate_columns(tmp_path):
    # Role lists support wide surrogate blocks, e.g. earnings and weeks
    # employed over two follow-up years.
    header = "earn_y4,assigned,sample,score0,survey1,earn_y2,earn_y3,emp_y2,emp_y3,age"
    rows = [
        "NA,1,E,1,NA,100,120,0.4,0.5,24",
        "NA,0,E,0,NA,90,95,0.3,0.4,22",
        "210,NA,O,1,1,110,130,0.5,0.6,25",
        "180,NA,O,0,0,80,85,0.2,0.3,21",
    ]
    schema = px.CsvSchema(
        y="earn_y4", a="assigned", g="sample",
        w=("score0",), z=("survey1",),
        s=("earn_y2", "earn_y3", "emp_y2", "emp_y3"), x=("age",),
    )
    data = px.load_csv(_write(tmp_path, "\n".join([header] + rows)), schema)
    assert data.s.shape[1] == 4 and data.n_e == 2 and data.n_o == 2


def test_custom_labels_and_prefix_roles(tmp_path):
    text = MINIMAL.replace(",E,", ",exp,").replace(",O,", ",obs,")
    schema = px.CsvSchema(e_label="exp", o_label="obs")  # prefix declarations
    data = px.load_csv(_write(tmp_path, text), schema)
    assert data.n_e == 2 and data.s.shape[1] == 2


def _four_rows(header: str) -> str:
    """A valid two-E, two-O file with ``header``; roles read off the first letter."""
    rows = [header]
    for i, (label, a) in enumerate([("E", "1"), ("E", "0"), ("O", "NA"), ("O", "NA")]):
        cells = {"y": "NA" if label == "E" else f"{3 + i}.0", "a": a, "g": label,
                 "z": "NA" if label == "E" else f"0.{i + 5}"}
        rows.append(",".join(cells.get(col[0], f"1.{i}") for col in header.split(",")))
    return "\n".join(rows)


@pytest.mark.parametrize("header", [
    "y,a,g,w1,z1,s1,x1,sex", "y,a,g,w1,z1,s1,x", "y,a,g,w,z,s,x1", "y,a,g,w1,z1,s1,x1,x_id",
    "y,a,g,w1,z1,s1,x1,sex,sex",
])
def test_prefix_claims_bare_and_indexed_columns(tmp_path, header):
    # Prefix "s" claims s and s1, never an unrelated "sex" column, which
    # may repeat.
    data = px.load_csv(_write(tmp_path, _four_rows(header)), px.CsvSchema())
    assert [getattr(data, r).shape[1] for r in "wzsx"] == [1, 1, 1, 1]


@pytest.mark.parametrize("header", ["y,a,g,w1,z1,s1,x1,s1", "y,a,g,w1,z1,s1,x1,y"])
def test_header_naming_a_claimed_column_twice_rejected(tmp_path, header):
    # Which of the two columns a role reads is not for the reader to guess,
    # under a prefix as under a column list (test_malformed_file_rejected).
    with pytest.raises(ValidationError) as err:
        px.load_csv(_write(tmp_path, _four_rows(header)), px.CsvSchema())
    assert str(err.value) == f"header names column {header.rsplit(',', 1)[1]!r} twice"


@pytest.mark.parametrize("header, schema", [
    ("y,a,g,w1,z1,s1,x_age", px.CsvSchema()),
    ("y,a,g,w1,z1,s1,cov_age", px.CsvSchema(x="cov_")),
])
def test_prefix_matching_only_unindexed_columns_rejected(tmp_path, header, schema):
    # Covariates the prefix does not claim must not silently vanish.
    with pytest.raises(ValidationError, match="list \\['.*_age'\\] explicitly"):
        px.load_csv(_write(tmp_path, _four_rows(header)), schema)


def test_unmasked_reader_rejects_combined_file(tmp_path):
    with pytest.raises(ValidationError, match="column 'g'.*combined two-sample CSV"):
        px.load_unmasked_csv(_write(tmp_path, MINIMAL), SCHEMA)


def test_column_order_free(tmp_path):
    reordered = "\n".join(
        [
            "x1,g,s2,s1,z1,w1,a,y",
            "0.3,E,2.0,1.0,NA,0.1,1,NA",
            "0.4,E,2.5,1.5,NA,0.2,0,NA",
            "0.5,O,2.1,1.1,0.9,0.3,NA,3.0",
            "0.6,O,2.2,1.2,1.0,0.4,NA,4.0",
        ]
    )
    a = px.load_csv(_write(tmp_path, MINIMAL), SCHEMA)
    b = px.load_csv(_write(tmp_path, reordered, "re.csv"), SCHEMA)
    np.testing.assert_array_equal(a.s, b.s)
    np.testing.assert_array_equal(a.is_e, b.is_e)


def test_round_trip(tmp_path, small_data):
    data, _ = small_data
    schema = px.CsvSchema()
    path = tmp_path / "rt.csv"
    px.write_csv(data, path, schema)
    back = px.load_csv(path, schema)
    np.testing.assert_array_equal(back.is_e, data.is_e)
    for name in ("y", "a", "w", "z", "s", "x"):
        np.testing.assert_array_equal(getattr(back, name), getattr(data, name))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6),
       st.integers(min_value=0, max_value=10_000))
def test_round_trip_random(tmp_path_factory, n_e, n_o, seed):
    rng = np.random.default_rng(seed)
    n = n_e + n_o
    is_e = np.zeros(n, dtype=bool)
    is_e[:n_e] = True
    data = px.CombinedDataset.from_arrays(
        y=np.where(is_e, np.nan, rng.normal(size=n)),
        w=rng.normal(size=(n, 1)),
        z=np.where(is_e[:, None], np.nan, rng.normal(size=(n, 1))),
        s=rng.normal(size=(n, 2)),
        a=np.where(is_e, (rng.random(n) < 0.5).astype(float), np.nan),
        x=rng.normal(size=(n, 1)),
        is_e=is_e,
    )
    path = tmp_path_factory.mktemp("rt") / "d.csv"
    px.write_csv(data, path, SCHEMA)
    back = px.load_csv(path, SCHEMA)
    np.testing.assert_array_equal(back.is_e, data.is_e)
    for name in ("y", "a", "w", "z", "s", "x"):
        np.testing.assert_array_equal(getattr(back, name), getattr(data, name))

    full = px.FullyObservedSample.from_arrays(
        y=rng.normal(size=n),
        a=(rng.random(n) < 0.5).astype(float),
        s=rng.normal(size=(n, 2)),
        x=rng.normal(size=(n, 1)),
        w=rng.normal(size=(n, 1)),
        z=rng.normal(size=(n, 1)),
    )
    px.write_unmasked_csv(full, path, SCHEMA)
    back_full = px.load_unmasked_csv(path, SCHEMA)
    for name in ("y", "a", "w", "z", "s", "x"):
        np.testing.assert_array_equal(getattr(back_full, name), getattr(full, name))


def _reference_bytes(columns, header) -> bytes:
    """The file formatted one cell at a time: repr of each finite number, NA otherwise."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in zip(*columns):
        writer.writerow([v if isinstance(v, str) else repr(v) if math.isfinite(v) else "NA"
                         for v in row])
    return buf.getvalue().encode()


def _columns(sample, labels=()) -> list[list]:
    """The file's columns in writer order: y, a, [g,] w..., z..., s..., x..."""
    cols = [sample.y.tolist(), sample.a.tolist()] + ([labels] if labels else [])
    for role in "wzsx":
        cols += getattr(sample, role).T.tolist()
    return cols


def test_writers_across_block_boundaries(tmp_path, confounded_cfg):
    n = 2 * codec._BLOCK_ROWS + 1
    data, _ = px.generate(confounded_cfg, n, 0.5, seed=42)
    full = px.generate_full(confounded_cfg, n, seed=42)
    schema = px.CsvSchema()
    px.write_csv(data, tmp_path / "masked.csv", schema)
    px.write_unmasked_csv(full, tmp_path / "unmasked.csv", schema)
    labels = ["E" if e else "O" for e in data.is_e.tolist()]
    for name, load, want, cols in (("masked", px.load_csv, data, _columns(data, labels)),
                                   ("unmasked", px.load_unmasked_csv, full, _columns(full))):
        raw = (tmp_path / f"{name}.csv").read_bytes()
        header = raw.split(b"\r\n", 1)[0].decode().split(",")
        assert raw == _reference_bytes(cols, header), name
        back = load(tmp_path / f"{name}.csv", schema)
        for role, arr in vars(want).items():
            assert getattr(back, role).tobytes() == arr.tobytes(), (name, role)


# Labels and column names that need csv quoting, written across block
# boundaries. The reference bytes are UTF-8, so "é" must be written as
# b"\xc3\xa9".
QUOTED_SCHEMAS = [
    pytest.param(px.CsvSchema(e_label="E,1", o_label='say "O"', w=("w,1",)), id="comma_quote"),
    pytest.param(px.CsvSchema(e_label="o\r\nx", o_label="é", z=("z\n1",)), id="crlf_non_ascii"),
    pytest.param(px.CsvSchema(e_label=""), id="empty_label"),
]


@pytest.mark.parametrize("schema", QUOTED_SCHEMAS)
def test_writer_quotes_labels_and_column_names(tmp_path, confounded_cfg, schema):
    n = 2 * codec._BLOCK_ROWS + 1
    data, _ = px.generate(confounded_cfg, n, 0.5, seed=43)
    full = px.generate_full(confounded_cfg, n, seed=43)
    labels = [schema.e_label if e else schema.o_label for e in data.is_e.tolist()]
    names = {r: list(getattr(schema, r)) if isinstance(getattr(schema, r), tuple)
             else [f"{getattr(schema, r)}1"] for r in "wzsx"}
    tail = [c for r in "wzsx" for c in names[r]]
    for name, write, load, want, cols, header in (
        ("masked", px.write_csv, px.load_csv, data, _columns(data, labels),
         [schema.y, schema.a, schema.g] + tail),
        ("unmasked", px.write_unmasked_csv, px.load_unmasked_csv, full, _columns(full),
         [schema.y, schema.a] + tail),
    ):
        path = tmp_path / f"{name}.csv"
        write(want, path, schema)
        assert path.read_bytes() == _reference_bytes(cols, header), name
        back = load(path, schema)
        for role, arr in vars(want).items():
            assert getattr(back, role).tobytes() == arr.tobytes(), (name, role)


@pytest.mark.parametrize("schema", [pytest.param(px.CsvSchema(), id="default"),
                                    *QUOTED_SCHEMAS])
def test_forked_writer_across_chunk_boundaries(tmp_path, monkeypatch, confounded_cfg, schema):
    # Three chunks of rows, formatted in-process and by two workers: both
    # give the one-cell-at-a-time reference bytes, masked with NA and not.
    n = 2 * codec._CHUNK_ROWS + codec._BLOCK_ROWS + 1
    data, _ = px.generate(confounded_cfg, n, 0.5, seed=45)
    full = px.generate_full(confounded_cfg, n, seed=45)
    labels = [schema.e_label if e else schema.o_label for e in data.is_e.tolist()]
    names = {r: list(getattr(schema, r)) if isinstance(getattr(schema, r), tuple)
             else [f"{getattr(schema, r)}1"] for r in "wzsx"}
    tail = [c for r in "wzsx" for c in names[r]]
    for name, write, want, cols, header in (
        ("masked", px.write_csv, data, _columns(data, labels),
         [schema.y, schema.a, schema.g] + tail),
        ("unmasked", px.write_unmasked_csv, full, _columns(full), [schema.y, schema.a] + tail),
    ):
        reference = _reference_bytes(cols, header)
        for workers in (1, 2):
            pin_workers(monkeypatch, workers)
            path = tmp_path / f"{name}-{workers}.csv"
            write(want, path, schema)
            assert_no_child_left()
            assert path.read_bytes() == reference, (name, workers)


# sha256 of both files for fixed draws. Round trips compare values only;
# these pin the bytes users get (number format, column order, NA, line ends).
GOLDEN_SHA256 = {
    "masked": "c393ae9d6d30b79fa5e1b6df1cb862d62f0eaa3cc6a2b30e2b7ebdcacc709e8d",
    "unmasked": "e7fb98bf7e74c986994930ee44f235b7fadbdbcb8dd7f3bdede00dcf499f34cd",
}


def test_written_bytes_golden(tmp_path, confounded_cfg):
    data, _ = px.generate(confounded_cfg, 20, 0.5, seed=3)
    px.write_csv(data, tmp_path / "masked.csv", px.CsvSchema())
    full = px.generate_full(confounded_cfg, 20, seed=3)
    px.write_unmasked_csv(full, tmp_path / "unmasked.csv", px.CsvSchema())
    for name, digest in GOLDEN_SHA256.items():
        assert hashlib.sha256((tmp_path / f"{name}.csv").read_bytes()).hexdigest() == digest


def test_split_by_sample(small_data):
    data, _ = small_data
    e_view, o_view = px.split_by_sample(data)
    assert e_view.n == data.n_e and o_view.n == data.n_o
    assert e_view.n + o_view.n == data.n
    merged = np.sort(np.concatenate([e_view.indices, o_view.indices]))
    np.testing.assert_array_equal(merged, np.arange(data.n))
    # Per-record availability.
    with pytest.raises(RoleUnavailableError):
        e_view.role_matrix("z")
    with pytest.raises(RoleUnavailableError):
        e_view.role_matrix("y")
    with pytest.raises(RoleUnavailableError):
        o_view.role_matrix("a")
    assert np.isfinite(o_view.y).all()
    assert np.isin(e_view.a, (0.0, 1.0)).all()


def test_empty_stratum_rejected():
    with pytest.raises(ValidationError):
        px.CombinedDataset.from_arrays(
            y=np.array([np.nan]),
            w=np.zeros((1, 1)),
            z=np.array([[np.nan]]),
            s=np.zeros((1, 1)),
            a=np.array([1.0]),
            x=np.zeros((1, 0)),
            is_e=np.array([True]),
        )


@pytest.mark.parametrize("bad, message", [
    ({"y": np.zeros(3)}, "column lengths disagree"),
    ({"w": np.zeros((3, 1))}, "w must have 4 rows"),
])
def test_misshapen_column_rejected(bad, message):
    is_e = np.array([True, True, False, False])
    cols = {"y": np.where(is_e, np.nan, 1.0), "w": np.zeros((4, 1)),
            "z": np.where(is_e[:, None], np.nan, 1.0), "s": np.zeros((4, 1)),
            "a": np.where(is_e, 1.0, np.nan), "x": np.zeros((4, 0)), "is_e": is_e}
    px.CombinedDataset.from_arrays(**cols)
    with pytest.raises(ValidationError, match=f"^{message}$"):
        px.CombinedDataset.from_arrays(**{**cols, **bad})


def test_records_expose_masking(small_data):
    data, _ = small_data
    one_e = px.SampleView(data, np.flatnonzero(data.is_e)[:1], "E")
    one_o = px.SampleView(data, np.flatnonzero(~data.is_e)[:1], "O")
    for role in ("y", "z"):
        with pytest.raises(RoleUnavailableError):
            one_e.role_matrix(role)
    with pytest.raises(RoleUnavailableError):
        one_o.role_matrix("a")
    assert one_e.a[0] in (0.0, 1.0)
    assert np.isfinite(one_o.y[0]) and np.isfinite(one_o.role_matrix("z")).all()
