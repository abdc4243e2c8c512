from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import proxate as px
from proxate.errors import (
    ParseError,
    RoleUnavailableError,
    SchemaViolationError,
    ValidationError,
)

SCHEMA = px.CsvSchema(s=("s1", "s2"), w=("w1",), z=("z1",), x=("x1",))


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


MINIMAL = """y,a,g,w1,z1,s1,s2,x1
NA,1,E,0.1,NA,1.0,2.0,0.3
NA,0,E,0.2,NA,1.5,2.5,0.4
3.0,NA,O,0.3,0.9,1.1,2.1,0.5
4.0,NA,O,0.4,1.0,1.2,2.2,0.6
"""


def test_load_minimal(tmp_path):
    data = px.load_csv(_write(tmp_path, MINIMAL), SCHEMA)
    assert data.n_e == 2 and data.n_o == 2
    assert data.dims.s == 2 and data.dims.w == 1 and data.dims.x == 1
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
    assert data.dims.s == 4 and data.n_e == 2 and data.n_o == 2


def test_custom_labels_and_prefix_roles(tmp_path):
    text = MINIMAL.replace(",E,", ",exp,").replace(",O,", ",obs,")
    schema = px.CsvSchema(e_label="exp", o_label="obs")  # prefix declarations
    data = px.load_csv(_write(tmp_path, text), schema)
    assert data.n_e == 2 and data.dims.s == 2


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
    for name in ("y", "a", "w", "z", "s", "x"):
        np.testing.assert_array_equal(getattr(back, name), getattr(data, name))


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
