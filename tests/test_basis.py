from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import proxate as px
from proxate.basis import BasisSpec, fit_basis
from proxate.errors import NumericalError, RoleUnavailableError, ValidationError


@pytest.fixture(scope="module")
def views(small_data):
    data, _ = small_data
    return px.split_by_sample(data)


def test_out_dim_linear(views):
    _, o_view = views
    # dims here: s=1, x=1 -> 1 + 1 + 1
    fb, _ = fit_basis(BasisSpec(roles=("s", "x")), o_view)
    assert fb.out_dim == 3


def test_out_dim_counts():
    dims = {"w": 1, "z": 1, "s": 2, "x": 3}
    view = _Rows(**{r: np.arange(4.0 * d).reshape(4, d) for r, d in dims.items()})

    def out_dim(**spec):
        return fit_basis(BasisSpec(**spec), view)[0].out_dim

    assert out_dim(roles=("s", "x")) == 6
    assert out_dim(roles=("w",), degree=2) == 3
    assert out_dim(roles=("w", "s"), interactions=True) == 1 + 3 + 2
    assert out_dim(roles=("s",), include_intercept=False) == 2


def test_role_unavailable(views):
    e_view, _ = views
    with pytest.raises(RoleUnavailableError):
        fit_basis(BasisSpec(roles=("z", "s")), e_view)


@pytest.mark.parametrize("big, role", [
    ({"s": 1e200}, "'s'"), ({"w": 1e100, "x": 1e100}, "'w\\*x'"),
], ids=["s", "w*x"])
def test_non_finite_standardization_names_role(big, role):
    # One huge value overflows a column's sd: s itself, or only the
    # w*x cross-product when neither factor overflows alone.
    rng = np.random.default_rng(0)

    class View:
        def role_matrix(self, r):
            col = rng.normal(size=(6, 1))
            col[0, 0] = big.get(r, col[0, 0])
            return col

    spec = BasisSpec(roles=("w", "s", "x"), interactions=True, standardize=True)
    with pytest.raises(NumericalError, match=f"non-finite standardization of role {role}"):
        fit_basis(spec, View())


def test_spec_validation():
    with pytest.raises(ValidationError):
        BasisSpec(roles=("s",), degree=4)
    with pytest.raises(ValidationError):
        BasisSpec(roles=())
    with pytest.raises(ValidationError):
        BasisSpec(roles=("q",))
    with pytest.raises(ValidationError):
        BasisSpec(roles=("s", "s"))


def test_eval_examples(views):
    _, o_view = views
    one = px.SampleView(o_view.data, o_view.indices[:1], "O")
    s_row = one.role_matrix("s")[0]

    intercept_only, _ = fit_basis(BasisSpec(roles=("s",), include_intercept=False), o_view)
    # degree-1 role read-off, no intercept
    np.testing.assert_allclose(intercept_only.transform(one)[0], s_row)

    fb, _ = fit_basis(BasisSpec(roles=("s",)), o_view)
    np.testing.assert_allclose(fb.transform(one)[0], np.concatenate([[1.0], s_row]))
    # A unit evaluated alone equals its row of the batched evaluation.
    np.testing.assert_array_equal(fb.transform(one)[0], fb.transform(o_view)[0])


class _Rows:
    """Role-matrix source over fixed arrays, one row per unit."""

    def __init__(self, **roles):
        self._roles = roles
        self.n = next(iter(roles.values())).shape[0]

    def role_matrix(self, role):
        return self._roles[role]


def test_intercept_only_basis():
    # A zero-width role leaves just the intercept column.
    fb, _ = fit_basis(BasisSpec(roles=("x",)), _Rows(x=np.zeros((4, 0))))
    assert fb.out_dim == 1
    np.testing.assert_array_equal(fb.transform(_Rows(x=np.zeros((1, 0)))), [[1.0]])


def test_direct_readoff():
    view = _Rows(s=np.array([[2.0, -1.0], [0.0, 1.0], [1.0, 1.0]]))
    fb, _ = fit_basis(BasisSpec(roles=("s",)), view)
    one = _Rows(s=np.array([[2.0, -1.0]]))
    np.testing.assert_allclose(fb.transform(one), [[1.0, 2.0, -1.0]])


def test_standardization_invariant(views):
    _, o_view = views
    _, feats = fit_basis(
        BasisSpec(roles=("w", "s", "x"), degree=2, interactions=True, standardize=True),
        o_view,
    )
    assert np.abs(feats[:, 1:].mean(axis=0)).max() < 1e-8
    assert np.abs(feats[:, 1:].std(axis=0) - 1.0).max() < 1e-8
    assert np.allclose(feats[:, 0], 1.0)


def test_standardized_eval_at_training_mean(views):
    _, o_view = views
    fb, _ = fit_basis(BasisSpec(roles=("s",), standardize=True), o_view)

    # A 1-row O view of a two-unit dataset whose O unit sits at the mean.
    mean_s = o_view.role_matrix("s").mean(axis=0)
    at_mean = px.CombinedDataset.from_arrays(
        y=[np.nan, 0.0], w=np.zeros((2, 1)), z=[[np.nan], [0.0]],
        s=np.vstack([mean_s, mean_s]), a=[1.0, np.nan], x=np.zeros((2, 1)),
        is_e=[True, False],
    )
    out = fb.transform(px.SampleView(at_mean, np.array([1]), "O"))[0]
    assert out[0] == 1.0
    assert np.abs(out[1:]).max() < 1e-12


def test_prefix_stability(views):
    _, o_view = views
    plain, _ = fit_basis(BasisSpec(roles=("w", "s"), degree=2), o_view)
    inter, _ = fit_basis(BasisSpec(roles=("w", "s"), degree=2, interactions=True), o_view)
    a = plain.transform(o_view)
    b = inter.transform(o_view)
    assert b.shape[1] > a.shape[1]
    np.testing.assert_array_equal(b[:, : a.shape[1]], a)


def test_purity_bit_identical(views):
    _, o_view = views
    fb, _ = fit_basis(BasisSpec(roles=("w", "s", "x"), degree=3, standardize=True), o_view)
    one = px.SampleView(o_view.data, o_view.indices[3:4], "O")
    first = fb.transform(one)
    second = fb.transform(one)
    assert np.array_equal(first, second)
    assert first.shape == (1, fb.out_dim)


@settings(max_examples=30, deadline=None)
@given(
    degree=st.integers(min_value=1, max_value=3),
    intercept=st.booleans(),
    interactions=st.booleans(),
    standardize=st.booleans(),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_out_dim_matches_eval(degree, intercept, interactions, standardize, seed):
    # The fit's training design is transform() on the training view, bit
    # for bit, with 1 + (1 + 2 + 3) * degree + (1*2 + 1*3 + 2*3) columns.
    rng = np.random.default_rng(seed)
    view = _Rows(w=rng.normal(size=(7, 1)), s=rng.normal(size=(7, 2)),
                 x=rng.normal(size=(7, 3)))
    spec = BasisSpec(
        roles=("w", "s", "x"), degree=degree, include_intercept=intercept,
        interactions=interactions, standardize=standardize,
    )
    fb, design = fit_basis(spec, view)
    assert fb.out_dim == int(intercept) + 6 * degree + (11 if interactions else 0)
    assert design.shape == (7, fb.out_dim)
    assert np.array_equal(design, fb.transform(view))


def test_serialization_round_trip(views):
    _, o_view = views
    fb, _ = fit_basis(BasisSpec(roles=("w", "s"), degree=2, standardize=True), o_view)
    # The JSON text of to_dict() carries the exact centers and scales.
    back = json.loads(json.dumps(fb.to_dict()))
    assert back["centers"] == fb.centers.tolist() and back["scales"] == fb.scales.tolist()
    assert back["spec"] == fb.spec.to_dict() and back["out_dim"] == fb.out_dim
