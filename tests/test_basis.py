from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import proxate as px
from proxate.basis import BasisSpec, fit_basis
from proxate.errors import RoleUnavailableError, ValidationError


@pytest.fixture(scope="module")
def views(small_data):
    data, _ = small_data
    return px.split_by_sample(data)


def test_out_dim_linear(views):
    _, o_view = views
    # dims here: s=1, x=1 -> 1 + 1 + 1
    fb = fit_basis(BasisSpec(roles=("s", "x")), o_view)
    assert fb.out_dim == 3


def test_out_dim_counts():
    dims = {"w": 1, "z": 1, "s": 2, "x": 3}
    assert BasisSpec(roles=("s", "x")).out_dim(dims) == 6
    assert BasisSpec(roles=("w",), degree=2).out_dim(dims) == 3
    assert BasisSpec(roles=("w", "s"), interactions=True).out_dim(dims) == 1 + 3 + 2
    assert BasisSpec(roles=("s",), include_intercept=False).out_dim(dims) == 2


def test_role_unavailable(views):
    e_view, _ = views
    with pytest.raises(RoleUnavailableError):
        fit_basis(BasisSpec(roles=("z", "s")), e_view)


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

    intercept_only = fit_basis(BasisSpec(roles=("s",), include_intercept=False), o_view)
    # degree-1 role read-off, no intercept
    np.testing.assert_allclose(intercept_only.transform(one)[0], s_row)

    fb = fit_basis(BasisSpec(roles=("s",)), o_view)
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
    fb = fit_basis(BasisSpec(roles=("x",)), _Rows(x=np.zeros((4, 0))))
    assert fb.out_dim == 1
    np.testing.assert_array_equal(fb.transform(_Rows(x=np.zeros((1, 0)))), [[1.0]])


def test_direct_readoff():
    view = _Rows(s=np.array([[2.0, -1.0], [0.0, 1.0], [1.0, 1.0]]))
    fb = fit_basis(BasisSpec(roles=("s",)), view)
    one = _Rows(s=np.array([[2.0, -1.0]]))
    np.testing.assert_allclose(fb.transform(one), [[1.0, 2.0, -1.0]])


def test_standardization_invariant(views):
    _, o_view = views
    fb = fit_basis(
        BasisSpec(roles=("w", "s", "x"), degree=2, interactions=True, standardize=True),
        o_view,
    )
    feats = fb.transform(o_view)
    assert np.abs(feats[:, 1:].mean(axis=0)).max() < 1e-8
    assert np.abs(feats[:, 1:].std(axis=0) - 1.0).max() < 1e-8
    assert np.allclose(feats[:, 0], 1.0)


def test_standardized_eval_at_training_mean(views):
    _, o_view = views
    fb = fit_basis(BasisSpec(roles=("s",), standardize=True), o_view)

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
    plain = fit_basis(BasisSpec(roles=("w", "s"), degree=2), o_view)
    inter = fit_basis(BasisSpec(roles=("w", "s"), degree=2, interactions=True), o_view)
    a = plain.transform(o_view)
    b = inter.transform(o_view)
    assert b.shape[1] > a.shape[1]
    np.testing.assert_array_equal(b[:, : a.shape[1]], a)


def test_purity_bit_identical(views):
    _, o_view = views
    fb = fit_basis(BasisSpec(roles=("w", "s", "x"), degree=3, standardize=True), o_view)
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
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_out_dim_matches_eval(degree, intercept, interactions, seed):
    rng = np.random.default_rng(seed)

    class View:
        n = 7

        def role_matrix(self, role):
            return rng.normal(size=(7, {"w": 1, "s": 2, "x": 3}[role]))

    spec = BasisSpec(
        roles=("w", "s", "x"), degree=degree,
        include_intercept=intercept, interactions=interactions,
    )
    view = View()
    fb = fit_basis(spec, view)
    assert fb.out_dim == spec.out_dim({"w": 1, "s": 2, "x": 3})


def test_serialization_round_trip(views):
    _, o_view = views
    fb = fit_basis(BasisSpec(roles=("w", "s"), degree=2, standardize=True), o_view)
    back = px.FittedBasis.from_dict(fb.to_dict())
    np.testing.assert_array_equal(back.transform(o_view), fb.transform(o_view))
