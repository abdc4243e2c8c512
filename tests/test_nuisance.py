from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import proxate as px
from proxate.basis import BasisSpec, fit_basis
from proxate.errors import DegenerateTreatmentError, ValidationError
from proxate.nuisance import _sigmoid

from conftest import constant_bridge, evaluate, propensity, reference_sigmoid, solve_h

XB = BasisSpec(roles=("x",))


def _e_view_with_a(a_values, x_values=None, seed=0):
    rng = np.random.default_rng(seed)
    a = np.asarray(a_values, dtype=float)
    n_e = a.shape[0]
    n = n_e + 4
    is_e = np.zeros(n, dtype=bool)
    is_e[:n_e] = True
    x = rng.normal(size=(n, 1)) if x_values is None else np.asarray(x_values).reshape(n, 1)
    a_full = np.concatenate([a, np.zeros(4)])
    data = px.CombinedDataset.from_arrays(
        y=np.where(is_e, np.nan, rng.normal(size=n)),
        w=rng.normal(size=(n, 1)),
        z=np.where(is_e[:, None], np.nan, rng.normal(size=(n, 1))),
        s=rng.normal(size=(n, 1)),
        a=np.where(is_e, a_full, np.nan),
        x=x,
        is_e=is_e,
    )
    return px.split_by_sample(data)[0]


def test_mean_prediction_matches_treated_share():
    # The intercept score equation pins the average prediction to the share.
    a = np.concatenate([np.ones(40), np.zeros(60)])
    view = _e_view_with_a(a)
    model = px.fit_propensity(*fit_basis(XB, view), view.a, clip_eps=0.01)
    assert propensity(model, view)[0].mean() == pytest.approx(0.4, abs=1e-6)


def test_intercept_only_exact_share():
    rng = np.random.default_rng(3)
    n = 200
    is_e = np.zeros(n, dtype=bool)
    is_e[:100] = True
    a_e = np.concatenate([np.ones(40), np.zeros(60)])
    data = px.CombinedDataset.from_arrays(
        y=np.where(is_e, np.nan, rng.normal(size=n)),
        w=rng.normal(size=(n, 1)),
        z=np.where(is_e[:, None], np.nan, rng.normal(size=(n, 1))),
        s=rng.normal(size=(n, 1)),
        a=np.where(is_e, np.concatenate([a_e, np.zeros(100)]), np.nan),
        x=np.zeros((n, 0)),
        is_e=is_e,
    )
    view = px.split_by_sample(data)[0]
    model = px.fit_propensity(*fit_basis(XB, view), view.a, clip_eps=0.01)
    np.testing.assert_allclose(propensity(model, view)[0], 0.4, atol=1e-8)


def test_randomized_design_flat_propensity(confounded_cfg):
    data, _ = px.generate(confounded_cfg, 2 * 10**4, 0.5, seed=77)
    e_view = px.split_by_sample(data)[0]
    model = px.fit_propensity(*fit_basis(XB, e_view), e_view.a, clip_eps=0.01)
    assert np.abs(propensity(model, e_view)[0] - 0.5).max() < 0.05
    assert not model.ridged


def test_single_arm_errors():
    for view in (_e_view_with_a(np.ones(30)), _e_view_with_a(np.zeros(30))):
        with pytest.raises(DegenerateTreatmentError):
            px.fit_propensity(*fit_basis(XB, view), view.a)


def test_score_equation_at_convergence():
    rng = np.random.default_rng(9)
    n = 4000
    x = rng.normal(size=n)
    p = 1.0 / (1.0 + np.exp(-(0.3 + 0.8 * x)))
    a = (rng.random(n) < p).astype(float)
    view = _e_view_with_a(a, x_values=np.concatenate([x, rng.normal(size=4)]), seed=10)
    model = px.fit_propensity(*fit_basis(XB, view), view.a, clip_eps=0.001)
    design = model.basis.transform(view)
    raw = _sigmoid(design @ model.coeffs)  # unclipped propensities
    score = design.T @ (view.a - raw)
    assert np.abs(score).max() < 1e-6 * view.n


@settings(max_examples=200, deadline=None)
@given(t=arrays(np.float64, st.integers(0, 64), elements=st.floats(allow_nan=False)))
@example(t=np.array([0.0, -0.0, np.inf, -np.inf, 710.0, -710.0, 5e-324, -5e-324]))
def test_sigmoid_bytes_match_mask_scatter(t):
    # One exp of -|t| and a select give the mask-scatter logistic byte for byte.
    assert _sigmoid(t).tobytes() == reference_sigmoid(t).tobytes()


def test_sigmoid_nan():
    assert np.isnan(_sigmoid(np.array([np.nan]))).all()


def test_clipping_behavior():
    model = px.PropensityModel.known(0.999, clip_eps=0.01)
    view = _e_view_with_a(np.concatenate([np.ones(5), np.zeros(5)]))
    assert np.allclose(propensity(model, view)[0], 0.99)
    inside = px.PropensityModel.known(0.4, clip_eps=0.01)
    vals, clipped = propensity(inside, view)
    assert clipped == 0 and np.allclose(vals, 0.4)


def test_separation_falls_back_to_ridge():
    # Perfectly separated design: unpenalized IRLS diverges.
    x = np.concatenate([np.full(20, -2.0), np.full(20, 2.0), np.zeros(4)])
    a = np.concatenate([np.zeros(20), np.ones(20)])
    view = _e_view_with_a(a, x_values=x, seed=4)
    model = px.fit_propensity(*fit_basis(XB, view), view.a, clip_eps=0.01)
    assert model.ridged
    vals = propensity(model, view)[0]
    assert np.all((vals >= 0.01) & (vals <= 0.99))


def test_eval_propensity_record(small_data):
    data, _ = small_data
    e_view = px.split_by_sample(data)[0]
    model = px.fit_propensity(*fit_basis(XB, e_view), e_view.a, clip_eps=0.01)
    one = px.SampleView(data, e_view.indices[:1], "E")
    assert propensity(model, one)[0][0] == pytest.approx(propensity(model, e_view)[0][0])
    const = px.PropensityModel.known(0.5)
    assert propensity(const, one)[0][0] == 0.5


def test_zero_coefficients_give_half():
    view = _e_view_with_a(np.concatenate([np.ones(5), np.zeros(5)]))
    fb, _ = fit_basis(XB, view)
    model = px.PropensityModel(basis=fb, coeffs=np.zeros(fb.out_dim), clip_eps=0.01)
    one = px.SampleView(view.data, view.indices[:1], "E")
    assert propensity(model, one)[0][0] == 0.5
    np.testing.assert_allclose(propensity(model, view)[0], 0.5)


def test_known_rate_validation():
    with pytest.raises(ValidationError):
        px.PropensityModel.known(1.2)
    with pytest.raises(ValidationError):
        px.PropensityModel.known(0.5, clip_eps=0.7)


def _h_and_view(small_data):
    data, _ = small_data
    e_view, o_view = px.split_by_sample(data)
    h, _ = solve_h(
        o_view,
        BasisSpec(roles=("w", "s", "x"), standardize=True),
        BasisSpec(roles=("z", "s", "x"), standardize=True),
        ridge=1e-6,
    )
    return h, e_view


def test_hbar_of_constant_is_constant(small_data):
    h, e_view = _h_and_view(small_data)
    const = constant_bridge(h, 4.25)
    model = px.fit_hbar(*fit_basis(XB, e_view), e_view.a, evaluate(const, e_view))
    np.testing.assert_allclose(evaluate(model, e_view, arm=1), 4.25, atol=1e-8)
    np.testing.assert_allclose(evaluate(model, e_view, arm=0), 4.25, atol=1e-8)


def test_hbar_linearity(small_data):
    h, e_view = _h_and_view(small_data)
    h2 = constant_bridge(h, 1.0)
    combo = px.BridgeFunction(
        kind="outcome", basis=h.basis,
        coeffs=2.0 * h.coeffs + 3.0 * constant_bridge(h, 1.0).coeffs,
        ridge=h.ridge,
    )
    m1 = px.fit_hbar(*fit_basis(XB, e_view), e_view.a, evaluate(h, e_view))
    m2 = px.fit_hbar(*fit_basis(XB, e_view), e_view.a, evaluate(h2, e_view))
    mc = px.fit_hbar(*fit_basis(XB, e_view), e_view.a, evaluate(combo, e_view))
    np.testing.assert_allclose(
        mc.arm1_coeffs, 2.0 * m1.arm1_coeffs + 3.0 * m2.arm1_coeffs, atol=1e-8
    )
    np.testing.assert_allclose(
        mc.arm0_coeffs, 2.0 * m1.arm0_coeffs + 3.0 * m2.arm0_coeffs, atol=1e-8
    )


def test_hbar_single_arm_errors(small_data):
    h, _ = _h_and_view(small_data)
    view = _e_view_with_a(np.ones(30))
    with pytest.raises(DegenerateTreatmentError):
        px.fit_hbar(*fit_basis(XB, view), view.a, evaluate(constant_bridge(h, 1.0), view))


def test_hbar_contrast_recovers_effect_without_covariates():
    # dim_x = 0: the pseudo-outcome contrast is the arm-mean difference
    # of the oracle bridge, a consistent effect estimate.
    cfg = px.DGPConfig(
        beta_a=[0.5], beta_u=[1.0], gamma_s=[2.0], gamma_u=1.0,
        gamma_x=[], alpha_w=1.0, alpha_z=1.0, dim_x=0,
    )
    data, oracle = px.generate(cfg, 2 * 10**4, 0.5, seed=21)
    e_view, o_view = px.split_by_sample(data)
    psi = BasisSpec(roles=("w", "s"), standardize=True)
    b = BasisSpec(roles=("z", "s"), standardize=True)
    h, _ = solve_h(o_view, psi, b, ridge=1e-6)
    model = px.fit_hbar(*fit_basis(XB, e_view), e_view.a, evaluate(h, e_view))
    contrast = evaluate(model, e_view, arm=1) - evaluate(model, e_view, arm=0)
    # MC standard error of the contrast mean at n_e ~ 1e4.
    se = (evaluate(h, e_view).std() / np.sqrt(e_view.n)) * 2.0
    assert abs(contrast.mean() - oracle.true_ate) < 3.0 * max(se, 0.05)


def test_eval_hbar_record(small_data):
    h, e_view = _h_and_view(small_data)
    model = px.fit_hbar(*fit_basis(XB, e_view), e_view.a, evaluate(h, e_view))
    one = px.SampleView(e_view.data, e_view.indices[2:3], "E")
    assert evaluate(model, one, arm=1)[0] == pytest.approx(evaluate(model, e_view, arm=1)[2])
    assert evaluate(model, one, arm=0)[0] == pytest.approx(evaluate(model, e_view, arm=0)[2])


def test_hbar_serialization(small_data):
    # The JSON text of to_dict() carries the exact coefficients.
    h, e_view = _h_and_view(small_data)
    model = px.fit_hbar(*fit_basis(XB, e_view), e_view.a, evaluate(h, e_view))
    back = json.loads(json.dumps(model.to_dict()))
    assert back["arm0_coeffs"] == model.arm0_coeffs.tolist()
    assert back["arm1_coeffs"] == model.arm1_coeffs.tolist()
    pm = px.fit_propensity(*fit_basis(XB, e_view), e_view.a)
    back_pm = json.loads(json.dumps(pm.to_dict()))
    assert back_pm["coeffs"] == pm.coeffs.tolist()
    assert back_pm["basis"] == back["basis"] == model.basis.to_dict()
