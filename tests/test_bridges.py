from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest

import proxate as px
from proxate.basis import BasisSpec
from proxate.errors import SingularSystemError, UnderIdentifiedError, ValidationError
from proxate.stats import ols

from conftest import (
    constant_bridge, evaluate, fit_basis, linear_coefficients, solve_h, solve_q,
)

PSI = BasisSpec(roles=("w", "s", "x"), standardize=True)
B = BasisSpec(roles=("z", "s", "x"), standardize=True)
PHI = BasisSpec(roles=("z", "s", "x"), standardize=True)
G = BasisSpec(roles=("w", "s", "x"), standardize=True)


@pytest.fixture(scope="module")
def med_views(medium_data):
    data, oracle = medium_data
    e_view, o_view = px.split_by_sample(data)
    return data, oracle, e_view, o_view


def _constant_y_view(small_data, value=5.0):
    data, _ = small_data
    y = np.where(data.is_e, np.nan, value)
    flat = px.CombinedDataset.from_arrays(
        y=y, w=data.w, z=data.z, s=data.s, a=data.a, x=data.x, is_e=data.is_e
    )
    return px.split_by_sample(flat)[1]


def test_constant_outcome_identity(small_data):
    o_view = _constant_y_view(small_data)
    h, diag = solve_h(o_view, PSI, B, ridge=0.0)
    assert abs(h.coeffs[0] - 5.0) < 1e-8
    assert np.abs(h.coeffs[1:]).max() < 1e-8
    assert diag.max_abs_moment < 1e-8
    assert np.allclose(evaluate(h, o_view), 5.0)


def test_b1_reduction_to_ols(small_data):
    # psi and b restricted to the same (s, x) functions: the solve is OLS.
    data, _ = small_data
    o_view = px.split_by_sample(data)[1]
    spec = BasisSpec(roles=("s", "x"), standardize=True)
    h, _ = solve_h(o_view, spec, spec, ridge=0.0)
    _, design = fit_basis(spec, o_view)
    beta = ols(design, o_view.y)
    np.testing.assert_allclose(h.coeffs, beta, atol=1e-8)


def test_oracle_coefficient_recovery(med_views):
    _, oracle, _, o_view = med_views
    h, diag = solve_h(o_view, PSI, B, ridge=1e-6)
    raw = linear_coefficients(h)
    np.testing.assert_allclose(raw, oracle.true_h_coeffs, atol=0.05)
    assert diag.n_instruments >= diag.n_params


def test_just_identified_moments_vanish(small_data):
    data, _ = small_data
    o_view = px.split_by_sample(data)[1]
    h, diag = solve_h(o_view, PSI, B, ridge=0.0)
    assert diag.max_abs_moment < 1e-10
    assert diag.n_instruments == diag.n_params


def test_monotone_regularization(small_data):
    data, _ = small_data
    o_view = px.split_by_sample(data)[1]
    norms = []
    for lam in (0.0, 1e-4, 1e-2, 1.0):
        h, _ = solve_h(o_view, PSI, B, ridge=lam)
        norms.append(np.linalg.norm(h.coeffs))
    assert all(norms[i] >= norms[i + 1] for i in range(len(norms) - 1))


def test_scale_equivariance(small_data):
    data, _ = small_data
    o_view = px.split_by_sample(data)[1]
    scaled = px.CombinedDataset.from_arrays(
        y=data.y * 3.0, w=data.w, z=data.z, s=data.s, a=data.a, x=data.x, is_e=data.is_e
    )
    o_scaled = px.split_by_sample(scaled)[1]
    h1, _ = solve_h(o_view, PSI, B, ridge=0.0)
    h3, _ = solve_h(o_scaled, PSI, B, ridge=0.0)
    np.testing.assert_allclose(h3.coeffs, 3.0 * h1.coeffs, rtol=1e-9, atol=1e-12)


def test_under_identified_error(small_data):
    data, _ = small_data
    o_view = px.split_by_sample(data)[1]
    rich = BasisSpec(roles=("w", "s", "x"), degree=2, interactions=True, standardize=True)
    lean = BasisSpec(roles=("z",), standardize=True)
    with pytest.raises(UnderIdentifiedError):
        solve_h(o_view, rich, lean, ridge=0.0)


def test_singular_system_error_and_ridge(small_data):
    data, _ = small_data
    # Duplicate the surrogate column so psi is collinear.
    s_dup = np.column_stack([data.s, data.s[:, 0]])
    z_wide = np.column_stack([data.z, data.x[:, 0], data.x[:, 0] ** 2])
    collinear = px.CombinedDataset.from_arrays(
        y=data.y, w=data.w,
        z=np.where(data.is_e[:, None], np.nan, z_wide),
        s=s_dup, a=data.a, x=data.x, is_e=data.is_e,
    )
    o_view = px.split_by_sample(collinear)[1]
    psi = BasisSpec(roles=("w", "s", "x"), standardize=True)
    b = BasisSpec(roles=("z", "s", "x"), standardize=True)
    with pytest.raises(SingularSystemError, match="pass ridge > 0"):
        solve_h(o_view, psi, b, ridge=0.0)
    # With a ridge the degenerate corner stays usable: warn on conditioning, never error.
    with pytest.warns(RuntimeWarning, match="condition number"):
        h2, diag2 = solve_h(o_view, psi, b, ridge=1e-6)
    assert np.isfinite(h2.coeffs).all()
    assert diag2.gram_condition > 1e12


def test_eval_bridge_examples(small_data):
    data, _ = small_data
    o_view = px.split_by_sample(data)[1]
    h, _ = solve_h(o_view, PSI, B, ridge=1e-6)
    const3 = constant_bridge(h, 3.0)
    zero = constant_bridge(h, 0.0)
    one = px.SampleView(data, o_view.indices[:1], "O")
    assert evaluate(const3, one)[0] == pytest.approx(3.0)
    assert evaluate(zero, one)[0] == 0.0
    # A unit evaluated alone equals its row of the batched evaluation.
    assert evaluate(h, one)[0] == pytest.approx(evaluate(h, o_view)[0])


def test_surrogate_bridge_normalization_exact(small_data):
    data, _ = small_data
    e_view, o_view = px.split_by_sample(data)
    share = float(e_view.a.mean())
    prop = px.PropensityModel.known(share, clip_eps=0.01)
    (q0, d0), (q1, d1) = solve_q(o_view, e_view, PHI, G, prop, ridge=0.0)
    assert abs(evaluate(q1, o_view).mean() - 1.0) < 1e-10
    assert abs(evaluate(q0, o_view).mean() - 1.0) < 1e-10
    # Both arms normalize, so the sum averages to 2.
    total = (evaluate(q1, o_view) + evaluate(q0, o_view)).mean()
    assert abs(total - 2.0) < 1e-10
    assert d1.max_abs_moment < 1e-10 and d0.max_abs_moment < 1e-10


def test_surrogate_bridge_reweighting_identity_held_out(confounded_cfg):
    # Fresh degree-2 test functions, disjoint from the g used in the solve.
    # With a correlated latent assignment the true reweighting function
    # is strongly nonlinear, so this sieve check uses the variant where
    # confounding enters only through the surrogates and the outcome.
    cfg = replace(confounded_cfg, confound_treatment_in_O=False)
    data, _ = px.generate(cfg, 2 * 10**5, 0.5, seed=11)
    e_view, o_view = px.split_by_sample(data)
    prop = px.PropensityModel.known(cfg.p_treat, clip_eps=0.01)

    gstar = BasisSpec(roles=("w", "s", "x"), degree=2, intercept=False,
                      interactions=True)
    fb, g_o = fit_basis(gstar, o_view)
    g_e = fb.transform(e_view)
    # Column layout: w, w^2, s, s^2, x, x^2, w*s, w*x, s*x; keep the
    # pure degree-2 columns.
    held_out = [1, 3, 5, 6, 7, 8]
    for a, (q, _) in enumerate(solve_q(o_view, e_view, PHI, G, prop, ridge=1e-6)):
        q_vals = evaluate(q, o_view)
        ind = (e_view.a == a).astype(float)
        e_arm = cfg.p_treat if a == 1 else 1.0 - cfg.p_treat
        for c in held_out:
            gap = abs((q_vals * g_o[:, c]).mean() - (ind * g_e[:, c] / e_arm).mean())
            assert gap < 0.05, f"arm {a}, column {c}: gap {gap:.4f}"


def test_surrogate_bridge_under_identified(small_data):
    data, _ = small_data
    e_view, o_view = px.split_by_sample(data)
    prop = px.PropensityModel.known(0.5, clip_eps=0.01)
    rich_phi = BasisSpec(roles=("z", "s", "x"), degree=2, interactions=True, standardize=True)
    lean_g = BasisSpec(roles=("w",), standardize=True)
    with pytest.raises(UnderIdentifiedError):
        solve_q(o_view, e_view, rich_phi, lean_g, prop, ridge=0.0)


def test_clip_counter(small_data):
    data, _ = small_data
    e_view, o_view = px.split_by_sample(data)
    # A propensity glued to the boundary clips at every evaluation.
    prop = px.PropensityModel.known(0.005, clip_eps=0.01)
    _, (_, diag) = solve_q(o_view, e_view, PHI, G, prop, ridge=1e-6)
    assert diag.n_clipped == e_view.n


def test_bridge_serialization_round_trip(small_data):
    # The JSON text of to_dict() carries the exact coefficients, centers and scales.
    data, _ = small_data
    e_view, o_view = px.split_by_sample(data)
    h, _ = solve_h(o_view, PSI, B, ridge=1e-6)
    prop = px.PropensityModel.known(0.5, clip_eps=0.01)
    _, (q1, _) = solve_q(o_view, e_view, PHI, G, prop, ridge=1e-6)
    for bridge in (h, q1):
        back = json.loads(json.dumps(bridge.to_dict()))
        assert back["coeffs"] == bridge.coeffs.tolist()
        assert back["basis"]["centers"] == bridge.basis.centers.tolist()
        assert back["basis"]["scales"] == bridge.basis.scales.tolist()
        assert (back["kind"], back["arm"]) == (bridge.kind, bridge.arm)
    assert back["arm"] == 1 and back["kind"] == "surrogate"


def test_bridge_validation():
    with pytest.raises(ValidationError):
        px.BridgeFunction(kind="nope", basis=None, coeffs=np.zeros(1), ridge=0.0)
