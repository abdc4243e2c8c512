from __future__ import annotations

import numpy as np
import pytest

import proxate as px
from proxate.dgp import NAIVE_SI_BIAS, eval_oracle_h, oracle_for
from proxate.errors import ValidationError


def test_masking_invariants(small_data):
    data, _ = small_data
    e, o = data.is_e, ~data.is_e
    assert np.isnan(data.y[e]).all() and np.isnan(data.z[e]).all()
    assert np.isnan(data.a[o]).all()
    assert np.isfinite(data.y[o]).all() and np.isfinite(data.z[o]).all()
    assert np.isfinite(data.w).all() and np.isfinite(data.s).all() and np.isfinite(data.x).all()


def test_determinism(confounded_cfg):
    d1, _ = px.generate(confounded_cfg, 500, 0.4, seed=123)
    d2, _ = px.generate(confounded_cfg, 500, 0.4, seed=123)
    np.testing.assert_array_equal(d1.s, d2.s)
    np.testing.assert_array_equal(d1.is_e, d2.is_e)
    d3, _ = px.generate(confounded_cfg, 500, 0.4, seed=124)
    assert not np.array_equal(d1.s, d3.s)


def test_treated_share(confounded_cfg):
    data, _ = px.generate(confounded_cfg, 40_000, 0.5, seed=5)
    a_e = data.a[data.is_e]
    n_e = a_e.shape[0]
    assert abs(a_e.mean() - confounded_cfg.p_treat) < 4.0 / np.sqrt(n_e)


def test_true_ate_formula():
    cfg = px.DGPConfig(
        beta_a=[0.5], beta_u=[1.0], gamma_s=[2.0], gamma_u=1.0,
        gamma_x=[], alpha_w=1.0, alpha_z=1.0, dim_x=0,
    )
    oracle = oracle_for(cfg)
    assert oracle.true_ate == pytest.approx(1.0)
    np.testing.assert_allclose(oracle.true_h_coeffs, [0.0, 1.0, 2.0])


def test_unconfounded_oracle(unconfounded_cfg):
    oracle = oracle_for(unconfounded_cfg)
    assert oracle.true_ate == pytest.approx(1.0)
    # No weight on the proxy when the confounder has no outcome effect.
    assert oracle.true_h_coeffs[1] == 0.0


def test_config_validation():
    with pytest.raises(ValidationError):
        px.DGPConfig(beta_a=[1.0], beta_u=[1.0], gamma_s=[1.0], gamma_u=1.0,
                     gamma_x=[], alpha_w=0.0, alpha_z=1.0, dim_x=0)
    with pytest.raises(ValidationError):
        px.DGPConfig(beta_a=[1.0], beta_u=[1.0, 2.0], gamma_s=[1.0], gamma_u=0.0,
                     gamma_x=[], alpha_w=1.0, alpha_z=1.0, dim_x=0)
    with pytest.raises(ValidationError):
        px.DGPConfig(beta_a=[1.0], beta_u=[1.0], gamma_s=[1.0], gamma_u=0.0,
                     gamma_x=[], alpha_w=1.0, alpha_z=1.0, dim_x=0, p_treat=1.5)
    with pytest.raises(ValidationError):
        px.generate(px.confounded_config(), n=5, pi=0.5, seed=1)


def test_oracle_h_closed_form_point():
    # h(w=1, s=1, x absent) = 2*1 + (1/1)*1 = 3 for gamma_s=2, gamma_u=1, alpha_w=1
    cfg = px.DGPConfig(
        beta_a=[0.5], beta_u=[1.0], gamma_s=[2.0], gamma_u=1.0,
        gamma_x=[], alpha_w=1.0, alpha_z=1.0, dim_x=0,
    )
    val = eval_oracle_h(cfg, np.array([[1.0]]), np.array([[1.0]]), np.zeros((1, 0)))
    assert val[0] == pytest.approx(3.0)


def test_residual_check_small(confounded_cfg):
    assert px.oracle_h_residual_check(confounded_cfg, 10**5, seed=42) < 0.03


@pytest.mark.slow
def test_residual_check_large(confounded_cfg):
    assert px.oracle_h_residual_check(confounded_cfg, 10**6, seed=42) < 0.01


def test_residual_check_unconfounded(unconfounded_cfg):
    # Zero weight on w; the same bound holds.
    assert px.oracle_h_residual_check(unconfounded_cfg, 10**5, seed=42) < 0.03


def test_residual_check_detects_perturbation(confounded_cfg):
    val = px.oracle_h_residual_check(confounded_cfg, 10**5, seed=42, h_coeff_shift_w=0.5)
    assert val > 0.1


def test_residual_check_shrinks_with_n(confounded_cfg):
    # Averaged over seeds, the moment norm decreases as n grows.
    means = [
        np.mean([_residual_at(confounded_cfg, n, seed) for seed in range(3)])
        for n in (10**4, 10**5, 10**6)
    ]
    assert means[0] > means[1] > means[2]


def _residual_at(cfg, n, seed):
    import proxate.dgp as dgp_mod

    rng = dgp_mod._rng(seed)
    u, x, _, a_o, eps_s, eps_y, eps_w, eps_z = dgp_mod._structural_draw(cfg, n, rng)
    s, y, w, z = dgp_mod._outcomes(cfg, u, x, a_o, eps_s, eps_y, eps_w, eps_z)
    resid = y - eval_oracle_h(cfg, w, s, x)

    class _Cols:
        def role_matrix(self, role):
            return {"z": z, "s": s, "x": x}[role]

    from proxate.basis import BasisSpec, fit_basis

    spec = BasisSpec(roles=("z", "s", "x"), degree=2, include_intercept=True, interactions=True)
    _, feats = fit_basis(spec, _Cols())
    return float(np.max(np.abs(feats.T @ resid / n)))


def test_frozen_naive_bias_regression(confounded_cfg):
    # Single large draw must sit near the frozen brute-force constant.
    data, oracle = px.generate(confounded_cfg, 4 * 10**5, 0.5, seed=901)
    bias = px.surrogate_index_estimate(data).tau_hat - oracle.true_ate
    assert abs(bias - NAIVE_SI_BIAS) < 0.05


def test_latent_assignment_confounded_before_discard(confounded_cfg, unconfounded_cfg):
    import proxate.dgp as dgp_mod

    rng = dgp_mod._rng(55)
    u, _, _, a_o, *_ = dgp_mod._structural_draw(confounded_cfg, 20_000, rng)
    assert np.corrcoef(u, a_o)[0, 1] > 0.3

    rng = dgp_mod._rng(55)
    u2, _, _, a_o2, *_ = dgp_mod._structural_draw(unconfounded_cfg, 20_000, rng)
    assert abs(np.corrcoef(u2, a_o2)[0, 1]) < 0.03


def test_generate_full_is_randomized(confounded_cfg):
    full = px.generate_full(confounded_cfg, 20_000, seed=8)
    # A independent of the latent skill's proxy in a randomized design.
    corr = np.corrcoef(full.a, full.w[:, 0])[0, 1]
    assert abs(corr) < 0.03
    assert np.isfinite(full.y).all()


def test_csv_round_trip_of_generated(tmp_path, confounded_cfg):
    data, _ = px.generate(confounded_cfg, 300, 0.5, seed=2)
    schema = px.CsvSchema()
    path = tmp_path / "gen.csv"
    px.write_csv(data, path, schema)
    back = px.load_csv(path, schema)
    np.testing.assert_array_equal(back.s, data.s)
    np.testing.assert_array_equal(back.y, data.y)
