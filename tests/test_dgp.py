from __future__ import annotations

import numpy as np
import pytest

import proxate as px
from proxate.basis import BasisSpec
from proxate.dgp import oracle_for
from proxate.errors import ValidationError
from proxate.stats import normal_quantile, seeded_generator

from conftest import NAIVE_SI_BIAS, fit_basis, traced_peak


def eval_oracle_h(cfg, w, s, x):
    """The closed-form outcome bridge on raw columns."""
    h_w = oracle_for(cfg).true_h_coeffs[1]
    return h_w * w[:, 0] + s @ cfg.gamma_s + x @ cfg.gamma_x


def reference_draw(cfg, n, rng):
    """u, x, a_e, a_o and the noise of s, y, w and z, read from ``rng`` in
    the model's fixed order. The observational assignment loads U with
    weight 1 when the config confounds it, scaled to keep P(A = 1) at
    p_treat."""
    u = rng.standard_normal(n)
    x = rng.standard_normal((n, cfg.dim_x))
    a_e = (rng.random(n) < cfg.p_treat).astype(float)
    kappa = 1.0 if cfg.confound_treatment_in_O else 0.0
    cut = normal_quantile(cfg.p_treat) * np.sqrt(1.0 + kappa * kappa)
    a_o = (cut + kappa * u > rng.standard_normal(n)).astype(float)
    eps_s = rng.standard_normal((n, cfg.dim_s)) * cfg.noise_sd_s
    eps_y = rng.standard_normal(n) * cfg.noise_sd_y
    eps_w = rng.standard_normal(n) * cfg.noise_sd_w
    eps_z = rng.standard_normal(n) * cfg.noise_sd_z
    return u, x, a_e, a_o, eps_s, eps_y, eps_w, eps_z


def written_out_outcomes(cfg, u, x, a, eps_s, eps_y, eps_w, eps_z):
    """(s, y, w, z) on assignment ``a``, each the model's sum written out,
    noise last; w and z as one-column matrices."""
    s = a[:, None] * cfg.beta_a + u[:, None] * cfg.beta_u + x @ cfg.beta_x.T + eps_s
    y = s @ cfg.gamma_s + cfg.gamma_u * u + x @ cfg.gamma_x + eps_y
    return s, y, (cfg.alpha_w * u + eps_w)[:, None], (cfg.alpha_z * u + eps_z)[:, None]


def residual_moment(cfg, n, seed, h_coeff_shift_w=0.0):
    """Max absolute empirical moment of the bridge residual.

    Draws an observational sample of size ``n``, forms the residual
    y - h(w, s, x) with the closed-form bridge (its w-slope shifted by
    ``h_coeff_shift_w``), and evaluates it against polynomial test
    functions of (z, s, x) up to degree 2 with pairwise interactions.
    Returns max_j |mean(b_j * residual)|.
    """
    u, x, _, a_o, *eps = reference_draw(cfg, n, seeded_generator(seed))
    s, y, w, z = written_out_outcomes(cfg, u, x, a_o, *eps)
    resid = y - eval_oracle_h(cfg, w, s, x) - h_coeff_shift_w * w[:, 0]

    class _Cols:
        def role_matrix(self, role):
            return {"z": z, "s": s, "x": x}[role]

    spec = BasisSpec(roles=("z", "s", "x") if cfg.dim_x else ("z", "s"),
                     degree=2, intercept=True, interactions=True)
    _, feats = fit_basis(spec, _Cols())
    return float(np.max(np.abs(feats.T @ resid / n)))


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
        gamma_x=[], alpha_w=1.0, alpha_z=1.0,
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
                     gamma_x=[], alpha_w=0.0, alpha_z=1.0)
    with pytest.raises(ValidationError):
        px.DGPConfig(beta_a=[1.0], beta_u=[1.0, 2.0], gamma_s=[1.0], gamma_u=0.0,
                     gamma_x=[], alpha_w=1.0, alpha_z=1.0)
    with pytest.raises(ValidationError):
        px.DGPConfig(beta_a=[1.0], beta_u=[1.0], gamma_s=[1.0], gamma_u=0.0,
                     gamma_x=[], alpha_w=1.0, alpha_z=1.0, p_treat=1.5)
    with pytest.raises(ValidationError):
        px.generate(px.confounded_config(), n=5, pi=0.5, seed=1)


def test_oracle_h_closed_form_point():
    # h(w=1, s=1, x absent) = 2*1 + (1/1)*1 = 3 for gamma_s=2, gamma_u=1, alpha_w=1
    cfg = px.DGPConfig(
        beta_a=[0.5], beta_u=[1.0], gamma_s=[2.0], gamma_u=1.0,
        gamma_x=[], alpha_w=1.0, alpha_z=1.0,
    )
    val = eval_oracle_h(cfg, np.array([[1.0]]), np.array([[1.0]]), np.zeros((1, 0)))
    assert val[0] == pytest.approx(3.0)


def test_residual_check_small(confounded_cfg):
    assert residual_moment(confounded_cfg, 10**5, seed=42) < 0.03


@pytest.mark.slow
def test_residual_check_large(confounded_cfg):
    assert residual_moment(confounded_cfg, 10**6, seed=42) < 0.01


def test_residual_check_unconfounded(unconfounded_cfg):
    # Zero weight on w; the same bound holds.
    assert residual_moment(unconfounded_cfg, 10**5, seed=42) < 0.03


def test_residual_check_detects_perturbation(confounded_cfg):
    val = residual_moment(confounded_cfg, 10**5, seed=42, h_coeff_shift_w=0.5)
    assert val > 0.1


def test_residual_check_shrinks_with_n(confounded_cfg):
    # Averaged over seeds, the moment norm decreases as n grows.
    means = [
        np.mean([residual_moment(confounded_cfg, n, seed) for seed in range(3)])
        for n in (10**4, 10**5, 10**6)
    ]
    assert means[0] > means[1] > means[2]


def test_frozen_naive_bias_regression(confounded_cfg):
    # Single large draw must sit near the frozen brute-force constant.
    data, oracle = px.generate(confounded_cfg, 4 * 10**5, 0.5, seed=901)
    bias = px.surrogate_index_estimate(data, False, 0.05).tau_hat - oracle.true_ate
    assert abs(bias - NAIVE_SI_BIAS) < 0.05


def test_latent_assignment_confounded_before_discard(confounded_cfg, unconfounded_cfg):
    u, _, _, a_o, *_ = reference_draw(confounded_cfg, 20_000, seeded_generator(55))
    assert np.corrcoef(u, a_o)[0, 1] > 0.3

    u2, _, _, a_o2, *_ = reference_draw(unconfounded_cfg, 20_000, seeded_generator(55))
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


def _written_out(cfg, n, seed, pi):
    """The E labels and the columns (x, a, s, y, w, z) of a draw, each
    outcome the model's sum written out, noise last, on the draw's
    assignment."""
    rng = seeded_generator(seed)
    is_e = rng.random(n) < pi
    u, x, a_e, a_o, *eps = reference_draw(cfg, n, rng)
    a = np.where(is_e, a_e, a_o)
    return is_e, x, a, *written_out_outcomes(cfg, u, x, a, *eps)


def test_generate_matches_the_written_out_model():
    # The outcomes are computed as their noise is drawn and masked in
    # place; each element keeps the bits of the written-out model, on a
    # model with several surrogates and covariates, confounded in O, and
    # on one with no covariates and an unconfounded O assignment.
    several = px.DGPConfig(beta_a=[0.5, -0.2], beta_u=[1.0, 0.3], gamma_s=[2.0, 0.7],
                           gamma_u=0.8, gamma_x=[0.5, -0.1, 0.2],
                           beta_x=np.arange(6.0).reshape(2, 3) / 7, alpha_w=1.3, alpha_z=0.6,
                           noise_sd_s=0.7, noise_sd_w=0.5, confound_treatment_in_O=True)
    bare = px.DGPConfig(beta_a=[0.5], beta_u=[1.0], gamma_s=[2.0], gamma_u=1.0, gamma_x=[],
                        alpha_w=1.0, alpha_z=-0.4, noise_sd_y=0.3, noise_sd_z=1.7,
                        p_treat=0.3)
    for cfg in (several, bare):
        is_e, x, a, s, y, w, z = _written_out(cfg, 5000, 9, 0.4)
        want = {"y": np.where(is_e, np.nan, y), "a": np.where(is_e, a, np.nan), "s": s, "x": x,
                "w": w, "z": np.where(is_e[:, None], np.nan, z), "is_e": is_e}
        data, _ = px.generate(cfg, 5000, 0.4, seed=9)
        got = {k: (getattr(data, k).shape, getattr(data, k).tobytes()) for k in want}
        assert got == {k: (want[k].shape, want[k].tobytes()) for k in want}, cfg
        # generate_full: every row is an E row, so the assignment is a_e.
        _, x, a, s, y, w, z = _written_out(cfg, 5000, 9, 1.0)
        full = px.generate_full(cfg, 5000, seed=9)
        want = {"y": y, "a": a, "s": s, "x": x, "w": w, "z": z}
        got = {k: (getattr(full, k).shape, getattr(full, k).tobytes()) for k in want}
        assert got == {k: (want[k].shape, want[k].tobytes()) for k in want}, cfg


@pytest.mark.parametrize("draw", ["generate", "generate_full"])
def test_generate_memory_peak(confounded_cfg, draw):
    # Each outcome is computed as its noise is drawn, with one scratch
    # vector, and the masks overwrite the columns they mask: the draw
    # holds at most the six output columns and u, seven 0.76 MiB vectors
    # at n = 1e5, plus the E labels.
    args = (100_000, 0.5, 1) if draw == "generate" else (100_000, 1)
    peak = traced_peak(getattr(px, draw), confounded_cfg, *args)
    assert peak <= 5.8, f"peak {peak:.2f} MiB"
