from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

import proxate as px
from proxate.baselines import ols_hc0
from proxate.errors import DegenerateInstrumentError, NumericalError

from conftest import NAIVE_SI_BIAS


def test_rct_exact_fit():
    n = 50
    a = np.concatenate([np.ones(25), np.zeros(25)])
    sample = px.FullyObservedSample.from_arrays(
        y=2.0 * a, a=a,
        s=np.zeros((n, 1)), x=np.zeros((n, 0)),
        w=np.zeros((n, 1)), z=np.zeros((n, 1)),
    )
    fit = px.rct_benchmark(sample)
    assert fit.coef("a") == pytest.approx(2.0, abs=1e-12)
    assert fit.se("a") == pytest.approx(0.0, abs=1e-12)


def test_rct_recovers_truth(confounded_cfg):
    sample = px.generate_full(confounded_cfg, 10_000, seed=31)
    fit = px.rct_benchmark(sample)
    assert abs(fit.coef("a") - 1.0) < 3.0 * fit.se("a")


def test_rct_collinear_errors():
    n = 20
    a = np.concatenate([np.ones(10), np.zeros(10)])
    sample = px.FullyObservedSample.from_arrays(
        y=np.arange(n, dtype=float), a=a,
        s=np.zeros((n, 1)), x=a.reshape(-1, 1),  # x duplicates a
        w=np.zeros((n, 1)), z=np.zeros((n, 1)),
    )
    with pytest.raises(NumericalError):
        px.rct_benchmark(sample)


def test_normal_equations_invariant(confounded_cfg):
    sample = px.generate_full(confounded_cfg, 5000, seed=32)
    design = np.column_stack([np.ones(sample.n), sample.a, sample.x])
    fit = ols_hc0(design, sample.y, ("intercept", "a", "x1"))
    resid = sample.y - design @ fit.coeffs
    assert np.abs(design.T @ resid).max() < 1e-8 * sample.n


def test_surrogate_index_unconfounded_consistent(unconfounded_cfg):
    taus = []
    for r in range(40):
        data, oracle = px.generate(unconfounded_cfg, 10_000, 0.5, seed=600 + r)
        taus.append(px.surrogate_index_estimate(data).tau_hat)
    taus = np.array(taus)
    se = taus.std(ddof=1) / np.sqrt(taus.shape[0])
    assert abs(taus.mean() - 1.0) < 3.0 * se


def test_surrogate_index_confounded_matches_frozen_bias(confounded_cfg):
    taus = []
    for r in range(40):
        data, oracle = px.generate(confounded_cfg, 40_000, 0.5, seed=700 + r)
        taus.append(px.surrogate_index_estimate(data).tau_hat)
    taus = np.array(taus)
    bias = taus.mean() - 1.0
    assert abs(bias - NAIVE_SI_BIAS) < 0.1 * NAIVE_SI_BIAS


def test_surrogate_index_constant_outcome(small_data):
    data, _ = small_data
    flat = px.CombinedDataset.from_arrays(
        y=np.where(data.is_e, np.nan, 4.0),
        w=data.w, z=data.z, s=data.s, a=data.a, x=data.x, is_e=data.is_e,
    )
    assert px.surrogate_index_estimate(flat).tau_hat == pytest.approx(0.0, abs=1e-10)
    assert px.surrogate_index_estimate(flat, include_proxies=True).tau_hat == pytest.approx(
        0.0, abs=1e-10
    )


def test_surrogate_index_proxy_variant_close_when_proxies_uninformative(unconfounded_cfg):
    # With no confounding the proxies carry no outcome information
    # beyond (s, x); the two variants agree up to noise.
    cfg = replace(unconfounded_cfg, alpha_w=0.0, alpha_z=0.0, gamma_u=0.0)
    diffs = []
    for r in range(30):
        data, _ = px.generate(cfg, 8000, 0.5, seed=650 + r)
        plain = px.surrogate_index_estimate(data).tau_hat
        prox = px.surrogate_index_estimate(data, include_proxies=True).tau_hat
        diffs.append(prox - plain)
    diffs = np.array(diffs)
    se = diffs.std(ddof=1) / np.sqrt(diffs.shape[0])
    assert abs(diffs.mean()) < 3.0 * max(se, 1e-5)


def test_surrogate_index_reports(small_data):
    data, _ = small_data
    rep = px.surrogate_index_estimate(data)
    assert rep.estimator == "SI" and rep.ci is None and rep.variance_hat is None
    rep2 = px.surrogate_index_estimate(data, include_proxies=True)
    assert rep2.estimator == "SI-PROX"


def test_diagnose_confounded_pattern(confounded_cfg):
    sample = px.generate_full(confounded_cfg, 4000, seed=3001)
    rep = px.diagnose_surrogacy(sample)
    assert rep.ols_p < 0.05  # surrogacy violated and detected
    assert rep.iv_p > 0.05  # instrumented proxy absorbs the confounder
    assert 0.0 <= rep.ols_p <= 1.0 and 0.0 <= rep.iv_p <= 1.0


def test_diagnose_rates(confounded_cfg, unconfounded_cfg):
    R = 60
    ols_sig_confounded = 0
    iv_sig_confounded = 0
    ols_sig_clean = 0
    for r in range(R):
        rep_c = px.diagnose_surrogacy(px.generate_full(confounded_cfg, 4000, seed=3100 + r))
        ols_sig_confounded += rep_c.ols_p < 0.05
        iv_sig_confounded += rep_c.iv_p < 0.05
        rep_u = px.diagnose_surrogacy(px.generate_full(unconfounded_cfg, 4000, seed=3100 + r))
        ols_sig_clean += rep_u.ols_p < 0.05
    assert ols_sig_confounded / R >= 0.80
    assert 1.0 - iv_sig_confounded / R >= 0.80
    assert 1.0 - ols_sig_clean / R >= 0.80


def test_iv_with_perfect_proxy_reduces_to_ols(confounded_cfg):
    sample = px.generate_full(confounded_cfg, 2000, seed=33)
    proxy_equal = px.FullyObservedSample.from_arrays(
        y=sample.y, a=sample.a, s=sample.s, x=sample.x, w=sample.w, z=sample.w
    )
    rep = px.diagnose_surrogacy(proxy_equal)
    design = np.column_stack(
        [np.ones(sample.n), sample.a, sample.s, sample.x, sample.w]
    )
    direct = ols_hc0(design, sample.y, ("intercept", "a", "s1", "x1", "w1"))
    assert rep.iv_coef_on_a == pytest.approx(direct.coef("a"), abs=1e-10)
    assert rep.iv_se == pytest.approx(direct.se("a"), rel=1e-8)


def test_degenerate_instrument(confounded_cfg):
    sample = px.generate_full(confounded_cfg, 500, seed=34)
    silent = px.FullyObservedSample.from_arrays(
        y=sample.y, a=sample.a, s=sample.s, x=sample.x,
        w=sample.w, z=np.zeros_like(sample.z),
    )
    with pytest.raises(DegenerateInstrumentError):
        px.diagnose_surrogacy(silent)
