from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

import proxate as px
from proxate.baselines import ols_hc0
from proxate.errors import DegenerateInstrumentError, NumericalError
from proxate.stats import normal_quantile

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


# Baseline figures frozen from the hand-written AS 241 quantile and the
# per-column first-stage fits they replaced (Python 3.11, numpy 2.4);
# iv_se and iv_p refrozen when the IV stage moved to the 2SLS sandwich.
GOLDEN_SI = {"SI": 1.0370616097637748, "SI-PROX": 0.9717061864390251}
GOLDEN_RCT_COEFFS = [0.04120161778588769, 0.7599280776545179, 1.4765172940252378]
GOLDEN_RCT_SE = [0.08091097832617096, 0.1177252914779027, 0.05846075862128348]
GOLDEN_DIAGNOSE = {
    "ols_coef_on_a": -0.3472058201402428, "ols_se": 0.039004751065018974,
    "ols_p": 5.503299053854459e-19, "iv_coef_on_a": 0.013110411455444448,
    "iv_se": 0.05151921602894596, "iv_p": 0.7991277316496178,
}
GOLDEN_QUANTILES = [
    (0.75, 0.6744897501960817), (0.975, 1.9599639845400536), (0.995, 2.5758293035489),
    (1e-10, -6.361340902404056), (0.02425, -1.9729610513118845),
]


def test_golden_baselines(small_data, confounded_cfg):
    def close(value):
        return pytest.approx(value, rel=1e-12, abs=1e-12)

    data, _ = small_data
    for name, tau in GOLDEN_SI.items():
        rep = px.surrogate_index_estimate(data, include_proxies=(name == "SI-PROX"))
        assert rep.tau_hat == close(tau), name
    sample = px.generate_full(confounded_cfg, 4000, seed=3001)
    fit = px.rct_benchmark(sample)
    assert fit.coeffs.tolist() == close(GOLDEN_RCT_COEFFS)
    assert fit.robust_se.tolist() == close(GOLDEN_RCT_SE)
    report = px.diagnose_surrogacy(sample).to_dict()
    assert report == {k: close(v) for k, v in GOLDEN_DIAGNOSE.items()}
    for p, ref in GOLDEN_QUANTILES:
        assert normal_quantile(p) == ref, p


def _two_proxy_sample(seed, second_w=None):
    # A second latent factor v drives the second proxy and instrument, so
    # each proxy column has its own instrument.
    sample = px.generate_full(px.confounded_config(), 3000, seed=seed)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(sample.n)
    w2 = v + rng.standard_normal(sample.n) if second_w is None else second_w(sample)
    return px.FullyObservedSample.from_arrays(
        y=sample.y + v, a=sample.a, s=sample.s, x=sample.x,
        w=np.column_stack([sample.w, w2]),
        z=np.column_stack([sample.z, v + rng.standard_normal(sample.n)]),
    )


def test_diagnose_two_proxy_columns_matches_per_column_reference():
    sample = _two_proxy_sample(35)
    rep = px.diagnose_surrogacy(sample)
    n = sample.n
    exog = [np.ones(n), sample.a, sample.s, sample.x]
    fs_design = np.column_stack([exog[0], sample.z, *exog[1:]])
    w_hat = np.column_stack([
        fs_design @ np.linalg.lstsq(fs_design, sample.w[:, j], rcond=None)[0] for j in range(2)
    ])
    ols_fit = ols_hc0(np.column_stack(exog), sample.y, ("intercept", "a", "s1", "x1"))
    # 2SLS: coefficients from y on (exog, w_hat), residuals with w itself.
    iv_design = np.column_stack([*exog, w_hat])
    iv_coef = np.linalg.solve(iv_design.T @ iv_design, iv_design.T @ sample.y)
    resid = sample.y - np.column_stack([*exog, sample.w]) @ iv_coef
    bread = np.linalg.inv(iv_design.T @ iv_design)
    iv_se = math.sqrt((bread @ (iv_design.T * resid ** 2) @ iv_design @ bread)[1, 1])
    reference = {"ols_coef_on_a": ols_fit.coef("a"), "ols_se": ols_fit.se("a"),
                 "ols_p": ols_fit.p_value("a"), "iv_coef_on_a": iv_coef[1],
                 "iv_se": iv_se, "iv_p": math.erfc(abs(iv_coef[1]) / iv_se / math.sqrt(2.0))}
    assert rep.to_dict() == {k: pytest.approx(v, rel=1e-9) for k, v in reference.items()}


@pytest.mark.parametrize("seed", [36, 37, 38])
def test_diagnose_exogenous_proxy_column_is_degenerate(seed):
    # The second proxy is an exact linear function of (1, a, s, x): no
    # instrument moves it, whatever rounding leaves in its residuals.
    def exogenous(sample):
        return 1.0 + 2.0 * sample.a - 0.5 * sample.s[:, 0] + 0.25 * sample.x[:, 0]

    with pytest.raises(DegenerateInstrumentError):
        px.diagnose_surrogacy(_two_proxy_sample(seed, exogenous))


def test_diagnose_fewer_instruments_than_proxies_names_the_iv_stage():
    # dim_z = 1 < dim_w = 2: each column's F test passes, but the IV stage
    # cannot identify two proxy coefficients from one instrument.
    two = _two_proxy_sample(39)
    short = px.FullyObservedSample.from_arrays(
        y=two.y, a=two.a, s=two.s, x=two.x, w=two.w, z=two.z[:, :1],
    )
    with pytest.raises(DegenerateInstrumentError) as err:
        px.diagnose_surrogacy(short)
    assert str(err.value).startswith(
        "IV stage: 1 instrument column(s) z for 2 proxy column(s) w"
    )


def test_surrogate_index_collinear_covariate_names_the_fit(small_data):
    data, _ = small_data
    twin = px.CombinedDataset.from_arrays(
        y=data.y, w=data.w, z=data.z, s=data.s, a=data.a, x=data.s, is_e=data.is_e,
    )
    for include_proxies in (False, True):
        with pytest.raises(NumericalError, match="surrogate-index.*fit"):
            px.surrogate_index_estimate(twin, include_proxies=include_proxies)
