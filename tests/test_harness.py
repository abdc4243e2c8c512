from __future__ import annotations

import numpy as np
import pytest

import proxate as px
from proxate import harness
from proxate.basis import FittedBasis
from proxate.errors import NumericalError, ValidationError
from proxate.estimators import (
    ESTIMATOR_NAMES,
    estimates_from_evals,
    evaluate_nuisances,
    fit_all_nuisances,
)
from proxate.harness import CORRUPTS, REGIME_NAMES
from proxate.nuisance import PropensityModel

from conftest import constant_bridge, constant_hbar

CFG = px.EstimatorConfig()


def test_split_and_mask_partition(confounded_cfg):
    full = px.generate_full(confounded_cfg, 100, seed=1)
    design = px.MaskDesign(e_fraction=0.5, seed=9)
    data = px.split_and_mask(full, design)
    assert data.n_e + data.n_o == 100
    assert np.isnan(data.y[data.is_e]).all()
    assert np.isnan(data.a[~data.is_e]).all()
    # shared columns untouched
    np.testing.assert_array_equal(data.s, full.s)
    np.testing.assert_array_equal(data.w, full.w)


def test_split_and_mask_deterministic(confounded_cfg):
    full = px.generate_full(confounded_cfg, 100, seed=1)
    d1 = px.split_and_mask(full, px.MaskDesign(0.4, seed=5))
    d2 = px.split_and_mask(full, px.MaskDesign(0.4, seed=5))
    np.testing.assert_array_equal(d1.is_e, d2.is_e)
    np.testing.assert_array_equal(d1.y, d2.y)


def test_split_and_mask_empty_stratum(confounded_cfg):
    full = px.generate_full(confounded_cfg, 10, seed=1)
    with pytest.raises(ValidationError):
        # A 0.999 split of 10 units will empty the O stratum for some seed.
        for seed in range(200):
            px.split_and_mask(full, px.MaskDesign(0.999, seed=seed))


def _ks_stat(x: np.ndarray, y: np.ndarray) -> float:
    both = np.concatenate([x, y])
    both.sort()
    fx = np.searchsorted(np.sort(x), both, side="right") / x.shape[0]
    fy = np.searchsorted(np.sort(y), both, side="right") / y.shape[0]
    return float(np.abs(fx - fy).max())


def test_split_preserves_marginals_ks(confounded_cfg):
    # Two-sample KS below the 1% critical value in >= 95% of seeds.
    full = px.generate_full(confounded_cfg, 10_000, seed=2)
    n_pass = 0
    seeds = range(40)
    for seed in seeds:
        data = px.split_and_mask(full, px.MaskDesign(0.5, seed=seed))
        e, o = data.is_e, ~data.is_e
        crit = 1.628 * np.sqrt(data.n / (data.n_e * data.n_o))
        cols = [data.s[:, 0], data.w[:, 0], data.x[:, 0]]
        ok = all(_ks_stat(col[e], col[o]) < crit for col in cols)
        n_pass += ok
    assert n_pass / len(seeds) >= 0.95


def test_regime_validation(small_data):
    data, _ = small_data
    evals = _evals(data, px.make_folds(data, 2, seed=1))
    with pytest.raises(ValidationError, match="unknown regime 'case9'"):
        px.apply_misspec(evals, "case9", CFG.clip_eps)
    assert CORRUPTS["case1"] == {"e", "q"}


def _evals(data, folds):
    return evaluate_nuisances(data, folds, fit_all_nuisances(data, folds, CFG))


def test_apply_misspec_identity(small_data):
    data, _ = small_data
    folds = px.make_folds(data, 2, seed=1)
    evals = _evals(data, folds)
    same = px.apply_misspec(evals, "all_correct", CFG.clip_eps)
    assert same is evals


def test_apply_misspec_installs_constants(small_data):
    data, _ = small_data
    folds = px.make_folds(data, 2, seed=1)
    evals = _evals(data, folds)
    y_mean = float(data.y[~data.is_e].mean())

    wrong = px.apply_misspec(evals, "all_wrong", CFG.clip_eps)
    assert (wrong.e_hat == 0.8).all() and wrong.n_clipped == 0
    assert (wrong.h_e == y_mean).all() and (wrong.h_o == y_mean).all()
    assert (wrong.q0 == 1.0).all() and (wrong.q1 == 1.0).all()
    assert (wrong.hbar1 == 1.0).all() and (wrong.hbar0 == -1.0).all()
    assert wrong.a is evals.a and wrong.y is evals.y

    case4 = px.apply_misspec(evals, "case4", CFG.clip_eps)
    # pseudo-outcome refit against the constant bridge equals the constant
    assert (case4.hbar1 == y_mean).all() and (case4.hbar0 == y_mean).all()
    assert case4.q1 is evals.q1  # q kept

    case3 = px.apply_misspec(evals, "case3", CFG.clip_eps)
    assert case3.e_hat is evals.e_hat and case3.n_clipped == evals.n_clipped
    assert (case3.h_o == y_mean).all()

    # The corrupt propensity is clipped like a fitted one, and counted.
    clipped = px.apply_misspec(evals, "case1", 0.3)
    assert (clipped.e_hat == 1.0 - 0.3).all() and clipped.n_clipped == data.n_e


def _corrupted_sets(nuisance_sets, regime, h_const):
    """The regime's corruptions installed into fitted nuisance functions,
    with ``h_const`` as the corrupted bridge."""
    corrupts = CORRUPTS[regime]
    out = []
    for nus in nuisance_sets:
        e, h, hbar, q0, q1 = nus.e, nus.h, nus.hbar, nus.q0, nus.q1
        if "e" in corrupts:
            e = PropensityModel.known(harness.CORRUPT_E, nus.e.clip_eps)
        if "h" in corrupts:
            h = constant_bridge(nus.h, h_const)
        if "q" in corrupts:
            q0 = constant_bridge(nus.q0, harness.CORRUPT_Q)
            q1 = constant_bridge(nus.q1, harness.CORRUPT_Q)
        if "hbar" in corrupts:
            hbar = constant_hbar(
                nus.hbar.basis, harness.CORRUPT_HBAR_ARM0, harness.CORRUPT_HBAR_ARM1
            )
        elif regime == "case4":
            hbar = constant_hbar(nus.hbar.basis, h_const, h_const)
        out.append(px.NuisanceSet(e=e, h=h, hbar=hbar, q0=q0, q1=q1))
    return out


@pytest.mark.parametrize("config", [
    CFG,
    px.EstimatorConfig(clip_eps=0.3),  # the corrupt 0.8 clips to 0.7
    px.EstimatorConfig(known_propensity=0.5),
], ids=["default", "clip_eps_0.3", "known_propensity"])
def test_substituted_regimes_match_corrupted_nuisances(small_data, config):
    # Substituting constants into one evaluation gives bit-identical
    # estimates to evaluating nuisance functions that carry the corruptions.
    data, _ = small_data
    folds = px.make_folds(data, 5, seed=3)
    nus = fit_all_nuisances(data, folds, config)
    evals = evaluate_nuisances(data, folds, nus)
    y_mean = float(data.y[~data.is_e].mean())
    for name in REGIME_NAMES:
        fast = estimates_from_evals(
            data, folds, config, px.apply_misspec(evals, name, config.clip_eps),
            ESTIMATOR_NAMES, [],
        )
        slow = px.estimate_all(data, folds, config,
                               nuisance_sets=_corrupted_sets(nus, name, y_mean))
        for est, rep in slow.items():
            assert fast[est].tau_hat == rep.tau_hat, (name, est)
            assert fast[est].variance_hat == rep.variance_hat, (name, est)
            assert fast[est].n_propensity_clips == rep.n_propensity_clips, (name, est)
        assert fast["MR"].ci == slow["MR"].ci, name


def test_one_evaluation_per_replication(confounded_cfg, monkeypatch):
    # Per replication (k = 5, six regimes): no transform to fit (folds
    # fit from cell R factors) and 4 per fold to evaluate, however many
    # regimes run.
    calls = []
    real_transform, real_generate = FittedBasis.transform, harness.generate

    def counting_transform(self, source):
        calls[-1] += 1
        return real_transform(self, source)

    def generate(*args, **kwargs):
        calls.append(0)
        return real_generate(*args, **kwargs)

    monkeypatch.setattr(FittedBasis, "transform", counting_transform)
    monkeypatch.setattr(harness, "generate", generate)
    px.run_monte_carlo(confounded_cfg, n=1500, pi=0.5, estimators=ESTIMATOR_NAMES,
                       regimes=REGIME_NAMES, replications=2, base_seed=3, k_folds=5)
    assert len(calls) == 2
    assert max(calls) <= 5 * 0 + 5 * 4


def test_mc_report_identity_and_smoke(confounded_cfg):
    report = px.run_monte_carlo(
        confounded_cfg, n=2000, pi=0.5,
        estimators=("OB-OR", "MR", "SI"),
        regimes=("all_correct", "all_wrong"),
        replications=2, base_seed=77,
    )
    assert report.n_replications == 2 and report.n_failed == 0
    for table in report.regimes.values():
        for stats in table.values():
            assert stats.rmse**2 == pytest.approx(stats.bias**2 + stats.sd**2, rel=1e-10)
    assert report.regimes["all_correct"]["MR"].coverage_95 is not None
    assert report.regimes["all_correct"]["OB-OR"].coverage_95 is None
    text = report.format_table()
    assert "all_wrong" in text and "MR" in text
    d = report.to_dict()
    assert d["true_ate"] == pytest.approx(1.0)


def test_mc_determinism(confounded_cfg):
    kw = dict(
        n=1500, pi=0.5, estimators=("MR",), regimes=("all_correct",),
        replications=3, base_seed=123,
    )
    r1 = px.run_monte_carlo(confounded_cfg, **kw)
    r2 = px.run_monte_carlo(confounded_cfg, **kw)
    assert r1.to_dict() == r2.to_dict()


def test_mc_validation(confounded_cfg):
    with pytest.raises(ValidationError):
        px.run_monte_carlo(confounded_cfg, 1000, 0.5, ("MR",), ("all_correct",),
                           replications=1, base_seed=0)
    with pytest.raises(ValidationError):
        px.run_monte_carlo(confounded_cfg, 1000, 0.5, ("MR",), ("bogus",),
                           replications=2, base_seed=0)
    with pytest.raises(ValidationError):
        px.run_monte_carlo(confounded_cfg, 1000, 0.5, ("BOGUS",), ("all_correct",),
                           replications=2, base_seed=0)


def test_mc_failure_cap(confounded_cfg):
    # k_folds larger than a replication's smaller stratum makes every
    # replication fail; the cap aborts the study instead of averaging nothing.
    with pytest.raises(ValidationError):
        px.run_monte_carlo(confounded_cfg, 40, 0.5, ("MR",), ("all_correct",),
                           replications=5, base_seed=0, k_folds=30)


def test_corruption_dataclass_defaults():
    assert harness.CORRUPT_E == 0.8 and harness.CORRUPT_Q == 1.0
    assert harness.CORRUPT_HBAR_ARM1 == 1.0 and harness.CORRUPT_HBAR_ARM0 == -1.0
    assert harness.MAX_FAILURE_FRACTION == 0.02
    assert CORRUPTS["case3"] == {"h", "hbar"}
    assert set(REGIME_NAMES) == {
        "all_correct", "case1", "case2", "case3", "case4", "all_wrong"
    }


def test_failed_replication_commits_no_regime(confounded_cfg, monkeypatch):
    # Replication 1 fails in its third regime; the first two regimes must
    # not keep a draw from it.
    calls = {"n": 0}
    real = harness.estimates_from_evals

    def flaky(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] == 6 + 3:
            raise NumericalError("injected failure")
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, "estimates_from_evals", flaky)
    monkeypatch.setattr(harness, "MAX_FAILURE_FRACTION", 0.5)
    report = px.run_monte_carlo(
        confounded_cfg, n=1500, pi=0.5, estimators=("OB-OR", "MR", "SI"),
        regimes=REGIME_NAMES, replications=3, base_seed=40,
    )
    assert report.n_failed == 1
    counts = {st.n_replications for table in report.regimes.values() for st in table.values()}
    assert counts == {2}
    entry = {"replication": 1, "seed": 41, "error": "NumericalError",
             "message": "injected failure"}
    assert report.failures == [entry]
    d = report.to_dict()
    assert d["n_failed"] == 1 and d["failures"] == [entry]
    header = report.format_table().splitlines()[0]
    assert header.endswith("failed 1 (replication 1 seed 41: NumericalError)")

