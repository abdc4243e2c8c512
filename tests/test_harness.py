from __future__ import annotations

import os
import re
import signal
import time

import pytest

import proxate as px
from proxate import _fork, cli, harness
from proxate.basis import FittedBasis
from proxate.errors import NumericalError, ProxateError, ValidationError
from proxate.estimators import (
    ESTIMATOR_NAMES,
    estimates_from_evals,
    evaluate_nuisances,
    fit_all_nuisances,
)
from proxate.harness import CORRUPTS, HARNESS_ESTIMATORS, REGIME_NAMES
from proxate.nuisance import PropensityModel

from conftest import (
    assert_no_child_left,
    blas_threads,
    constant_bridge,
    constant_hbar,
    estimate_with,
    pin_workers,
)

CFG = px.EstimatorConfig()


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
        out.append(px.NuisanceSet(e=e, h=h, hbar=hbar, q0=q0, q1=q1, diagnostics=[]))
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
        slow = estimate_with(data, folds, config, _corrupted_sets(nus, name, y_mean))
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
    pin_workers(monkeypatch, 1)  # the counts live in this process
    px.run_monte_carlo(confounded_cfg, n=1500, pi=0.5, estimators=ESTIMATOR_NAMES,
                       regimes=REGIME_NAMES, replications=2, base_seed=3, config=CFG,
                       k_folds=5)
    assert len(calls) == 2
    assert max(calls) <= 5 * 0 + 5 * 4


def test_mc_report_identity_and_smoke(confounded_cfg):
    # A repeated estimator name still counts each replication once.
    report = px.run_monte_carlo(
        confounded_cfg, n=2000, pi=0.5,
        estimators=("OB-OR", "MR", "SI", "MR"),
        regimes=("all_correct", "all_wrong"),
        replications=2, base_seed=77, config=CFG, k_folds=5,
    )
    assert report.n_replications == 2 and report.n_failed == 0
    for table in report.regimes.values():
        assert list(table) == ["OB-OR", "MR", "SI"]
        for stats in table.values():
            assert stats.n_replications == 2
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
        replications=3, base_seed=123, config=CFG, k_folds=5,
    )
    r1 = px.run_monte_carlo(confounded_cfg, **kw)
    r2 = px.run_monte_carlo(confounded_cfg, **kw)
    assert r1.to_dict() == r2.to_dict()


def test_mc_validation(confounded_cfg):
    with pytest.raises(ValidationError):
        px.run_monte_carlo(confounded_cfg, 1000, 0.5, ("MR",), ("all_correct",),
                           replications=1, base_seed=0, config=CFG, k_folds=5)
    with pytest.raises(ValidationError):
        px.run_monte_carlo(confounded_cfg, 1000, 0.5, ("MR",), ("bogus",),
                           replications=2, base_seed=0, config=CFG, k_folds=5)
    with pytest.raises(ValidationError):
        px.run_monte_carlo(confounded_cfg, 1000, 0.5, ("BOGUS",), ("all_correct",),
                           replications=2, base_seed=0, config=CFG, k_folds=5)


@pytest.mark.parametrize("k_folds", [1, 0, -2])
def test_mc_rejects_bad_k_folds_before_replication_0(monkeypatch, confounded_cfg, k_folds):
    # An invalid fold count is the study's argument error, never failed
    # replications: no replication is attempted.
    monkeypatch.setattr(harness, "_attempt", lambda *args: pytest.fail("a replication ran"))
    with pytest.raises(ValidationError) as caught:
        px.run_monte_carlo(confounded_cfg, 400, 0.5, ("MR",), ("all_correct",), 4, 1, CFG,
                           k_folds=k_folds)
    assert str(caught.value) == f"k_folds must be >= 2, got {k_folds}"


@pytest.mark.parametrize("bad, message", [
    ({"ridge_h": -1.0}, "ridge penalty must be >= 0"),
    ({"ridge_q": -1.0}, "ridge penalty must be >= 0"),
    ({"clip_eps": 0.7}, "clip_eps must be in (0, 0.5)"),
    ({"known_propensity": 1.5}, "known assignment rate must be in (0, 1)"),
])
def test_config_ranges_checked_on_construction(bad, message):
    # An estimation config out of range cannot be built, so a study never
    # reads it as failed replications.
    with pytest.raises(ValidationError, match=re.escape(message)):
        px.EstimatorConfig(**bad)


def test_estimate_regimes_rejects_unknown_names(small_data):
    # The same check and message as run_monte_carlo's: names are exact,
    # so lower-case "mr" is unknown too.
    data, _ = small_data
    for estimators, regimes, message in (
        (("XX", "mr"), ("all_correct",), "unknown estimator 'XX'; choose from "),
        (("mr",), ("all_correct",), "unknown estimator 'mr'; choose from "),
        (("SI",), ("case9",), "unknown regime 'case9'; choose from "),
    ):
        with pytest.raises(ValidationError, match=re.escape(message)) as caught:
            harness.estimate_regimes(data, 5, 0, CFG, estimators, regimes)
        with pytest.raises(ValidationError) as in_study:
            px.run_monte_carlo(px.confounded_config(), 1000, 0.5, estimators, regimes,
                               replications=2, base_seed=0, config=CFG, k_folds=5)
        assert str(caught.value) == str(in_study.value)


def test_mc_failure_cap(confounded_cfg):
    # k_folds larger than a replication's smaller stratum makes every
    # replication fail; the cap aborts the study instead of averaging nothing.
    with pytest.raises(ValidationError):
        px.run_monte_carlo(confounded_cfg, 40, 0.5, ("MR",), ("all_correct",),
                           replications=5, base_seed=0, config=CFG, k_folds=30)


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
    pin_workers(monkeypatch, 1)  # the call count lives in this process
    report = px.run_monte_carlo(
        confounded_cfg, n=1500, pi=0.5, estimators=("OB-OR", "MR", "SI"),
        regimes=REGIME_NAMES, replications=3, base_seed=40, config=CFG, k_folds=5,
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



def _generate_failing_at(monkeypatch, bad_seed: int) -> list[int]:
    """Patch ``harness.generate`` to fail at ``bad_seed``; forked workers
    inherit the patch. Returns the seeds drawn in this process."""
    drawn = []
    real = harness.generate

    def generate(dgp, n, pi, seed):
        drawn.append(seed)
        if seed == bad_seed:
            raise NumericalError("injected failure")
        return real(dgp, n, pi, seed)

    monkeypatch.setattr(harness, "generate", generate)
    return drawn


def test_workers_match_in_process(confounded_cfg, monkeypatch):
    # The same study in-process and over two forked workers: equal reports,
    # failure entries included, and no worker left running.
    drawn = _generate_failing_at(monkeypatch, 61)
    monkeypatch.setattr(harness, "MAX_FAILURE_FRACTION", 0.5)
    reports = {}
    for workers in (1, 2):
        pin_workers(monkeypatch, workers)
        reports[workers] = px.run_monte_carlo(
            confounded_cfg, n=1500, pi=0.5, estimators=HARNESS_ESTIMATORS,
            regimes=REGIME_NAMES, replications=4, base_seed=60, config=CFG, k_folds=5,
        ).to_dict()
        assert_no_child_left()
    assert drawn == [60, 61, 62, 63]  # the pooled study drew nothing here
    assert reports[1] == reports[2]
    assert reports[2]["failures"] == [{"replication": 1, "seed": 61, "error": "NumericalError",
                                       "message": "injected failure"}]
    assert reports[2]["regimes"]["case3"]["MR"]["n_replications"] == 3


def test_workers_abort_as_in_process(confounded_cfg, monkeypatch, blas_at_two):
    # Every replication fails (k_folds above the strata): the same abort
    # error, raised from the failure, both ways, no worker left running and
    # the parent's OpenBLAS thread count restored.
    errors = {}
    for workers in (1, 2):
        pin_workers(monkeypatch, workers)
        with pytest.raises(ValidationError) as caught:
            px.run_monte_carlo(confounded_cfg, 40, 0.5, ("MR",), ("all_correct",),
                               replications=5, base_seed=0, config=CFG, k_folds=30)
        assert_no_child_left()
        assert blas_threads() == blas_at_two
        cause = caught.value.__cause__
        errors[workers] = (str(caught.value), type(cause), str(cause))
    assert errors[1] == errors[2]
    assert errors[1][0].startswith("1 of 5 replications failed (cap 0); last error: ")


def test_abort_prints_no_worker_traceback(monkeypatch, capfd):
    # Every replication fails at n = 12 and the first failure aborts the
    # study while the other worker still runs. Each kill is delayed, so a
    # worker whose pipe closed before it was killed would have time to hit
    # the closed pipe and print a BrokenPipeError traceback.
    real_kill = os.kill

    def slow_kill(pid, sig):
        time.sleep(0.2)
        real_kill(pid, sig)

    pin_workers(monkeypatch, 2)
    monkeypatch.setattr(os, "kill", slow_kill)
    assert cli.main(["simulate", "--n", "12", "--pi", "0.5", "--replications", "40",
                     "--k", "5"]) == 1
    assert_no_child_left()
    err = capfd.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: 1 of 40 replications failed (cap 0); last error: ")


@pytest.mark.parametrize("death, reason", [
    pytest.param(lambda: os._exit(3), "exit status 3", id="exit_3"),
    pytest.param(lambda: os.kill(os.getpid(), signal.SIGKILL), "signal SIGKILL", id="sigkill"),
])
def test_worker_death_is_an_error(confounded_cfg, monkeypatch, capsys, death, reason,
                                  blas_at_two):
    # A worker that dies mid-study is an error naming how it ended, exit
    # code 1 from the CLI, and the other worker is stopped; the parent's
    # OpenBLAS thread count is restored.
    real = harness.generate

    def generate(dgp, n, pi, seed):
        if seed == 61:
            death()
        return real(dgp, n, pi, seed)

    monkeypatch.setattr(harness, "generate", generate)
    pin_workers(monkeypatch, 2)
    with pytest.raises(ProxateError) as caught:
        px.run_monte_carlo(confounded_cfg, n=1500, pi=0.5, estimators=("MR",),
                           regimes=("all_correct",), replications=4, base_seed=60, config=CFG,
                           k_folds=5)
    assert type(caught.value) is ProxateError
    assert re.fullmatch(rf"worker process \d+ ended without its result \({reason}\)",
                        str(caught.value))
    assert_no_child_left()
    assert blas_threads() == blas_at_two
    assert cli.main(["simulate", "--n", "1500", "--replications", "4", "--base-seed", "60",
                     "--estimators", "mr", "--regimes", "all_correct"]) == 1
    assert re.fullmatch(rf"error: worker process \d+ ended without its result \({reason}\)\n",
                        capsys.readouterr().err)
    assert_no_child_left()
    assert blas_threads() == blas_at_two


def test_one_cpu_runs_in_process(confounded_cfg, monkeypatch):
    # Pinned to one CPU (as under `taskset -c 0`), the study forks nothing.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert _fork._workers(10) == 1
    drawn = _generate_failing_at(monkeypatch, -1)
    px.run_monte_carlo(confounded_cfg, n=1500, pi=0.5, estimators=("MR",),
                       regimes=("all_correct",), replications=2, base_seed=7, config=CFG,
                       k_folds=5)
    assert drawn == [7, 8]
