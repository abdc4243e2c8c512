"""Acceptance criteria, one test per criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``).

The heavy Monte Carlo studies share the session-scoped ``mc200``
fixture (200 replications at n = 40k over all six regimes); the
coverage study runs its own 500 replications and is marked slow.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

import proxate as px
from proxate.basis import BasisSpec
from proxate.cli import main as cli_main
from proxate.estimators import evaluate_nuisances, fit_all_nuisances
from proxate.stats import normal_quantile, ols

from conftest import constant_bridge, constant_hbar, estimate_with, fit_basis, mc_se, solve_h


def _report(num: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:2d}] {status}  {description}  {detail}")
    assert ok, f"criterion {num}: {description} {detail}"


def test_criterion_01_bridge_exactness(confounded_cfg):
    data, _ = px.generate(confounded_cfg, 5000, 0.5, seed=101)
    o_view = px.split_by_sample(data)[1]
    psi = BasisSpec(roles=("w", "s", "x"), standardize=True)
    b = BasisSpec(roles=("z", "s", "x"), standardize=True)
    start = time.perf_counter()
    _, diag = solve_h(o_view, psi, b, ridge=0.0)
    elapsed = time.perf_counter() - start
    ok = diag.max_abs_moment <= 1e-10 and diag.n_instruments == diag.n_params
    ok = ok and elapsed < 1.0
    _report(1, "just-identified moments vanish at ridge 0",
            ok, f"max|moment|={diag.max_abs_moment:.2e}, {elapsed * 1000:.0f} ms")


def test_criterion_02_reduction_to_ols(confounded_cfg):
    data, _ = px.generate(confounded_cfg, 5000, 0.5, seed=102)
    o_view = px.split_by_sample(data)[1]
    spec = BasisSpec(roles=("s", "x"), standardize=True)
    h, _ = solve_h(o_view, spec, spec, ridge=0.0)
    beta = ols(fit_basis(spec, o_view)[1], o_view.y)
    gap = float(np.abs(h.coeffs - beta).max())
    _report(2, "same-instrument solve equals OLS", gap < 1e-8, f"max gap {gap:.2e}")


def test_criterion_03_oracle_recovery(mc200):
    table = mc200.regimes["all_correct"]
    details = []
    ok = True
    for name in ("OB-OR", "OB-IPW", "SB", "MR"):
        st = table[name]
        ratio = abs(st.bias) / mc_se(st)
        details.append(f"{name}: |bias|/SE={ratio:.2f}")
        ok = ok and ratio < 3.0
    _report(3, "four estimators recover the truth (R=200, n=4e4)",
            ok, "; ".join(details))


def test_criterion_04_confounding_separation(mc200):
    table = mc200.regimes["all_correct"]
    naive, mr = table["SI"], table["MR"]
    naive_ratio = abs(naive.bias) / mc_se(naive)
    mr_ratio = abs(mr.bias) / mc_se(mr)
    ok = naive_ratio > 5.0 and mr_ratio < 3.0
    _report(4, "naive surrogate index biased, MR unbiased",
            ok, f"naive |bias|/SE={naive_ratio:.1f}, MR={mr_ratio:.2f}")


def test_criterion_05_multiply_robust_regimes(mc200):
    details = []
    ok = True
    for regime in ("case1", "case2", "case3", "case4"):
        st = mc200.regimes[regime]["MR"]
        ratio = abs(st.bias) / mc_se(st)
        details.append(f"{regime}={ratio:.2f}")
        ok = ok and ratio < 3.0
    st_wrong = mc200.regimes["all_wrong"]["MR"]
    wrong_ratio = abs(st_wrong.bias) / mc_se(st_wrong)
    details.append(f"all_wrong={wrong_ratio:.0f}")
    ok = ok and wrong_ratio > 5.0
    _report(5, "MR consistent under each correct regime, biased when all wrong",
            ok, "; ".join(details))


@pytest.mark.slow
def test_criterion_06_coverage(confounded_cfg):
    report = px.run_monte_carlo(
        confounded_cfg, n=40_000, pi=0.5, estimators=("MR",),
        regimes=("all_correct",), replications=500, base_seed=12_000,
        config=px.EstimatorConfig(), k_folds=5,
    )
    cover = report.regimes["all_correct"]["MR"].coverage_95
    ok = 0.92 <= cover <= 0.97
    _report(6, "MR 95% interval coverage in [0.92, 0.97] (R=500)",
            ok, f"coverage={cover:.3f}")


def test_criterion_07_exact_reductions(confounded_cfg):
    cfg = px.EstimatorConfig()
    ok = True
    details = []
    for r in range(5):
        data, _ = px.generate(confounded_cfg, 4000, 0.5, seed=7000 + r)
        folds = px.make_folds(data, 3, seed=r)
        nus = fit_all_nuisances(data, folds, cfg)

        equal_q = [
            px.NuisanceSet(e=n.e, h=n.h, hbar=n.hbar, q0=n.q1, q1=n.q1, diagnostics=[])
            for n in nus
        ]
        rep = estimate_with(data, folds, cfg, equal_q, ("MR",))["MR"]
        evals = evaluate_nuisances(data, folds, equal_q)
        e_part_only = float(np.mean(evals.mr_e_part))
        ok = ok and rep.tau_hat == e_part_only and np.all(evals.mr_o_part == 0.0)

        zero_h = [
            px.NuisanceSet(
                e=n.e, h=constant_bridge(n.h, 0.0),
                hbar=constant_hbar(n.hbar.basis, 0.0, 0.0),
                q0=n.q0, q1=n.q1, diagnostics=[],
            )
            for n in nus
        ]
        reps = estimate_with(data, folds, cfg, zero_h, ("MR", "SB"))
        ok = ok and reps["MR"].tau_hat == reps["SB"].tau_hat
    details.append("bit-level over 5 replications")
    _report(7, "MR collapses exactly to its reduced forms", ok, details[0])


def test_criterion_08_diagnostics_pattern(confounded_cfg):
    R = 200
    ols_sig = 0
    iv_insig = 0
    for r in range(R):
        sample = px.generate_full(confounded_cfg, 4000, seed=8000 + r)
        rep = px.diagnose_surrogacy(sample)
        ols_sig += rep.ols_p < 0.05
        iv_insig += rep.iv_p >= 0.05
    ok = ols_sig / R >= 0.80 and iv_insig / R >= 0.80
    _report(8, "OLS significant / IV insignificant pattern (R=200)",
            ok, f"ols significant {ols_sig / R:.2f}, iv insignificant {iv_insig / R:.2f}")


def test_criterion_09_determinism(tmp_path):
    csv_path = tmp_path / "d.csv"
    assert cli_main(["gen-data", "--n", "2500", "--seed", "19", "--out", str(csv_path)]) == 0

    outs = []
    for name in ("r1.json", "r2.json"):
        out = tmp_path / name
        rc = cli_main(["estimate", "--data", str(csv_path), "--estimator", "all",
                       "--k", "5", "--seed", "23", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        doc.pop("created_at")
        outs.append(doc)
    est_ok = outs[0] == outs[1]

    sims = []
    for name in ("m1.json", "m2.json"):
        out = tmp_path / name
        rc = cli_main(["simulate", "--n", "1500", "--replications", "2",
                       "--base-seed", "3", "--estimators", "mr",
                       "--regimes", "all_correct", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        doc.pop("created_at")
        sims.append(doc)
    sim_ok = sims[0] == sims[1]
    _report(9, "identical config and seeds give identical reports",
            est_ok and sim_ok, f"estimate={est_ok}, simulate={sim_ok}")


def test_criterion_10_normal_quantile():
    refs = [(0.75, 0.674489750), (0.975, 1.959963985), (0.995, 2.575829304)]
    errs = [abs(normal_quantile(p) - v) for p, v in refs]
    ok = all(e < 1e-9 for e in errs)
    _report(10, "normal quantile matches reference points to 1e-9",
            ok, ", ".join(f"{e:.1e}" for e in errs))
