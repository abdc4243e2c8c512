from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

import proxate as px
from proxate.cli import main

from conftest import fit_fold


def run(args: list[str]) -> int:
    return main(args)


@pytest.fixture(scope="module")
def data_csv(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("cli") / "data.csv"
    rc = run(["gen-data", "--n", "3000", "--pi", "0.5", "--seed", "7", "--out", str(path)])
    assert rc == 0
    return path


@pytest.fixture(scope="module")
def unmasked_csv(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("cli") / "full.csv"
    rc = run(["gen-data", "--n", "3000", "--seed", "8", "--out", str(path), "--unmasked"])
    assert rc == 0
    return path


def _load_result(path: Path) -> dict:
    doc = json.loads(path.read_text())
    assert "created_at" in doc
    return doc


def _strip_timestamp(doc: dict) -> dict:
    return {k: v for k, v in doc.items() if k != "created_at"}


def test_estimate_mr(data_csv, tmp_path, capsys):
    out = tmp_path / "rep.json"
    rc = run(["estimate", "--data", str(data_csv), "--estimator", "mr",
              "--k", "5", "--seed", "7", "--out", str(out)])
    assert rc == 0
    doc = _load_result(out)
    rep = doc["result"]["MR"]
    assert rep["variance_hat"] is not None
    lo, hi = rep["ci"]
    assert lo <= rep["tau_hat"] <= hi
    assert rep["k_folds"] == 5 and rep["seed"] == 7
    text = capsys.readouterr().out
    assert "MR" in text and "tau_hat" in text


def test_estimate_all_reports_one_ci(data_csv, tmp_path):
    out = tmp_path / "all.json"
    rc = run(["estimate", "--data", str(data_csv), "--estimator", "all",
              "--seed", "3", "--out", str(out)])
    assert rc == 0
    result = _load_result(out)["result"]
    assert set(result) == {"OB-OR", "OB-IPW", "SB", "MR"}
    for name, rep in result.items():
        if name == "MR":
            assert rep["ci"] is not None
        else:
            assert rep["ci"] is None


def test_estimate_deterministic_reports(data_csv, tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for out in (out1, out2):
        rc = run(["estimate", "--data", str(data_csv), "--estimator", "all",
                  "--k", "4", "--seed", "11", "--out", str(out)])
        assert rc == 0
    d1 = _strip_timestamp(json.loads(out1.read_text()))
    d2 = _strip_timestamp(json.loads(out2.read_text()))
    assert d1 == d2


def test_estimate_seed_changes_report(data_csv, tmp_path):
    out1, out2 = tmp_path / "s1.json", tmp_path / "s2.json"
    run(["estimate", "--data", str(data_csv), "--estimator", "mr", "--seed", "1",
         "--out", str(out1)])
    run(["estimate", "--data", str(data_csv), "--estimator", "mr", "--seed", "2",
         "--out", str(out2)])
    r1 = json.loads(out1.read_text())["result"]["MR"]["tau_hat"]
    r2 = json.loads(out2.read_text())["result"]["MR"]["tau_hat"]
    assert r1 != r2


def test_estimate_missing_column_exit_1(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("y,a,g,w1,s1,x1\nNA,1,E,0.1,1.0,0.3\n3.0,NA,O,0.2,1.1,0.4\n")
    rc = run(["estimate", "--data", str(bad), "--estimator", "mr"])
    assert rc == 1


def test_estimate_schema_violation_exit_1(tmp_path):
    bad = tmp_path / "bad2.csv"
    bad.write_text(
        "y,a,g,w1,z1,s1,x1\n"
        "NA,1,E,0.1,NA,1.0,0.3\n"
        "3.0,NA,O,0.2,NA,1.1,0.4\n"  # O row missing z
    )
    rc = run(["estimate", "--data", str(bad), "--estimator", "mr"])
    assert rc == 1


def test_estimate_unknown_estimator_exit_1(data_csv):
    assert run(["estimate", "--data", str(data_csv), "--estimator", "bogus"]) == 1


def test_estimate_missing_file_exit_1(capsys):
    assert run(["estimate", "--data", "no-such-file.csv", "--estimator", "mr"]) == 1
    assert "cannot read" in capsys.readouterr().err


def test_estimate_degenerate_fold_exit_2(tmp_path, capsys):
    # One treated unit among ten experimental rows: its fold's training
    # complement is single-arm, a numerical failure naming the fold.
    rng = np.random.default_rng(5)
    lines = ["y,a,g,w1,z1,s1,x1"]
    for i in range(10):
        a = 1 if i == 0 else 0
        lines.append(f"NA,{a},E,{rng.normal():.3f},NA,{rng.normal():.3f},{rng.normal():.3f}")
    for _ in range(10):
        lines.append(
            f"{rng.normal():.3f},NA,O,{rng.normal():.3f},{rng.normal():.3f},"
            f"{rng.normal():.3f},{rng.normal():.3f}"
        )
    path = tmp_path / "degenerate.csv"
    path.write_text("\n".join(lines) + "\n")
    rc = run(["estimate", "--data", str(path), "--estimator", "mr", "--k", "2", "--seed", "1"])
    assert rc == 2
    assert "fold" in capsys.readouterr().err


def test_dump_nuisances(data_csv, tmp_path):
    dump = tmp_path / "nuisances.json"
    rc = run(["estimate", "--data", str(data_csv), "--estimator", "mr",
              "--seed", "5", "--dump-nuisances", str(dump)])
    assert rc == 0
    payload = json.loads(dump.read_text())
    assert len(payload) == 5
    # Each fold's entry carries its fitted nuisances exactly.
    data = px.load_csv(data_csv, px.CsvSchema())
    folds = px.make_folds(data, 5, seed=5)
    nus = fit_fold(data, folds, 0, px.EstimatorConfig())
    for name in ("e", "h", "hbar", "q0", "q1"):
        assert payload[0][name] == json.loads(json.dumps(getattr(nus, name).to_dict()))
    assert payload[0]["h"]["kind"] == "outcome" and payload[0]["e"]["clip_eps"] > 0


def test_simulate_smoke_and_determinism(tmp_path):
    out1, out2 = tmp_path / "m1.json", tmp_path / "m2.json"
    args = ["simulate", "--n", "2000", "--replications", "2", "--base-seed", "5",
            "--estimators", "mr,si", "--regimes", "all_correct,case1"]
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    d1 = _strip_timestamp(json.loads(out1.read_text()))
    d2 = _strip_timestamp(json.loads(out2.read_text()))
    assert d1 == d2
    regimes = d1["result"]["regimes"]
    assert set(regimes) == {"all_correct", "case1"}
    assert regimes["all_correct"]["MR"]["coverage_95"] is not None


def test_simulate_invalid_regime_exit_1():
    assert run(["simulate", "--replications", "2", "--regimes", "nonsense"]) == 1


def test_diagnose(unmasked_csv, tmp_path, capsys):
    out = tmp_path / "diag.json"
    rc = run(["diagnose", "--data", str(unmasked_csv), "--out", str(out)])
    assert rc == 0
    result = _load_result(out)["result"]
    assert set(result) == {
        "ols_coef_on_a", "ols_se", "ols_p", "iv_coef_on_a", "iv_se", "iv_p"
    }
    text = capsys.readouterr().out
    assert "OLS" in text and "IV" in text


def test_diagnose_combined_file_exit_1(data_csv, capsys):
    assert run(["diagnose", "--data", str(data_csv)]) == 1
    err = capsys.readouterr().err
    assert "column 'g'" in err and "combined two-sample CSV" in err


def test_diagnose_weak_instrument_exit_2(tmp_path, confounded_cfg):
    sample = px.generate_full(confounded_cfg, 400, seed=4)
    silent = px.FullyObservedSample.from_arrays(
        y=sample.y, a=sample.a, s=sample.s, x=sample.x,
        w=sample.w, z=np.zeros_like(sample.z),
    )
    path = tmp_path / "weak.csv"
    px.write_unmasked_csv(silent, path, px.CsvSchema())
    assert run(["diagnose", "--data", str(path)]) == 2


def test_gen_data_with_oracle(tmp_path):
    out = tmp_path / "gen.csv"
    oracle_out = tmp_path / "oracle.json"
    rc = run(["gen-data", "--n", "500", "--seed", "3", "--out", str(out),
              "--oracle-out", str(oracle_out)])
    assert rc == 0
    oracle = json.loads(oracle_out.read_text())["result"]
    assert oracle["true_ate"] == pytest.approx(1.0)
    data = px.load_csv(out, px.CsvSchema())
    assert data.n == 500


def test_gen_data_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    run(["gen-data", "--n", "200", "--seed", "9", "--out", str(p1)])
    run(["gen-data", "--n", "200", "--seed", "9", "--out", str(p2)])
    assert p1.read_text() == p2.read_text()


def test_config_unknown_key_rejected(tmp_path, data_csv):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"estimation": {"k_folds": 3}, "typo_section": {}}))
    assert run(["estimate", "--config", str(cfg), "--data", str(data_csv)]) == 1
    cfg.write_text(json.dumps({"estimation": {"k_foldz": 3}}))
    assert run(["estimate", "--config", str(cfg), "--data", str(data_csv)]) == 1


def test_config_drives_estimation_and_flags_override(tmp_path, data_csv):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "estimation": {
            "k_folds": 3,
            "seed": 21,
            "clip_eps": 0.02,
            "bases": {"psi": {"roles": ["w", "s", "x"], "standardize": True}},
        }
    }))
    out = tmp_path / "from_cfg.json"
    rc = run(["estimate", "--config", str(cfg), "--data", str(data_csv),
              "--estimator", "mr", "--out", str(out)])
    assert rc == 0
    rep = json.loads(out.read_text())["result"]["MR"]
    assert rep["k_folds"] == 3 and rep["seed"] == 21

    out2 = tmp_path / "override.json"
    rc = run(["estimate", "--config", str(cfg), "--data", str(data_csv),
              "--estimator", "mr", "--k", "4", "--seed", "99", "--out", str(out2)])
    assert rc == 0
    rep2 = json.loads(out2.read_text())["result"]["MR"]
    assert rep2["k_folds"] == 4 and rep2["seed"] == 99


def test_config_known_propensity(tmp_path, data_csv):
    cfg = tmp_path / "kp.json"
    cfg.write_text(json.dumps({"estimation": {"known_propensity": 0.5, "seed": 2}}))
    out = tmp_path / "kp_out.json"
    rc = run(["estimate", "--config", str(cfg), "--data", str(data_csv),
              "--estimator", "ob-ipw", "--out", str(out)])
    assert rc == 0
    rep = json.loads(out.read_text())["result"]["OB-IPW"]
    assert np.isfinite(rep["tau_hat"])


def test_estimate_baseline_estimator(data_csv, tmp_path):
    out = tmp_path / "si.json"
    rc = run(["estimate", "--data", str(data_csv), "--estimator", "si",
              "--out", str(out)])
    assert rc == 0
    rep = json.loads(out.read_text())["result"]["SI"]
    assert rep["ci"] is None


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_estimate_non_finite_variance_exit_2(tmp_path, capsys):
    # A huge but finite proxy value on one E row overflows the MR variance;
    # the run must fail numerically instead of writing inf into the report.
    data, _ = px.generate(px.confounded_config(), 2000, 0.5, seed=7)
    w = data.w.copy()
    w[int(np.flatnonzero(data.is_e)[0]), 0] = 1e154
    bad = px.CombinedDataset.from_arrays(
        y=data.y, w=w, z=data.z, s=data.s, a=data.a, x=data.x, is_e=data.is_e
    )
    path, out = tmp_path / "huge_w.csv", tmp_path / "rep.json"
    px.write_csv(bad, path, px.CsvSchema())
    rc = run(["estimate", "--data", str(path), "--out", str(out)])
    assert rc == 2
    assert not out.exists()
    assert "non-finite estimate" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_estimate_non_finite_evaluation_exit_2(tmp_path, capsys):
    # s = 1e308 on one O row: every fold that trains on it sees an
    # infinite s scale, and the fit stops there.
    data, _ = px.generate(px.confounded_config(), 2000, 0.5, seed=7)
    row = int(np.flatnonzero(~data.is_e)[0])
    s = data.s.copy()
    s[row, 0] = 1e308
    bad = px.CombinedDataset.from_arrays(
        y=data.y, w=data.w, z=data.z, s=s, a=data.a, x=data.x, is_e=data.is_e
    )
    path, out = tmp_path / "huge_s.csv", tmp_path / "rep.json"
    px.write_csv(bad, path, px.CsvSchema())
    rc = run(["estimate", "--data", str(path), "--k", "5", "--seed", "0", "--out", str(out)])
    assert rc == 2
    assert not out.exists()
    assert "non-finite standardization of role 's'" in capsys.readouterr().err


def test_estimate_non_finite_standardization_exit_2(tmp_path, capsys):
    # s = 1e200 on one O row overflows the s column's sd in every fold
    # that trains on that row, while the row's own held-out values stay
    # finite: OB-OR would report with s silently dropped from those folds.
    data, _ = px.generate(px.confounded_config(), 2000, 0.5, seed=7)
    s = data.s.copy()
    s[np.flatnonzero(~data.is_e)[0], 0] = 1e200
    bad = px.CombinedDataset.from_arrays(
        y=data.y, w=data.w, z=data.z, s=s, a=data.a, x=data.x, is_e=data.is_e
    )
    path, out = tmp_path / "big_s.csv", tmp_path / "rep.json"
    px.write_csv(bad, path, px.CsvSchema())
    rc = run(["estimate", "--data", str(path), "--estimator", "ob-or", "--k", "5",
              "--seed", "0", "--out", str(out)])
    assert rc == 2
    assert not out.exists()
    assert "non-finite standardization of role 's'" in capsys.readouterr().err


def _reject_constant(token: str):
    raise ValueError(f"{token} is not strict JSON")


def _strict_json(path: Path):
    return json.loads(path.read_text(), parse_constant=_reject_constant)


def test_singular_gram_report_is_strict_json(tmp_path):
    # An all-zero covariate makes the q Gram matrix singular in every fold,
    # and the h system too: its instruments keep 3 directions for 4
    # parameters. The run still warns and succeeds, and each condition
    # reads null.
    data, _ = px.generate(px.confounded_config(), 2000, 0.5, seed=7)
    flat = px.CombinedDataset.from_arrays(
        y=data.y, w=data.w, z=data.z, s=data.s, a=data.a, x=np.zeros_like(data.x),
        is_e=data.is_e,
    )
    path, out = tmp_path / "flat_x.csv", tmp_path / "rep.json"
    px.write_csv(flat, path, px.CsvSchema())
    with pytest.warns(RuntimeWarning, match="Gram condition number inf") as caught:
        rc = run(["estimate", "--data", str(path), "--estimator", "mr", "--out", str(out)])
    assert rc == 0
    messages = {str(w.message).split(":")[0] for w in caught}
    assert {"outcome bridge", "surrogate bridge"} <= messages
    diags = _strict_json(out)["result"]["MR"]["per_fold_diagnostics"]
    assert len(diags) == 15 and all(d["gram_condition"] is None for d in diags)


def _key_paths(node, prefix: str = "") -> set[str]:
    """Nested key paths of a JSON value; the items of a list share ``[]``."""
    paths = set()
    if isinstance(node, dict):
        for key, value in node.items():
            path = f"{prefix}.{key}" if prefix else key
            paths |= {path} | _key_paths(value, path)
    elif isinstance(node, list):
        for item in node:
            paths |= _key_paths(item, prefix + "[]")
    return paths


def _nested(prefix: str, keys: list[str]) -> list[str]:
    return [prefix] + [f"{prefix}.{k}" for k in keys]


_DIAGNOSTIC_KEYS = ["gram_condition", "label", "max_abs_moment", "n_clipped",
                    "n_instruments", "n_params"]
_REPORT_KEYS = ["alpha", "ci", "estimator", "k_folds", "n_e", "n_o", "n_propensity_clips",
                "per_fold_diagnostics", "seed", "tau_hat", "variance_hat"]
_BASIS_KEYS = ["centers", "out_dim", "scales", "spec", "spec.degree", "spec.interactions",
               "spec.intercept", "spec.roles", "spec.standardize"]
_BRIDGE_KEYS = ["arm", "coeffs", "kind", "ridge"] + _nested("basis", _BASIS_KEYS)
_DUMP_FOLD_KEYS = (
    ["fold"]
    + _nested("e", ["clip_eps", "coeffs", "fixed_rate", "ridged"]
              + _nested("basis", _BASIS_KEYS))
    + _nested("h", _BRIDGE_KEYS)
    + _nested("hbar", ["arm0_coeffs", "arm1_coeffs"] + _nested("basis", _BASIS_KEYS))
    + _nested("q0", _BRIDGE_KEYS)
    + _nested("q1", _BRIDGE_KEYS)
)
_STATS_KEYS = ["bias", "coverage_95", "mean", "n_replications", "rmse", "sd"]


def test_report_key_structure(unmasked_csv, tmp_path):
    # Pins the JSON layout of every report: a renamed or dropped record
    # field changes these paths.
    data, oracle = tmp_path / "d.csv", tmp_path / "oracle.json"
    est, dump = tmp_path / "est.json", tmp_path / "dump.json"
    sim, diag = tmp_path / "sim.json", tmp_path / "diag.json"
    assert run(["gen-data", "--n", "1000", "--seed", "4", "--out", str(data),
                "--oracle-out", str(oracle)]) == 0
    assert run(["estimate", "--data", str(data), "--estimator", "ob-or,ob-ipw,sb,mr,si,si-prox",
                "--out", str(est), "--dump-nuisances", str(dump)]) == 0
    assert run(["simulate", "--n", "1000", "--replications", "2", "--estimators", "all",
                "--regimes", "all", "--out", str(sim)]) == 0
    assert run(["diagnose", "--data", str(unmasked_csv), "--out", str(diag)]) == 0

    results = {}
    for path in (oracle, est, sim, diag):
        doc = _strict_json(path)
        assert sorted(doc) == ["command", "created_at", "result", "version"]
        results[path] = doc["result"]
    assert sorted(_key_paths(results[oracle])) == ["notes", "true_ate", "true_h_coeffs"]
    proximal = ["MR", "OB-IPW", "OB-OR", "SB"]
    assert sorted(_key_paths(results[est])) == sorted(
        [p for name in proximal for p in _nested(name, _REPORT_KEYS + [
            f"per_fold_diagnostics[].{k}" for k in _DIAGNOSTIC_KEYS])]
        + [p for name in ("SI", "SI-PROX") for p in _nested(name, _REPORT_KEYS)]
    )
    dump_doc = _strict_json(dump)
    assert len(dump_doc) == 5
    assert sorted(_key_paths(dump_doc[0])) == sorted(_DUMP_FOLD_KEYS)
    regimes = ["all_correct", "all_wrong", "case1", "case2", "case3", "case4"]
    estimators = proximal + ["SI", "SI-PROX"]
    assert sorted(_key_paths(results[sim])) == sorted(
        ["failures", "n_failed", "n_replications", "regimes", "true_ate"]
        + [f"regimes.{r}" for r in regimes]
        + [p for r in regimes for e in estimators
           for p in _nested(f"regimes.{r}.{e}", _STATS_KEYS)]
    )
    assert sorted(_key_paths(results[diag])) == [
        "iv_coef_on_a", "iv_p", "iv_se", "ols_coef_on_a", "ols_p", "ols_se"
    ]


def test_non_finite_report_value_exit_2(unmasked_csv, tmp_path, monkeypatch, capsys):
    # The report writer refuses NaN and infinity instead of writing
    # non-standard JSON.
    def infinite_se(sample):
        return px.DiagnosticReport(ols_coef_on_a=0.0, ols_se=float("inf"), ols_p=1.0,
                                   iv_coef_on_a=0.0, iv_se=1.0, iv_p=1.0)

    monkeypatch.setattr("proxate.cli.diagnose_surrogacy", infinite_se)
    out = tmp_path / "diag.json"
    assert run(["diagnose", "--data", str(unmasked_csv), "--out", str(out)]) == 2
    assert not out.exists()
    assert "not JSON compliant" in capsys.readouterr().err
