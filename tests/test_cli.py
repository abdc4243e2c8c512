from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

import proxate as px
from proxate.cli import main


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
    bridge = px.BridgeFunction.from_dict(payload[0]["h"])
    assert bridge.kind == "outcome"
    prop = px.PropensityModel.from_dict(payload[0]["e"])
    assert prop.clip_eps > 0


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
    # s = 1e308 on one O row: folds that train on it see an infinite
    # scale and drop s, but in its own held-out fold the standardized s
    # times the outcome bridge's slope overflows.
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
    fold = int(px.make_folds(bad, 5, seed=0).fold_of[row])
    assert f"fold {fold}: non-finite held-out evaluation of h" in capsys.readouterr().err
