from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np
import pytest

import proxate as px
from proxate._records import from_dict
from proxate.cli import main

from conftest import fifo_of, fit_fold


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
    # Choosing estimators never changes a figure: each report equals its
    # entry in one run of every estimator. Only MR has an interval.
    def estimate(choice):
        out = tmp_path / f"{choice}.json"
        rc = run(["estimate", "--data", str(data_csv), "--estimator", choice,
                  "--seed", "3", "--out", str(out)])
        assert rc == 0
        return _load_result(out)["result"]

    every = estimate("ob-or,ob-ipw,sb,mr,si,si-prox")
    proximal = {"OB-OR", "OB-IPW", "SB", "MR"}
    for choice, names in [("all", proximal), ("all,", proximal), (" all", proximal),
                          ("ob-or", {"OB-OR"}), ("si-prox", {"SI-PROX"})]:
        result = estimate(choice)
        assert set(result) == names
        for name, rep in result.items():
            assert rep == every[name], (choice, name)
            assert (rep["ci"] is not None) == (name == "MR")


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


def test_estimate_over_long_cell_exit_1(data_csv, tmp_path, capsys):
    # A cell over csv.field_size_limit() is a parse error naming its row,
    # even in a column that no role claims.
    lines = data_csv.read_text().splitlines()
    notes = ["note"] + ["k"] * (len(lines) - 1)
    notes[5] = "k" * 200_000
    bad = tmp_path / "long_cell.csv"
    bad.write_text("".join(f"{line},{note}\n" for line, note in zip(lines, notes)))
    assert run(["estimate", "--data", str(bad)]) == 1
    assert capsys.readouterr().err == "error: row 5: field larger than field limit (131072)\n"


@pytest.mark.parametrize("command, fixture", [("estimate", "data_csv"), ("diagnose", "unmasked_csv")])
def test_not_utf8_byte_exit_1(command, fixture, request, tmp_path, capsys):
    # Row 2000 lies many of the text handle's read chunks into the file;
    # the error names it, not the row being read when its chunk decoded.
    lines = request.getfixturevalue(fixture).read_bytes().split(b"\r\n")
    lines[2000] = lines[2000].replace(b",", b",\xff", 1)
    bad = tmp_path / "not_utf8.csv"
    bad.write_bytes(b"\r\n".join(lines))
    assert run([command, "--data", str(bad)]) == 1
    assert capsys.readouterr().err.startswith("error: row 2000: not UTF-8 text: b'\\xff")


def test_estimate_reads_a_fifo(data_csv, tmp_path, capsys):
    # A FIFO, as a shell's <(...) gives, reads as the regular file does.
    rep_file, rep_fifo = tmp_path / "file.json", tmp_path / "fifo.json"
    assert run(["estimate", "--data", str(data_csv), "--out", str(rep_file)]) == 0
    printed = capsys.readouterr().out
    with fifo_of(tmp_path, data_csv.read_bytes()) as fifo:
        assert run(["estimate", "--data", str(fifo), "--out", str(rep_fifo)]) == 0
    assert capsys.readouterr().out == printed
    assert _strip_timestamp(_load_result(rep_fifo)) == _strip_timestamp(_load_result(rep_file))


def test_estimate_out_directory_exit_1(tmp_path, capsys):
    # Checked before the CSV is read, which does not exist.
    assert run(["estimate", "--data", str(tmp_path / "missing.csv"), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == (
        f"error: cannot write {tmp_path}: [Errno 21] Is a directory: '{tmp_path}'\n")


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


def test_dump_nuisances_of_baselines_only_exit_1(tmp_path, capsys):
    # Baselines fit no nuisances: the request fails before the data is read.
    dump = tmp_path / "nuisances.json"
    rc = run(["estimate", "--data", "no-such-file.csv", "--estimator", "si",
              "--dump-nuisances", str(dump)])
    assert rc == 1
    assert "baselines fit no nuisances" in capsys.readouterr().err
    assert not dump.exists()


def test_simulate_smoke_and_determinism(tmp_path):
    # Identical runs write identical reports, and choosing estimators or
    # regimes never changes a figure: each chosen cell equals that cell of
    # the all/all study at the same seeds. Only MR carries a coverage.
    def simulate(estimators, regimes, name):
        out = tmp_path / f"{name}.json"
        assert run(["simulate", "--n", "2000", "--replications", "2", "--base-seed", "5",
                    "--estimators", estimators, "--regimes", regimes, "--out", str(out)]) == 0
        return _strip_timestamp(json.loads(out.read_text()))["result"]

    d1 = simulate("mr,si", "all_correct,case1", "m1")
    assert d1 == simulate("mr,si", "all_correct,case1", "m2")
    every = simulate("all", "all", "every")
    assert every == simulate("all,", " all", "every_comma")
    assert all((st["coverage_95"] is not None) == (est == "MR")
               for table in every["regimes"].values() for est, st in table.items())
    d3 = simulate("ob-or,si", "case1,all_wrong", "m3")
    for d, cells in [(d1, {"all_correct": {"MR", "SI"}, "case1": {"MR", "SI"}}),
                     (d3, {"case1": {"OB-OR", "SI"}, "all_wrong": {"OB-OR", "SI"}})]:
        assert d["true_ate"] == every["true_ate"] and d["n_failed"] == 0
        assert {rg: set(table) for rg, table in d["regimes"].items()} == cells
        for rg, table in d["regimes"].items():
            for est, st in table.items():
                assert st == every["regimes"][rg][est], (rg, est)


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


def test_gen_data_unmasked_writes_oracle(tmp_path):
    # The oracle depends only on the config, so both modes write the same one.
    def oracle(*flags):
        path = tmp_path / "oracle.json"
        assert run(["gen-data", "--n", "100", "--seed", "3", "--out", str(tmp_path / "d.csv"),
                    "--oracle-out", str(path), *flags]) == 0
        return json.loads(path.read_text())["result"]

    assert oracle("--unmasked") == oracle()


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


# The README's config shape: renamed columns and sample labels, and
# every section.
README_CONFIG = {
    "schema": {"y": "earn_y4", "a": "assigned", "g": "sample", "w": ["score0"],
               "z": ["survey1"], "s": ["earn_y2"], "x": ["age"],
               "e_label": "EXP", "o_label": "OBS"},
    "estimation": {"k_folds": 4, "seed": 7, "alpha": 0.05, "ridge_h": 1e-6, "ridge_q": 1e-6,
                   "clip_eps": 0.01, "known_propensity": None,
                   "bases": {"psi": {"roles": ["w", "s", "x"], "degree": 1,
                                     "standardize": True}}},
    "dgp": {"beta_a": [0.4], "beta_u": [1.0], "gamma_s": [2.0], "gamma_u": 1.0,
            "gamma_x": [0.5], "alpha_w": 1.0, "alpha_z": 1.0},
    "simulate": {"n": 1500, "replications": 3, "base_seed": 50,
                 "estimators": ["MR", "SI"], "regimes": ["all_correct", "all_wrong"]},
}


def test_readme_config_drives_every_command(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(README_CONFIG))
    data, oracle = tmp_path / "d.csv", tmp_path / "oracle.json"
    assert run(["gen-data", "--config", str(cfg), "--n", "2000", "--seed", "3",
                "--out", str(data), "--oracle-out", str(oracle)]) == 0
    # The dgp section sets the truth: gamma_s . beta_a = 0.8.
    assert json.loads(oracle.read_text())["result"]["true_ate"] == pytest.approx(0.8)
    assert data.read_text().splitlines()[0].split(",") == [
        "earn_y4", "assigned", "sample", "score0", "survey1", "earn_y2", "age"]
    assert {line.split(",")[2] for line in data.read_text().splitlines()[1:]} == {"EXP", "OBS"}

    out = tmp_path / "est.json"
    assert run(["estimate", "--config", str(cfg), "--data", str(data),
                "--estimator", "mr", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())["result"]["MR"]
    assert rep["k_folds"] == 4 and rep["seed"] == 7
    loaded = px.load_csv(data, from_dict(px.CsvSchema, README_CONFIG["schema"], "schema"))
    expected = px.estimate_all(loaded, px.make_folds(loaded, 4, 7), px.EstimatorConfig())["MR"]
    assert rep["tau_hat"] == expected.tau_hat

    sim = tmp_path / "sim.json"
    assert run(["simulate", "--config", str(cfg), "--out", str(sim)]) == 0
    result = json.loads(sim.read_text())["result"]
    assert result["true_ate"] == pytest.approx(0.8) and result["n_replications"] == 3
    assert {rg: set(table) for rg, table in result["regimes"].items()} == {
        "all_correct": {"MR", "SI"}, "all_wrong": {"MR", "SI"}}
    assert run(["simulate", "--config", str(cfg), "--replications", "2", "--estimators", "sb",
                "--regimes", "case2", "--out", str(sim)]) == 0
    result = json.loads(sim.read_text())["result"]
    assert result["n_replications"] == 2 and list(result["regimes"]) == ["case2"]
    assert list(result["regimes"]["case2"]) == ["SB"]


@pytest.mark.parametrize("text, message", [
    (None, "config file not found"),
    ("{not json", "config is not valid JSON"),
    ("[1, 2]", "config root must be a JSON object"),
])
def test_config_unreadable_exit_1(tmp_path, data_csv, capsys, text, message):
    cfg = tmp_path / "cfg.json"
    if text is not None:
        cfg.write_text(text)
    assert run(["estimate", "--config", str(cfg), "--data", str(data_csv)]) == 1
    assert message in capsys.readouterr().err


def _unreadable(cfg):
    cfg.write_text("{}")
    cfg.chmod(0)
    if os.access(cfg, os.R_OK):
        pytest.skip("file modes do not stop this user reading")


@pytest.mark.parametrize("make, message", [
    pytest.param(lambda cfg: cfg.mkdir(), "Is a directory", id="directory"),
    pytest.param(_unreadable, "Permission denied", id="unreadable"),
    pytest.param(lambda cfg: cfg.write_bytes(b'{"k": 5, "note": "\xff"}'),
                 "'utf-8' codec can't decode byte 0xff", id="not_utf8"),
])
def test_config_read_failure_exit_1(tmp_path, data_csv, capsys, make, message):
    # A config path that cannot be read as UTF-8 text is one error line,
    # as for --data, never a traceback.
    cfg = tmp_path / "cfg.json"
    make(cfg)
    assert run(["estimate", "--config", str(cfg), "--data", str(data_csv)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read config {cfg}: ") and err.count("\n") == 1
    assert message in err


_PSI = {"roles": ["w", "s", "x"]}
_DGP = {"beta_a": [0.5], "beta_u": [1.0], "gamma_s": [2.0], "gamma_u": 1.0,
        "gamma_x": [0.5], "alpha_w": 1.0, "alpha_z": 1.0}


@pytest.mark.parametrize("config, path", [
    ({"simulate": {"estimators": [5]}}, "simulate.estimators"),
    ({"estimation": {"alpha": "x"}}, "estimation.alpha"),
    ({"estimation": {"k_folds": "x"}}, "estimation.k_folds"),
    ({"estimation": {"k_folds": 2.7}}, "estimation.k_folds"),
    ({"estimation": {"k_folds": True}}, "estimation.k_folds"),
    ({"estimation": {"ridge_h": "1e-6"}}, "estimation.ridge_h"),
    ({"estimation": {"clip_eps": None}}, "estimation.clip_eps"),
    ({"estimation": {"bases": []}}, "estimation.bases"),
    ({"estimation": {"bases": {"psi": {**_PSI, "standardize": "no"}}}},
     "estimation.bases.psi.standardize"),
    ({"estimation": {"bases": {"psi": {"roles": "wsx"}}}}, "estimation.bases.psi.roles"),
    ({"estimation": {"bases": {"psi": {**_PSI, "degree": 1.9}}}}, "estimation.bases.psi.degree"),
    ({"dgp": {"beta_a": [0.5]}}, "dgp"),
    ({"dgp": {**_DGP, "gamma_u": "1"}}, "dgp.gamma_u"),
    ({"schema": {"w": 5}}, "schema.w"),
    ({"schema": []}, "schema"),
    ({"estimation": []}, "estimation"),
    ({"simulate": {"n": "abc"}}, "simulate.n"),
    ({"simulate": {"replications": 3.9}}, "simulate.replications"),
    ({"simulate": {"estimators": ["bogus"]}}, "simulate.estimators"),
    ({"estimation": {"bases": {"psy": _PSI}}}, "estimation.bases"),
    ({"estimation": {"ridge_h": float("nan")}}, "estimation.ridge_h"),
    ({"dgp": {**_DGP, "beta_x": [[1.0], [1.0, 2.0]]}}, "dgp.beta_x"),
    ({"estimation": {"ridge_h": -1}}, "estimation.ridge_h: "),
    ({"estimation": {"ridge_q": -1}}, "estimation.ridge_q: "),
    ({"estimation": {"alpha": 2}}, "estimation.alpha: "),
    ({"estimation": {"clip_eps": 0.7}}, "estimation.clip_eps: "),
    ({"estimation": {"known_propensity": 1.5}}, "estimation.known_propensity: "),
    ({"estimation": {"seed": -3}}, "estimation.seed: "),
    ({"estimation": {"k_folds": 1}}, "estimation.k_folds: "),
    ({"schema": {"o_label": "E"}}, "schema: e_label and o_label must differ"),
    ({"schema": {"y": "earn"}}, "column 'earn' for role 'y' not in header"),
    ({"schema": {"w": ["w9"]}}, "schema columns ['w9'] for role 'w' not in header"),
    ({"schema": {"w": []}}, "schema: w: lists no column; only x may have none"),
    ({"schema": {"z": []}}, "schema: z: lists no column; only x may have none"),
    ({"schema": {"s": []}}, "schema: s: lists no column; only x may have none"),
    ({"dgp": {**_DGP, "dim_x": 1}}, "unknown dgp keys: ['dim_x']"),
    ({"estimation": {"bases": {"hbar_basis": {"roles": ["a"]}}}},
     "estimation.bases.hbar_basis: unknown role 'a'"),
    ({"estimation": {"bases": {"e_basis": {"roles": ["x", "a"]}}}},
     "estimation.bases.e_basis: unknown role 'a'"),
])
def test_malformed_config_exit_1(tmp_path, data_csv, capsys, config, path):
    # A value of the wrong type is an error naming its key path, never a
    # traceback or a run under a setting the file did not give. Every
    # command reads every section, so estimate sees the simulate ones.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert run(["estimate", "--config", str(cfg), "--data", str(data_csv)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and path in err, err


@pytest.mark.parametrize("argv", [
    ["gen-data", "--n", "100", "--seed", "1"],
    ["gen-data", "--n", "100", "--seed", "1", "--unmasked"],
    ["simulate", "--n", "100", "--replications", "1"],
], ids=["gen_data", "unmasked", "simulate"])
@pytest.mark.parametrize("dgp, message", [
    ({"beta_a": [0.5, 0.5], "beta_x": [0.1, 0.2, 0.3]},
     "beta_a, beta_u, gamma_s must share one surrogate dimension >= 1"),
    ({"beta_a": [0.5, 0.5], "beta_u": [1.0, 1.0], "gamma_s": [2.0, 2.0],
      "beta_x": [0.1, 0.2, 0.3]}, "beta_x must hold dim_s*dim_x = 2 values, not 3"),
    ({"beta_a": [[0.5]]}, "beta_a must be a vector, not of shape (1, 1)"),
], ids=["beta_a_longer", "beta_x_count", "beta_a_2d"])
def test_dgp_shape_error_exit_1(tmp_path, monkeypatch, capsys, argv, dgp, message):
    # A coefficient of the wrong shape is a config error naming it, before
    # any draw and with no file, never a reshape or oracle traceback.
    def no_draw(*args, **kwargs):
        raise AssertionError("drew a sample from a model that is not valid")

    for name in ("generate", "generate_full", "run_monte_carlo"):
        monkeypatch.setattr(f"proxate.cli.{name}", no_draw)
    cfg, out = tmp_path / "cfg.json", tmp_path / "out"
    cfg.write_text(json.dumps({"dgp": {**_DGP, **dgp}}))
    assert run([*argv, "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: dgp: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("schema, message", [
    ({"e_label": "\udcff"}, "error: schema: e_label: '\\udcff' cannot be written as UTF-8\n"),
    ({"w": ["w1", "\udcff"]}, "error: schema: w: '\\udcff' cannot be written as UTF-8\n"),
])
def test_gen_data_name_not_utf8_exit_1(tmp_path, capsys, schema, message):
    # A label or column name with a lone surrogate (JSON "\udcff") cannot
    # be written to a UTF-8 file: a config error, and no file is created.
    cfg, out = tmp_path / "cfg.json", tmp_path / "out.csv"
    cfg.write_text(json.dumps({"schema": schema}))
    assert run(["gen-data", "--config", str(cfg), "--n", "100", "--seed", "1",
                "--out", str(out)]) == 1
    assert capsys.readouterr().err == message
    assert not out.exists()


@pytest.mark.parametrize("schema, flags, message", [
    ({"y": "w1"}, [], "column 'w1' mapped to both roles 'y' and 'w'"),
    ({"y": "w1"}, ["--unmasked"], "column 'w1' mapped to both roles 'y' and 'w'"),
    ({"g": "a"}, [], "column 'a' mapped to both roles 'a' and 'g'"),
    ({"w": ["w1", "w1"]}, [], "schema: w: column 'w1' listed twice"),
    ({"w": ["w1", "w2"]}, [], "schema lists 2 columns for role 'w' but data has 1"),
])
def test_gen_data_header_it_cannot_read_back_exit_1(tmp_path, monkeypatch, capsys, schema, flags,
                                                    message):
    # gen-data writes only a header that the same schema reads back; the
    # reader's own error otherwise, before any draw, and no file.
    def no_draw(*args):
        raise AssertionError("drew a sample for a header that cannot be written")

    monkeypatch.setattr("proxate.cli.generate", no_draw)
    monkeypatch.setattr("proxate.cli.generate_full", no_draw)
    cfg, out = tmp_path / "cfg.json", tmp_path / "out.csv"
    cfg.write_text(json.dumps({"schema": schema}))
    assert run(["gen-data", "--config", str(cfg), "--n", "100", "--seed", "1",
                "--out", str(out), *flags]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("schema, message", [
    ({"e_label": " E"}, "error: schema: e_label: ' E' starts or ends with whitespace"),
    ({"y": "y "}, "error: schema: y: 'y ' starts or ends with whitespace"),
])
def test_gen_data_padded_name_exit_1(tmp_path, capsys, schema, message):
    # The reader strips header cells and labels, so a padded name or label
    # would be written into a file that the same config cannot read.
    cfg, out = tmp_path / "cfg.json", tmp_path / "out.csv"
    cfg.write_text(json.dumps({"schema": schema}))
    assert run(["gen-data", "--config", str(cfg), "--n", "100", "--seed", "1",
                "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(message)
    assert not out.exists()


@pytest.mark.parametrize("argv, simulate, where", [
    (["estimate", "--estimator", ","], {}, "--estimator"),
    (["simulate", "--estimators", ","], {}, "--estimators"),
    (["simulate", "--regimes", " , "], {}, "--regimes"),
    (["simulate"], {"estimators": []}, "simulate.estimators"),
    (["simulate"], {"regimes": ""}, "simulate.regimes"),
])
def test_empty_name_list_exit_1(tmp_path, data_csv, capsys, argv, simulate, where):
    # A list that names nothing is an error naming its flag or key, raised
    # before anything runs.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"simulate": simulate}))
    data = ["--data", str(data_csv)] if argv[0] == "estimate" else []
    assert run([*argv, *data, "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {where} names no "), captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["estimate", "--estimator", "ob-or", "--out", "{bad}"],
    ["estimate", "--estimator", "ob-or", "--dump-nuisances", "{bad}"],
    ["simulate", "--n", "300", "--estimators", "si", "--out", "{bad}"],
    ["gen-data", "--n", "100", "--seed", "1", "--out", "{bad}"],
    ["gen-data", "--n", "100", "--seed", "1", "--out", "{ok}", "--oracle-out", "{bad}"],
    ["gen-data", "--n", "100", "--seed", "1", "--out", "{bad}", "--unmasked"],
])
def test_unwritable_output_path_exit_1(tmp_path, data_csv, capsys, argv):
    bad = tmp_path / "no-such-dir" / "out"
    argv = [a.format(bad=bad, ok=tmp_path / "ok.csv") for a in argv]
    if argv[0] == "estimate":
        argv += ["--data", str(data_csv)]
    assert run(argv) == 1
    assert capsys.readouterr().err.startswith(f"error: cannot write {bad}: ")


@pytest.mark.parametrize("estimation, message", [
    ({"ridge_q": -1}, "error: estimation.ridge_q: ridge penalty must be >= 0"),
    ({"k_folds": 1}, "error: estimation.k_folds: k_folds must be >= 2, got 1"),
])
def test_config_range_checked_before_data_read(tmp_path, capsys, estimation, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"estimation": estimation}))
    missing = tmp_path / "missing.csv"
    assert run(["estimate", "--config", str(cfg), "--data", str(missing)]) == 1
    assert capsys.readouterr().err == message + "\n"


@pytest.mark.parametrize("argv", [
    ["simulate", "--n", "300", "--estimators", "si", "--out", "{bad}"],
    ["gen-data", "--n", "100", "--seed", "1", "--out", "{ok}", "--oracle-out", "{bad}"],
    ["estimate", "--data", "{ok}", "--out", "{ok}.json", "--dump-nuisances", "{bad}"],
])
def test_output_paths_checked_before_any_work(tmp_path, capsys, argv):
    # An unwritable path fails the run before it computes or writes
    # anything, and the check itself creates no file.
    bad = tmp_path / "no-such-dir" / "out"
    ok = tmp_path / "ok.csv"
    argv = [a.format(bad=bad, ok=ok) for a in argv]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: cannot write {bad}: [Errno 2] No such file or directory: '{bad}'\n"
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, flags", [
    (["estimate", "--data", "{f}", "--out", "{same}"], "--out and --data"),
    (["gen-data", "--n", "200", "--seed", "1", "--out", "{f}", "--oracle-out", "{same}"],
     "--oracle-out and --out"),
    (["estimate", "--data", "{d}", "--out", "{f}", "--dump-nuisances", "{same}"],
     "--dump-nuisances and --out"),
    (["simulate", "--config", "{f}", "--out", "{same}"], "--out and --config"),
], ids=["data_out", "out_oracle_out", "out_dump_nuisances", "config_out"])
@pytest.mark.parametrize("exists", [True, False], ids=["file_exists", "new_file"])
def test_one_file_named_twice_exit_1(tmp_path, data_csv, capsys, argv, flags, exists):
    # Two of the paths naming one file, spelled differently, are refused
    # before any work: writing one would replace the input or the other
    # output. No file is created or changed.
    d, f = tmp_path / "d.csv", tmp_path / "f.csv"
    d.write_bytes(data_csv.read_bytes())
    if exists or argv[2] == "{f}":
        f.write_bytes(data_csv.read_bytes())
    same = f"{tmp_path}/./f.csv"
    before = {p: p.read_bytes() for p in tmp_path.iterdir()}
    assert run([a.format(d=d, f=f, same=same) for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {flags} name the same file: {same}\n"
    assert captured.out == ""
    assert {p: p.read_bytes() for p in tmp_path.iterdir()} == before


@pytest.mark.parametrize("flag, message", [
    (["--pi", "1.5"], "error: pi must be in (0, 1)"),
    (["--n", "5"], "error: n must be >= 10"),
])
def test_simulate_draw_arguments_checked_once(monkeypatch, capsys, flag, message):
    # An invalid draw argument is an error before replication 0, not a
    # study of failed replications.
    def never(*args):
        raise AssertionError("generate called")

    monkeypatch.setattr(px.harness, "generate", never)
    assert run(["simulate", "--replications", "2", *flag]) == 1
    assert capsys.readouterr().err == message + "\n"


def test_estimate_si_collinear_covariate_exit_2(tmp_path, small_data, capsys):
    data, _ = small_data
    twin = px.CombinedDataset.from_arrays(
        y=data.y, w=data.w, z=data.z, s=data.s, a=data.a, x=data.s, is_e=data.is_e,
    )
    path = tmp_path / "twin.csv"
    px.write_csv(twin, path, px.CsvSchema())
    assert run(["estimate", "--data", str(path), "--estimator", "si"]) == 2
    assert "surrogate-index" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["gen-data", "--n", "100", "--seed", "-1", "--out", "{out}"],
    ["gen-data", "--n", "100", "--seed", "-1", "--out", "{out}", "--unmasked"],
    ["estimate", "--seed", "-3", "--data", "{data}"],
    ["simulate", "--n", "300", "--base-seed", "-1"],
])
def test_negative_seed_exit_1(tmp_path, data_csv, capsys, argv):
    argv = [a.format(out=tmp_path / "d.csv", data=data_csv) for a in argv]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "must be a nonnegative integer" in err, err
    assert not (tmp_path / "d.csv").exists()


def test_alpha_flag_narrows_only_the_interval(data_csv, tmp_path):
    def mr_si(*flags):
        out = tmp_path / "mr.json"
        assert run(["estimate", "--data", str(data_csv), "--estimator", "mr,si",
                    "--out", str(out), *flags]) == 0
        result = json.loads(out.read_text())["result"]
        return result["MR"], result["SI"]

    (default, si_default), (narrow, si_narrow) = mr_si(), mr_si("--alpha", "0.1")
    assert default["alpha"] == 0.05 and narrow["alpha"] == 0.1
    assert narrow["tau_hat"] == default["tau_hat"]
    assert default["ci"][0] < narrow["ci"][0] < narrow["ci"][1] < default["ci"][1]
    # The baseline has no interval, but its report carries the alpha it ran under.
    assert si_narrow == {**si_default, "alpha": 0.1}


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
