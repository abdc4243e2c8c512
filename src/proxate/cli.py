"""Command-line entry point.

Subcommands:

  estimate   cross-fitted effect estimates from a combined CSV
  simulate   synthetic Monte Carlo study with misspecification regimes
  diagnose   surrogacy OLS/IV diagnostics on an unmasked experimental CSV
  gen-data   draw a synthetic dataset to CSV

Configuration lives in a JSON file (--config); unknown keys anywhere in
it are rejected so typos cannot silently change an estimator. Flags
override config values. Every command that writes a machine-readable
report produces identical bytes for identical config and seeds, except
for the created_at timestamp, which golden comparisons must strip.

Exit codes: 0 success, 1 validation problem, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .baselines import BASELINE_NAMES, diagnose_surrogacy, surrogate_index_estimate
from .data import CsvSchema, load_csv, load_unmasked_csv, write_csv, write_unmasked_csv
from .dgp import DGPConfig, confounded_config, generate
from .errors import NumericalError, ProxateError, ValidationError
from .estimators import (
    ESTIMATOR_NAMES,
    EstimatorConfig,
    estimate_all,
    fit_all_nuisances,
    make_folds,
)
from .harness import HARNESS_ESTIMATORS, REGIME_NAMES, run_monte_carlo

_ESTIMATE_CHOICES = tuple(n.lower() for n in ESTIMATOR_NAMES + BASELINE_NAMES) + ("all",)


@dataclass
class RunConfig:
    schema: CsvSchema = field(default_factory=CsvSchema)
    estimation: EstimatorConfig = field(default_factory=EstimatorConfig)
    k_folds: int = 5
    seed: int = 0
    dgp: DGPConfig = field(default_factory=confounded_config)
    sim_n: int = 2000
    sim_pi: float = 0.5
    sim_replications: int = 2
    sim_base_seed: int = 1
    sim_estimators: tuple[str, ...] = ESTIMATOR_NAMES
    sim_regimes: tuple[str, ...] = ("all_correct",)


def _reject_unknown(d: dict, known: set[str], where: str) -> None:
    unknown = set(d) - known
    if unknown:
        raise ValidationError(f"unknown {where} keys: {sorted(unknown)}")


def load_config(path: str | None) -> RunConfig:
    cfg = RunConfig()
    if path is None:
        return cfg
    try:
        raw = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ValidationError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise ValidationError("config root must be a JSON object")
    _reject_unknown(raw, {"schema", "estimation", "dgp", "simulate"}, "config")
    if "schema" in raw:
        cfg.schema = CsvSchema.from_dict(raw["schema"])
    if "estimation" in raw:
        est = dict(raw["estimation"])
        _reject_unknown(
            est,
            {"k_folds", "seed", "alpha", "ridge_h", "ridge_q", "clip_eps",
             "known_propensity", "bases"},
            "estimation",
        )
        cfg.k_folds = int(est.pop("k_folds", cfg.k_folds))
        cfg.seed = int(est.pop("seed", cfg.seed))
        bases = est.pop("bases", {})
        _reject_unknown(bases, {"psi", "b", "phi", "g", "e_basis", "hbar_basis"}, "bases")
        cfg.estimation = EstimatorConfig.from_dict({**est, **bases})
    if "dgp" in raw:
        cfg.dgp = DGPConfig.from_dict(raw["dgp"])
    if "simulate" in raw:
        sim = dict(raw["simulate"])
        _reject_unknown(
            sim,
            {"n", "pi", "replications", "base_seed", "estimators", "regimes"},
            "simulate",
        )
        cfg.sim_n = int(sim.get("n", cfg.sim_n))
        cfg.sim_pi = float(sim.get("pi", cfg.sim_pi))
        cfg.sim_replications = int(sim.get("replications", cfg.sim_replications))
        cfg.sim_base_seed = int(sim.get("base_seed", cfg.sim_base_seed))
        if "estimators" in sim:
            cfg.sim_estimators = _parse_name_list(
                sim["estimators"], HARNESS_ESTIMATORS, "estimator"
            )
        if "regimes" in sim:
            cfg.sim_regimes = _parse_name_list(sim["regimes"], REGIME_NAMES, "regime")
    return cfg


def _parse_name_list(value, valid: tuple[str, ...], what: str) -> tuple[str, ...]:
    if isinstance(value, str):
        value = [v.strip() for v in value.split(",") if v.strip()]
    if list(value) == ["all"]:
        return valid
    out = []
    for name in value:
        canonical = _canonical_name(name, valid)
        if canonical is None:
            raise ValidationError(f"unknown {what} {name!r}; choose from {valid} or 'all'")
        out.append(canonical)
    return tuple(out)


def _canonical_name(name: str, valid: tuple[str, ...]) -> str | None:
    for v in valid:
        if name.lower() == v.lower():
            return v
    return None


def _write_report(path: str | None, command: str, payload: dict) -> None:
    if path is None:
        return
    doc = {
        "command": command,
        "created_at": datetime.now(timezone.utc).isoformat(),
        "version": __version__,
        "result": payload,
    }
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _estimate_table(reports: dict) -> str:
    header = f"{'estimator':<9} {'tau_hat':>12} {'se':>12} {'ci':>28}"
    lines = [header, "-" * len(header)]
    for name, rep in reports.items():
        if rep.variance_hat is not None:
            n = rep.n_e + rep.n_o
            se = f"{np.sqrt(rep.variance_hat / n):.6f}"
            ci = f"[{rep.ci[0]:.6f}, {rep.ci[1]:.6f}]"
        else:
            se, ci = "", ""
        lines.append(f"{name:<9} {rep.tau_hat:>12.6f} {se:>12} {ci:>28}")
    return "\n".join(lines)


def cmd_estimate(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    if args.k is not None:
        cfg.k_folds = args.k
    if args.seed is not None:
        cfg.seed = args.seed
    if args.alpha is not None:
        cfg.estimation = EstimatorConfig.from_dict(
            {**cfg.estimation.to_dict(), "alpha": args.alpha}
        )
    data = load_csv(args.data, cfg.schema)

    requested = _parse_name_list(
        args.estimator, ESTIMATOR_NAMES + BASELINE_NAMES, "estimator"
    )
    if args.estimator == "all":
        requested = ESTIMATOR_NAMES
    proximal = tuple(e for e in requested if e in ESTIMATOR_NAMES)
    reports = {}
    nuisance_sets = None
    if proximal:
        folds = make_folds(data, cfg.k_folds, cfg.seed)
        nuisance_sets = fit_all_nuisances(data, folds, cfg.estimation)
        reports.update(
            estimate_all(
                data, folds, cfg.estimation,
                estimators=proximal, nuisance_sets=nuisance_sets,
            )
        )
    for name in requested:
        if name in BASELINE_NAMES:
            reports[name] = surrogate_index_estimate(
                data, include_proxies=(name == "SI-PROX")
            )

    print(_estimate_table(reports))
    _write_report(
        args.out, "estimate", {name: rep.to_dict() for name, rep in reports.items()}
    )
    if args.dump_nuisances and nuisance_sets is not None:
        dump = [
            {
                "fold": k,
                "e": nus.e.to_dict(),
                "h": nus.h.to_dict(),
                "hbar": nus.hbar.to_dict(),
                "q0": nus.q0.to_dict(),
                "q1": nus.q1.to_dict(),
            }
            for k, nus in enumerate(nuisance_sets)
        ]
        Path(args.dump_nuisances).write_text(json.dumps(dump, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    n = args.n if args.n is not None else cfg.sim_n
    pi = args.pi if args.pi is not None else cfg.sim_pi
    reps = args.replications if args.replications is not None else cfg.sim_replications
    base_seed = args.base_seed if args.base_seed is not None else cfg.sim_base_seed
    estimators = cfg.sim_estimators
    if args.estimators is not None:
        estimators = _parse_name_list(args.estimators, HARNESS_ESTIMATORS, "estimator")
    regimes = cfg.sim_regimes
    if args.regimes is not None:
        regimes = _parse_name_list(args.regimes, REGIME_NAMES, "regime")
    k_folds = args.k if args.k is not None else cfg.k_folds

    report = run_monte_carlo(
        cfg.dgp, n, pi, estimators, regimes, reps, base_seed,
        config=cfg.estimation, k_folds=k_folds,
    )
    print(report.format_table())
    _write_report(args.out, "simulate", report.to_dict())
    return 0


def cmd_diagnose(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    sample = load_unmasked_csv(args.data, cfg.schema)
    report = diagnose_surrogacy(sample)
    print(f"{'stage':<6} {'coef_on_a':>12} {'se':>12} {'p':>10}")
    print("-" * 42)
    print(f"{'OLS':<6} {report.ols_coef_on_a:>12.6f} {report.ols_se:>12.6f} {report.ols_p:>10.6f}")
    print(f"{'IV':<6} {report.iv_coef_on_a:>12.6f} {report.iv_se:>12.6f} {report.iv_p:>10.6f}")
    _write_report(args.out, "diagnose", report.to_dict())
    return 0


def cmd_gen_data(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    if args.unmasked:
        from .dgp import generate_full

        sample = generate_full(cfg.dgp, args.n, args.seed)
        write_unmasked_csv(sample, args.out, cfg.schema)
        print(f"wrote {sample.n} unmasked rows to {args.out}")
        return 0
    data, oracle = generate(cfg.dgp, args.n, args.pi, args.seed)
    write_csv(data, args.out, cfg.schema)
    print(f"wrote {data.n} rows (n_e={data.n_e}, n_o={data.n_o}) to {args.out}")
    if args.oracle_out:
        payload = {
            "true_ate": oracle.true_ate,
            "true_h_coeffs": oracle.true_h_coeffs.tolist(),
            "notes": oracle.notes,
        }
        _write_report(args.oracle_out, "gen-data", payload)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="proxate",
        description="Long-term treatment effect estimation from fused samples",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_est = sub.add_parser("estimate", help="estimate effects from a combined CSV")
    p_est.add_argument("--config", default=None)
    p_est.add_argument("--data", required=True)
    p_est.add_argument("--estimator", default="all",
                       help=f"one of {', '.join(_ESTIMATE_CHOICES)} (default all)")
    p_est.add_argument("--k", type=int, default=None, help="number of folds")
    p_est.add_argument("--seed", type=int, default=None, help="fold seed")
    p_est.add_argument("--alpha", type=float, default=None)
    p_est.add_argument("--out", default=None, help="machine-readable report path")
    p_est.add_argument("--dump-nuisances", default=None,
                       help="write per-fold nuisance functions to this JSON path")
    p_est.set_defaults(func=cmd_estimate)

    p_sim = sub.add_parser("simulate", help="Monte Carlo study on synthetic data")
    p_sim.add_argument("--config", default=None)
    p_sim.add_argument("--n", type=int, default=None)
    p_sim.add_argument("--pi", type=float, default=None)
    p_sim.add_argument("--replications", type=int, default=None)
    p_sim.add_argument("--base-seed", type=int, default=None)
    p_sim.add_argument("--estimators", default=None, help="comma list or 'all'")
    p_sim.add_argument("--regimes", default=None, help="comma list or 'all'")
    p_sim.add_argument("--k", type=int, default=None)
    p_sim.add_argument("--out", default=None)
    p_sim.set_defaults(func=cmd_simulate)

    p_diag = sub.add_parser("diagnose", help="surrogacy diagnostics on unmasked data")
    p_diag.add_argument("--config", default=None)
    p_diag.add_argument("--data", required=True)
    p_diag.add_argument("--out", default=None)
    p_diag.set_defaults(func=cmd_diagnose)

    p_gen = sub.add_parser("gen-data", help="write a synthetic dataset to CSV")
    p_gen.add_argument("--config", default=None)
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--pi", type=float, default=0.5)
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--unmasked", action="store_true",
                       help="write a fully observed experimental sample instead")
    p_gen.add_argument("--oracle-out", default=None)
    p_gen.set_defaults(func=cmd_gen_data)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2
    except ProxateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
