"""Command-line entry point.

Subcommands:

  estimate   cross-fitted effect estimates from a combined CSV
  simulate   synthetic Monte Carlo study with misspecification regimes
  diagnose   surrogacy OLS/IV diagnostics on an unmasked experimental CSV
  gen-data   draw a synthetic dataset to CSV

Configuration lives in a JSON file (--config), read by one typed walk
(``_records.from_dict``): an unknown key or a mistyped value anywhere in
it is an error naming its key path, so typos cannot silently change an
estimator. Flags override config values. Every command that writes a
machine-readable report produces identical bytes for identical config
and seeds, except for the created_at timestamp, which golden comparisons
must strip. Reports are strict JSON (RFC 8259): a NaN or infinity is a
numerical failure, never a written value.

Exit codes: 0 success, 1 validation problem, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from dataclasses import dataclass, field, fields
from datetime import datetime, timezone
from pathlib import Path
from typing import TypedDict, get_type_hints

import numpy as np

from . import __version__
from ._records import from_dict, reject_unknown
from .baselines import diagnose_surrogacy
from .basis import BasisSpec
from .data import CsvSchema, _header, load_csv, load_unmasked_csv, write_csv, write_unmasked_csv
from .dgp import DGPConfig, _widths, confounded_config, generate, generate_full, oracle_for
from .errors import NumericalError, ProxateError, ValidationError
from .estimators import _SETTING_RANGES, ESTIMATOR_NAMES, EstimatorConfig, check_k_folds
from .harness import HARNESS_ESTIMATORS, REGIME_NAMES, estimate_regimes, run_monte_carlo
from .stats import check_seed


@dataclass
class RunConfig:
    """A run's settings, each named after the flag that overrides it."""

    schema: CsvSchema = field(default_factory=CsvSchema)
    estimation: EstimatorConfig = field(default_factory=EstimatorConfig)
    k_folds: int = 5
    seed: int = 0
    dgp: DGPConfig = field(default_factory=confounded_config)
    n: int = 2000
    pi: float = 0.5
    replications: int = 2
    base_seed: int = 1
    estimators: tuple[str, ...] = ESTIMATOR_NAMES
    regimes: tuple[str, ...] = ("all_correct",)


_ESTIMATION = get_type_hints(EstimatorConfig)
_BASES = {k: tp for k, tp in _ESTIMATION.items() if tp is BasisSpec}
# The config file's sections. Each key is optional and sets the RunConfig or
# EstimatorConfig field of its name; estimation nests the bases under "bases".
_SECTIONS = {
    "schema": CsvSchema,
    "estimation": TypedDict("Estimation", {
        "k_folds": int, "seed": int, "bases": TypedDict("Bases", _BASES, total=False),
        **{k: tp for k, tp in _ESTIMATION.items() if k not in _BASES}}, total=False),
    "dgp": DGPConfig,
    "simulate": TypedDict("Simulate", {
        "n": int, "pi": float, "replications": int, "base_seed": int,
        "estimators": tuple[str, ...] | str, "regimes": tuple[str, ...] | str}, total=False),
}
_SETTINGS = {f.name for f in fields(RunConfig)} | set(_ESTIMATION)
# The range each estimation setting must lie in, checked by the code that uses
# it; load_config checks them first, so an error comes before any work.
_RANGES = {**_SETTING_RANGES, "seed": check_seed, "k_folds": check_k_folds}


def _read_config(path: str) -> dict:
    """The settings the config file at ``path`` gives, by field name."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ValidationError(f"config file not found: {path}")
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read config {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise ValidationError("config root must be a JSON object")
    reject_unknown(raw, _SECTIONS, "config")
    sections = {name: from_dict(_SECTIONS[name], value, name) for name, value in raw.items()}
    given = {**sections.pop("simulate", {}), **sections.pop("estimation", {}), **sections}
    given.update(given.pop("bases", {}))
    return given


def load_config(args: argparse.Namespace) -> RunConfig:
    """The defaults, overridden by the ``--config`` file, overridden by
    the flags given; name lists are parsed after the flags. A value out of
    range is an error naming its config key (or, from a flag, the setting)."""
    given = _read_config(args.config) if args.config is not None else {}
    given.update((k, v) for k, v in vars(args).items() if k in _SETTINGS and v is not None)
    for key, check in _RANGES.items():
        if given.get(key) is not None:
            try:
                check(given[key])
            except ValidationError as exc:
                if getattr(args, key, None) is not None:
                    raise
                raise ValidationError(f"estimation.{key}: {exc}") from exc
    for key, valid in (("estimators", HARNESS_ESTIMATORS), ("regimes", REGIME_NAMES)):
        if key in given:
            where = f"--{key}" if getattr(args, key, None) is not None else f"simulate.{key}"
            given[key] = _parse_name_list(given[key], valid, valid, key[:-1], where)
    estimation = EstimatorConfig(**{k: given.pop(k) for k in _ESTIMATION if k in given})
    return RunConfig(**given, estimation=estimation)


def _parse_name_list(
    value, valid: tuple[str, ...], every: tuple[str, ...], what: str, where: str
) -> tuple[str, ...]:
    """Canonical names from ``valid`` for a comma string or a list of names
    (case-insensitive); ``all`` alone means ``every``. Errors name ``where``,
    the config key that gave ``value``, or its flag if it names nothing."""
    if isinstance(value, str):
        value = [v.strip() for v in value.split(",") if v.strip()]
    if not value:
        raise ValidationError(f"{where} names no {what}; choose from {valid} or 'all'")
    if list(value) == ["all"]:
        return every
    canonical = {v.lower(): v for v in valid}
    at = "" if where.startswith("--") else f"{where}: "
    for name in value:
        if name.lower() not in canonical:
            raise ValidationError(f"{at}unknown {what} {name!r}; choose from {valid} or 'all'")
    return tuple(canonical[name.lower()] for name in value)


def _check_paths(args: argparse.Namespace) -> None:
    """Raise now, before any work, the errors the input and output paths
    would cause later: two of them naming one file, which writing one
    output would replace, and the ``cannot write`` error of an output
    that is a directory, or whose directory is missing or not writable.
    Creates nothing."""
    given = [(f"--{key.replace('_', '-')}", path)
             for key in ("config", "data", "out", "oracle_out", "dump_nuisances")
             if (path := getattr(args, key, None))]
    for j, (flag, path) in enumerate(given):
        for earlier, other in given[:j]:
            if Path(path).resolve() == Path(other).resolve() or (
                    os.path.exists(path) and os.path.exists(other) and os.path.samefile(path, other)):
                raise ValidationError(f"{flag} and {earlier} name the same file: {path}")
        if flag in ("--config", "--data"):  # read, not written
            continue
        target, parent = Path(path), Path(path).parent
        if target.is_dir():
            code = errno.EISDIR
        elif not parent.is_dir():
            code = errno.ENOENT
        elif not os.access(target if target.exists() else parent, os.W_OK):
            code = errno.EACCES
        else:
            continue
        raise ValidationError(f"cannot write {path}: {OSError(code, os.strerror(code), path)}")


def _write_json(path: str, doc) -> None:
    """Write ``doc`` as strict JSON; a NaN or infinity in it is a
    ``NumericalError`` and leaves no file."""
    try:
        text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise NumericalError(f"{path}: {exc}") from exc
    try:
        Path(path).write_text(text + "\n")
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}")


def _write_report(path: str | None, command: str, payload: dict) -> None:
    if path is None:
        return
    _write_json(path, {
        "command": command,
        "created_at": datetime.now(timezone.utc).isoformat(),
        "version": __version__,
        "result": payload,
    })


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
    cfg = load_config(args)
    requested = _parse_name_list(args.estimator, HARNESS_ESTIMATORS, ESTIMATOR_NAMES,
                                 "estimator", "--estimator")
    if args.dump_nuisances and not set(requested) & set(ESTIMATOR_NAMES):
        raise ValidationError(
            "--dump-nuisances needs a proximal estimator: the baselines fit no nuisances"
        )
    data = load_csv(args.data, cfg.schema)
    by_regime, nuisance_sets = estimate_regimes(
        data, cfg.k_folds, cfg.seed, cfg.estimation, requested, ("all_correct",)
    )
    reports = by_regime["all_correct"]

    print(_estimate_table(reports))
    _write_report(
        args.out, "estimate", {name: rep.to_dict() for name, rep in reports.items()}
    )
    if args.dump_nuisances:
        _write_json(args.dump_nuisances, [
            {"fold": k, **{name: getattr(nus, name).to_dict()
                           for name in ("e", "h", "hbar", "q0", "q1")}}
            for k, nus in enumerate(nuisance_sets)
        ])
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = load_config(args)
    report = run_monte_carlo(
        cfg.dgp, cfg.n, cfg.pi, cfg.estimators, cfg.regimes, cfg.replications,
        cfg.base_seed, config=cfg.estimation, k_folds=cfg.k_folds,
    )
    print(report.format_table())
    _write_report(args.out, "simulate", report.to_dict())
    return 0


def cmd_diagnose(args: argparse.Namespace) -> int:
    cfg = load_config(args)
    sample = load_unmasked_csv(args.data, cfg.schema)
    report = diagnose_surrogacy(sample)
    print(f"{'stage':<6} {'coef_on_a':>12} {'se':>12} {'p':>10}")
    print("-" * 42)
    print(f"{'OLS':<6} {report.ols_coef_on_a:>12.6f} {report.ols_se:>12.6f} {report.ols_p:>10.6f}")
    print(f"{'IV':<6} {report.iv_coef_on_a:>12.6f} {report.iv_se:>12.6f} {report.iv_p:>10.6f}")
    _write_report(args.out, "diagnose", report.to_dict())
    return 0


def cmd_gen_data(args: argparse.Namespace) -> int:
    cfg = load_config(args)
    _header(cfg.schema, _widths(cfg.dgp), with_g=not args.unmasked)  # fail before the draw
    if args.unmasked:
        sample = generate_full(cfg.dgp, args.n, args.seed)
        write_unmasked_csv(sample, args.out, cfg.schema)
        print(f"wrote {sample.n} unmasked rows to {args.out}")
        oracle = oracle_for(cfg.dgp)
    else:
        data, oracle = generate(cfg.dgp, args.n, args.pi, args.seed)
        write_csv(data, args.out, cfg.schema)
        print(f"wrote {data.n} rows (n_e={data.n_e}, n_o={data.n_o}) to {args.out}")
    if args.oracle_out:
        _write_report(args.oracle_out, "gen-data", oracle.to_dict())
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
    p_est.add_argument(
        "--estimator", default="all",
        help=f"comma list of {', '.join(n.lower() for n in HARNESS_ESTIMATORS)}, or "
             "'all' for the four proximal estimators (default all)")
    p_est.add_argument("--k", dest="k_folds", type=int, default=None, help="number of folds")
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
    p_sim.add_argument("--estimators", default=None,
                       help="comma list, or 'all' for every estimator and baseline")
    p_sim.add_argument("--regimes", default=None, help="comma list or 'all'")
    p_sim.add_argument("--k", dest="k_folds", type=int, default=None)
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
        _check_paths(args)
        return args.func(args)
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2
    except ProxateError as exc:  # a ValidationError, or a worker that died
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
