"""Evaluation designs: masking splits, misspecification regimes, and
the Monte Carlo replication engine.

``split_and_mask`` turns a fully observed randomized sample into the
two-sample structure by masking complementary columns on two random
halves, so transportability holds by construction and estimator error
is attributable to the estimators alone.

``run_monte_carlo`` replays synthetic draws against the known truth.
Its misspecification regimes corrupt fitted nuisances in deterministic,
documented ways -- a constant 0.8 propensity, the bridge collapsed to
the mean of the evaluated observational outcomes, unit reweighting
functions, and a +-1 constant pseudo-outcome pair -- matching the four
patterns under which the multiply robust estimator should stay
consistent plus an everything-wrong power check. ``CORRUPTS`` names
what each regime corrupts. Every corruption is a constant, and the
estimators see the data only through the held-out evaluations, so each
replication fits and evaluates its nuisances once and ``apply_misspec``
substitutes each regime's constants into those evaluations.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .baselines import BASELINE_NAMES, surrogate_index_estimate
from .data import CombinedDataset, FullyObservedSample
from .dgp import DGPConfig, generate
from .errors import ProxateError, ValidationError
from .estimators import (
    ESTIMATOR_NAMES,
    EstimatorConfig,
    UnitEvals,
    estimates_from_evals,
    evaluate_nuisances,
    fit_all_nuisances,
    make_folds,
)

HARNESS_ESTIMATORS = ESTIMATOR_NAMES + BASELINE_NAMES

# Fixed wrong nuisances installed by the misspecification regimes. The
# corrupted bridge is instead the mean of the evaluated O outcomes.
CORRUPT_E = 0.8
CORRUPT_Q = 1.0
CORRUPT_HBAR_ARM1 = 1.0
CORRUPT_HBAR_ARM0 = -1.0
# Share of requested Monte Carlo replications allowed to fail before the
# study aborts instead of reporting on a biased subset.
MAX_FAILURE_FRACTION = 0.02

# Which nuisances each regime corrupts. case4 additionally replaces the
# pseudo-outcome regression with the exact refit against the corrupted
# (constant) bridge, which for a constant pseudo-outcome is the same
# constant in both arms. A corrupted q replaces both q0 and q1.
CORRUPTS = {
    "all_correct": frozenset(),
    "case1": frozenset({"e", "q"}),
    "case2": frozenset({"hbar", "q"}),
    "case3": frozenset({"h", "hbar"}),
    "case4": frozenset({"e", "h"}),
    "all_wrong": frozenset({"e", "h", "hbar", "q"}),
}
REGIME_NAMES = tuple(CORRUPTS)


@dataclass(frozen=True)
class MaskDesign:
    e_fraction: float
    seed: int

    def __post_init__(self):
        if not 0.0 < self.e_fraction < 1.0:
            raise ValidationError("e_fraction must be in (0, 1)")


def split_and_mask(source: FullyObservedSample, design: MaskDesign) -> CombinedDataset:
    """Assign units to E/O at random and mask complementary columns.

    E keeps (a, s, w, x) and loses (y, z); O keeps (y, z, s, w, x) and
    loses a. Deterministic given the design seed.
    """
    rng = np.random.Generator(np.random.Philox(design.seed))
    is_e = rng.random(source.n) < design.e_fraction
    n_e = int(is_e.sum())
    if n_e == 0 or n_e == source.n:
        raise ValidationError(
            f"masking split produced an empty stratum (n_e={n_e} of {source.n})"
        )
    y = np.where(is_e, np.nan, source.y)
    z = np.where(is_e[:, None], np.nan, source.z)
    a = np.where(is_e, source.a, np.nan)
    return CombinedDataset.from_arrays(
        y=y, w=source.w, z=z, s=source.s, a=a, x=source.x, is_e=is_e
    )


def apply_misspec(evals: UnitEvals, regime: str, clip_eps: float) -> UnitEvals:
    """Substitute the named regime's fixed wrong values for the held-out
    evaluations of the nuisances it corrupts.

    The corrupted bridge is the mean of the evaluated O outcomes. The
    corrupted propensity is clipped like a fitted one (``clip_eps``) and
    counted when clipped. all_correct is the identity (and returns the
    very same object).
    """
    if regime not in CORRUPTS:
        raise ValidationError(f"unknown regime {regime!r}; choose from {REGIME_NAMES}")
    corrupts = CORRUPTS[regime]
    if not corrupts:
        return evals
    n_e, n_o = evals.a.shape[0], evals.y.shape[0]
    sub = {}
    if "e" in corrupts:
        e = float(np.clip(CORRUPT_E, clip_eps, 1.0 - clip_eps))
        sub.update(e_hat=np.full(n_e, e), n_clipped=n_e if e != CORRUPT_E else 0)
    if "h" in corrupts:
        h_const = float(evals.y.mean())
        sub.update(h_e=np.full(n_e, h_const), h_o=np.full(n_o, h_const))
    if "q" in corrupts:
        sub.update(q0=np.full(n_o, CORRUPT_Q), q1=np.full(n_o, CORRUPT_Q))
    if "hbar" in corrupts:
        sub.update(hbar1=np.full(n_e, CORRUPT_HBAR_ARM1), hbar0=np.full(n_e, CORRUPT_HBAR_ARM0))
    elif regime == "case4":
        sub.update(hbar1=np.full(n_e, h_const), hbar0=np.full(n_e, h_const))
    return replace(evals, **sub)


@dataclass
class EstimatorStats:
    mean: float
    bias: float
    sd: float
    rmse: float
    n_replications: int
    coverage_95: float | None = None

    def to_dict(self) -> dict:
        return {
            "mean": self.mean,
            "bias": self.bias,
            "sd": self.sd,
            "rmse": self.rmse,
            "coverage_95": self.coverage_95,
            "n_replications": self.n_replications,
        }


@dataclass
class MCReport:
    true_ate: float
    n_replications: int
    regimes: dict[str, dict[str, EstimatorStats]]
    # One entry per failed replication: index, seed, exception class, message.
    failures: list[dict] = field(default_factory=list)

    @property
    def n_failed(self) -> int:
        return len(self.failures)

    def to_dict(self) -> dict:
        return {
            "true_ate": self.true_ate,
            "n_replications": self.n_replications,
            "n_failed": self.n_failed,
            "failures": [dict(f) for f in self.failures],
            "regimes": {
                regime: {est: st.to_dict() for est, st in table.items()}
                for regime, table in self.regimes.items()
            },
        }

    def format_table(self) -> str:
        failed = f"   failed {self.n_failed}"
        if self.failures:
            failed += " (" + ", ".join(
                f"replication {f['replication']} seed {f['seed']}: {f['error']}"
                for f in self.failures
            ) + ")"
        lines = [
            f"true effect {self.true_ate:.6g}   replications {self.n_replications}{failed}"
        ]
        header = (
            f"{'regime':<12} {'estimator':<9} {'mean':>10} {'bias':>10} "
            f"{'sd':>10} {'rmse':>10} {'cover95':>8} {'reps':>6}"
        )
        lines.append(header)
        lines.append("-" * len(header))
        for regime, table in self.regimes.items():
            for est, st in table.items():
                cover = "" if st.coverage_95 is None else f"{st.coverage_95:.3f}"
                lines.append(
                    f"{regime:<12} {est:<9} {st.mean:>10.5f} {st.bias:>10.5f} "
                    f"{st.sd:>10.5f} {st.rmse:>10.5f} {cover:>8} {st.n_replications:>6}"
                )
        return "\n".join(lines)


def _aggregate(
    draws: list[float], true_ate: float, covered: list[bool] | None
) -> EstimatorStats:
    arr = np.asarray(draws, dtype=float)
    mean = float(arr.mean())
    bias = mean - true_ate
    sd = float(arr.std(ddof=0))
    rmse = float(np.sqrt(np.mean((arr - true_ate) ** 2)))
    coverage = None
    if covered is not None:
        coverage = float(np.mean(np.asarray(covered, dtype=float)))
    return EstimatorStats(
        mean=mean, bias=bias, sd=sd, rmse=rmse,
        n_replications=arr.shape[0], coverage_95=coverage,
    )


def _replicate(
    dgp: DGPConfig,
    n: int,
    pi: float,
    seed: int,
    k_folds: int,
    config: EstimatorConfig,
    estimators: tuple[str, ...],
    regimes: tuple[str, ...],
) -> tuple[float, dict[str, dict[str, float]], dict[str, bool]]:
    """One replication: its true effect, each regime's draws, and each
    regime's MR coverage.

    Nuisances are fitted and evaluated once; each regime substitutes its
    constants into the evaluations and summarizes them. Nothing of the
    replication outlives the call.
    """
    data, oracle = generate(dgp, n, pi, seed)
    folds = make_folds(data, k_folds, seed)
    draws: dict[str, dict[str, float]] = {rg: {} for rg in regimes}
    for est in estimators:
        if est not in ESTIMATOR_NAMES:
            tau = surrogate_index_estimate(data, include_proxies=(est == "SI-PROX")).tau_hat
            for rg in regimes:
                draws[rg][est] = tau
    covered: dict[str, bool] = {}
    proximal = tuple(e for e in estimators if e in ESTIMATOR_NAMES)
    if not proximal:
        return oracle.true_ate, draws, covered
    nuisance_sets = fit_all_nuisances(data, folds, config)
    evals = evaluate_nuisances(data, folds, nuisance_sets)
    diagnostics = [d for nus in nuisance_sets for d in nus.diagnostics]
    for rg in regimes:
        reports = estimates_from_evals(
            data, folds, config, apply_misspec(evals, rg, config.clip_eps),
            proximal, diagnostics,
        )
        for est in proximal:
            draws[rg][est] = reports[est].tau_hat
        if "MR" in proximal:
            lo, hi = reports["MR"].ci
            covered[rg] = lo <= oracle.true_ate <= hi
    return oracle.true_ate, draws, covered


def run_monte_carlo(
    dgp: DGPConfig,
    n: int,
    pi: float,
    estimators: tuple[str, ...],
    regimes: tuple[str, ...],
    replications: int,
    base_seed: int,
    config: EstimatorConfig | None = None,
    k_folds: int = 5,
) -> MCReport:
    """Replicate synthetic estimation runs against the known truth.

    Replication r uses seed base_seed + r for both the draw and the
    folds; each is independent of execution order. Replications that
    fail (for example a degenerate fold) are recorded in
    ``MCReport.failures`` and excluded from the aggregates as a whole:
    a replication's draws count only once every regime has succeeded.
    Once failures exceed ``MAX_FAILURE_FRACTION`` of the requested runs
    the study aborts rather than silently reporting on a biased subset.
    Coverage is tracked for MR only, the one estimator with an interval.
    """
    if replications < 2:
        raise ValidationError("replications must be >= 2")
    for name in estimators:
        if name not in HARNESS_ESTIMATORS:
            raise ValidationError(
                f"unknown estimator {name!r}; choose from {HARNESS_ESTIMATORS}"
            )
    for name in regimes:
        if name not in REGIME_NAMES:
            raise ValidationError(f"unknown regime {name!r}; choose from {REGIME_NAMES}")
    config = config or EstimatorConfig()
    max_failures = int(np.floor(MAX_FAILURE_FRACTION * replications))

    true_ate = None
    draws: dict[str, dict[str, list[float]]] = {
        rg: {est: [] for est in estimators} for rg in regimes
    }
    covered: dict[str, list[bool]] = {rg: [] for rg in regimes}
    failures: list[dict] = []

    for r in range(replications):
        seed = base_seed + r
        try:
            rep_true, rep_draws, rep_covered = _replicate(
                dgp, n, pi, seed, k_folds, config, estimators, regimes
            )
        except ProxateError as exc:
            failures.append({"replication": r, "seed": seed,
                             "error": type(exc).__name__, "message": str(exc)})
            if len(failures) > max_failures:
                raise ValidationError(
                    f"{len(failures)} of {replications} replications failed "
                    f"(cap {max_failures}); last error: {exc}"
                ) from exc
            continue
        true_ate = rep_true
        for rg in regimes:
            for est in estimators:
                draws[rg][est].append(rep_draws[rg][est])
            if rg in rep_covered:
                covered[rg].append(rep_covered[rg])

    if true_ate is None:
        raise ValidationError("every replication failed")

    tables: dict[str, dict[str, EstimatorStats]] = {}
    for rg in regimes:
        tables[rg] = {}
        for est in estimators:
            cov = covered[rg] if est == "MR" and covered[rg] else None
            tables[rg][est] = _aggregate(draws[rg][est], true_ate, cov)
    return MCReport(
        true_ate=true_ate,
        n_replications=replications,
        regimes=tables,
        failures=failures,
    )
