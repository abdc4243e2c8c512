"""Misspecification regimes and the Monte Carlo replication engine.

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
substitutes each regime's constants into those evaluations; that is
``estimate_regimes``, which the CLI's ``estimate`` also runs (under
all_correct). Each successful replication is one record, its reports
per regime, and the study aggregates the records once all have run.

Replications are independent and seeded, so a study runs them over
``_fork.ordered_map``: in forked worker processes, one per CPU, each
with one OpenBLAS thread, which send each outcome back pickled; the
parent reads the outcomes in replication order. Where workers cannot be
forked (one CPU, no ``fork``, no OpenBLAS thread setter) the same
function runs in-process. A worker that dies without its outcome aborts
the study with a ``ProxateError``.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from ._fork import ordered_map
from ._records import Record
from .baselines import BASELINE_NAMES, surrogate_index_estimate
from .data import CombinedDataset
from .dgp import DGPConfig, check_draw, generate, oracle_for
from .errors import ProxateError, ValidationError
from .estimators import (
    ESTIMATOR_NAMES,
    EstimateReport,
    EstimatorConfig,
    NuisanceSet,
    UnitEvals,
    check_k_folds,
    check_names,
    estimates_from_evals,
    evaluate_nuisances,
    fit_all_nuisances,
    make_folds,
)
from .nuisance import PropensityModel

HARNESS_ESTIMATORS = ESTIMATOR_NAMES + BASELINE_NAMES

# Fixed wrong nuisances installed by the misspecification regimes. The
# corrupted bridge is instead the mean of the evaluated O outcomes.
CORRUPT_E = 0.8
CORRUPT_Q = 1.0
CORRUPT_HBAR_ARM1 = 1.0
CORRUPT_HBAR_ARM0 = -1.0
# Share of requested Monte Carlo replications allowed to fail before the
# study aborts instead of reporting on a biased subset. Below 1, so a
# study that finishes has at least one replication to aggregate.
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


def apply_misspec(evals: UnitEvals, regime: str, clip_eps: float) -> UnitEvals:
    """Substitute the named regime's fixed wrong values for the held-out
    evaluations of the nuisances it corrupts.

    The corrupted bridge is the mean of the evaluated O outcomes. The
    corrupted propensity is a known rate, clipped and counted as any
    propensity is (``clip_eps``). all_correct is the identity (and
    returns the very same object).
    """
    check_names((regime,), REGIME_NAMES, "regime")
    corrupts = CORRUPTS[regime]
    if not corrupts:
        return evals
    n_e, n_o = evals.a.shape[0], evals.y.shape[0]
    sub = {}
    if "e" in corrupts:
        e_hat, n_clipped = PropensityModel.known(CORRUPT_E, clip_eps).clipped(None, n_e)
        sub.update(e_hat=e_hat, n_clipped=n_clipped)
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
class EstimatorStats(Record):
    mean: float
    bias: float
    sd: float
    rmse: float
    n_replications: int
    coverage_95: float | None  # MR only


@dataclass
class MCReport(Record):
    true_ate: float
    n_replications: int
    regimes: dict[str, dict[str, EstimatorStats]]
    # One entry per failed replication: index, seed, exception class, message.
    failures: list[dict]

    @property
    def n_failed(self) -> int:
        return len(self.failures)

    def to_dict(self) -> dict:
        return {**super().to_dict(), "n_failed": self.n_failed}

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


def _aggregate(reports: list[EstimateReport], true_ate: float) -> EstimatorStats:
    arr = np.asarray([rep.tau_hat for rep in reports], dtype=float)
    mean = float(arr.mean())
    bias = mean - true_ate
    sd = float(arr.std(ddof=0))
    rmse = float(np.sqrt(np.mean((arr - true_ate) ** 2)))
    coverage = None
    if reports[0].ci is not None:
        covered = [lo <= true_ate <= hi for lo, hi in (rep.ci for rep in reports)]
        coverage = float(np.mean(np.asarray(covered, dtype=float)))
    return EstimatorStats(
        mean=mean, bias=bias, sd=sd, rmse=rmse,
        n_replications=arr.shape[0], coverage_95=coverage,
    )


def estimate_regimes(
    data: CombinedDataset,
    k_folds: int,
    seed: int,
    config: EstimatorConfig,
    estimators: tuple[str, ...],
    regimes: tuple[str, ...],
) -> tuple[dict[str, dict[str, EstimateReport]], list[NuisanceSet]]:
    """Each regime's reports of ``estimators`` on ``data`` (proximal ones
    first), and the fitted nuisance sets, one per fold.

    Only a proximal estimator makes folds and fits nuisances (otherwise
    the sets are empty); they are fitted and evaluated once, and each
    regime substitutes its constants into the evaluations. The baselines
    fit no nuisance and read the same under every regime; they run
    first, while no nuisance or evaluation is held.
    """
    check_names(estimators, HARNESS_ESTIMATORS, "estimator")
    check_names(regimes, REGIME_NAMES, "regime")
    baselines = {e: surrogate_index_estimate(data, e == "SI-PROX", config.alpha)
                 for e in estimators if e in BASELINE_NAMES}
    proximal = tuple(e for e in estimators if e in ESTIMATOR_NAMES)
    if not proximal:
        return {rg: baselines for rg in regimes}, []
    folds = make_folds(data, k_folds, seed)
    nuisance_sets = fit_all_nuisances(data, folds, config)
    evals = evaluate_nuisances(data, folds, nuisance_sets)
    return {rg: {**estimates_from_evals(
        data, folds, config, apply_misspec(evals, rg, config.clip_eps), proximal, nuisance_sets,
    ), **baselines} for rg in regimes}, nuisance_sets


def _attempt(
    dgp: DGPConfig,
    n: int,
    pi: float,
    k_folds: int,
    config: EstimatorConfig,
    estimators: tuple[str, ...],
    regimes: tuple[str, ...],
    seed: int,
) -> bytes:
    """The replication at ``seed``, pickled: its record, each regime's
    reports, or the error that failed it; only that outlives the call."""
    try:
        data, _ = generate(dgp, n, pi, seed)
        outcome = estimate_regimes(data, k_folds, seed, config, estimators, regimes)[0]
    except ProxateError as exc:
        outcome = exc
    return pickle.dumps(outcome, protocol=pickle.HIGHEST_PROTOCOL)


def _check_replications(replications: int) -> None:
    if replications < 2:
        raise ValidationError("replications must be >= 2")


def _check_base_seed(base_seed: int) -> None:
    if base_seed < 0:
        raise ValidationError(f"base_seed must be a nonnegative integer, got {base_seed}")


# The range each study setting of run_monte_carlo must lie in, by name;
# it checks them before replication 0. The CLI checks these first.
_STUDY_RANGES = {"n": partial(check_draw, pi=None), "pi": partial(check_draw, None),
                 "replications": _check_replications, "base_seed": _check_base_seed}


def run_monte_carlo(
    dgp: DGPConfig,
    n: int,
    pi: float,
    estimators: tuple[str, ...],
    regimes: tuple[str, ...],
    replications: int,
    base_seed: int,
    config: EstimatorConfig,
    k_folds: int,
) -> MCReport:
    """Replicate synthetic estimation runs against the known truth.

    Replication r uses seed base_seed + r for both the draw and the
    folds; each is independent of execution order. Each successful
    replication appends one complete record, and the aggregates are
    taken over the records at the end, so a replication counts in full
    or not at all. Failed replications (for example a degenerate fold)
    are listed in ``MCReport.failures``. Once failures exceed
    ``MAX_FAILURE_FRACTION`` of the requested runs the study aborts
    rather than silently reporting on a biased subset; replications
    still running in workers are stopped, and none later starts.
    Coverage is tracked for MR only, the one estimator with an interval.
    The arguments, ``generate``'s ``n`` and ``pi`` included, are checked
    once before replication 0 (``config``'s ranges when it is built), so
    an invalid one never reads as failed replications.
    """
    check_draw(n, pi)
    check_k_folds(k_folds)
    _check_replications(replications)
    _check_base_seed(base_seed)
    check_names(estimators, HARNESS_ESTIMATORS, "estimator")
    check_names(regimes, REGIME_NAMES, "regime")
    true_ate = oracle_for(dgp).true_ate
    max_failures = int(np.floor(MAX_FAILURE_FRACTION * replications))
    records: list[dict[str, dict[str, EstimateReport]]] = []
    failures: list[dict] = []
    attempt = partial(_attempt, dgp, n, pi, k_folds, config, estimators, regimes)
    seeds = range(base_seed, base_seed + replications)
    with ordered_map(attempt, seeds) as outcomes:
        for r, (seed, pickled) in enumerate(zip(seeds, outcomes)):
            outcome = pickle.loads(pickled)
            if not isinstance(outcome, ProxateError):
                records.append(outcome)
                continue
            failures.append({"replication": r, "seed": seed,
                             "error": type(outcome).__name__, "message": str(outcome)})
            if len(failures) > max_failures:
                raise ValidationError(
                    f"{len(failures)} of {replications} replications failed "
                    f"(cap {max_failures}); last error: {outcome}"
                ) from outcome

    tables = {
        rg: {est: _aggregate([rec[rg][est] for rec in records], true_ate) for est in estimators}
        for rg in regimes
    }
    return MCReport(true_ate=true_ate, n_replications=replications, regimes=tables,
                    failures=failures)
