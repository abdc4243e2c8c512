"""Cross-fitted estimators of the long-term average treatment effect.

Units in each sample are split into K folds; for fold k every nuisance
(propensity e, outcome bridge h, pseudo-outcome regression hbar, and
the two reweighting bridges q_0, q_1) is fitted on the complement and
evaluated on fold k only. Four estimators share those evaluations:

    OB-OR   mean over E of  hbar(1, x) - hbar(0, x)
    OB-IPW  mean over E of  a h/e(x) - (1 - a) h/(1 - e(x))
    SB      mean over O of  (q_1 - q_0) y
    MR      E-part: (a - e)(h - hbar(a, x)) / (e(1 - e)) + hbar contrast,
            plus O-part: (q_1 - q_0)(y - h)

Only MR carries the plug-in variance

    V = (N/N_E^2) sum_E [e-part_i - tau]^2 + (N/N_O^2) sum_O [o-part_i]^2

and the normal confidence interval tau -+ z_{1-alpha/2} sqrt(V/N); the
other estimators report the point estimate alone. All per-unit
contributions are accumulated in dataset order, so relabeling folds
leaves every figure bit-identical.

Normalization note: the population identification result weights the
two samples by the true sampling share; here both parts are normalized
by the realized sample sizes N_E, N_O (the plug-in share n_e/N), an
asymptotically negligible difference.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from ._records import Record, reject_unknown
from .basis import BasisSpec, fit_basis
from .bridges import (
    DEFAULT_RIDGE,
    BridgeFunction,
    MomentDiagnostics,
    solve_outcome_bridge,
    solve_surrogate_bridge,
)
from .data import CombinedDataset, SampleView
from .errors import NumericalError, ValidationError
from .nuisance import (
    DEFAULT_CLIP_EPS,
    HBarModel,
    PropensityModel,
    fit_hbar,
    fit_propensity,
    require_both_arms,
)
from .stats import normal_quantile

ESTIMATOR_NAMES = ("OB-OR", "OB-IPW", "SB", "MR")


@dataclass(frozen=True)
class FoldAssignment:
    """Stratified K-fold partition: E and O rows are folded separately."""

    k_folds: int
    fold_of: np.ndarray  # (n,) fold label per dataset row
    seed: int

    def eval_indices(self, data: CombinedDataset, k: int, sample: str) -> np.ndarray:
        in_sample = data.is_e if sample == "E" else ~data.is_e
        return np.flatnonzero(in_sample & (self.fold_of == k))

    def train_indices(self, data: CombinedDataset, k: int, sample: str) -> np.ndarray:
        in_sample = data.is_e if sample == "E" else ~data.is_e
        return np.flatnonzero(in_sample & (self.fold_of != k))


def make_folds(data: CombinedDataset, k_folds: int, seed: int) -> FoldAssignment:
    """Deterministic stratified fold assignment.

    Each stratum is permuted with a counter-based generator and chopped
    into K nearly equal parts; remainder units go to the lowest-index
    folds.
    """
    if k_folds < 2:
        raise ValidationError(f"k_folds must be >= 2, got {k_folds}")
    if k_folds > min(data.n_e, data.n_o):
        raise ValidationError(
            f"k_folds={k_folds} exceeds the smaller stratum "
            f"(n_e={data.n_e}, n_o={data.n_o})"
        )
    rng = np.random.Generator(np.random.Philox(seed))
    fold_of = np.empty(data.n, dtype=np.int64)
    for mask in (data.is_e, ~data.is_e):
        idx = rng.permutation(np.flatnonzero(mask))
        base, rem = divmod(idx.shape[0], k_folds)
        start = 0
        for k in range(k_folds):
            size = base + (1 if k < rem else 0)
            fold_of[idx[start : start + size]] = k
            start += size
    return FoldAssignment(k_folds=k_folds, fold_of=fold_of, seed=seed)


@dataclass
class NuisanceSet:
    """One fold's fitted nuisances (e, h, hbar, q_0, q_1)."""

    e: PropensityModel
    h: BridgeFunction
    hbar: HBarModel
    q0: BridgeFunction
    q1: BridgeFunction
    diagnostics: list[MomentDiagnostics] = field(default_factory=list)


@dataclass(frozen=True)
class EstimatorConfig(Record):
    """Basis specs, penalties, and guards shared by all estimators."""

    psi: BasisSpec = BasisSpec(roles=("w", "s", "x"), standardize=True)
    b: BasisSpec = BasisSpec(roles=("z", "s", "x"), standardize=True)
    phi: BasisSpec = BasisSpec(roles=("z", "s", "x"), standardize=True)
    g: BasisSpec = BasisSpec(roles=("w", "s", "x"), standardize=True)
    e_basis: BasisSpec = BasisSpec(roles=("x",))
    hbar_basis: BasisSpec = BasisSpec(roles=("x",))
    ridge_h: float = DEFAULT_RIDGE
    ridge_q: float = DEFAULT_RIDGE
    clip_eps: float = DEFAULT_CLIP_EPS
    known_propensity: float | None = None
    alpha: float = 0.05

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValidationError("alpha must be in (0, 1)")

    @classmethod
    def from_dict(cls, d: dict) -> "EstimatorConfig":
        """The inverse of ``to_dict``."""
        reject_unknown(d, (f.name for f in fields(cls)), "estimation")
        kw = dict(d)
        for f in fields(cls):
            if isinstance(f.default, BasisSpec) and f.name in kw:
                kw[f.name] = BasisSpec.from_dict(kw[f.name])
        return cls(**kw)


def fit_fold_nuisances(
    data: CombinedDataset,
    folds: FoldAssignment,
    k: int,
    config: EstimatorConfig,
) -> NuisanceSet:
    """Fit every nuisance for fold ``k`` on the fold's complement only.

    The one place that fits bases: each distinct spec is fitted once per
    training sample (``psi``, ``b``, ``phi`` and ``g`` on O, ``e_basis``
    and ``hbar_basis`` on E), and each fit's training design is the one
    the nuisances use, so a spec shared by two nuisances is one function
    and one design; g is the same function on both samples. The only
    other training designs are psi on E (and g on E when g != psi). q0
    and q1 are one solve. Order: h, psi on E, the E covariate fits,
    hbar, the propensity and its training e-hat, q. Building psi on E
    sets the fold's memory peak, so it runs before any E covariate
    design exists; those are freed before q, and psi on E is freed
    before g on E is built. Every ``NumericalError`` keeps its class and
    gains the fold index.
    """
    if not 0 <= k < folds.k_folds:
        raise ValidationError(f"fold index {k} out of range")
    e_train = SampleView(data, folds.train_indices(data, k, "E"), "E")
    o_train = SampleView(data, folds.train_indices(data, k, "O"), "O")
    if e_train.n == 0 or o_train.n == 0:
        raise ValidationError(f"fold {k}: empty training complement")
    known = config.known_propensity is not None
    try:
        require_both_arms(e_train.a, "pseudo-outcome regression" if known else "propensity fit")
        o_specs = (config.psi, config.b, config.phi, config.g)
        o_fits = {spec: fit_basis(spec, o_train) for spec in dict.fromkeys(o_specs)}
        psi_fb, psi_o = o_fits[config.psi]
        h, h_diag = solve_outcome_bridge(psi_fb, psi_o, o_fits[config.b][1], o_train.y,
                                         config.ridge_h)
        psi_e = psi_fb.transform(e_train)
        e_specs = (config.hbar_basis,) if known else (config.e_basis, config.hbar_basis)
        e_fits = {spec: fit_basis(spec, e_train) for spec in dict.fromkeys(e_specs)}
        hbar = fit_hbar(*e_fits[config.hbar_basis], e_train.a, psi_e @ h.coeffs)
        if known:
            e_model, logit = PropensityModel.known(config.known_propensity, config.clip_eps), None
        else:
            e_model = fit_propensity(*e_fits[config.e_basis], e_train.a, config.clip_eps)
            logit = e_fits[config.e_basis][1] @ e_model.coeffs
        del e_fits
        g_fb, g_o = o_fits[config.g]
        if config.g == config.psi:
            g_e = psi_e
        else:
            del psi_e  # hbar was its only reader; free it before g on E exists
            g_e = g_fb.transform(e_train)
        (q0, q0_diag), (q1, q1_diag) = solve_surrogate_bridge(
            *o_fits[config.phi], g_o, g_e, e_train.a, *e_model.clipped(logit, e_train.n),
            config.ridge_q,
        )
    except NumericalError as exc:
        raise type(exc)(f"fold {k}: {exc}") from exc
    for diag in (h_diag, q0_diag, q1_diag):
        diag.label = f"fold{k}:{diag.label}"
    return NuisanceSet(
        e=e_model, h=h, hbar=hbar, q0=q0, q1=q1,
        diagnostics=[h_diag, q0_diag, q1_diag],
    )


@dataclass
class UnitEvals:
    """Cross-fitted nuisance evaluations, aligned to dataset row order.

    The four estimators depend on the data only through these arrays.
    """

    a: np.ndarray  # E units
    e_hat: np.ndarray
    h_e: np.ndarray
    hbar1: np.ndarray
    hbar0: np.ndarray
    y: np.ndarray  # O units
    h_o: np.ndarray
    q1: np.ndarray
    q0: np.ndarray
    n_clipped: int

    @property
    def hbar_a(self) -> np.ndarray:
        return np.where(self.a == 1.0, self.hbar1, self.hbar0)

    @property
    def mr_e_part(self) -> np.ndarray:
        resid = self.h_e - self.hbar_a
        score = (self.a - self.e_hat) * resid / (self.e_hat * (1.0 - self.e_hat))
        return score + self.hbar1 - self.hbar0

    @property
    def mr_o_part(self) -> np.ndarray:
        return (self.q1 - self.q0) * (self.y - self.h_o)


def _held_out(view: SampleView, pos: np.ndarray, terms: list) -> None:
    """Write ``basis.transform(view) @ coeffs`` into ``out[pos]`` for each
    ``(basis, coeffs, out)`` term.

    Each distinct basis's design is built once and freed before the
    next; each coefficient vector is its own matrix-vector product,
    since one product over stacked columns rounds differently.
    """
    by_basis: dict[int, list] = {}
    for term in terms:
        by_basis.setdefault(id(term[0]), []).append(term)
    for group in by_basis.values():
        design = group[0][0].transform(view)
        for _, coeffs, out in group:
            out[pos] = design @ coeffs
        del design


def _require_finite(k: int, pos: np.ndarray, named: tuple) -> None:
    for name, out in named:
        if not np.isfinite(out[pos]).all():
            raise NumericalError(f"fold {k}: non-finite held-out evaluation of {name}")


def evaluate_nuisances(
    data: CombinedDataset,
    folds: FoldAssignment,
    nuisance_sets: list[NuisanceSet],
) -> UnitEvals:
    """Evaluate each fold's nuisances on that fold's held-out units.

    Per fold and sample, each distinct fitted basis is expanded once
    (by default e and hbar share one design on E, and q0 and q1 one on
    O). Raises ``NumericalError`` naming the fold and the nuisance when
    an evaluation is not finite.
    """
    idx_e = np.flatnonzero(data.is_e)
    idx_o = np.flatnonzero(~data.is_e)
    rank = np.empty(data.n, dtype=np.int64)
    rank[idx_e] = np.arange(idx_e.shape[0])
    rank[idx_o] = np.arange(idx_o.shape[0])

    n_e, n_o = idx_e.shape[0], idx_o.shape[0]
    a = np.empty(n_e)
    e_hat = np.empty(n_e)
    h_e = np.empty(n_e)
    hbar1 = np.empty(n_e)
    hbar0 = np.empty(n_e)
    y = np.empty(n_o)
    h_o = np.empty(n_o)
    q1 = np.empty(n_o)
    q0 = np.empty(n_o)
    n_clipped = 0

    for k, nus in enumerate(nuisance_sets):
        eidx = folds.eval_indices(data, k, "E")
        if eidx.shape[0]:
            ev = SampleView(data, eidx, "E")
            pos = rank[eidx]
            a[pos] = ev.a
            terms = [
                (nus.hbar.basis, nus.hbar.arm1_coeffs, hbar1),
                (nus.hbar.basis, nus.hbar.arm0_coeffs, hbar0),
                (nus.h.basis, nus.h.coeffs, h_e),
            ]
            fitted_e = nus.e.basis is not None
            if fitted_e:
                terms.append((nus.e.basis, nus.e.coeffs, e_hat))  # the logit, mapped below
            _held_out(ev, pos, terms)
            e_hat[pos], clipped = nus.e.clipped(e_hat[pos] if fitted_e else None, ev.n)
            n_clipped += clipped
            _require_finite(k, pos, (("e", e_hat), ("h", h_e), ("hbar", hbar1), ("hbar", hbar0)))
        oidx = folds.eval_indices(data, k, "O")
        if oidx.shape[0]:
            ov = SampleView(data, oidx, "O")
            pos = rank[oidx]
            y[pos] = ov.y
            _held_out(ov, pos, [
                (nus.h.basis, nus.h.coeffs, h_o),
                (nus.q1.basis, nus.q1.coeffs, q1),
                (nus.q0.basis, nus.q0.coeffs, q0),
            ])
            _require_finite(k, pos, (("h", h_o), ("q0", q0), ("q1", q1)))

    return UnitEvals(
        a=a, e_hat=e_hat, h_e=h_e, hbar1=hbar1, hbar0=hbar0,
        y=y, h_o=h_o, q1=q1, q0=q0, n_clipped=n_clipped,
    )


@dataclass
class EstimateReport(Record):
    estimator: str
    tau_hat: float
    alpha: float
    k_folds: int
    seed: int | None
    variance_hat: float | None = None
    ci: tuple[float, float] | None = None
    n_e: int = 0
    n_o: int = 0
    n_propensity_clips: int = 0
    per_fold_diagnostics: list[MomentDiagnostics] = field(default_factory=list)

    def __post_init__(self):
        if not np.isfinite(self.tau_hat) or (
            self.variance_hat is not None and not np.isfinite(self.variance_hat)
        ):
            raise NumericalError(
                f"{self.estimator}: non-finite estimate "
                f"(tau_hat={self.tau_hat}, variance_hat={self.variance_hat})"
            )
        if (self.variance_hat is None) != (self.ci is None):
            raise ValidationError("ci must be present exactly when variance_hat is")
        if self.ci is not None:
            lo, hi = self.ci
            if not lo <= self.tau_hat <= hi:
                raise ValidationError("point estimate must lie inside its interval")


def confidence_interval(
    tau_hat: float, v_hat: float, n_total: int, alpha: float
) -> tuple[float, float]:
    """Normal interval tau -+ z_{1-alpha/2} sqrt(v_hat / n_total)."""
    if not 0.0 < alpha < 1.0:
        raise ValidationError("alpha must be in (0, 1)")
    if v_hat < 0.0:
        raise ValidationError("variance must be nonnegative")
    if n_total <= 0:
        raise ValidationError("n_total must be positive")
    half = normal_quantile(1.0 - alpha / 2.0) * float(np.sqrt(v_hat / n_total))
    return (float(tau_hat - half), float(tau_hat + half))


def fit_all_nuisances(data, folds, config) -> list[NuisanceSet]:
    """Fit the nuisance tuple for every fold."""
    return [fit_fold_nuisances(data, folds, k, config) for k in range(folds.k_folds)]


def _mr_variance_from_evals(evals: UnitEvals, tau_hat: float, n: int) -> float:
    n_e = evals.a.shape[0]
    n_o = evals.y.shape[0]
    e_term = float(np.sum((evals.mr_e_part - tau_hat) ** 2))
    o_term = float(np.sum(evals.mr_o_part**2))
    return n / n_e**2 * e_term + n / n_o**2 * o_term


def estimate_all(
    data: CombinedDataset,
    folds: FoldAssignment,
    config: EstimatorConfig,
    estimators: tuple[str, ...] = ESTIMATOR_NAMES,
    nuisance_sets: list[NuisanceSet] | None = None,
) -> dict[str, EstimateReport]:
    """Fit nuisances once and evaluate any subset of the four estimators.

    Pre-fitted per-fold ``nuisance_sets`` skip the fitting pass.
    """
    for name in estimators:
        if name not in ESTIMATOR_NAMES:
            raise ValidationError(f"unknown estimator {name!r}; choose from {ESTIMATOR_NAMES}")
    if nuisance_sets is None:
        nuisance_sets = fit_all_nuisances(data, folds, config)
    elif len(nuisance_sets) != folds.k_folds:
        raise ValidationError("need one nuisance set per fold")
    evals = evaluate_nuisances(data, folds, nuisance_sets)
    diagnostics = [d for nus in nuisance_sets for d in nus.diagnostics]
    return estimates_from_evals(data, folds, config, evals, estimators, diagnostics)


def estimates_from_evals(
    data: CombinedDataset,
    folds: FoldAssignment,
    config: EstimatorConfig,
    evals: UnitEvals,
    estimators: tuple[str, ...],
    diagnostics: list[MomentDiagnostics],
) -> dict[str, EstimateReport]:
    """The requested estimators' reports from held-out evaluations.

    The summary step of ``estimate_all``; the misspecification harness
    runs it once per regime on substituted evaluations.
    """

    def report(name: str, tau: float, var: float | None = None) -> EstimateReport:
        ci = None if var is None else confidence_interval(tau, var, data.n, config.alpha)
        return EstimateReport(
            estimator=name,
            tau_hat=tau,
            variance_hat=var,
            ci=ci,
            alpha=config.alpha,
            k_folds=folds.k_folds,
            seed=folds.seed,
            n_e=data.n_e,
            n_o=data.n_o,
            n_propensity_clips=evals.n_clipped,
            per_fold_diagnostics=diagnostics,
        )

    out: dict[str, EstimateReport] = {}
    if "OB-OR" in estimators:
        out["OB-OR"] = report("OB-OR", float(np.mean(evals.hbar1 - evals.hbar0)))
    if "OB-IPW" in estimators:
        ipw = evals.a * evals.h_e / evals.e_hat - (1.0 - evals.a) * evals.h_e / (
            1.0 - evals.e_hat
        )
        out["OB-IPW"] = report("OB-IPW", float(np.mean(ipw)))
    if "SB" in estimators:
        out["SB"] = report("SB", float(np.mean((evals.q1 - evals.q0) * evals.y)))
    if "MR" in estimators:
        tau = float(np.mean(evals.mr_e_part) + np.mean(evals.mr_o_part))
        var = _mr_variance_from_evals(evals, tau, data.n)
        out["MR"] = report("MR", tau, var)
    return out
