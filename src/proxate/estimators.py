"""Cross-fitted estimators of the long-term average treatment effect.

Units in each sample are split into K folds; for fold k every nuisance
(propensity e, outcome bridge h, pseudo-outcome regression hbar, and
the two reweighting bridges q_0, q_1) is fitted on the complement and
evaluated on fold k only. Fitting makes one pass over the data: each
cell (the rows of one sample in one fold, E rows also split by arm)
keeps only the R factor of its raw columns, and each fold merges its
training cells' factors (TSQR-style) instead of rebuilding designs on
its complement. Four estimators share the held-out evaluations:

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

from collections import namedtuple
from dataclasses import dataclass, field, fields

import numpy as np

from ._records import Record, reject_unknown
from .basis import BasisSpec, FittedBasis, basis_from_r, raw_features
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


# A cell: its fold, arm (-1 on O), row count, the R factor of its columns,
# and on E its rows of the leading unit columns (ones, raw e_basis and g).
_Cell = namedtuple("_Cell", "fold arm n r units")


@dataclass(frozen=True)
class FoldCells:
    """A cross-fit's data as one R factor per cell. Each sample has one
    column system (ones, the raw features of each distinct spec on it, y
    on O); ``cols[sample, spec]`` locates [ones, the spec's features]."""

    k_folds: int
    cols: dict[tuple[str, BasisSpec], list[int]]
    roles: dict[BasisSpec, list[str]]  # labels of each spec's features
    cells: list[_Cell]  # in order of their first dataset row

    def train(self, k: int, *arms: int) -> list[_Cell]:
        return [c for c in self.cells if c.fold != k and c.arm in arms]

    def fit(self, sample: str, spec: BasisSpec, r: np.ndarray, n: int) -> FittedBasis:
        return basis_from_r(spec, r[:, self.cols[sample, spec]], n, self.roles[spec])

    def design(self, sample: str, basis: FittedBasis, rows: np.ndarray) -> np.ndarray:
        return basis.standardize(rows[:, self.cols[sample, basis.spec]])


def _merged(factors: list[np.ndarray]) -> np.ndarray:
    """The R factor of the stacked rows whose R factors are ``factors``."""
    return np.linalg.qr(np.vstack(factors), mode="r")


def _cell_columns(view: SampleView, specs: list[BasisSpec], cols: dict,
                  roles: dict) -> np.ndarray:
    blocks = [np.ones((view.n, 1))]
    for spec in specs:
        feats, roles[spec] = raw_features(spec, view)
        width = sum(b.shape[1] for b in blocks)
        cols[view.sample, spec] = [0, *range(width, width + feats.shape[1] - 1)]
        blocks.append(feats[:, 1:])
    if view.sample == "O":
        blocks.append(view.y[:, None])
    return np.hstack(blocks)


def fold_cells(data: CombinedDataset, folds: FoldAssignment,
               config: EstimatorConfig) -> FoldCells:
    """One pass over the data: each cell (the rows of one sample in one fold,
    E rows also split by arm) reduced to the R factor of its columns, which
    are built from the cell's own rows and freed once factored. Every
    fold's training complement must be nonempty and see both arms (a
    ``DegenerateTreatmentError`` names the fold) before any is built."""
    key = folds.fold_of * 3 + np.where(data.is_e, data.a, -1.0) + 1  # (fold, arm), arm -1 on O
    order = np.argsort(key.astype(np.min_scalar_type(3 * folds.k_folds)), kind="stable")
    bounds = np.searchsorted(key[order], np.arange(3 * folds.k_folds + 1))
    sizes = np.diff(bounds).reshape(-1, 3)  # per fold: O, arm 0, arm 1
    fit = "propensity fit" if config.known_propensity is None else "pseudo-outcome regression"
    for k, (n_o, n0, n1) in enumerate(sizes.sum(axis=0) - sizes):
        if n_o == 0 or n0 + n1 == 0:
            raise ValidationError(f"fold {k}: empty training complement")
        require_both_arms(int(n1), int(n0 + n1), f"fold {k}: {fit}")
    e_fit = (config.e_basis,) if config.known_propensity is None else ()
    specs = {"O": list(dict.fromkeys((config.psi, config.b, config.phi, config.g))),
             "E": list(dict.fromkeys(e_fit + (config.g, config.hbar_basis, config.psi)))}
    cols, roles, cells = {}, {}, []
    groups = [order[bounds[j] : bounds[j + 1]] for j in range(3 * folds.k_folds)]
    for j in sorted((j for j, rows in enumerate(groups) if rows.size), key=lambda j: groups[j][0]):
        rows, arm = groups[j], j % 3 - 1
        columns = _cell_columns(SampleView(data, rows, "O" if arm < 0 else "E"),
                                specs["O" if arm < 0 else "E"], cols, roles)
        units = None if arm < 0 else np.ascontiguousarray(
            columns[:, : cols["E", config.g][-1] + 1])
        cells.append(_Cell(j // 3, arm, rows.size, np.linalg.qr(columns, mode="r"), units))
        del columns
    return FoldCells(k_folds=folds.k_folds, cols=cols, roles=roles, cells=cells)


def fit_fold_nuisances(cells: FoldCells, k: int, config: EstimatorConfig) -> NuisanceSet:
    """Fit every nuisance for fold ``k`` from its training cells only.

    Each training R factor (O, each E arm, all E) is merged from the
    other cells' R factors in their fixed order, so relabelling folds
    changes no figure. Each distinct spec is fitted once, off its
    training sample's R factor, so a shared spec is one function. h,
    hbar and the q left-hand side solve row-compressed systems; only the
    propensity's IRLS and the q right-hand side (g weighted by 1/e) read
    E units. Order: h, E covariate fits, hbar, e, q. Every
    ``NumericalError`` keeps its class and gains the fold index.
    """
    if not 0 <= k < cells.k_folds:
        raise ValidationError(f"fold index {k} out of range")
    o_train, e_train = cells.train(k, -1), cells.train(k, 0, 1)
    n_o, n_e = sum(c.n for c in o_train), sum(c.n for c in e_train)
    try:
        r_o = _merged([c.r for c in o_train])
        o_fits = {spec: cells.fit("O", spec, r_o, n_o)
                  for spec in dict.fromkeys((config.psi, config.b, config.phi, config.g))}
        psi_fb, phi_fb, g_fb = o_fits[config.psi], o_fits[config.phi], o_fits[config.g]
        h, h_diag = solve_outcome_bridge(
            psi_fb, cells.design("O", psi_fb, r_o), cells.design("O", o_fits[config.b], r_o),
            r_o[:, -1], n_o, config.ridge_h,
        )
        r_arms = [_merged([c.r for c in cells.train(k, arm)]) for arm in (0, 1)]
        r_e = _merged(r_arms)
        known = config.known_propensity is not None
        e_specs = (config.hbar_basis,) if known else (config.e_basis, config.hbar_basis)
        e_fits = {spec: cells.fit("E", spec, r_e, n_e) for spec in dict.fromkeys(e_specs)}
        hbar_fb = e_fits[config.hbar_basis]
        hbar = fit_hbar(
            hbar_fb, np.vstack([cells.design("E", hbar_fb, r) for r in r_arms]),
            np.repeat([0.0, 1.0], [r.shape[0] for r in r_arms]),
            np.vstack([cells.design("E", psi_fb, r) for r in r_arms]) @ h.coeffs,
        )
        if known:
            e_model, logit = PropensityModel.known(config.known_propensity, config.clip_eps), None
        else:
            e_fb = e_fits[config.e_basis]
            width = len(cells.cols["E", config.e_basis])  # e leads the unit columns
            design = e_fb.standardize(np.vstack([c.units[:, :width] for c in e_train]))
            a = np.repeat([float(c.arm) for c in e_train], [c.n for c in e_train])
            e_model = fit_propensity(e_fb, design, a, config.clip_eps)
            logit = design @ e_model.coeffs
            del design, a
        e_hat, n_clipped = e_model.clipped(logit, n_e)
        sums = np.zeros((2, e_train[0].units.shape[1]))
        for c, e_cell in zip(e_train, np.split(e_hat, np.cumsum([c.n for c in e_train])[:-1])):
            sums[c.arm] += c.units.T @ (1.0 / (e_cell if c.arm else 1.0 - e_cell))
        (q0, q0_diag), (q1, q1_diag) = solve_surrogate_bridge(
            phi_fb, cells.design("O", phi_fb, r_o), cells.design("O", g_fb, r_o), n_o,
            cells.design("E", g_fb, sums).T / n_e, n_clipped, config.ridge_q,
        )
    except NumericalError as exc:
        raise type(exc)(f"fold {k}: {exc}") from exc
    for diag in (h_diag, q0_diag, q1_diag):
        diag.label = f"fold{k}:{diag.label}"
    return NuisanceSet(e=e_model, h=h, hbar=hbar, q0=q0, q1=q1,
                       diagnostics=[h_diag, q0_diag, q1_diag])


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

    a, y = data.a[idx_e], data.y[idx_o]
    e_hat, h_e, hbar1, hbar0 = (np.empty(idx_e.shape[0]) for _ in range(4))
    h_o, q1, q0 = (np.empty(idx_o.shape[0]) for _ in range(3))
    n_clipped = 0

    for k, nus in enumerate(nuisance_sets):
        eidx = folds.eval_indices(data, k, "E")
        if eidx.shape[0]:
            ev = SampleView(data, eidx, "E")
            pos = rank[eidx]
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
    """Fit the nuisance tuple for every fold, from one pass over the data."""
    cells = fold_cells(data, folds, config)
    return [fit_fold_nuisances(cells, k, config) for k in range(folds.k_folds)]


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
