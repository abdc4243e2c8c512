"""Cross-fitted estimators of the long-term average treatment effect.

Units in each sample are split into K folds; for fold k every nuisance
(propensity e, outcome bridge h, pseudo-outcome regression hbar, and
the two reweighting bridges q_0, q_1) is fitted on the complement and
evaluated on fold k only. Fitting makes one pass over the data: each
cell (the rows of one sample in one fold, E rows also split by arm)
keeps only the R factor of its raw columns, and each fold merges its
training cells' factors (TSQR-style) instead of rebuilding designs on
its complement. Four estimators share the held-out evaluations: each
is the sum of the sample means of its per-unit contributions on E and
on O, its E-part and O-part, which ``_PARTS`` states (OB-OR and OB-IPW
have only an E-part, SB only an O-part). MR, the one with both, carries
the plug-in variance of those same parts,

    V = (N/N_E^2) sum_E [E-part_i - tau]^2 + (N/N_O^2) sum_O [O-part_i]^2,

and its report the normal confidence interval tau -+ z_{1-alpha/2}
sqrt(V/N); the other estimators report the point estimate alone. All
per-unit contributions are accumulated in dataset order, so relabeling
folds leaves every figure bit-identical.

Normalization note: the population identification result weights the
two samples by the true sampling share; here both parts are normalized
by the realized sample sizes N_E, N_O (the plug-in share n_e/N), an
asymptotically negligible difference.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from ._records import Record
from .basis import BasisSpec, FittedBasis, basis_from_r, raw_features
from .bridges import (
    BridgeFunction,
    MomentDiagnostics,
    check_ridge,
    solve_outcome_bridge,
    solve_surrogate_bridge,
)
from .data import CombinedDataset, SampleView
from .errors import NumericalError, ValidationError
from .nuisance import (
    HBarModel,
    PropensityModel,
    check_clip_eps,
    check_rate,
    fit_hbar,
    fit_propensity,
    require_both_arms,
)
from .stats import _merged, normal_quantile, seeded_generator

ESTIMATOR_NAMES = ("OB-OR", "OB-IPW", "SB", "MR")


@dataclass(frozen=True)
class FoldAssignment:
    """Stratified K-fold partition: E and O rows are folded separately."""

    k_folds: int
    fold_of: np.ndarray  # (n,) fold label per dataset row
    seed: int

    def __post_init__(self):
        bad = np.flatnonzero((self.fold_of < 0) | (self.fold_of >= self.k_folds))
        if bad.size:  # such a row would be in no fold, its evaluation never written
            raise ValidationError(f"row {bad[0] + 1}: fold label {self.fold_of[bad[0]]} "
                                  f"outside [0, {self.k_folds})")

    def require_rows(self, data: CombinedDataset) -> None:
        if self.fold_of.shape[0] != data.n:
            raise ValidationError(f"{self.fold_of.shape[0]} fold labels for {data.n} dataset rows")


def check_k_folds(k_folds: int) -> None:
    if k_folds < 2:
        raise ValidationError(f"k_folds must be >= 2, got {k_folds}")


def check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ValidationError("alpha must be in (0, 1)")


# The range each setting of EstimatorConfig must lie in, by field name; None
# (known_propensity's default) is in range. The CLI checks these first.
_SETTING_RANGES = {"ridge_h": check_ridge, "ridge_q": check_ridge, "clip_eps": check_clip_eps,
                   "known_propensity": check_rate, "alpha": check_alpha}


def check_names(names: tuple[str, ...], valid: tuple[str, ...], kind: str) -> None:
    for name in names:
        if name not in valid:
            raise ValidationError(f"unknown {kind} {name!r}; choose from {valid}")


def make_folds(data: CombinedDataset, k_folds: int, seed: int) -> FoldAssignment:
    """Deterministic stratified fold assignment.

    Each stratum is permuted with a counter-based generator and cut by
    ``np.array_split`` into K nearly equal parts; remainder units go to
    the lowest-index folds.
    """
    check_k_folds(k_folds)
    if k_folds > min(data.n_e, data.n_o):
        raise ValidationError(
            f"k_folds={k_folds} exceeds the smaller stratum "
            f"(n_e={data.n_e}, n_o={data.n_o})"
        )
    rng = seeded_generator(seed)
    fold_of = np.empty(data.n, dtype=np.int64)
    for mask in (data.is_e, ~data.is_e):
        for k, part in enumerate(np.array_split(rng.permutation(np.flatnonzero(mask)), k_folds)):
            fold_of[part] = k
    return FoldAssignment(k_folds=k_folds, fold_of=fold_of, seed=seed)


@dataclass
class NuisanceSet:
    """One fold's fitted nuisances (e, h, hbar, q_0, q_1)."""

    e: PropensityModel
    h: BridgeFunction
    hbar: HBarModel
    q0: BridgeFunction
    q1: BridgeFunction
    diagnostics: list[MomentDiagnostics]


@dataclass(frozen=True)
class EstimatorConfig(Record):
    """Basis specs, penalties, and guards shared by all estimators."""

    psi: BasisSpec = BasisSpec(roles=("w", "s", "x"), standardize=True)
    b: BasisSpec = BasisSpec(roles=("z", "s", "x"), standardize=True)
    phi: BasisSpec = BasisSpec(roles=("z", "s", "x"), standardize=True)
    g: BasisSpec = BasisSpec(roles=("w", "s", "x"), standardize=True)
    e_basis: BasisSpec = BasisSpec(roles=("x",))
    hbar_basis: BasisSpec = BasisSpec(roles=("x",))
    ridge_h: float = 1e-6
    ridge_q: float = 1e-6
    clip_eps: float = 0.01
    known_propensity: float | None = None
    alpha: float = 0.05

    def __post_init__(self):
        for key, check in _SETTING_RANGES.items():
            if getattr(self, key) is not None:
                check(getattr(self, key))


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
    folds.require_rows(data)
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


# Each estimator's per-unit (E-part, O-part), None where it has no term
# from that sample; its estimate is the sum of the parts' sample means.
_PARTS = {
    "OB-OR": lambda ev: (ev.hbar1 - ev.hbar0, None),
    "OB-IPW": lambda ev: (ev.a * ev.h_e / ev.e_hat - (1.0 - ev.a) * ev.h_e / (1.0 - ev.e_hat),
                          None),
    "SB": lambda ev: (None, (ev.q1 - ev.q0) * ev.y),
    "MR": lambda ev: (ev.mr_e_part, ev.mr_o_part),
}


def _held_out(view: SampleView, pos: np.ndarray, table: list) -> None:
    """Write ``basis.transform(view) @ coeffs`` into ``out[pos]`` for each
    ``(basis, coeffs, out, name)`` row of ``table`` with a basis (a known
    propensity has none).

    Each distinct basis's design is built once and freed before the
    next; each coefficient vector is its own matrix-vector product,
    since one product over stacked columns rounds differently.
    """
    for basis in {id(row[0]): row[0] for row in table if row[0] is not None}.values():
        design = basis.transform(view)
        for row_basis, coeffs, out, _ in table:
            if row_basis is basis:
                out[pos] = design @ coeffs
        del design


def evaluate_nuisances(
    data: CombinedDataset,
    folds: FoldAssignment,
    nuisance_sets: list[NuisanceSet],
) -> UnitEvals:
    """Evaluate each fold's nuisances on that fold's held-out units.

    One loop, folds outermost and E before O within a fold, runs a
    per-sample table of (basis, coefficients, output, nuisance name);
    each sample's held-out positions come from its own rows' fold
    labels. Per fold and sample, each distinct fitted basis is expanded
    once (by default e and hbar share one design on E, and q0 and q1 one
    on O). Raises ``NumericalError`` naming the fold and the nuisance of
    the first evaluation, in table order, that is not finite.
    """
    folds.require_rows(data)
    if len(nuisance_sets) != folds.k_folds:  # a fold without one would stay unwritten
        raise ValidationError(f"{len(nuisance_sets)} nuisance sets for {folds.k_folds} folds")
    rows = {"E": np.flatnonzero(data.is_e), "O": np.flatnonzero(~data.is_e)}
    fold_of = {sample: folds.fold_of[r] for sample, r in rows.items()}
    e_hat, h_e, hbar1, hbar0 = (np.empty(rows["E"].shape[0]) for _ in range(4))
    h_o, q1, q0 = (np.empty(rows["O"].shape[0]) for _ in range(3))
    n_clipped = 0

    for k, nus in enumerate(nuisance_sets):
        tables = {
            "E": [(nus.e.basis, nus.e.coeffs, e_hat, "e"), (nus.h.basis, nus.h.coeffs, h_e, "h"),
                  (nus.hbar.basis, nus.hbar.arm1_coeffs, hbar1, "hbar"),
                  (nus.hbar.basis, nus.hbar.arm0_coeffs, hbar0, "hbar")],
            "O": [(nus.h.basis, nus.h.coeffs, h_o, "h"), (nus.q0.basis, nus.q0.coeffs, q0, "q0"),
                  (nus.q1.basis, nus.q1.coeffs, q1, "q1")],
        }
        for sample, table in tables.items():
            pos = np.flatnonzero(fold_of[sample] == k)
            _held_out(SampleView(data, rows[sample][pos], sample), pos, table)
            if sample == "E":  # e holds the logit, if fitted: map it to propensities
                e_hat[pos], clipped = nus.e.clipped(e_hat[pos] if nus.e.basis else None, pos.size)
                n_clipped += clipped
            for _, _, out, name in table:
                if not np.isfinite(out[pos]).all():
                    raise NumericalError(f"fold {k}: non-finite held-out evaluation of {name}")

    return UnitEvals(
        a=data.a[rows["E"]], e_hat=e_hat, h_e=h_e, hbar1=hbar1, hbar0=hbar0,
        y=data.y[rows["O"]], h_o=h_o, q1=q1, q0=q0, n_clipped=n_clipped,
    )


@dataclass
class EstimateReport(Record):
    """One estimator's figures; ``ci``, not an argument, is the normal
    interval of ``variance_hat`` over n_e + n_o units (None without it)."""

    estimator: str
    tau_hat: float
    alpha: float
    k_folds: int
    seed: int | None
    n_e: int
    n_o: int
    variance_hat: float | None = None
    ci: tuple[float, float] | None = field(init=False)
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
        self.ci = None if self.variance_hat is None else confidence_interval(
            self.tau_hat, self.variance_hat, self.n_e + self.n_o, self.alpha)


def confidence_interval(
    tau_hat: float, v_hat: float, n_total: int, alpha: float
) -> tuple[float, float]:
    """Normal interval tau -+ z_{1-alpha/2} sqrt(v_hat / n_total)."""
    check_alpha(alpha)
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


def estimate_all(
    data: CombinedDataset,
    folds: FoldAssignment,
    config: EstimatorConfig,
) -> dict[str, EstimateReport]:
    """Fit nuisances once and report all four estimators."""
    nuisance_sets = fit_all_nuisances(data, folds, config)
    evals = evaluate_nuisances(data, folds, nuisance_sets)
    return estimates_from_evals(data, folds, config, evals, ESTIMATOR_NAMES, nuisance_sets)


def estimates_from_evals(
    data: CombinedDataset,
    folds: FoldAssignment,
    config: EstimatorConfig,
    evals: UnitEvals,
    estimators: tuple[str, ...],
    nuisance_sets: list[NuisanceSet],
) -> dict[str, EstimateReport]:
    """The requested estimators' reports from held-out evaluations, in
    ``ESTIMATOR_NAMES`` order, each built from its ``_PARTS`` row; each
    carries every fold's moment diagnostics from ``nuisance_sets``.

    The summary step of ``estimate_all``; the misspecification harness
    runs it once per regime on substituted evaluations.
    """
    diagnostics = [d for nus in nuisance_sets for d in nus.diagnostics]
    out: dict[str, EstimateReport] = {}
    for name in (n for n in ESTIMATOR_NAMES if n in estimators):
        e_part, o_part = _PARTS[name](evals)
        if e_part is not None and o_part is not None:
            tau = float(np.mean(e_part) + np.mean(o_part))
            var = (data.n / e_part.size**2 * float(np.sum((e_part - tau) ** 2))
                   + data.n / o_part.size**2 * float(np.sum(o_part**2)))
        else:
            tau, var = float(np.mean(o_part if e_part is None else e_part)), None
        out[name] = EstimateReport(
            estimator=name,
            tau_hat=tau,
            variance_hat=var,
            alpha=config.alpha,
            k_folds=folds.k_folds,
            seed=folds.seed,
            n_e=data.n_e,
            n_o=data.n_o,
            n_propensity_clips=evals.n_clipped,
            per_fold_diagnostics=diagnostics,
        )
    return out
