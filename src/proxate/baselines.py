"""Reference estimators and surrogacy diagnostics.

Three comparators frame the proximal estimators:

  * the RCT benchmark, an OLS of the (unmasked) long-term outcome on
    treatment and covariates in the experimental sample;
  * the plain surrogate-index estimator, which regresses y on (1, s, x)
    in the observational sample, carries the prediction over to the
    experimental units, and reads the effect off a regression on
    (1, a, x) -- optionally with the proxies added as covariates;
  * a diagnostic pair on unmasked experimental data: the direct
    surrogacy check (OLS of y on treatment, surrogates, covariates) and
    an instrumental-variables version where z instruments w, so a
    treatment coefficient that is significant under OLS but not under
    IV points at latent confounding that the proxies absorb.

All standard errors are heteroskedasticity-consistent (HC0) and
p-values use the normal reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import CombinedDataset, FullyObservedSample, split_by_sample
from .errors import DegenerateInstrumentError, NumericalError, ValidationError
from .estimators import EstimateReport
from .stats import hc0_cov, ols, two_sided_p

BASELINE_NAMES = ("SI", "SI-PROX")


@dataclass(frozen=True)
class RegressionFit:
    coeffs: np.ndarray
    robust_se: np.ndarray
    names: tuple[str, ...]

    def __post_init__(self):
        if len(self.names) != self.coeffs.shape[0] or self.robust_se.shape != self.coeffs.shape:
            raise ValidationError("coefficient, SE, and name lengths disagree")

    def coef(self, name: str) -> float:
        return float(self.coeffs[self.names.index(name)])

    def se(self, name: str) -> float:
        return float(self.robust_se[self.names.index(name)])

    def p_value(self, name: str) -> float:
        se = self.se(name)
        if se == 0.0:
            return 0.0 if self.coef(name) != 0.0 else 1.0
        return two_sided_p(self.coef(name) / se)


@dataclass(frozen=True)
class DiagnosticReport:
    ols_coef_on_a: float
    ols_se: float
    ols_p: float
    iv_coef_on_a: float
    iv_se: float
    iv_p: float

    def __post_init__(self):
        for p in (self.ols_p, self.iv_p):
            if not 0.0 <= p <= 1.0:
                raise ValidationError("p-values must be in [0, 1]")

    def to_dict(self) -> dict:
        return {
            "ols_coef_on_a": self.ols_coef_on_a,
            "ols_se": self.ols_se,
            "ols_p": self.ols_p,
            "iv_coef_on_a": self.iv_coef_on_a,
            "iv_se": self.iv_se,
            "iv_p": self.iv_p,
        }


def ols_hc0(design: np.ndarray, y: np.ndarray, names: tuple[str, ...]) -> RegressionFit:
    """OLS with HC0 standard errors; errors out on a collinear design."""
    coef = ols(design, y)
    resid = y - design @ coef
    se = np.sqrt(np.diag(hc0_cov(design, resid)))
    return RegressionFit(coeffs=coef, robust_se=se, names=names)


def _names(prefix: str, dim: int) -> list[str]:
    return [f"{prefix}{j + 1}" for j in range(dim)]


def rct_benchmark(sample: FullyObservedSample) -> RegressionFit:
    """OLS of y on (1, a, x) in unmasked experimental data.

    The coefficient on the treatment is the experimental benchmark the
    fused-sample estimators are trying to recover.
    """
    design = np.column_stack([np.ones(sample.n), sample.a, sample.x])
    names = tuple(["intercept", "a"] + _names("x", sample.x.shape[1]))
    return ols_hc0(design, sample.y, names)


def surrogate_index_estimate(
    data: CombinedDataset, include_proxies: bool = False
) -> EstimateReport:
    """Plain surrogate-index estimator on a combined dataset.

    Fits y on (1, s, x) in the observational sample (adding w and z as
    covariates when ``include_proxies``), predicts for experimental
    units, and regresses the prediction on (1, a, x) there. Since z is
    never observed on experimental rows, predictions substitute the
    observational z-mean for it, which leaves the treatment coefficient
    untouched (the substitution is a constant shift).
    """
    e_view, o_view = split_by_sample(data)
    o_cols = [np.ones(o_view.n), o_view.role_matrix("s"), o_view.role_matrix("x")]
    e_cols = [np.ones(e_view.n), e_view.role_matrix("s"), e_view.role_matrix("x")]
    if include_proxies:
        z_o = o_view.role_matrix("z")
        o_cols += [o_view.role_matrix("w"), z_o]
        z_fill = np.tile(z_o.mean(axis=0), (e_view.n, 1))
        e_cols += [e_view.role_matrix("w"), z_fill]
    design_o = np.column_stack(o_cols)
    coef, _, rank, _ = np.linalg.lstsq(design_o, o_view.y, rcond=None)
    if rank < design_o.shape[1]:
        raise NumericalError("surrogate-index outcome fit is rank deficient")
    pred_e = np.column_stack(e_cols) @ coef

    design_e = np.column_stack([np.ones(e_view.n), e_view.a, e_view.role_matrix("x")])
    coef_e, _, rank_e, _ = np.linalg.lstsq(design_e, pred_e, rcond=None)
    if rank_e < design_e.shape[1]:
        raise NumericalError("surrogate-index effect fit is rank deficient")
    return EstimateReport(
        estimator="SI-PROX" if include_proxies else "SI",
        tau_hat=float(coef_e[1]),
        alpha=0.05,
        k_folds=0,
        seed=None,
        n_e=data.n_e,
        n_o=data.n_o,
    )


def _first_stage_f(design_full: np.ndarray, z_cols: slice, w_col: np.ndarray) -> float:
    """F statistic of the instrument block in one first-stage fit."""
    n, k = design_full.shape
    q = z_cols.stop - z_cols.start
    keep = np.ones(k, dtype=bool)
    keep[z_cols] = False
    coef_f, _, _, _ = np.linalg.lstsq(design_full, w_col, rcond=None)
    rss_full = float(np.sum((w_col - design_full @ coef_f) ** 2))
    design_r = design_full[:, keep]
    coef_r, _, _, _ = np.linalg.lstsq(design_r, w_col, rcond=None)
    rss_restr = float(np.sum((w_col - design_r @ coef_r) ** 2))
    dof = max(n - k, 1)
    if rss_full <= 0.0:
        return float("inf") if rss_restr > rss_full else 0.0
    return (rss_restr - rss_full) / q / (rss_full / dof)


def diagnose_surrogacy(sample: FullyObservedSample) -> DiagnosticReport:
    """Surrogacy check plus proxy-IV adjustment on unmasked data.

    OLS stage: y on (1, a, s, x); a nonzero treatment coefficient means
    the surrogates do not absorb the treatment's effect on the outcome.
    IV stage: first stage w on (1, z, a, s, x), second stage y on
    (1, a, s, x, w_hat); with the instrumented proxy soaking up the
    latent confounder, the treatment coefficient should collapse when
    confounding (and not a direct effect) drove the OLS significance.
    """
    n = sample.n
    dim_w = sample.w.shape[1]
    dim_z = sample.z.shape[1]

    ols_design = np.column_stack([np.ones(n), sample.a, sample.s, sample.x])
    ols_names = tuple(
        ["intercept", "a"] + _names("s", sample.s.shape[1]) + _names("x", sample.x.shape[1])
    )
    ols_fit = ols_hc0(ols_design, sample.y, ols_names)

    fs_design = np.column_stack([np.ones(n), sample.z, sample.a, sample.s, sample.x])
    z_block = slice(1, 1 + dim_z)
    f_min = min(
        _first_stage_f(fs_design, z_block, sample.w[:, j]) for j in range(dim_w)
    )
    if f_min < 1e-8:
        raise DegenerateInstrumentError(
            f"first-stage F statistic on the instrument block is {f_min:.3e}"
        )
    fs_coef, _, _, _ = np.linalg.lstsq(fs_design, sample.w, rcond=None)
    w_hat = fs_design @ fs_coef

    iv_design = np.column_stack([np.ones(n), sample.a, sample.s, sample.x, w_hat])
    iv_names = tuple(
        ["intercept", "a"]
        + _names("s", sample.s.shape[1])
        + _names("x", sample.x.shape[1])
        + _names("w_hat", dim_w)
    )
    iv_fit = ols_hc0(iv_design, sample.y, iv_names)

    return DiagnosticReport(
        ols_coef_on_a=ols_fit.coef("a"),
        ols_se=ols_fit.se("a"),
        ols_p=ols_fit.p_value("a"),
        iv_coef_on_a=iv_fit.coef("a"),
        iv_se=iv_fit.se("a"),
        iv_p=iv_fit.p_value("a"),
    )
