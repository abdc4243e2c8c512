"""Reference estimators and surrogacy diagnostics.

Two comparators frame the proximal estimators:

  * the plain surrogate-index estimator, which regresses y on (1, s, x)
    in the observational sample, carries the prediction over to the
    experimental units, and reads the effect off a regression on
    (1, a, x) -- optionally with the proxies added as covariates;
  * a diagnostic pair on unmasked experimental data: the direct
    surrogacy check (OLS of y on treatment, surrogates, covariates) and
    an instrumental-variables version where z instruments w, so a
    treatment coefficient that is significant under OLS but not under
    IV points at latent confounding that the proxies absorb.

All standard errors are heteroskedasticity-consistent (HC0), the IV
ones in their 2SLS form, and p-values use the normal reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._records import Record
from .data import CombinedDataset, FullyObservedSample, split_by_sample
from .errors import DegenerateInstrumentError, NumericalError, ValidationError
from .estimators import EstimateReport
from .stats import _merged, _ols, hc0_cov, ols, two_sided_p

BASELINE_NAMES = ("SI", "SI-PROX")
# Rows per block in the diagnostics' passes over a sample.
_BLOCK_ROWS = 1 << 15


@dataclass(frozen=True)
class DiagnosticReport(Record):
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


def _meat(design: np.ndarray, resid: np.ndarray) -> np.ndarray:
    return design.T @ (design * resid[:, None] ** 2)


def _treatment_stats(coef: np.ndarray, r: np.ndarray, meat: np.ndarray) -> tuple[float, ...]:
    """The treatment's coefficient, HC0 standard error and two-sided
    normal p-value, from a design's R factor ``r`` (any ``r`` with
    ``r.T @ r`` its Gram) and HC0 meat; the treatment is column 1."""
    tau = float(coef[1])
    se = float(np.sqrt(hc0_cov(r.T @ r, meat)[1, 1]))
    if se == 0.0:
        return tau, se, 0.0 if tau != 0.0 else 1.0
    return tau, se, two_sided_p(tau / se)


def surrogate_index_estimate(
    data: CombinedDataset, include_proxies: bool, alpha: float
) -> EstimateReport:
    """Plain surrogate-index estimator on a combined dataset.

    Fits y on (1, s, x) in the observational sample (adding w and z as
    covariates when ``include_proxies``), predicts for experimental
    units, and regresses the prediction on (1, a, x) there. Since z is
    never observed on experimental rows, predictions substitute the
    observational z-mean for it, which leaves the treatment coefficient
    untouched (the substitution is a constant shift). The report has no
    interval; it carries ``alpha`` so it reads like the proximal ones.
    """
    e_view, o_view = split_by_sample(data)
    o_cols = [np.ones(o_view.n), o_view.role_matrix("s"), o_view.role_matrix("x")]
    e_cols = [np.ones(e_view.n), e_view.role_matrix("s"), e_view.role_matrix("x")]
    if include_proxies:
        z_o = o_view.role_matrix("z")
        o_cols += [o_view.role_matrix("w"), z_o]
        z_fill = np.tile(z_o.mean(axis=0), (e_view.n, 1))
        e_cols += [e_view.role_matrix("w"), z_fill]
    design_e = np.column_stack([np.ones(e_view.n), e_view.a, e_view.role_matrix("x")])
    try:
        pred_e = np.column_stack(e_cols) @ ols(np.column_stack(o_cols), o_view.y)
        tau_hat = float(ols(design_e, pred_e)[1])
    except NumericalError as exc:
        raise NumericalError(f"surrogate-index fit: {exc}") from exc
    return EstimateReport(
        estimator="SI-PROX" if include_proxies else "SI",
        tau_hat=tau_hat,
        alpha=alpha,
        k_folds=0,
        seed=None,
        n_e=data.n_e,
        n_o=data.n_o,
    )


def _blocks(sample: FullyObservedSample):
    """The columns [1, a, s, x, z, w, y] of each ``_BLOCK_ROWS`` rows of ``sample``."""
    for lo in range(0, max(sample.n, 1), _BLOCK_ROWS):  # an empty sample is one empty block
        rows = slice(lo, lo + _BLOCK_ROWS)
        yield np.column_stack([np.ones(sample.y[rows].shape[0]), sample.a[rows], sample.s[rows],
                               sample.x[rows], sample.z[rows], sample.w[rows], sample.y[rows]])


def _fit(r: np.ndarray, n: int, lead: int, cols: slice) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares coefficients and residual sums of squares of columns
    ``cols`` on the first ``lead`` columns, off the R factor ``r`` of all
    of them on ``n`` rows, with numpy's rank cutoff for those rows."""
    rcond = np.finfo(float).eps * max(n, lead)
    coef = np.linalg.lstsq(r[:lead, :lead], r[:lead, cols], rcond=rcond)[0]
    resid = r[:lead, cols] - r[:lead, :lead] @ coef
    return coef, np.sum(resid ** 2, axis=0) + np.sum(r[lead:, cols] ** 2, axis=0)


def diagnose_surrogacy(sample: FullyObservedSample) -> DiagnosticReport:
    """Surrogacy check plus proxy-IV adjustment on unmasked data.

    OLS stage: y on (1, a, s, x); a nonzero treatment coefficient means
    the surrogates do not absorb the treatment's effect on the outcome.
    IV stage: first stage w on (1, a, s, x, z), second stage y on
    (1, a, s, x, w_hat); with the instrumented proxy soaking up the
    latent confounder, the treatment coefficient should collapse when
    confounding (and not a direct effect) drove the OLS significance.
    Its standard errors are the 2SLS sandwich: the HC0 bread from
    (1, a, s, x, w_hat), the residuals from y - (1, a, s, x, w) b.

    Two passes over row blocks, neither holding more than one block of
    columns: the first reduces the blocks of [1, a, s, x, z, w, y] to one
    R factor, from which every coefficient and sum of squares is read;
    the second sums the two HC0 meats.

    The first stage is fitted once for all proxy columns. Column j's
    instrument strength is F_j = (RSS_r - RSS_f) / dim_z / (RSS_f / dof)
    with dof = max(n - k, 1): RSS_f is its residual sum of squares in the
    first stage (k columns), RSS_r on the OLS stage's design (1, a, s, x).
    A sum of squares within rounding (at most machine epsilon times the
    column's own sum of squares) counts as 0, and RSS_f = 0 gives F_j = inf
    if RSS_r > 0, else 0. The smallest F_j below 1e-8 means some proxy
    column is not instrumentable: ``DegenerateInstrumentError``. So is a
    sample with fewer instrument columns than proxy columns, checked
    before any fit: the IV stage's w_hat columns would then be collinear
    with (1, a, s, x).
    """
    n = sample.n
    dim_w = sample.w.shape[1]
    dim_z = sample.z.shape[1]
    if dim_z < dim_w:
        raise DegenerateInstrumentError(
            f"IV stage: {dim_z} instrument column(s) z for {dim_w} proxy column(s) w; "
            "the order condition needs at least as many instruments as proxies"
        )
    k = 2 + sample.s.shape[1] + sample.x.shape[1]  # (1, a, s, x)
    m = k + dim_z  # the first stage's (1, a, s, x, z)
    w_cols = slice(m, m + dim_w)
    r = _merged([np.linalg.qr(block, mode="r") for block in _blocks(sample)])

    ols_coef = _ols(r[:k, :k], r[:k, -1], n)
    fs_coef, rss_full = _fit(r, n, m, w_cols)
    floor = np.finfo(float).eps * np.sum(r[:, w_cols] ** 2, axis=0)
    sums = np.stack([rss_full, _fit(r, n, k, w_cols)[1]])
    rss_full, rss_restricted = np.where(sums > floor, sums, 0.0).tolist()
    dof = max(n - m, 1)
    f_min = min(
        (restricted - full) / dim_z / (full / dof) if full > 0.0
        else (np.inf if restricted > full else 0.0)
        for full, restricted in zip(rss_full, rss_restricted)
    )
    if f_min < 1e-8:
        raise DegenerateInstrumentError(
            f"first-stage F statistic on the instrument block is {f_min:.3e}"
        )

    iv_r = np.column_stack([r[:m, :k], r[:m, :m] @ fs_coef])  # (1, a, s, x, w_hat) in R's basis
    iv_coef = _ols(iv_r, r[:m, -1], n)
    meat_ols = meat_iv = 0.0
    for block in _blocks(sample):
        exog, y = block[:, :k], block[:, -1]
        meat_ols += _meat(exog, y - exog @ ols_coef)
        # 2SLS residuals: the fitted coefficients applied to w itself, not w_hat.
        resid = y - np.column_stack([exog, block[:, w_cols]]) @ iv_coef
        meat_iv += _meat(np.column_stack([exog, block[:, :m] @ fs_coef]), resid)
    return DiagnosticReport(*_treatment_stats(ols_coef, r[:k, :k], meat_ols),
                            *_treatment_stats(iv_coef, iv_r, meat_iv))
