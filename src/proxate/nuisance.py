"""Propensity score and pseudo-outcome regression on the experimental sample.

The propensity is a logistic-link regression on a covariate basis,
fitted by iteratively reweighted least squares (tolerance 1e-8, at most
100 iterations); under separation the unpenalized iteration diverges
and the fit falls back to a small ridge penalty, flagged on the model.
Predictions are always clipped into [clip_eps, 1 - clip_eps], the
overlap guard.

The pseudo-outcome regression regresses a bridge function's values on
the experimental units on the covariate basis separately per treatment
arm, which keeps the two arm curves exactly decoupled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._records import Record
from .basis import FittedBasis
from .errors import DegenerateTreatmentError, NumericalError, ValidationError

IRLS_TOL = 1e-8
IRLS_MAX_ITER = 100
SEPARATION_RIDGE = 1e-4
DEFAULT_CLIP_EPS = 0.01


def _sigmoid(t: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(t))  # never overflows
    return np.where(t >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


@dataclass(frozen=True)
class PropensityModel(Record):
    basis: FittedBasis | None
    coeffs: np.ndarray | None
    clip_eps: float
    fixed_rate: float | None = None
    ridged: bool = False

    def __post_init__(self):
        if not 0.0 < self.clip_eps < 0.5:
            raise ValidationError("clip_eps must be in (0, 0.5)")
        if (self.fixed_rate is None) == (self.basis is None):
            raise ValidationError("exactly one of fixed_rate or a fitted basis is required")

    def clipped(self, logit: np.ndarray | None, n: int) -> tuple[np.ndarray, int]:
        """Clipped propensities of ``n`` units from their basis logit (None
        at a fixed rate), and how many fell outside the clip range."""
        raw = np.full(n, self.fixed_rate) if self.basis is None else _sigmoid(logit)
        outside = int(((raw < self.clip_eps) | (raw > 1.0 - self.clip_eps)).sum())
        return np.clip(raw, self.clip_eps, 1.0 - self.clip_eps), outside

    @classmethod
    def known(cls, rate: float, clip_eps: float = DEFAULT_CLIP_EPS) -> "PropensityModel":
        if not 0.0 < rate < 1.0:
            raise ValidationError("known assignment rate must be in (0, 1)")
        return cls(basis=None, coeffs=None, clip_eps=clip_eps, fixed_rate=rate)


def _irls(design: np.ndarray, a: np.ndarray, penalty: float) -> tuple[np.ndarray, bool]:
    """Newton/IRLS for logistic regression; returns (coeffs, converged)."""
    p = design.shape[1]
    beta = np.zeros(p)
    for _ in range(IRLS_MAX_ITER):
        eta = design @ beta
        prob = _sigmoid(eta)
        wgt = prob * (1.0 - prob)
        hess = design.T @ (design * wgt[:, None]) + penalty * np.eye(p)
        grad = design.T @ (a - prob) - penalty * beta
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            return beta, False
        if not np.isfinite(step).all():
            return beta, False
        beta = beta + step
        if np.max(np.abs(step)) < IRLS_TOL:
            return beta, True
        if np.max(np.abs(beta)) > 1e6:
            return beta, False
    return beta, False


def require_both_arms(n_treated: int, n: int, fit: str) -> None:
    if n_treated == 0 or n_treated == n:
        raise DegenerateTreatmentError(f"{fit} needs both arms; saw {n_treated} treated of {n}")


def fit_propensity(
    basis: FittedBasis,
    design: np.ndarray,
    a: np.ndarray,
    clip_eps: float = DEFAULT_CLIP_EPS,
) -> PropensityModel:
    """Fit the treatment propensity of ``a`` on the ``basis`` design matrix."""
    require_both_arms(int(a.sum()), a.shape[0], "propensity fit")
    coeffs, converged = _irls(design, a, penalty=0.0)
    ridged = False
    if not converged:
        coeffs, converged = _irls(design, a, penalty=SEPARATION_RIDGE)
        ridged = True
        if not converged:
            raise NumericalError("propensity IRLS failed even with ridge fallback")
    return PropensityModel(basis=basis, coeffs=coeffs, clip_eps=clip_eps, ridged=ridged)


@dataclass(frozen=True)
class HBarModel(Record):
    """Per-arm linear regressions of a pseudo-outcome on covariates."""

    basis: FittedBasis
    arm0_coeffs: np.ndarray
    arm1_coeffs: np.ndarray


def fit_hbar(basis: FittedBasis, design: np.ndarray, a: np.ndarray,
             pseudo: np.ndarray) -> HBarModel:
    """Regress the pseudo-outcome on the ``basis`` design, one fit per arm;
    the rows may be each arm's rows compressed (an R factor of its columns),
    labelled with their arm in ``a``."""
    require_both_arms(int(a.sum()), a.shape[0], "pseudo-outcome regression")
    treated = a == 1.0
    c1 = np.linalg.lstsq(design[treated], pseudo[treated], rcond=None)[0]
    c0 = np.linalg.lstsq(design[~treated], pseudo[~treated], rcond=None)[0]
    return HBarModel(basis=basis, arm0_coeffs=c0, arm1_coeffs=c1)
