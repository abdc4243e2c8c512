"""Scalar statistics helpers: normal quantile/CDF, least-squares cores, seeded streams.

The quantile is the standard library's ``statistics.NormalDist.inv_cdf``,
Wichura's PPND16 rational approximation (Algorithm AS 241), with
relative error below 1e-15 (checked against 50-digit references for p
in [1e-297, 1 - 1e-6]), so inference carries no dependency beyond numpy.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

from .errors import NumericalError, ValidationError


def normal_quantile(p: float) -> float:
    """Standard normal quantile function (inverse CDF)."""
    if not 0.0 < p < 1.0:
        raise ValidationError(f"quantile argument must be in (0, 1), got {p}")
    return NormalDist().inv_cdf(p)


def normal_cdf(x: float) -> float:
    """Standard normal CDF via the complementary error function."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def two_sided_p(t: float) -> float:
    """Two-sided p-value of a statistic against the normal reference."""
    return float(np.clip(2.0 * normal_cdf(-abs(t)), 0.0, 1.0))


def ols(design: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Least-squares coefficients of ``y`` on ``design``; raises
    ``NumericalError`` on a rank-deficient design."""
    return _ols(design, y, np.shape(design)[0])


def _ols(design: np.ndarray, y: np.ndarray, rows: int) -> np.ndarray:
    """``ols`` where ``design`` may stand for a design of ``rows`` rows (its R
    factor, with y's matching rows): singular values below eps * max(rows,
    columns) times the largest count as zero, numpy's cutoff for the rows."""
    design = np.asarray(design, dtype=float)
    y = np.asarray(y, dtype=float)
    rcond = np.finfo(float).eps * max(rows, design.shape[1])
    coef, _, rank, _ = np.linalg.lstsq(design, y, rcond=rcond)
    if rank < design.shape[1]:
        raise NumericalError(
            f"rank-deficient design (rank {rank} < {design.shape[1]}); drop collinear columns"
        )
    return coef


def hc0_cov(gram: np.ndarray, meat: np.ndarray) -> np.ndarray:
    """Heteroskedasticity-consistent (HC0) covariance of OLS coefficients,
    from the design's Gram X'X and the meat X' diag(resid^2) X."""
    bread = np.linalg.pinv(gram)
    return bread @ meat @ bread


def _merged(factors: list[np.ndarray]) -> np.ndarray:
    """The R factor of the stacked rows whose R factors are ``factors``:
    the merge of a tall-skinny QR (Demmel, Grigori, Hoemmen & Langou,
    SIAM J. Sci. Comput. 2012)."""
    return np.linalg.qr(np.vstack(factors), mode="r")


def check_seed(seed: int) -> None:
    if seed < 0:
        raise ValidationError(f"seed must be a nonnegative integer, got {seed}")


def seeded_generator(seed: int) -> np.random.Generator:
    """A counter-based Philox stream: one seed pins every draw made from it."""
    check_seed(seed)
    return np.random.Generator(np.random.Philox(seed))
