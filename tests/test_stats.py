from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from proxate.errors import NumericalError, ValidationError
from proxate.stats import hc0_cov, normal_cdf, normal_quantile, ols, two_sided_p

# High-precision reference quantiles.
QUANTILE_REFS = [
    (0.75, 0.674489750),
    (0.975, 1.959963985),
    (0.995, 2.575829304),
]


@pytest.mark.parametrize("p,ref", QUANTILE_REFS)
def test_quantile_reference_points(p, ref):
    assert abs(normal_quantile(p) - ref) < 1e-9


# 17-digit references from 50-digit arithmetic, one per approximation
# region plus the region boundary.
@pytest.mark.parametrize("p,ref", [
    (0.75, 0.67448975019608174),
    (0.975, 1.9599639845400539),
    (0.995, 2.5758293035489005),
    (1e-10, -6.3613409024040562),
    (0.02425, -1.9729610513118848),
])
def test_quantile_relative_error_below_1e15(p, ref):
    assert abs(normal_quantile(p) - ref) <= 1e-15 * abs(ref)


def test_quantile_symmetry_and_median():
    assert normal_quantile(0.5) == 0.0
    for p in (0.6, 0.9, 0.999, 0.9999999):
        assert normal_quantile(1.0 - p) == pytest.approx(-normal_quantile(p), abs=1e-12)


def test_quantile_tail_regions():
    # Round-trip through the CDF across all three approximation regions.
    for p in (1e-12, 1e-6, 0.02, 0.3, 0.5, 0.7, 0.98, 1 - 1e-6, 1 - 1e-12):
        assert normal_cdf(normal_quantile(p)) == pytest.approx(p, rel=1e-9, abs=1e-13)


@pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.5])
def test_quantile_domain(p):
    with pytest.raises(ValidationError):
        normal_quantile(p)


@given(st.floats(min_value=1e-6, max_value=1 - 1e-6), st.floats(min_value=1e-6, max_value=1 - 1e-6))
def test_quantile_monotone(p1, p2):
    lo, hi = sorted((p1, p2))
    assert normal_quantile(lo) <= normal_quantile(hi)


def test_two_sided_p():
    assert two_sided_p(0.0) == pytest.approx(1.0)
    assert two_sided_p(1.959963985) == pytest.approx(0.05, abs=1e-9)
    assert two_sided_p(-1.959963985) == two_sided_p(1.959963985)


def test_ols_exact():
    rng = np.random.default_rng(0)
    design = np.column_stack([np.ones(50), rng.normal(size=(50, 2))])
    beta = np.array([1.0, -2.0, 0.5])
    y = design @ beta
    assert np.allclose(ols(design, y), beta, atol=1e-10)


def test_ols_rank_deficient():
    design = np.column_stack([np.ones(10), np.ones(10)])
    with pytest.raises(NumericalError):
        ols(design, np.arange(10.0))


def test_hc0_matches_model_cov_under_homoskedasticity():
    rng = np.random.default_rng(1)
    n = 10_000
    design = np.column_stack([np.ones(n), rng.normal(size=n)])
    y = design @ np.array([0.5, 2.0]) + rng.normal(size=n)
    coef = ols(design, y)
    resid = y - design @ coef
    se_hc0 = np.sqrt(np.diag(hc0_cov(design, resid)))
    # Classical homoskedastic reference sigma^2 (X'X)^-1.
    sigma2 = float(resid @ resid) / (n - design.shape[1])
    se_model = np.sqrt(np.diag(sigma2 * np.linalg.inv(design.T @ design)))
    assert np.all(np.abs(se_hc0 / se_model - 1.0) < 0.10)
