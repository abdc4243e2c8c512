"""Shared fixtures: canonical configs and cached synthetic draws.

The Monte Carlo studies are expensive, so the acceptance criteria share
one session-scoped 200-replication run covering all six regimes plus
the naive baselines.
"""

from __future__ import annotations

import numpy as np
import pytest

import proxate as px
from proxate.basis import fit_basis


@pytest.fixture(scope="session")
def confounded_cfg() -> px.DGPConfig:
    return px.confounded_config()


@pytest.fixture(scope="session")
def unconfounded_cfg() -> px.DGPConfig:
    return px.unconfounded_config()


@pytest.fixture(scope="session")
def small_data(confounded_cfg):
    data, oracle = px.generate(confounded_cfg, 2000, 0.5, seed=7)
    return data, oracle


@pytest.fixture(scope="session")
def medium_data(confounded_cfg):
    data, oracle = px.generate(confounded_cfg, 2 * 10**5, 0.5, seed=11)
    return data, oracle


@pytest.fixture(scope="session")
def mc200(confounded_cfg) -> px.MCReport:
    """One 200-replication study at n = 4e4 shared by several criteria."""
    return px.run_monte_carlo(
        confounded_cfg,
        n=40_000,
        pi=0.5,
        estimators=("OB-OR", "OB-IPW", "SB", "MR", "SI"),
        regimes=("all_correct", "case1", "case2", "case3", "case4", "all_wrong"),
        replications=200,
        base_seed=5000,
    )


def mc_se(stats) -> float:
    """Monte Carlo standard error of a replication mean."""
    return stats.sd / np.sqrt(stats.n_replications)


def fit_design(spec, view):
    """Fit ``spec`` on ``view``; return the fitted basis and its design on ``view``."""
    fb = fit_basis(spec, view)
    return fb, fb.transform(view)


def solve_h(o_view, psi, b, ridge):
    """The outcome bridge, with psi and b fitted on ``o_view``."""
    return px.solve_outcome_bridge(
        *fit_design(psi, o_view), fit_design(b, o_view)[1], o_view.y, ridge=ridge
    )


def solve_q(o_view, e_view, phi, g, prop, ridge):
    """Both arms' surrogate bridges, with phi and g fitted on ``o_view``."""
    g_fb, g_o = fit_design(g, o_view)
    return px.solve_surrogate_bridge(
        *fit_design(phi, o_view), g_o, g_fb.transform(e_view), e_view.a,
        *prop.evaluate_counting(e_view), ridge=ridge,
    )
