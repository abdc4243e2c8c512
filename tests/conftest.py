"""Shared fixtures: canonical configs and cached synthetic draws.

The Monte Carlo studies are expensive, so the acceptance criteria share
one session-scoped 200-replication run covering all six regimes plus
the naive baselines.

The helpers below are the tests' reference implementations of what
the package only does inside its two design passes: a basis fitted on a
view with its design, a fitted nuisance applied to a view (basis design
times coefficients), estimates from given nuisances, constant
nuisances, and a bridge's coefficients on the raw inputs. The rest
pin the worker count of ``_fork.ordered_map``, check that no forked
worker outlives its map, read and set OpenBLAS's thread count, which
a map must leave as it found it, and feed bytes to a reader through a
FIFO.
"""

from __future__ import annotations

import contextlib
import os
import threading
import tracemalloc

import numpy as np
import pytest

import proxate as px
from proxate import _fork
from proxate.basis import basis_from_r, raw_features
from proxate.errors import ValidationError
from proxate.estimators import ESTIMATOR_NAMES, estimates_from_evals, evaluate_nuisances

# Large-n bias of the plain surrogate-index estimator on
# confounded_config(), frozen from a one-off brute-force run:
# 8 independent draws of n = 1e6 at pi = 0.5 (seeds 20_000..20_007),
# estimator fit exactly as baselines.surrogate_index_estimate with
# include_proxies=False; mean 0.24142, standard error 0.0030.
NAIVE_SI_BIAS = 0.24142


@pytest.fixture(scope="session")
def confounded_cfg() -> px.DGPConfig:
    return px.confounded_config()


@pytest.fixture(scope="session")
def unconfounded_cfg() -> px.DGPConfig:
    """The confounded model's shape with the U edges removed."""
    return px.DGPConfig(
        beta_a=[0.5], beta_u=[0.0], beta_x=[[0.5]], gamma_s=[2.0], gamma_u=0.0,
        gamma_x=[0.5], alpha_w=1.0, alpha_z=1.0, p_treat=0.5,
        confound_treatment_in_O=False,
    )


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
        config=px.EstimatorConfig(),
        k_folds=5,
    )


def mc_se(stats) -> float:
    """Monte Carlo standard error of a replication mean."""
    return stats.sd / np.sqrt(stats.n_replications)


def fit_basis(spec, view):
    """``spec`` frozen on ``view`` from the view's own R factor, and its
    design on the view (``transform(view)`` bit for bit)."""
    ext, roles = raw_features(spec, view)
    # Without standardization only the R factor's width is read.
    r = np.linalg.qr(ext, mode="r") if spec.standardize else ext[:0]
    fitted = basis_from_r(spec, r, ext.shape[0], roles)
    return fitted, fitted.standardize(ext)


def estimate_with(data, folds, config, nuisance_sets, estimators=ESTIMATOR_NAMES):
    """``estimate_all``'s reports from the given per-fold nuisance sets."""
    evals = evaluate_nuisances(data, folds, nuisance_sets)
    return estimates_from_evals(data, folds, config, evals, estimators, nuisance_sets)


def train_view(data, folds, k, sample):
    """Fold ``k``'s training complement in ``sample`` ("E" or "O")."""
    in_sample = data.is_e if sample == "E" else ~data.is_e
    return px.SampleView(data, np.flatnonzero(in_sample & (folds.fold_of != k)), sample)


def fit_fold(data, folds, k, config):
    """Fold ``k``'s nuisances, from the cells of one pass over ``data``."""
    return px.fit_fold_nuisances(px.fold_cells(data, folds, config), k, config)


def solve_h(o_view, psi, b, ridge):
    """The outcome bridge on the full designs of ``o_view``, with psi and b
    fitted there."""
    return px.solve_outcome_bridge(
        *fit_basis(psi, o_view), fit_basis(b, o_view)[1], o_view.y, o_view.n, ridge=ridge
    )


def surrogate_rhs(g_e, a, e_hat):
    """The q right-hand side on full E rows: one column per arm a,
    mean over E of 1{a_i = a} g_i / e_a(x_i)."""
    e_arm = (1.0 - e_hat, e_hat)
    return np.column_stack(
        [g_e.T @ ((a == arm).astype(float) / e_arm[arm]) / a.shape[0] for arm in (0, 1)]
    )


def solve_q(o_view, e_view, phi, g, prop, ridge):
    """Both arms' surrogate bridges on the full designs of ``o_view`` and
    ``e_view``, with phi and g fitted on ``o_view``."""
    g_fb, g_o = fit_basis(g, o_view)
    e_hat, n_clipped = propensity(prop, e_view)
    return px.solve_surrogate_bridge(
        *fit_basis(phi, o_view), g_o, o_view.n,
        surrogate_rhs(g_fb.transform(e_view), e_view.a, e_hat), n_clipped, ridge=ridge,
    )


def reference_sigmoid(t):
    """The logistic function by a boolean-mask scatter: exp of -t on t >= 0,
    of t elsewhere, so no exp overflows."""
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def evaluate(model, view, arm=None):
    """``model``'s basis design on ``view`` times its coefficients; ``arm``
    picks an HBarModel's arm."""
    if arm is None:
        coeffs = model.coeffs
    else:
        coeffs = model.arm1_coeffs if arm == 1 else model.arm0_coeffs
    return model.basis.transform(view) @ coeffs


def propensity(model, view):
    """Clipped propensities on ``view`` and how many were clipped."""
    return model.clipped(None if model.basis is None else evaluate(model, view), view.n)


def _intercept(basis, value):
    if not basis.spec.intercept:
        raise ValidationError("a constant nuisance needs an intercept in its basis")
    coeffs = np.zeros(basis.out_dim)
    coeffs[0] = value
    return coeffs


def constant_bridge(like, value):
    """A bridge on ``like``'s basis that evaluates to ``value`` everywhere."""
    return px.BridgeFunction(like.kind, like.basis, _intercept(like.basis, value), like.ridge,
                             arm=like.arm)


def constant_hbar(basis, value0, value1):
    """A pseudo-outcome model equal to ``value0`` on arm 0 and ``value1`` on arm 1."""
    return px.HBarModel(basis=basis, arm0_coeffs=_intercept(basis, value0),
                        arm1_coeffs=_intercept(basis, value1))


def linear_coefficients(bf):
    """A degree-1, interaction-free, intercept bridge's coefficients on the
    raw inputs: intercept, then role blocks in spec order."""
    spec = bf.basis.spec
    if spec.degree != 1 or spec.interactions or not spec.intercept:
        raise ValidationError(
            "raw coefficients are only defined for degree-1 intercept bases without interactions"
        )
    if not spec.standardize:
        return bf.coeffs.copy()
    slopes = bf.coeffs[1:] / bf.basis.scales
    return np.concatenate([[bf.coeffs[0] - float(slopes @ bf.basis.centers)], slopes])


def pin_workers(monkeypatch, workers: int) -> None:
    """Run each ordered map over ``workers`` forked workers (1: in-process),
    at most one per item, whatever the CPUs."""
    monkeypatch.setattr(_fork, "_workers", lambda n_items: min(workers, n_items))


def traced_peak(fn, *args) -> float:
    """The tracemalloc peak of ``fn(*args)`` in MiB, after one warm-up call."""
    fn(*args)
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def assert_no_child_left() -> None:
    """This process has no child, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def blas_threads() -> int | None:
    """This process's OpenBLAS thread count; None without OpenBLAS."""
    blas = _fork._openblas_num_threads()
    return blas[0]() if blas else None


@pytest.fixture
def blas_at_two():
    """OpenBLAS at two threads for the test, so that a worker could start a
    pool and a map that left one thread set would show; the old count
    after. Yields the count set: 2, or None without OpenBLAS."""
    blas = _fork._openblas_num_threads()
    if blas is None:
        yield None
        return
    before = blas[0]()
    blas[1](2)
    yield 2
    blas[1](before)


@contextlib.contextmanager
def fifo_of(directory, data: bytes):
    """A FIFO in ``directory`` that a writer thread feeds ``data`` to once
    a reader opens it; the writer must have finished when the block ends."""
    fifo = directory / "stream.csv"
    os.mkfifo(fifo)

    def feed():
        with contextlib.suppress(BrokenPipeError):  # a reader that stopped early
            fifo.write_bytes(data)

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    yield fifo
    writer.join(timeout=30)
    assert not writer.is_alive(), "the FIFO's reader never read all of it"
