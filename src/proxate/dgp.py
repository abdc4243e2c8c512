"""Linear-Gaussian structural models with latent confounding.

One latent scalar confounder U drives the proxies (W = alpha_w*U + noise,
Z = alpha_z*U + noise), shifts the surrogates through beta_u, and shifts
the outcome through gamma_u. All effects are linear and all exogenous
terms Gaussian, which is what buys the closed-form oracles used by the
test suite: the true effect gamma_s . beta_a, and the outcome bridge
h(w, s, x) = gamma_s . s + (gamma_u / alpha_w) w + gamma_x . x, which
solves the conditional-moment restriction exactly because
E[W | Z, S, X, O] = alpha_w E[U | Z, S, X, O]; the DGP tests check
that restriction on large draws.

The surrogate-side bridge has no closed form here (Gaussian density
ratios are exp-quadratic), so it is validated through the reweighting
identity instead; see the bridge solver tests.

Generation is a pure function of (config, n, pi, seed) on a counter-based
Philox stream, so one seed pins the whole dataset.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._records import Record
from .data import CombinedDataset, FullyObservedSample
from .errors import ValidationError
from .stats import normal_quantile, seeded_generator

# Strength of the latent assignment's U-dependence in the observational
# sample when confound_treatment_in_O is set.
_O_ASSIGNMENT_LOADING = 1.0


@dataclass(frozen=True)
class DGPConfig:
    beta_a: np.ndarray  # (dim_s,) effect A -> S
    beta_u: np.ndarray  # (dim_s,) effect U -> S
    gamma_s: np.ndarray  # (dim_s,) effect S -> Y
    gamma_u: float  # effect U -> Y
    gamma_x: np.ndarray  # (dim_x,) effect X -> Y
    alpha_w: float  # loading U -> W
    alpha_z: float  # loading U -> Z
    dim_x: int = 0
    beta_x: np.ndarray | None = None  # (dim_s, dim_x) effect X -> S, zeros if None
    noise_sd_s: float = 1.0
    noise_sd_y: float = 1.0
    noise_sd_w: float = 1.0
    noise_sd_z: float = 1.0
    p_treat: float = 0.5
    confound_treatment_in_O: bool = False

    def __post_init__(self):
        object.__setattr__(self, "beta_a", np.atleast_1d(np.asarray(self.beta_a, dtype=float)))
        object.__setattr__(self, "beta_u", np.atleast_1d(np.asarray(self.beta_u, dtype=float)))
        object.__setattr__(self, "gamma_s", np.atleast_1d(np.asarray(self.gamma_s, dtype=float)))
        object.__setattr__(self, "gamma_x", np.atleast_1d(np.asarray(self.gamma_x, dtype=float)))
        bx = self.beta_x
        if bx is None:
            bx = np.zeros((self.dim_s, self.dim_x))
        object.__setattr__(self, "beta_x", np.asarray(bx, dtype=float).reshape(self.dim_s, -1))
        self.validate()

    @property
    def dim_s(self) -> int:
        return self.beta_a.shape[0]

    def validate(self) -> None:
        if self.dim_x < 0:
            raise ValidationError("dim_x must be >= 0")
        if self.beta_u.shape != (self.dim_s,) or self.gamma_s.shape != (self.dim_s,):
            raise ValidationError("beta_a, beta_u, gamma_s must share one surrogate dimension")
        if self.gamma_x.shape != (self.dim_x,):
            raise ValidationError(f"gamma_x must have length dim_x={self.dim_x}")
        if self.beta_x.shape != (self.dim_s, self.dim_x):
            raise ValidationError("beta_x must be (dim_s, dim_x)")
        for name in ("noise_sd_s", "noise_sd_y", "noise_sd_w", "noise_sd_z"):
            if getattr(self, name) <= 0:
                raise ValidationError(f"{name} must be > 0")
        if not 0.0 < self.p_treat < 1.0:
            raise ValidationError("p_treat must be in (0, 1)")
        if self.gamma_u != 0.0 and self.alpha_w == 0.0:
            raise ValidationError(
                "alpha_w must be nonzero when gamma_u is nonzero (no bridge exists otherwise)"
            )


@dataclass(frozen=True)
class DGPOracle(Record):
    """Closed-form truths for a config; see module docstring for derivations."""

    true_ate: float
    true_h_coeffs: np.ndarray  # ordered (intercept, w, s_1.., x_1..)
    notes: str


def oracle_for(cfg: DGPConfig) -> DGPOracle:
    h_w = 0.0 if cfg.gamma_u == 0.0 else cfg.gamma_u / cfg.alpha_w
    coeffs = np.concatenate([[0.0, h_w], cfg.gamma_s, cfg.gamma_x])
    return DGPOracle(
        true_ate=float(cfg.gamma_s @ cfg.beta_a),
        true_h_coeffs=coeffs,
        notes=(
            "effect = gamma_s . beta_a (all of A's effect flows through S); "
            "bridge coefficients ordered (intercept, w, s, x): intercept 0, "
            "w-slope gamma_u/alpha_w, s-slopes gamma_s, x-slopes gamma_x"
        ),
    )


def _structural_draw(cfg: DGPConfig, n: int, rng: np.random.Generator):
    """Draw (u, x, a_e, a_o, then s/y/w/z given an assignment).

    Returns everything needed by both the masked and unmasked
    generators; the draw order is fixed so seeds are comparable across
    call sites.
    """
    u = rng.standard_normal(n)
    x = rng.standard_normal((n, cfg.dim_x))
    a_e = (rng.random(n) < cfg.p_treat).astype(float)
    kappa = _O_ASSIGNMENT_LOADING if cfg.confound_treatment_in_O else 0.0
    cut = normal_quantile(cfg.p_treat) * np.sqrt(1.0 + kappa * kappa)
    a_o = (cut + kappa * u > rng.standard_normal(n)).astype(float)
    eps_s = rng.standard_normal((n, cfg.dim_s)) * cfg.noise_sd_s
    eps_y = rng.standard_normal(n) * cfg.noise_sd_y
    eps_w = rng.standard_normal(n) * cfg.noise_sd_w
    eps_z = rng.standard_normal(n) * cfg.noise_sd_z
    return u, x, a_e, a_o, eps_s, eps_y, eps_w, eps_z


def _outcomes(cfg: DGPConfig, u, x, a, eps_s, eps_y, eps_w, eps_z):
    s = a[:, None] * cfg.beta_a + u[:, None] * cfg.beta_u + x @ cfg.beta_x.T + eps_s
    y = s @ cfg.gamma_s + cfg.gamma_u * u + x @ cfg.gamma_x + eps_y
    w = (cfg.alpha_w * u + eps_w)[:, None]
    z = (cfg.alpha_z * u + eps_z)[:, None]
    return s, y, w, z


def check_draw(n: int, pi: float | None) -> None:
    """Raise ``ValidationError`` unless ``n`` rows (and an E share ``pi``,
    unless None) can be drawn."""
    if n < 10:
        raise ValidationError("n must be >= 10")
    if pi is not None and not 0.0 < pi < 1.0:
        raise ValidationError("pi must be in (0, 1)")


def generate(cfg: DGPConfig, n: int, pi: float, seed: int) -> tuple[CombinedDataset, DGPOracle]:
    """Draw a combined two-sample dataset plus its oracle.

    E units get randomized treatment; O units get a latent assignment
    (U-dependent when the config flags it) that shapes (S, Y) and is
    then discarded. Masking follows the two-sample availability
    pattern: E rows lose (y, z), O rows lose a.
    """
    check_draw(n, pi)
    rng = seeded_generator(seed)
    is_e = rng.random(n) < pi
    u, x, a_e, a_o, eps_s, eps_y, eps_w, eps_z = _structural_draw(cfg, n, rng)
    a = np.where(is_e, a_e, a_o)
    s, y, w, z = _outcomes(cfg, u, x, a, eps_s, eps_y, eps_w, eps_z)
    del u, a_e, a_o, eps_s, eps_y, eps_w, eps_z  # free the draws before masking copies y, z, a
    return CombinedDataset.masked(y=y, w=w, z=z, s=s, a=a, x=x, is_e=is_e), oracle_for(cfg)


def generate_full(cfg: DGPConfig, n: int, seed: int) -> FullyObservedSample:
    """Draw a fully observed randomized sample (no masking, no O units).

    This is the source material for the masking-design harness and for
    diagnostics that need (y, a) jointly.
    """
    check_draw(n, None)
    rng = seeded_generator(seed)
    rng.random(n)  # keep the draw sequence aligned with generate()
    u, x, a_e, _, eps_s, eps_y, eps_w, eps_z = _structural_draw(cfg, n, rng)
    s, y, w, z = _outcomes(cfg, u, x, a_e, eps_s, eps_y, eps_w, eps_z)
    return FullyObservedSample.from_arrays(y=y, a=a_e, s=s, x=x, w=w, z=z)


def confounded_config() -> DGPConfig:
    """Reference confounded model used throughout the test suite.

    Latent skill inflates the surrogates (beta_u) and the outcome
    (gamma_u) and tilts the observational assignment, so the plain
    surrogate-index estimator is biased upward while the true effect
    stays gamma_s . beta_a = 1.0.
    """
    return DGPConfig(
        beta_a=[0.5],
        beta_u=[1.0],
        beta_x=[[0.5]],
        gamma_s=[2.0],
        gamma_u=1.0,
        gamma_x=[0.5],
        alpha_w=1.0,
        alpha_z=1.0,
        dim_x=1,
        p_treat=0.5,
        confound_treatment_in_O=True,
    )
