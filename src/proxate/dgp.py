"""Linear-Gaussian structural models with latent confounding.

One latent scalar confounder U drives the proxies (W = alpha_w*U + noise,
Z = alpha_z*U + noise), shifts the surrogates through beta_u, and shifts
the outcome through gamma_u. All effects are linear and all exogenous
terms Gaussian, which is what buys the closed-form oracles used by the
test suite: the true effect gamma_s . beta_a, and the outcome bridge
h(w, s, x) = gamma_s . s + (gamma_u / alpha_w) w + gamma_x . x, which
solves the conditional-moment restriction exactly because
E[W | Z, S, X, O] = alpha_w E[U | Z, S, X, O].

The surrogate-side bridge has no closed form here (Gaussian density
ratios are exp-quadratic), so it is validated through the reweighting
identity instead; see the bridge solver tests.

Generation is a pure function of (config, n, pi, seed) on a counter-based
Philox stream, so one seed pins the whole dataset.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .basis import BasisSpec, fit_basis
from .data import CombinedDataset, FullyObservedSample
from .errors import ValidationError
from .stats import normal_quantile

# Strength of the latent assignment's U-dependence in the observational
# sample when confound_treatment_in_O is set.
_O_ASSIGNMENT_LOADING = 1.0


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


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

    @classmethod
    def from_dict(cls, d: dict) -> "DGPConfig":
        unknown = set(d) - {f.name for f in fields(cls)}
        if unknown:
            raise ValidationError(f"unknown dgp keys: {sorted(unknown)}")
        return cls(**d)


@dataclass(frozen=True)
class DGPOracle:
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


def generate(cfg: DGPConfig, n: int, pi: float, seed: int) -> tuple[CombinedDataset, DGPOracle]:
    """Draw a combined two-sample dataset plus its oracle.

    E units get randomized treatment; O units get a latent assignment
    (U-dependent when the config flags it) that shapes (S, Y) and is
    then discarded. Masking follows the two-sample availability
    pattern: E rows lose (y, z), O rows lose a.
    """
    if n < 10:
        raise ValidationError("n must be >= 10")
    if not 0.0 < pi < 1.0:
        raise ValidationError("pi must be in (0, 1)")
    rng = _rng(seed)
    is_e = rng.random(n) < pi
    u, x, a_e, a_o, eps_s, eps_y, eps_w, eps_z = _structural_draw(cfg, n, rng)
    a = np.where(is_e, a_e, a_o)
    s, y, w, z = _outcomes(cfg, u, x, a, eps_s, eps_y, eps_w, eps_z)

    y = np.where(is_e, np.nan, y)
    z = np.where(is_e[:, None], np.nan, z)
    a = np.where(is_e, a, np.nan)
    data = CombinedDataset.from_arrays(y=y, w=w, z=z, s=s, a=a, x=x, is_e=is_e)
    return data, oracle_for(cfg)


def generate_full(cfg: DGPConfig, n: int, seed: int) -> FullyObservedSample:
    """Draw a fully observed randomized sample (no masking, no O units).

    This is the source material for the masking-design harness and for
    diagnostics that need (y, a) jointly.
    """
    if n < 10:
        raise ValidationError("n must be >= 10")
    rng = _rng(seed)
    rng.random(n)  # keep the draw sequence aligned with generate()
    u, x, a_e, _, eps_s, eps_y, eps_w, eps_z = _structural_draw(cfg, n, rng)
    s, y, w, z = _outcomes(cfg, u, x, a_e, eps_s, eps_y, eps_w, eps_z)
    return FullyObservedSample.from_arrays(y=y, a=a_e, s=s, x=x, w=w, z=z)


def eval_oracle_h(cfg: DGPConfig, w: np.ndarray, s: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Closed-form outcome bridge evaluated on raw columns."""
    coeffs = oracle_for(cfg).true_h_coeffs
    h_w = coeffs[1]
    return h_w * w[:, 0] + s @ cfg.gamma_s + x @ cfg.gamma_x


def oracle_h_residual_check(
    cfg: DGPConfig,
    n_large: int,
    seed: int,
    *,
    h_coeff_shift_w: float = 0.0,
) -> float:
    """Max absolute empirical moment of the bridge residual.

    Simulates an observational sample of size ``n_large``, forms the
    residual y - h(w, s, x) with the closed-form bridge (optionally
    perturbing the w-slope), and evaluates it against a fixed battery
    of polynomial test functions of (z, s, x) up to degree 2 with
    pairwise interactions. Returns max_j |mean(b_j * residual)|.
    """
    if n_large < 10**5:
        raise ValidationError("n_large must be >= 1e5 for a meaningful check")
    rng = _rng(seed)
    u, x, _, a_o, eps_s, eps_y, eps_w, eps_z = _structural_draw(cfg, n_large, rng)
    s, y, w, z = _outcomes(cfg, u, x, a_o, eps_s, eps_y, eps_w, eps_z)

    resid = y - eval_oracle_h(cfg, w, s, x) - h_coeff_shift_w * w[:, 0]

    class _Cols:
        def role_matrix(self, role):
            return {"z": z, "s": s, "x": x}[role]

    spec = BasisSpec(roles=("z", "s", "x") if cfg.dim_x else ("z", "s"),
                     degree=2, include_intercept=True, interactions=True)
    _, feats = fit_basis(spec, _Cols())
    moments = feats.T @ resid / n_large
    return float(np.max(np.abs(moments)))


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


def unconfounded_config() -> DGPConfig:
    """Same shape as the confounded model but with the U edges removed."""
    return DGPConfig(
        beta_a=[0.5],
        beta_u=[0.0],
        beta_x=[[0.5]],
        gamma_s=[2.0],
        gamma_u=0.0,
        gamma_x=[0.5],
        alpha_w=1.0,
        alpha_z=1.0,
        dim_x=1,
        p_treat=0.5,
        confound_treatment_in_O=False,
    )


# Large-n bias of the plain surrogate-index estimator on
# confounded_config(), frozen from a one-off brute-force run:
# 8 independent draws of n = 1e6 at pi = 0.5 (seeds 20_000..20_007),
# estimator fit exactly as baselines.surrogate_index_estimate with
# include_proxies=False; mean 0.24142, standard error 0.0030.
NAIVE_SI_BIAS = 0.24142
