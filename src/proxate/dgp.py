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
Philox stream, so one seed pins the whole dataset. The stream is read in
one fixed order: the E labels (drawn and discarded by ``generate_full``),
U, X, the randomized assignment, the latent observational one, then the
noise of S, Y, W and Z. Each outcome is computed as soon as its noise is
drawn, so a draw holds at most seven n-vectors: its six columns and U.
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
    beta_x: np.ndarray | None = None  # (dim_s, dim_x) effect X -> S, zeros if None
    noise_sd_s: float = 1.0
    noise_sd_y: float = 1.0
    noise_sd_w: float = 1.0
    noise_sd_z: float = 1.0
    p_treat: float = 0.5
    confound_treatment_in_O: bool = False

    def __post_init__(self):
        for name in ("beta_a", "beta_u", "gamma_s", "gamma_x"):
            value = np.atleast_1d(np.asarray(getattr(self, name), dtype=float))
            if value.ndim != 1:
                raise ValidationError(f"{name} must be a vector, not of shape {value.shape}")
            object.__setattr__(self, name, value)
        if not self.dim_s or {self.beta_u.shape, self.gamma_s.shape} != {(self.dim_s,)}:
            raise ValidationError("beta_a, beta_u, gamma_s must share one surrogate dimension >= 1")
        size = self.dim_s * self.dim_x
        bx = np.zeros(size) if self.beta_x is None else np.asarray(self.beta_x, dtype=float)
        if bx.size != size:
            raise ValidationError(f"beta_x must hold dim_s*dim_x = {size} values, not {bx.size}")
        object.__setattr__(self, "beta_x", bx.reshape(self.dim_s, self.dim_x))
        for name in ("noise_sd_s", "noise_sd_y", "noise_sd_w", "noise_sd_z"):
            if getattr(self, name) <= 0:
                raise ValidationError(f"{name} must be > 0")
        if not 0.0 < self.p_treat < 1.0:
            raise ValidationError("p_treat must be in (0, 1)")
        if self.gamma_u != 0.0 and self.alpha_w == 0.0:
            raise ValidationError(
                "alpha_w must be nonzero when gamma_u is nonzero (no bridge exists otherwise)"
            )

    @property
    def dim_s(self) -> int:
        return self.beta_a.shape[0]

    @property
    def dim_x(self) -> int:
        return self.gamma_x.shape[0]


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


def _draw(cfg: DGPConfig, n: int, rng: np.random.Generator, is_e: np.ndarray | None):
    """The columns (x, a, s, y, w, z) of one draw: a is a_e on the rows
    of ``is_e`` and a_o on the others, or a_e everywhere if None.

    ``rng`` is read in the module docstring's order, so seeds are
    comparable across call sites. Each outcome is its sum grouped left to
    right, noise last, as written out (IEEE sums are not associative). y's
    sum is built before its noise is drawn into one scratch vector, which
    then holds w's U term, and z's U term overwrites u, so at most the
    six outputs and u are held at once.
    """
    u = rng.standard_normal(n)
    x = rng.standard_normal((n, cfg.dim_x))
    a = rng.random(n)
    np.less(a, cfg.p_treat, out=a)  # a_e, 1.0 or 0.0
    a_o = rng.standard_normal(n)
    if is_e is not None:
        kappa = _O_ASSIGNMENT_LOADING if cfg.confound_treatment_in_O else 0.0
        cut = normal_quantile(cfg.p_treat) * np.sqrt(1.0 + kappa * kappa)
        np.greater(cut + kappa * u, a_o, out=a_o)
        np.copyto(a, a_o, where=~is_e)
    del a_o
    s = _noise(rng, cfg.noise_sd_s, np.empty((n, cfg.dim_s)))
    s += a[:, None] * cfg.beta_a + u[:, None] * cfg.beta_u + x @ cfg.beta_x.T
    y = s @ cfg.gamma_s
    scratch = np.multiply(u, cfg.gamma_u)
    y += scratch
    y += np.matmul(x, cfg.gamma_x, out=scratch)
    y += _noise(rng, cfg.noise_sd_y, scratch)
    w = _noise(rng, cfg.noise_sd_w, np.empty((n, 1)))
    w[:, 0] += np.multiply(u, cfg.alpha_w, out=scratch)
    del scratch
    z = _noise(rng, cfg.noise_sd_z, np.empty((n, 1)))
    u *= cfg.alpha_z
    z[:, 0] += u
    return x, a, s, y, w, z


def _noise(rng: np.random.Generator, sd: float, out: np.ndarray) -> np.ndarray:
    """``out`` filled with ``rng``'s next normal draws, scaled by ``sd``."""
    rng.standard_normal(out=out)
    out *= sd
    return out


def _widths(cfg: DGPConfig) -> dict[str, int]:
    """The columns of w, z, s and x in a draw from ``cfg``."""
    return {"w": 1, "z": 1, "s": cfg.dim_s, "x": cfg.dim_x}


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
    pattern: E rows lose (y, z), O rows lose a. The outcomes are computed
    as their noise is drawn and masked in place, so the draw holds at
    most seven n-vectors.
    """
    check_draw(n, pi)
    rng = seeded_generator(seed)
    is_e = rng.random(n) < pi
    x, a, s, y, w, z = _draw(cfg, n, rng, is_e)
    return CombinedDataset.masked(y=y, w=w, z=z, s=s, a=a, x=x, is_e=is_e), oracle_for(cfg)


def generate_full(cfg: DGPConfig, n: int, seed: int) -> FullyObservedSample:
    """Draw a fully observed randomized sample (no masking, no O units).

    This is the source material for the masking-design harness and for
    diagnostics that need (y, a) jointly. It reads the stream as
    ``generate`` does, dropping the E labels and a_o, so with one seed
    the two share u, x, a_e and the noise.
    """
    check_draw(n, None)
    rng = seeded_generator(seed)
    rng.random(n)  # keep the draw sequence aligned with generate()
    x, a, s, y, w, z = _draw(cfg, n, rng, None)
    return FullyObservedSample.from_arrays(y=y, a=a, s=s, x=x, w=w, z=z)


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
        p_treat=0.5,
        confound_treatment_in_O=True,
    )
