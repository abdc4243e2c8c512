"""Bridge-function solvers for the two conditional-moment systems.

The outcome bridge h(w, s, x) is pinned down by instrumenting the
observational regression of y on features psi(w, s, x) with functions
b(z, s, x): the estimating equations are (1/n) sum b_i (y_i - psi_i'a).
The surrogate bridges q_a(z, s, x) reweight the observational sample to
each experimental arm; their conditional-moment restriction is
integrated against test functions g(w, s, x), turning the right-hand
side into an inverse-propensity average over the experimental arm:

    (1/n_o) sum_O g_j phi' beta  =  (1/n_e) sum_E 1{a_i = a} g_j / e_a(x_i).

Both systems are linear in the coefficients and solved in a
minimum-distance sense with optional Tikhonov regularization; they are
ill-posed inverse problems whenever the proxy-instrument cross moments
are weak, which is exactly what the reported Gram condition number and
moment residuals are there to flag. Completeness of the proxies cannot
be verified from data; these diagnostics are heuristics, not tests of
identification.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .basis import BasisSpec, FittedBasis, fit_basis
from .errors import (
    SingularSystemError,
    UnderIdentifiedError,
    ValidationError,
)

COND_WARN_THRESHOLD = 1e12
DEFAULT_RIDGE = 1e-6
_RANK_TOL = 1e-10


@dataclass(frozen=True)
class BridgeFunction:
    """A basis expansion with solved coefficients."""

    kind: str  # "outcome" or "surrogate"
    basis: FittedBasis
    coeffs: np.ndarray
    ridge: float
    arm: int | None = None  # treatment level for surrogate bridges

    def __post_init__(self):
        if self.kind not in ("outcome", "surrogate"):
            raise ValidationError(f"unknown bridge kind {self.kind!r}")
        if self.kind == "surrogate" and self.arm not in (0, 1):
            raise ValidationError("surrogate bridge needs arm in {0, 1}")
        coeffs = np.asarray(self.coeffs, dtype=float)
        object.__setattr__(self, "coeffs", coeffs)
        if coeffs.shape != (self.basis.out_dim,):
            raise ValidationError(
                f"coefficient length {coeffs.shape} != basis out_dim {self.basis.out_dim}"
            )

    def evaluate(self, view) -> np.ndarray:
        return self.basis.transform(view) @ self.coeffs

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "arm": self.arm,
            "ridge": self.ridge,
            "coeffs": self.coeffs.tolist(),
            "basis": self.basis.to_dict(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "BridgeFunction":
        return cls(
            kind=d["kind"],
            basis=FittedBasis.from_dict(d["basis"]),
            coeffs=np.asarray(d["coeffs"], dtype=float),
            ridge=float(d["ridge"]),
            arm=d.get("arm"),
        )


@dataclass
class MomentDiagnostics:
    max_abs_moment: float
    gram_condition: float
    n_instruments: int
    n_params: int
    n_clipped: int = 0
    label: str = ""

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "max_abs_moment": self.max_abs_moment,
            "gram_condition": self.gram_condition,
            "n_instruments": self.n_instruments,
            "n_params": self.n_params,
            "n_clipped": self.n_clipped,
        }


def _orthonormal_column_basis(mat: np.ndarray) -> np.ndarray:
    """Orthonormal basis of col(mat), robust to collinear columns."""
    u, sv, _ = np.linalg.svd(mat, full_matrices=False)
    if sv.size == 0 or sv[0] == 0.0:
        return u[:, :0]
    keep = sv > _RANK_TOL * sv[0]
    return u[:, keep]


def _ridge_solve(design: np.ndarray, target: np.ndarray, penalty: float,
                 context: str) -> np.ndarray:
    """min ||design b - target||^2 + penalty ||b||^2 via augmented lstsq."""
    p = design.shape[1]
    if penalty < 0:
        raise ValidationError("ridge penalty must be >= 0")
    if penalty == 0.0:
        sv = np.linalg.svd(design, compute_uv=False)
        rank = int(np.sum(sv > _RANK_TOL * sv[0])) if sv.size and sv[0] > 0 else 0
        if rank < p:
            raise SingularSystemError(
                f"{context}: rank-deficient system (rank {rank} < {p} parameters) "
                "with ridge 0; pass ridge > 0"
            )
        coef, _, _, _ = np.linalg.lstsq(design, target, rcond=None)
        return coef
    aug = np.vstack([design, np.sqrt(penalty) * np.eye(p)])
    tgt = np.concatenate([target, np.zeros(p)])
    coef, _, _, _ = np.linalg.lstsq(aug, tgt, rcond=None)
    return coef


def _gram_condition(design: np.ndarray) -> float:
    sv = np.linalg.svd(design, compute_uv=False)
    if sv.size == 0 or sv[-1] == 0.0 or sv[0] == 0.0:
        return float("inf")
    return float((sv[0] / sv[-1]) ** 2)


def _warn_if_ill_conditioned(cond: float, context: str) -> None:
    if cond > COND_WARN_THRESHOLD:
        warnings.warn(
            f"{context}: Gram condition number {cond:.3e} exceeds {COND_WARN_THRESHOLD:.0e}",
            RuntimeWarning,
            stacklevel=3,
        )


def solve_outcome_bridge(
    o_view,
    psi: BasisSpec,
    b: BasisSpec,
    ridge: float = DEFAULT_RIDGE,
) -> tuple[BridgeFunction, MomentDiagnostics]:
    """Solve the outcome-bridge moment system on an observational view.

    Minimum-distance form: with P_B the projection onto the instrument
    columns, a_hat = (Psi' P_B Psi + n*ridge*I)^-1 Psi' P_B y, which
    collapses to OLS of y on psi when b spans the same functions.
    """
    if o_view.n == 0:
        raise ValidationError("observational view is empty")
    psi_fb = fit_basis(psi, o_view)
    b_fb = fit_basis(b, o_view)
    feats = psi_fb.transform(o_view)
    instruments = b_fb.transform(o_view)
    y = o_view.y
    n, p = feats.shape
    m = instruments.shape[1]
    if m < p:
        raise UnderIdentifiedError(
            f"outcome bridge: {m} instruments < {p} parameters; enrich the instrument basis"
        )
    q_basis = _orthonormal_column_basis(instruments)
    proj_feats = q_basis.T @ feats
    proj_y = q_basis.T @ y
    coeffs = _ridge_solve(proj_feats, proj_y, n * ridge, "outcome bridge")

    fitted = feats @ coeffs
    if not np.isfinite(fitted).all():
        raise SingularSystemError("outcome bridge: non-finite fit on training records")
    moments = instruments.T @ (y - fitted) / n
    cond = _gram_condition(proj_feats)
    _warn_if_ill_conditioned(cond, "outcome bridge")
    diag = MomentDiagnostics(
        max_abs_moment=float(np.max(np.abs(moments))),
        gram_condition=cond,
        n_instruments=m,
        n_params=p,
        label="h",
    )
    bf = BridgeFunction(kind="outcome", basis=psi_fb, coeffs=coeffs, ridge=ridge)
    return bf, diag


def solve_surrogate_bridge(
    o_view,
    e_view,
    a: int,
    phi: BasisSpec,
    g: BasisSpec,
    propensity,
    ridge: float = DEFAULT_RIDGE,
) -> tuple[BridgeFunction, MomentDiagnostics]:
    """Solve the arm-``a`` surrogate-bridge moment system.

    The test-function basis g is fitted (standardization included) on
    the observational view and evaluated as the same function on both
    samples. Propensity evaluations outside the clip range are clipped
    and counted in the diagnostics.
    """
    if a not in (0, 1):
        raise ValidationError("treatment arm must be 0 or 1")
    if o_view.n == 0 or e_view.n == 0:
        raise ValidationError("both views must be nonempty")
    phi_fb = fit_basis(phi, o_view)
    g_fb = fit_basis(g, o_view)
    feats_o = phi_fb.transform(o_view)
    g_o = g_fb.transform(o_view)
    g_e = g_fb.transform(e_view)
    n_o, p = feats_o.shape
    m = g_o.shape[1]
    if m < p:
        raise UnderIdentifiedError(
            f"surrogate bridge: {m} test functions < {p} parameters; enrich g"
        )
    e_hat, n_clipped = propensity.evaluate_counting(e_view)
    e_arm = e_hat if a == 1 else 1.0 - e_hat
    indicator = (e_view.a == a).astype(float)
    rhs = g_e.T @ (indicator / e_arm) / e_view.n
    lhs = g_o.T @ feats_o / n_o
    coeffs = _ridge_solve(lhs, rhs, ridge, "surrogate bridge")

    fitted = feats_o @ coeffs
    if not np.isfinite(fitted).all():
        raise SingularSystemError("surrogate bridge: non-finite fit on training records")
    moments = lhs @ coeffs - rhs
    cond = _gram_condition(lhs)
    _warn_if_ill_conditioned(cond, "surrogate bridge")
    diag = MomentDiagnostics(
        max_abs_moment=float(np.max(np.abs(moments))),
        gram_condition=cond,
        n_instruments=m,
        n_params=p,
        n_clipped=n_clipped,
        label=f"q{a}",
    )
    bf = BridgeFunction(kind="surrogate", basis=phi_fb, coeffs=coeffs, ridge=ridge, arm=a)
    return bf, diag


def linear_coefficients(bf: BridgeFunction) -> np.ndarray:
    """Coefficients on the raw (unstandardized) degree-1 inputs.

    Ordered (intercept, then role blocks in spec order). Only defined
    for degree-1, interaction-free bases with an intercept.
    """
    spec = bf.basis.spec
    if spec.degree != 1 or spec.interactions or not spec.include_intercept:
        raise ValidationError(
            "raw coefficients are only defined for degree-1 intercept bases without interactions"
        )
    coeffs = bf.coeffs
    if not spec.standardize:
        return coeffs.copy()
    slopes = coeffs[1:] / bf.basis.scales
    intercept = coeffs[0] - float(slopes @ bf.basis.centers)
    return np.concatenate([[intercept], slopes])


def constant_bridge(like: BridgeFunction, value: float) -> BridgeFunction:
    """A bridge that evaluates to ``value`` everywhere (same basis)."""
    if not like.basis.spec.include_intercept:
        raise ValidationError("constant bridge needs an intercept in the basis")
    coeffs = np.zeros(like.basis.out_dim)
    coeffs[0] = value
    return BridgeFunction(
        kind=like.kind, basis=like.basis, coeffs=coeffs, ridge=like.ridge, arm=like.arm
    )
