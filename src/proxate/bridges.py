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
minimum-distance sense with optional Tikhonov regularization. The
solvers take a row-compressed system (an R factor of the columns, or
the full designs) plus the row count n: R keeps the designs' singular
values, so rank checks and Gram conditions do not change. They are
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

from ._records import Record
from .basis import FittedBasis
from .errors import (
    SingularSystemError,
    UnderIdentifiedError,
    ValidationError,
)

COND_WARN_THRESHOLD = 1e12
DEFAULT_RIDGE = 1e-6
_RANK_TOL = 1e-10


@dataclass(frozen=True)
class BridgeFunction(Record):
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


@dataclass
class MomentDiagnostics(Record):
    max_abs_moment: float
    gram_condition: float | None  # None: singular Gram matrix
    n_instruments: int
    n_params: int
    n_clipped: int = 0
    label: str = ""


def _ridge_solve(design: np.ndarray, target: np.ndarray, penalty: float,
                 context: str) -> tuple[np.ndarray, float | None]:
    """min ||design b - target||^2 + penalty ||b||^2 via augmented lstsq, per
    target column; returns the coefficients and the Gram condition of ``design``
    (None when the Gram matrix is singular, so reports stay strict JSON)."""
    p = design.shape[1]
    if penalty < 0:
        raise ValidationError("ridge penalty must be >= 0")
    sv = np.linalg.svd(design, compute_uv=False)
    # Fewer singular values than parameters (fewer rows) also means singular.
    singular = sv.size < p or not sv.size or sv[-1] == 0.0
    cond = None if singular else float((sv[0] / sv[-1]) ** 2)
    if penalty == 0.0:
        rank = int(np.sum(sv > _RANK_TOL * sv[0])) if sv.size and sv[0] > 0 else 0
        if rank < p:
            raise SingularSystemError(
                f"{context}: rank-deficient system (rank {rank} < {p} parameters) "
                "with ridge 0; pass ridge > 0"
            )
    else:
        design = np.vstack([design, np.sqrt(penalty) * np.eye(p)])
        target = np.concatenate([target, np.zeros((p,) + target.shape[1:])])
    coef = np.linalg.lstsq(design, target, rcond=None)[0]
    if not np.isfinite(coef).all():
        raise SingularSystemError(f"{context}: non-finite coefficients")
    return coef, cond


def _warn_if_ill_conditioned(cond: float | None, context: str) -> None:
    cond = float("inf") if cond is None else cond
    if cond > COND_WARN_THRESHOLD:
        warnings.warn(
            f"{context}: Gram condition number {cond:.3e} exceeds {COND_WARN_THRESHOLD:.0e}",
            RuntimeWarning,
            stacklevel=3,
        )


def solve_outcome_bridge(
    basis: FittedBasis,
    feats: np.ndarray,
    instruments: np.ndarray,
    y: np.ndarray,
    n: int,
    ridge: float = DEFAULT_RIDGE,
) -> tuple[BridgeFunction, MomentDiagnostics]:
    """Solve the outcome-bridge moment system on ``n`` observational rows.

    ``feats``, ``instruments`` and ``y`` are the psi (``basis``) and b
    designs and the outcomes of those rows, or Q'[Psi B y] for any Q with
    orthonormal columns spanning them. Minimum-distance form: with P_B
    the projection onto the instrument columns, a_hat = (Psi' P_B Psi +
    n*ridge*I)^-1 Psi' P_B y, which collapses to OLS of y on psi when b
    spans the same functions.
    """
    p = feats.shape[1]
    if n == 0:
        raise ValidationError("outcome bridge: no observational rows")
    m = instruments.shape[1]
    if m < p:
        raise UnderIdentifiedError(
            f"outcome bridge: {m} instruments < {p} parameters; enrich the instrument basis"
        )
    # An orthonormal basis of the instruments' column space, robust to collinear columns.
    u, sv, _ = np.linalg.svd(instruments, full_matrices=False)
    q_basis = u[:, sv > _RANK_TOL * sv[0]] if sv.size and sv[0] > 0 else u[:, :0]
    proj_feats = q_basis.T @ feats
    proj_y = q_basis.T @ y
    coeffs, cond = _ridge_solve(proj_feats, proj_y, n * ridge, "outcome bridge")
    moments = instruments.T @ (y - feats @ coeffs) / n
    _warn_if_ill_conditioned(cond, "outcome bridge")
    diag = MomentDiagnostics(max_abs_moment=float(np.max(np.abs(moments))), gram_condition=cond,
                             n_instruments=m, n_params=p, label="h")
    return BridgeFunction("outcome", basis, coeffs, ridge), diag


def solve_surrogate_bridge(
    basis: FittedBasis,
    feats_o: np.ndarray,
    g_o: np.ndarray,
    n_o: int,
    rhs: np.ndarray,
    n_clipped: int,
    ridge: float = DEFAULT_RIDGE,
) -> tuple[tuple[BridgeFunction, MomentDiagnostics], tuple[BridgeFunction, MomentDiagnostics]]:
    """Solve both arms' systems as one, with a right-hand column per arm.

    ``feats_o`` and ``g_o`` are the phi (``basis``) and test-function
    designs of ``n_o`` O rows, or a common row compression of both (see
    ``solve_outcome_bridge``). ``rhs`` holds the E side, one column per
    arm a: (1/n_e) sum_E 1{a_i = a} g(u_i) / e_a(x_i), with the clipped
    propensities, of which ``n_clipped`` were clipped. Returns
    ``(q0, diag0), (q1, diag1)``.
    """
    p = feats_o.shape[1]
    if n_o == 0:
        raise ValidationError("surrogate bridge: both samples must be nonempty")
    m = g_o.shape[1]
    if m < p:
        raise UnderIdentifiedError(f"surrogate bridge: {m} test functions < {p} parameters; "
                                   "enrich g")
    lhs = g_o.T @ feats_o / n_o
    coeffs, cond = _ridge_solve(lhs, rhs, ridge, "surrogate bridge")
    _warn_if_ill_conditioned(cond, "surrogate bridge")

    def arm(a: int) -> tuple[BridgeFunction, MomentDiagnostics]:
        arm_coeffs = np.ascontiguousarray(coeffs[:, a])
        diag = MomentDiagnostics(
            max_abs_moment=float(np.max(np.abs(lhs @ arm_coeffs - rhs[:, a]))),
            gram_condition=cond,
            n_instruments=m,
            n_params=p,
            n_clipped=n_clipped,
            label=f"q{a}",
        )
        return BridgeFunction("surrogate", basis, arm_coeffs, ridge, arm=a), diag

    return arm(0), arm(1)
