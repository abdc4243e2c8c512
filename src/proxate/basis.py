"""Deterministic polynomial feature maps over role-selected variables.

Every solver and regression in the package consumes the same basis
machinery: a ``BasisSpec`` names which variable roles enter, the
polynomial degree, and the flags. Standardization is an affine map of
the raw columns [ones, features] whose statistics ``basis_from_r``
reads off the R factor of those columns: the cross-fit merges one per
fold from its cells' R factors, and ``fit_basis`` factors a view
itself. ``FittedBasis.standardize`` applies the map to rows of data,
of an R factor or of weighted sums alike, so ``FittedBasis.transform``
is a pure row-wise function of any view.

Column layout (fixed, so coefficient vectors are interpretable, and
written down once, in ``raw_features``): intercept first (if
requested), then per role in spec order, per component, powers
1..degree, then pairwise cross-products across distinct roles (if
requested). Adding interactions never reorders the leading
non-interaction block.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from ._records import Record, reject_unknown
from .errors import NumericalError, ValidationError

VALID_ROLES = ("w", "z", "s", "x", "a")
MAX_DEGREE = 3


@dataclass(frozen=True)
class BasisSpec:
    roles: tuple[str, ...]
    degree: int = 1
    include_intercept: bool = True
    interactions: bool = False
    standardize: bool = False

    def __post_init__(self):
        object.__setattr__(self, "roles", tuple(self.roles))
        if not self.roles:
            raise ValidationError("basis needs at least one role")
        for r in self.roles:
            if r not in VALID_ROLES:
                raise ValidationError(f"unknown role {r!r}; valid roles: {VALID_ROLES}")
        if len(set(self.roles)) != len(self.roles):
            raise ValidationError("duplicate role in basis spec")
        if not 1 <= self.degree <= MAX_DEGREE:
            raise ValidationError(f"degree must be in [1, {MAX_DEGREE}], got {self.degree}")

    def to_dict(self) -> dict:
        return {
            "roles": list(self.roles),
            "degree": self.degree,
            "intercept": self.include_intercept,
            "interactions": self.interactions,
            "standardize": self.standardize,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "BasisSpec":
        reject_unknown(d, ("roles", "degree", "intercept", "interactions", "standardize"),
                       "basis spec")
        if "roles" not in d:
            raise ValidationError("basis spec requires 'roles'")
        return cls(
            roles=tuple(d["roles"]),
            degree=int(d.get("degree", 1)),
            include_intercept=bool(d.get("intercept", True)),
            interactions=bool(d.get("interactions", False)),
            standardize=bool(d.get("standardize", False)),
        )


def raw_features(spec: BasisSpec, source) -> tuple[np.ndarray, list[str]]:
    """A ones column, then the unstandardized feature columns of ``source``;
    and the role behind each feature column ("r1*r2" for a cross-product)."""
    blocks = {r: np.asarray(source.role_matrix(r), dtype=float) for r in spec.roles}
    n = next(iter(blocks.values())).shape[0]
    cols: list[np.ndarray] = [np.ones(n)]
    roles: list[str] = []
    for r in spec.roles:
        for v in blocks[r].T:
            cols += [v**d for d in range(1, spec.degree + 1)]
            roles += [r] * spec.degree
    if spec.interactions:
        for r1, r2 in combinations(spec.roles, 2):
            for v1, v2 in product(blocks[r1].T, blocks[r2].T):
                cols.append(v1 * v2)
                roles.append(f"{r1}*{r2}")
    return np.column_stack(cols), roles


@dataclass(frozen=True)
class FittedBasis(Record):
    """A basis spec frozen together with its standardization statistics."""

    spec: BasisSpec
    out_dim: int
    centers: np.ndarray | None = None
    scales: np.ndarray | None = None

    def transform(self, source) -> np.ndarray:
        """Feature matrix for a view (or anything exposing role_matrix)."""
        ext, _ = raw_features(self.spec, source)
        width = ext.shape[1] - (not self.spec.include_intercept)
        if width != self.out_dim:
            raise ValidationError(f"basis evaluated to {width} columns, expected {self.out_dim}")
        return self.standardize(ext)

    def standardize(self, ext: np.ndarray) -> np.ndarray:
        """The design of columns [ones, raw features], overwriting ``ext``. Its
        rows may be data, an R factor or weighted sums: column 0 carries the
        ones column through whichever linear map made them."""
        if self.spec.standardize:
            ext[:, 1:] -= ext[:, :1] * self.centers
            ext[:, 1:] /= self.scales
        return ext if self.spec.include_intercept else ext[:, 1:]


def basis_from_r(spec: BasisSpec, r: np.ndarray, n: int, roles: list[str]) -> FittedBasis:
    """Freeze ``spec`` on ``n`` rows from the R factor columns ``r`` of their
    [ones, raw features] (``roles`` labels the features). The one
    standardization rule: column j's mean is R[0, j] / R[0, 0] and its
    centred sum of squares sum_{i >= 1} R[i, j]^2, which does not cancel
    as E[x^2] - E[x]^2 does. A non-finite mean or standard deviation
    raises ``NumericalError`` naming the role of the first such column."""
    out_dim = r.shape[1] - (not spec.include_intercept)
    if not spec.standardize:
        return FittedBasis(spec=spec, out_dim=out_dim)
    with np.errstate(over="ignore", invalid="ignore"):
        centers = r[0, 1:] / r[0, 0]
        scales = np.sqrt(np.sum(r[1:, 1:] ** 2, axis=0) / n)
    bad = np.flatnonzero(~(np.isfinite(centers) & np.isfinite(scales)))
    if bad.size:
        raise NumericalError(
            f"non-finite standardization of role {roles[bad[0]]!r}; rescale that input"
        )
    # Constant columns get unit scale so evaluation stays finite.
    scales = np.where(scales < 1e-12, 1.0, scales)
    return FittedBasis(spec=spec, out_dim=out_dim, centers=centers, scales=scales)


def fit_basis(spec: BasisSpec, view) -> tuple[FittedBasis, np.ndarray]:
    """Freeze a basis on a training view, from the view's own R factor, and
    return it with its design on the view (``transform(view)`` bit for bit).
    Raises ``RoleUnavailableError`` if the view's sample masks a requested
    role, and ``NumericalError`` as ``basis_from_r`` does."""
    ext, roles = raw_features(spec, view)
    # Without standardization only the R factor's width is read.
    r = np.linalg.qr(ext, mode="r") if spec.standardize else ext[:0]
    fitted = basis_from_r(spec, r, ext.shape[0], roles)
    return fitted, fitted.standardize(ext)
