"""Deterministic polynomial feature maps over role-selected variables.

Every solver and regression in the package consumes the same basis
machinery: a ``BasisSpec`` names which variable roles enter, the
polynomial degree, and the flags; ``fit_basis`` freezes standardization
statistics from a training view and returns the training design it
standardizes with them, so fitting expands the training rows once.
``FittedBasis.transform`` is then a pure row-wise function of any view.

Column layout (fixed, so coefficient vectors are interpretable, and
written down once, in ``_raw_features``): intercept first (if
requested), then per role in spec order, per component, powers
1..degree, then pairwise cross-products across distinct roles (if
requested). Adding interactions never reorders the leading
non-interaction block.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def _raw_features(spec: BasisSpec, source) -> tuple[np.ndarray, list[str]]:
    """Stack the unstandardized feature columns of ``source``, each labelled
    with the role behind it ("r1*r2" for a cross-product, "1" for the intercept)."""
    blocks = {r: np.asarray(source.role_matrix(r), dtype=float) for r in spec.roles}
    n = next(iter(blocks.values())).shape[0]
    cols: list[np.ndarray] = []
    roles: list[str] = []
    if spec.include_intercept:
        cols.append(np.ones(n))
        roles.append("1")
    for r in spec.roles:
        mat = blocks[r]
        for j in range(mat.shape[1]):
            v = mat[:, j]
            for d in range(1, spec.degree + 1):
                cols.append(v**d)
                roles.append(r)
    if spec.interactions:
        for i, r1 in enumerate(spec.roles):
            for r2 in spec.roles[i + 1 :]:
                m1, m2 = blocks[r1], blocks[r2]
                for j1 in range(m1.shape[1]):
                    for j2 in range(m2.shape[1]):
                        cols.append(m1[:, j1] * m2[:, j2])
                        roles.append(f"{r1}*{r2}")
    return (np.column_stack(cols) if cols else np.empty((n, 0))), roles


@dataclass(frozen=True)
class FittedBasis(Record):
    """A basis spec frozen together with its standardization statistics."""

    spec: BasisSpec
    out_dim: int
    centers: np.ndarray | None = None
    scales: np.ndarray | None = None

    def transform(self, source) -> np.ndarray:
        """Feature matrix for a view (or anything exposing role_matrix)."""
        feats, _ = _raw_features(self.spec, source)
        if feats.shape[1] != self.out_dim:
            raise ValidationError(
                f"basis evaluated to {feats.shape[1]} columns, expected {self.out_dim}"
            )
        return self._standardized(feats)

    def _standardized(self, feats: np.ndarray) -> np.ndarray:
        """Standardize the raw features ``feats`` in place and return them."""
        if self.spec.standardize:
            start = int(self.spec.include_intercept)
            feats[:, start:] = (feats[:, start:] - self.centers) / self.scales
        return feats


def fit_basis(spec: BasisSpec, view) -> tuple[FittedBasis, np.ndarray]:
    """Freeze a basis on a training view; return it and its design on the view.

    Standardization statistics (per non-intercept column mean and sd)
    come from this view only, and the returned design equals
    ``transform(view)`` bit for bit. Raises ``RoleUnavailableError`` if
    the view's sample masks one of the requested roles, and
    ``NumericalError`` naming the role of the first column whose
    statistics are not finite.
    """
    feats, roles = _raw_features(spec, view)
    centers = scales = None
    if spec.standardize:
        start = int(spec.include_intercept)
        body = feats[:, start:]
        with np.errstate(over="ignore", invalid="ignore"):
            centers = body.mean(axis=0)
            scales = body.std(axis=0, ddof=0)
        bad = np.flatnonzero(~(np.isfinite(centers) & np.isfinite(scales)))
        if bad.size:
            raise NumericalError(
                f"non-finite standardization of role {roles[start + bad[0]]!r}; "
                "rescale that input"
            )
        # Constant columns get unit scale so evaluation stays finite.
        scales = np.where(scales < 1e-12, 1.0, scales)
    fitted = FittedBasis(spec=spec, out_dim=feats.shape[1], centers=centers, scales=scales)
    return fitted, fitted._standardized(feats)
