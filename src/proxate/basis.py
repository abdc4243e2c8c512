"""Deterministic polynomial feature maps over role-selected variables.

Every solver and regression in the package consumes the same basis
machinery: a ``BasisSpec`` names which variable roles enter, the
polynomial degree, and the flags; ``fit_basis`` freezes standardization
statistics from a training view, after which ``FittedBasis.transform``
is a pure row-wise function of any view.

Column layout (fixed, so coefficient vectors are interpretable):
intercept first (if requested), then per role in spec order, per
component, powers 1..degree, then pairwise cross-products across
distinct roles (if requested). Adding interactions never reorders the
leading non-interaction block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

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

    def out_dim(self, role_dims: dict[str, int]) -> int:
        n_base = sum(role_dims[r] for r in self.roles) * self.degree
        n_inter = 0
        if self.interactions:
            for i, r1 in enumerate(self.roles):
                for r2 in self.roles[i + 1 :]:
                    n_inter += role_dims[r1] * role_dims[r2]
        return int(self.include_intercept) + n_base + n_inter

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
        known = {"roles", "degree", "intercept", "interactions", "standardize"}
        unknown = set(d) - known
        if unknown:
            raise ValidationError(f"unknown basis spec keys: {sorted(unknown)}")
        if "roles" not in d:
            raise ValidationError("basis spec requires 'roles'")
        return cls(
            roles=tuple(d["roles"]),
            degree=int(d.get("degree", 1)),
            include_intercept=bool(d.get("intercept", True)),
            interactions=bool(d.get("interactions", False)),
            standardize=bool(d.get("standardize", False)),
        )


def _raw_features(spec: BasisSpec, blocks: dict[str, np.ndarray]) -> np.ndarray:
    """Stack the unstandardized feature columns for role matrices ``blocks``."""
    n = next(iter(blocks.values())).shape[0]
    cols: list[np.ndarray] = []
    if spec.include_intercept:
        cols.append(np.ones(n))
    for r in spec.roles:
        mat = blocks[r]
        for j in range(mat.shape[1]):
            v = mat[:, j]
            for d in range(1, spec.degree + 1):
                cols.append(v**d)
    if spec.interactions:
        for i, r1 in enumerate(spec.roles):
            for r2 in spec.roles[i + 1 :]:
                m1, m2 = blocks[r1], blocks[r2]
                for j1 in range(m1.shape[1]):
                    for j2 in range(m2.shape[1]):
                        cols.append(m1[:, j1] * m2[:, j2])
    return np.column_stack(cols) if cols else np.empty((n, 0))


@dataclass(frozen=True)
class FittedBasis:
    """A basis spec frozen together with its standardization statistics."""

    spec: BasisSpec
    out_dim: int
    centers: np.ndarray | None = None
    scales: np.ndarray | None = None

    def transform(self, source) -> np.ndarray:
        """Feature matrix for a view (or anything exposing role_matrix)."""
        blocks = {r: np.asarray(source.role_matrix(r), dtype=float) for r in self.spec.roles}
        feats = _raw_features(self.spec, blocks)
        if self.spec.standardize:
            start = 1 if self.spec.include_intercept else 0
            feats[:, start:] = (feats[:, start:] - self.centers) / self.scales
        if feats.shape[1] != self.out_dim:
            raise ValidationError(
                f"basis evaluated to {feats.shape[1]} columns, expected {self.out_dim}"
            )
        return feats

    def to_dict(self) -> dict:
        return {
            "spec": self.spec.to_dict(),
            "out_dim": self.out_dim,
            "centers": None if self.centers is None else self.centers.tolist(),
            "scales": None if self.scales is None else self.scales.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FittedBasis":
        return cls(
            spec=BasisSpec.from_dict(d["spec"]),
            out_dim=int(d["out_dim"]),
            centers=None if d.get("centers") is None else np.asarray(d["centers"], dtype=float),
            scales=None if d.get("scales") is None else np.asarray(d["scales"], dtype=float),
        )


def fit_basis(spec: BasisSpec, view) -> FittedBasis:
    """Freeze a basis on a training view.

    Standardization statistics (per non-intercept column mean and sd)
    come from this view only. Raises ``RoleUnavailableError`` if the
    view's sample masks one of the requested roles.
    """
    blocks = {r: np.asarray(view.role_matrix(r), dtype=float) for r in spec.roles}
    feats = _raw_features(spec, blocks)
    centers = scales = None
    if spec.standardize:
        start = 1 if spec.include_intercept else 0
        body = feats[:, start:]
        centers = body.mean(axis=0)
        scales = body.std(axis=0, ddof=0)
        # Constant columns get unit scale so evaluation stays finite.
        scales = np.where(scales < 1e-12, 1.0, scales)
    return FittedBasis(spec=spec, out_dim=feats.shape[1], centers=centers, scales=scales)
