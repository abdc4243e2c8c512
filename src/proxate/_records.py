"""The JSON form of the package's records, written once.

A record is a dataclass that inherits ``Record``: its ``to_dict`` maps
each field to plain JSON, so a new report field is one dataclass field.
``reject_unknown`` is the one unknown-key check of the config readers.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np

from .errors import ValidationError


def _plain(value):
    if hasattr(value, "to_dict"):
        return value.to_dict()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    return value


class Record:
    """Dataclass mixin: ``to_dict`` is the field-by-field plain-JSON form."""

    def to_dict(self) -> dict:
        return {f.name: _plain(getattr(self, f.name)) for f in fields(self)}


def reject_unknown(d: dict, known, where: str) -> None:
    """Raise ``ValidationError`` naming the keys of ``d`` outside ``known``."""
    unknown = set(d) - set(known)
    if unknown:
        raise ValidationError(f"unknown {where} keys: {sorted(unknown)}")
