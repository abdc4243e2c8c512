"""The JSON form of the package's records, written and read once.

A record is a dataclass that inherits ``Record``: its ``to_dict`` maps
each field to plain JSON, so a new report field is one dataclass field.
``from_dict``, the inverse, is the one config reader: it type-checks
each JSON value against its field's annotation, so a value of the wrong
type is a ``ValidationError`` naming its key path, never a misread.
"""

from __future__ import annotations

import sys
from dataclasses import MISSING, fields, is_dataclass
from functools import partial
from types import UnionType
from typing import get_args, get_type_hints, is_typeddict

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


def _number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def _array(v) -> bool:
    """A number, or nested lists of numbers of one rectangular shape."""
    if isinstance(v, list):
        return all(map(_array, v)) and len({np.shape(x) for x in v}) <= 1
    return _number(v)


# How a leaf annotation reads a JSON value: its test, its conversion (None
# keeps the value, so an int given for a float stays an int) and its name.
_LEAVES = {
    bool: (lambda v: isinstance(v, bool), None, "a boolean"),
    int: (lambda v: isinstance(v, int) and not isinstance(v, bool), None, "an int"),
    float: (_number, None, "a finite number"),
    str: (lambda v: isinstance(v, str), None, "a string"),
    type(None): (lambda v: v is None, None, "null"),
    tuple[str, ...]: (lambda v: isinstance(v, list) and all(isinstance(s, str) for s in v),
                      tuple, "a list of strings"),
    np.ndarray: (_array, partial(np.asarray, dtype=float), "an array of finite numbers"),
}


def _read(tp, value, where: str):
    if is_dataclass(tp) or is_typeddict(tp):
        return from_dict(tp, value, where)
    alternatives = get_args(tp) if isinstance(tp, UnionType) else (tp,)
    for alt in alternatives:
        test, convert, _ = _LEAVES[alt]
        if test(value):
            return value if convert is None else convert(value)
    names = " or ".join(_LEAVES[alt][2] for alt in alternatives)
    raise ValidationError(f"{where}: {value!r} is not {names}")


def from_dict(cls, d, where: str):
    """The inverse of ``Record.to_dict``: ``cls``, a dataclass or a TypedDict,
    from the JSON object ``d`` at key path ``where``. Every error, ``cls``'s
    own validation included, is a ``ValidationError`` naming the key path."""
    if not isinstance(d, dict):
        raise ValidationError(f"{where}: {d!r} is not an object")
    hints = get_type_hints(cls)
    reject_unknown(d, hints, where)
    required = cls.__required_keys__ if is_typeddict(cls) else [
        f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING]
    missing = [k for k in hints if k in required and k not in d]
    if missing:
        raise ValidationError(f"{where}: missing required keys {missing}")
    kw = {k: _read(hints[k], v, f"{where}.{k}") for k, v in d.items()}
    try:
        return cls(**kw)
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}") from exc
