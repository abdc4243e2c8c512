"""The package's settable surface: how many values a caller can set.

Counted with an ``ast`` walk over ``src/proxate/*.py``: the defaulted
parameters (positional and keyword-only) of public functions and of
public methods of public classes, plus the annotated fields with a
default in public classes. Public means no leading underscore.
"""

from __future__ import annotations

import ast
from pathlib import Path

import proxate

MAX_SETTABLE_VALUES = 71


def _public(node) -> bool:
    return not node.name.startswith("_")


def _n_defaults(fn: ast.FunctionDef) -> int:
    return len(fn.args.defaults) + sum(d is not None for d in fn.args.kw_defaults)


def settable_values(package_dir: Path) -> int:
    total = 0
    for path in sorted(package_dir.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and _public(node):
                total += _n_defaults(node)
            elif isinstance(node, ast.ClassDef) and _public(node):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and _public(item):
                        total += _n_defaults(item)
                    elif isinstance(item, ast.AnnAssign) and item.value is not None:
                        total += 1
    return total


def test_settable_value_count():
    count = settable_values(Path(proxate.__file__).parent)
    assert count <= MAX_SETTABLE_VALUES, f"{count} settable values > {MAX_SETTABLE_VALUES}"
