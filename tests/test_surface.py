"""The package's settable surface: how many values a caller can set.

Counted with an ``ast`` walk over ``src/proxate/*.py``: the defaulted
parameters (positional and keyword-only) of public functions and of
public methods of public classes, plus the annotated fields with a
default in public classes. Public means no leading underscore. The
exported names (``proxate.__all__``) are pinned too, and every public
function, class and method must have a caller in the package or in
``perfbench/``, so names that only tests call stay out of the package.

The same walk checks that every JSON writer in the package is strict,
so no report can hold NaN or Infinity, and that records have one JSON
form: ``Record.to_dict`` writes it and ``_records.from_dict`` reads it.

A fresh interpreter checks that ``import proxate`` leaves the process
pool's modules unloaded, and the walk checks that the package has one
fork mechanism: ``_fork`` alone forks, and nothing imports
``multiprocessing`` or ``concurrent.futures``.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import proxate

MAX_SETTABLE_VALUES = 55
MAX_EXPORTED_NAMES = 51


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


def test_exported_name_count():
    count = len(proxate.__all__)
    assert count <= MAX_EXPORTED_NAMES, f"{count} exported names > {MAX_EXPORTED_NAMES}"


def _public_definitions(package_dir: Path):
    """(path, node) of each public top-level function or class and of
    each public method of a public class."""
    for path in sorted(package_dir.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and _public(node):
                yield path, node
                for item in node.body if isinstance(node, ast.ClassDef) else ():
                    if isinstance(item, ast.FunctionDef) and _public(item):
                        yield path, item


def _references(paths):
    """(path, line, name) of each name and attribute read in ``paths``."""
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                yield path, node.lineno, node.id
            elif isinstance(node, ast.Attribute):
                yield path, node.lineno, node.attr


def test_every_public_name_has_a_caller():
    # Matched by name: a reference inside the definition itself, or in
    # __init__.py (which only re-exports), is not a caller.
    package_dir = Path(proxate.__file__).parent
    bench_dir = package_dir.parent.parent / "perfbench"
    sources = [p for p in sorted(package_dir.glob("*.py")) if p.name != "__init__.py"]
    refs = list(_references(sources + sorted(bench_dir.glob("*.py"))))
    uncalled = [
        f"{where.name}:{node.lineno} {node.name}"
        for where, node in _public_definitions(package_dir)
        if not any(name == node.name and not (path == where and
                                              node.lineno <= line <= node.end_lineno)
                   for path, line, name in refs)
    ]
    assert uncalled == []


def _json_writes(package_dir: Path):
    for path in sorted(package_dir.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            func = node.func if isinstance(node, ast.Call) else None
            if (isinstance(func, ast.Attribute) and func.attr in ("dump", "dumps")
                    and isinstance(func.value, ast.Name) and func.value.id == "json"):
                yield f"{path.name}:{node.lineno}", node


def _strict(call: ast.Call) -> bool:
    return any(
        kw.arg == "allow_nan" and isinstance(kw.value, ast.Constant) and kw.value.value is False
        for kw in call.keywords
    )


def test_json_writes_disallow_nan():
    writes = list(_json_writes(Path(proxate.__file__).parent))
    assert writes, "no json.dump/json.dumps call found"
    assert [where for where, call in writes if not _strict(call)] == []


def _classes_defining(package_dir: Path, method: str) -> list[str]:
    return sorted(
        node.name
        for path in sorted(package_dir.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef)
        and any(isinstance(item, ast.FunctionDef) and item.name == method for item in node.body)
    )


def test_one_json_form_per_record():
    # MCReport extends Record's form with its derived n_failed.
    package_dir = Path(proxate.__file__).parent
    assert _classes_defining(package_dir, "to_dict") == ["MCReport", "Record"]
    assert _classes_defining(package_dir, "from_dict") == []


def test_import_leaves_pool_modules_unloaded():
    src = str(Path(proxate.__file__).parent.parent)
    code = ("import sys, proxate; "
            "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=120).stdout
    assert out == "[]\n"


def test_one_fork_mechanism():
    package_dir = Path(proxate.__file__).parent
    pools, forks = [], []
    for path in sorted(package_dir.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            pools += [f"{path.name}:{node.lineno}" for name in names
                      if name.split(".")[0] in ("multiprocessing", "concurrent")]
            if isinstance(node, ast.Attribute) and node.attr == "fork":
                forks.append(path.name)
    assert pools == []
    assert forks == ["_fork.py"]
