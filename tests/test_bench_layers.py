"""Every function the benchmark traces must exist under its traced name.

A rename in ``src/`` that drops a benchmark layer fails here, instead of
showing up only as ``missing_layers`` in a traced benchmark run.
"""

from __future__ import annotations

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_layer_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    assert spans.Tracer().missing == []
