"""Span recording around calls into proxate's modules, from outside them.

``Tracer.patched(op)`` swaps every binding of each layer function in the
loaded ``proxate`` modules for a timing wrapper and restores the
originals on exit, so untraced operations run the unmodified code.
Spans stay in memory (name, start, end, parent span, operation id)
until the benchmark writes them out. A layer whose function no longer
exists is reported as missing instead of failing the run, so code that
moves between modules still gets a traced run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

PACKAGE = "proxate"

# Functions timed as spans, as "<module>.<function>" inside the package.
SPAN_LAYERS = (
    "cli.main",
    "harness.run_monte_carlo",
    "data.load_csv",
    "data.write_csv",
    "data.write_unmasked_csv",
    "data.load_unmasked_csv",
    "dgp.generate",
    "dgp.generate_full",
    "estimators.make_folds",
    "estimators.fit_all_nuisances",
    "estimators.fit_fold_nuisances",
    "bridges.solve_surrogate_bridge",
    "bridges.solve_outcome_bridge",
    "nuisance.fit_hbar",
    "nuisance.fit_propensity",
    "estimators.estimate_all",
    "estimators.evaluate_nuisances",
    "baselines.surrogate_index_estimate",
    "baselines.diagnose_surrogacy",
)
# Orchestrators: only their self time (op time no child span covers,
# such as argument parsing, report writing and aggregation) is a metric.
ORCHESTRATORS = ("cli.main", "harness.run_monte_carlo")
# CSV functions whose `path` argument's file size counts toward
# data.csv_bytes: readers before the call, writers after it.
CSV_READERS = ("data.load_csv", "data.load_unmasked_csv")
CSV_WRITERS = ("data.write_csv", "data.write_unmasked_csv")
# Method whose calls and output rows are counted, not timed.
COUNTED_METHOD = ("basis", "FittedBasis", "transform")

# Per-layer metric -> (unit, the end-to-end metric and workload it
# should move, with its share of the op measured on the seed code).
PER_LAYER = {
    "data.load_csv_s": ("s", "op_s on estimate_csv (~86%); absent from mc_regimes"),
    "data.write_csv_s": ("s", "op_s on datagen_diagnose (~95% of the gen-data call)"),
    "data.write_unmasked_csv_s": ("s", "op_s on datagen_diagnose (~95% of gen-data --unmasked)"),
    "data.load_unmasked_csv_s": ("s", "op_s on datagen_diagnose (~95% of the diagnose call)"),
    "data.csv_bytes": ("bytes", "base for MB/s of the four CSV layers, from file sizes"),
    "dgp.generate_s": ("s", "op_s on mc_regimes (~8%) and datagen_diagnose (~2%)"),
    "dgp.generate_full_s": ("s", "op_s on datagen_diagnose (~2% of gen-data --unmasked)"),
    "estimators.make_folds_s": ("s", "op_s on mc_regimes and estimate_csv (<1%)"),
    "estimators.fit_all_nuisances_s": ("s", "op_s on mc_regimes (~63%) and estimate_csv (~15%)"),
    "estimators.fit_fold_nuisances_s": ("s", "op_s on mc_regimes and estimate_csv (inside fit_all)"),
    "bridges.solve_surrogate_bridge_s": ("s", "op_s on mc_regimes (~56% of fitting, q0 + q1)"),
    "bridges.solve_outcome_bridge_s": ("s", "op_s on mc_regimes (~33% of fitting)"),
    "nuisance.fit_hbar_s": ("s", "op_s on mc_regimes (~10% of fitting)"),
    "nuisance.fit_propensity_s": ("s", "op_s on mc_regimes (~8% of fitting)"),
    "basis.transform_calls": ("count", "op_s on mc_regimes and estimate_csv; a moment cache cuts it"),
    "basis.transform_rows": ("count", "op_s on mc_regimes and estimate_csv; a moment cache cuts it"),
    "estimators.estimate_all_s": ("s", "op_s on mc_regimes (~26%, six regime calls per replication)"),
    "estimators.evaluate_nuisances_s": ("s", "op_s on mc_regimes (inside estimate_all)"),
    "baselines.surrogate_index_estimate_s": ("s", "op_s on mc_regimes (~2%)"),
    "baselines.diagnose_surrogacy_s": ("s", "op_s on datagen_diagnose (~2% of the diagnose call)"),
    "harness.unattributed_s": ("s", "op_s on mc_regimes: harness time outside child spans"),
    "cli.unattributed_s": ("s", "op_s on all: CLI time outside child spans"),
    "trace.coverage_share": ("ratio", "share of traced op time inside a layer span"),
    "trace.overhead_s": ("s", "median traced minus median untraced op time"),
}


@dataclass(frozen=True)
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int


class Tracer:
    """Records spans and counts for the operation currently patched in."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[int, dict[str, int]] = {}
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._next_id = 0
        self._op = -1
        self._wrappers: dict[int, tuple] = {}  # id(original) -> (original, wrapper)
        for layer in SPAN_LAYERS:
            original = _resolve(layer)
            if original is None:
                self.missing.append(layer)
            else:
                self._wrappers[id(original)] = (original, self._span_wrapper(layer, original))
        module, cls_name, method = COUNTED_METHOD
        cls = _resolve(f"{module}.{cls_name}")
        self._counted = None
        if cls is None or method not in vars(cls):
            self.missing.append(".".join(COUNTED_METHOD))
        else:
            self._counted = (cls, method, vars(cls)[method])

    def _count(self, key: str, amount: int) -> None:
        op = self.counts.setdefault(self._op, {})
        op[key] = op.get(key, 0) + amount

    def _span_wrapper(self, name: str, fn):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            if name in CSV_READERS:
                self._count("data.csv_bytes", _path_size(signature, args, kwargs))
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append(Span(span_id, name, start, end, parent, self._op))
                if name in CSV_WRITERS:
                    self._count("data.csv_bytes", _path_size(signature, args, kwargs))

        return wrapper

    def _counting_wrapper(self, method):
        @functools.wraps(method)
        def transform(basis, source):
            out = method(basis, source)
            self._count("basis.transform_calls", 1)
            self._count("basis.transform_rows", int(out.shape[0]))
            return out

        return transform

    @contextmanager
    def patched(self, op: int):
        """Trace operation ``op``: wrap every binding, restore on exit."""
        replaced = []
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for module in modules:
            for attr, value in list(vars(module).items()):
                entry = self._wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
                    replaced.append((module, attr, value))
        if self._counted is not None:
            cls, method, original = self._counted
            setattr(cls, method, self._counting_wrapper(original))
            replaced.append((cls, method, original))
        self._op = op
        self.counts.setdefault(op, {})
        try:
            yield
        finally:
            self._op = -1
            for obj, attr, original in reversed(replaced):
                setattr(obj, attr, original)

    def op_metrics(self, op: int) -> dict[str, float]:
        """Per-layer totals for one traced operation."""
        spans = [s for s in self.spans if s.op == op]
        child_time: dict[int, float] = {}
        for s in spans:
            if s.parent is not None:
                child_time[s.parent] = child_time.get(s.parent, 0.0) + (s.end - s.start)
        inclusive: dict[str, float] = {}
        self_time: dict[str, float] = {}
        for s in spans:
            dur = s.end - s.start
            inclusive[s.name] = inclusive.get(s.name, 0.0) + dur
            self_time[s.name] = self_time.get(s.name, 0.0) + dur - child_time.get(s.span_id, 0.0)
        op_time = sum(s.end - s.start for s in spans if s.parent is None)
        out: dict[str, float] = {}
        for metric in PER_LAYER:
            if metric.endswith("_s") and metric[:-2] in SPAN_LAYERS:
                out[metric] = inclusive.get(metric[:-2], 0.0)
        unattributed = 0.0
        for layer in ORCHESTRATORS:
            module = layer.split(".")[0]
            out[f"{module}.unattributed_s"] = self_time.get(layer, 0.0)
            unattributed += self_time.get(layer, 0.0)
        counts = self.counts.get(op, {})
        for key in ("data.csv_bytes", "basis.transform_calls", "basis.transform_rows"):
            out[key] = counts.get(key, 0)
        out["trace.coverage_share"] = 1.0 - unattributed / op_time if op_time > 0 else 0.0
        return out

    def to_json(self) -> list:
        return [[s.span_id, s.name, s.start, s.end, s.parent, s.op] for s in self.spans]


def summarize(tracer: Tracer, traced_ops: list[int], traced_s: list[float],
              untraced_s: list[float]) -> dict[str, float]:
    """Median per-layer metrics over the traced ops, plus tracing overhead."""
    per_op = [tracer.op_metrics(op) for op in traced_ops]
    out = {}
    for metric in PER_LAYER:
        if metric == "trace.overhead_s":
            both = traced_s and untraced_s
            out[metric] = statistics.median(traced_s) - statistics.median(untraced_s) if both else 0.0
        else:
            values = [m[metric] for m in per_op]
            out[metric] = statistics.median(values) if values else 0.0
    return out


def _resolve(dotted: str):
    module_name, attr = dotted.rsplit(".", 1)
    try:
        module = importlib.import_module(f"{PACKAGE}.{module_name}")
    except ImportError:
        return None
    return getattr(module, attr, None)


def _path_size(signature: inspect.Signature, args, kwargs) -> int:
    try:
        path = signature.bind(*args, **kwargs).arguments.get("path")
        return os.path.getsize(path) if path is not None else 0
    except (TypeError, OSError):
        return 0
