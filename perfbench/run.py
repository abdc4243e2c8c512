"""proxate benchmark: three closed-loop workloads, one caller each.

Run from the root of a proxate checkout:

    python3 perfbench/run.py --workload estimate_csv --seed 1 --seconds 25 --trace 0

Every workload draws from ``confounded_config()`` at pi = 0.5 and drives
the program through ``proxate.cli.main`` in this process:

  estimate_csv      one op is ``estimate --estimator all --k 5`` on a
                    4e5-row combined CSV written during set-up
  mc_regimes        one op is ``simulate --n 40000`` over all six regimes,
                    estimators ob-or,ob-ipw,sb,mr,si, 10 replications
  datagen_diagnose  one op is ``gen-data`` (masked), ``gen-data --unmasked``
                    and ``diagnose`` on the unmasked file, all at n = 4e5

Ops repeat until ``--seconds`` have passed. Each op's output is checked
against the library functions on the same in-memory draw, and every op
must write the same bytes as the first (reports compared with
``created_at`` stripped). The last stdout line is the result object:
with ``--trace 0`` it holds the end-to-end metrics, with ``--trace 1``
the per-layer metrics from spans recorded around calls into each
proxate module (traced ops alternate with untraced ones, which gives the
tracing overhead). Earlier stdout lines describe the environment,
per-call medians, checks and coverage. Generated files go to a fresh
directory under ``.perfbench_work/`` in the checkout and are deleted
before exit; spans of a traced run are written to ``.perfbench_out/``.

Exit status 2 means the benchmark could not run at all, for example when
``src/proxate`` is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

N_LARGE = 400_000
N_MC = 40_000
PI = 0.5
K_FOLDS = 5
MC_REPLICATIONS = 10
MC_ESTIMATORS = ("OB-OR", "OB-IPW", "SB", "MR", "SI")
MC_REGIMES = ("all_correct", "case1", "case2", "case3", "case4", "all_wrong")
# Set-up runs at least SETUP_REPEATS times, and more (up to SETUP_MAX)
# while under SETUP_MIN_SECONDS, so a cheap set-up still gets a stable median.
SETUP_REPEATS = 3
SETUP_MAX = 15
SETUP_MIN_SECONDS = 1.0

_CREATED_AT = re.compile(rb'^\s*"created_at": .*\n', re.MULTILINE)


class OpFailed(Exception):
    """An op exited non-zero or produced output that failed a check."""


def _strict_json(raw: bytes):
    def reject(token):
        raise OpFailed(f"report holds non-JSON constant {token}")

    return json.loads(raw, parse_constant=reject)


def _finite_numbers(obj) -> bool:
    if isinstance(obj, dict):
        return all(_finite_numbers(v) for v in obj.values())
    if isinstance(obj, list):
        return all(_finite_numbers(v) for v in obj)
    if isinstance(obj, float):
        return math.isfinite(obj)
    return True


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _take_report(path: Path) -> bytes:
    """Report bytes without the created_at line; the file is removed."""
    raw = path.read_bytes()
    path.unlink()
    return _CREATED_AT.sub(b"", raw, count=1)


def _cli(argv: list[str]) -> float:
    """Run one CLI command in this process; returns its wall seconds."""
    from proxate import cli

    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        code = cli.main(argv)
        elapsed = time.perf_counter() - start
    if code != 0:
        raise OpFailed(f"proxate {argv[0]} exited with {code}")
    return elapsed


class EstimateCsv:
    """The analyst's path: CSV parsing dominates, then nuisance fitting."""

    rate = None

    def __init__(self, px, seed: int, workdir: Path):
        self.px, self.seed, self.workdir = px, seed, workdir
        self.csv: Path | None = None
        self._builds = 0

    def build(self) -> None:
        px = self.px
        data, _ = px.generate(px.confounded_config(), N_LARGE, PI, self.seed)
        # A fresh name per build: on ext4, rewriting a file in place can
        # force writeback on close, which would put disk time into set-up.
        path = self.workdir / f"combined-{self._builds}.csv"
        self._builds += 1
        px.write_csv(data, path, px.CsvSchema())
        if self.csv is not None:
            self.csv.unlink()
        self.csv = path

    def op(self, i: int) -> tuple[dict[str, float], dict]:
        out = self.workdir / f"estimate-{i}.json"
        elapsed = _cli([
            "estimate", "--data", str(self.csv), "--estimator", "all",
            "--k", str(K_FOLDS), "--seed", str(self.seed), "--out", str(out),
        ])
        return {"estimate_s": elapsed}, {"report": _take_report(out)}

    def check(self, artifacts: dict) -> None:
        px = self.px
        data, _ = px.generate(px.confounded_config(), N_LARGE, PI, self.seed)
        folds = px.make_folds(data, K_FOLDS, self.seed)
        expected = px.estimate_all(data, folds, px.EstimatorConfig())
        result = _strict_json(artifacts["report"])["result"]
        if set(result) != set(expected):
            raise OpFailed(f"report estimators {sorted(result)} != {sorted(expected)}")
        for name, rep in expected.items():
            if result[name]["tau_hat"] != rep.tau_hat:
                raise OpFailed(f"{name} tau_hat {result[name]['tau_hat']!r} != {rep.tau_hat!r}")


class McRegimes:
    """The Monte Carlo study shape: nuisance fitting dominates, no CSV."""

    # Replications an op completes when its check passes (n_failed == 0).
    rate = ("mc_reps_per_s", MC_REPLICATIONS)

    def __init__(self, px, seed: int, workdir: Path):
        self.px, self.seed, self.workdir = px, seed, workdir

    def build(self) -> None:
        """The inputs are command-line arguments; set-up is the import."""

    def op(self, i: int) -> tuple[dict[str, float], dict]:
        out = self.workdir / f"simulate-{i}.json"
        elapsed = _cli([
            "simulate", "--n", str(N_MC), "--pi", str(PI),
            "--replications", str(MC_REPLICATIONS), "--base-seed", str(self.seed),
            "--estimators", ",".join(e.lower() for e in MC_ESTIMATORS),
            "--regimes", "all", "--k", str(K_FOLDS), "--out", str(out),
        ])
        return {"simulate_s": elapsed}, {"report": _take_report(out)}

    def check(self, artifacts: dict) -> None:
        result = _strict_json(artifacts["report"])["result"]
        if result["n_failed"] != 0 or result["n_replications"] != MC_REPLICATIONS:
            raise OpFailed(f"{result['n_failed']} of {result['n_replications']} replications failed")
        if set(result["regimes"]) != set(MC_REGIMES):
            raise OpFailed(f"regimes {sorted(result['regimes'])} != {sorted(MC_REGIMES)}")
        for regime, table in result["regimes"].items():
            if set(table) != set(MC_ESTIMATORS):
                raise OpFailed(f"{regime}: estimators {sorted(table)} != {sorted(MC_ESTIMATORS)}")
            for est, stats in table.items():
                if stats["n_replications"] != MC_REPLICATIONS:
                    raise OpFailed(f"{regime}/{est}: {stats['n_replications']} replications")
                if est == "MR" and stats["coverage_95"] is None:
                    raise OpFailed(f"{regime}/MR: coverage missing")
        if not _finite_numbers(result):
            raise OpFailed("simulate report holds a non-finite figure")


class DatagenDiagnose:
    """The write side plus the second (no-g) reader and writer pair."""

    rate = None

    def __init__(self, px, seed: int, workdir: Path):
        self.px, self.seed, self.workdir = px, seed, workdir
        self.kept: Path | None = None  # one masked CSV, loaded back by check()

    def build(self) -> None:
        """The inputs are command-line arguments; set-up is the import."""

    def op(self, i: int) -> tuple[dict[str, float], dict]:
        masked = self.workdir / f"masked-{i}.csv"
        full = self.workdir / f"full-{i}.csv"
        out = self.workdir / f"diagnose-{i}.json"
        seed, n = str(self.seed), str(N_LARGE)
        calls = {
            "gen_data_s": _cli(["gen-data", "--n", n, "--pi", str(PI), "--seed", seed,
                                "--out", str(masked)]),
            "gen_unmasked_s": _cli(["gen-data", "--unmasked", "--n", n, "--seed", seed,
                                    "--out", str(full)]),
            "diagnose_s": _cli(["diagnose", "--data", str(full), "--out", str(out)]),
        }
        artifacts = {
            "masked_csv": _sha256(masked),
            "unmasked_csv": _sha256(full),
            "report": _take_report(out),
        }
        full.unlink()
        if self.kept is None:
            self.kept = masked
        else:
            masked.unlink()
        return calls, artifacts

    def check(self, artifacts: dict) -> None:
        px = self.px
        cfg = px.confounded_config()
        if self.kept is None or _sha256(self.kept) != artifacts["masked_csv"]:
            raise OpFailed("kept masked CSV does not match the checked op")
        data, _ = px.generate(cfg, N_LARGE, PI, self.seed)
        loaded = px.load_csv(self.kept, px.CsvSchema())
        for role in ("y", "a", "is_e", "w", "z", "s", "x"):
            want, got = getattr(data, role), getattr(loaded, role)
            if want.shape != got.shape or want.tobytes() != got.tobytes():
                raise OpFailed(f"masked CSV column {role} does not load back bit-identical")
        expected = px.diagnose_surrogacy(px.generate_full(cfg, N_LARGE, self.seed)).to_dict()
        if _strict_json(artifacts["report"])["result"] != expected:
            raise OpFailed("diagnose report differs from diagnose_surrogacy on the same draw")


WORKLOADS = {
    "estimate_csv": EstimateCsv,
    "mc_regimes": McRegimes,
    "datagen_diagnose": DatagenDiagnose,
}


def _import_seconds() -> float:
    """Seconds to import proxate in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import proxate; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip())


def _blas_threads(cap: int) -> int | None:
    """OpenBLAS thread count, lowered to ``cap`` if it exceeds it."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return None
    for lib_path in libs:
        try:
            lib = ctypes.CDLL(lib_path)
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if get is None:
                    continue
                get.restype = ctypes.c_int
                setter = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
                if get() > cap and setter is not None:
                    setter.argtypes = [ctypes.c_int]
                    setter(cap)
                return get()
    return None


def _fs_type(path: Path) -> str | None:
    best, fstype = "", None
    try:
        with open("/proc/self/mounts") as fh:
            for line in fh:
                fields = line.split()
                mount = fields[1]
                inside = str(path) == mount or str(path).startswith(mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, fstype = mount, fields[2]
    except OSError:
        return None
    return fstype


def _read_text(path: str) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def _environment(workdir: Path) -> dict:
    import numpy as np

    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30, check=True).stdout.strip()
    src_digest = hashlib.sha256()
    for path in sorted((SRC / "proxate").rglob("*.py")):
        src_digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_build = None
    cpuinfo = _read_text("/proc/cpuinfo") or ""
    model = re.search(r"^model name\s*:\s*(.*)$", cpuinfo, re.MULTILINE)
    nproc = len(os.sched_getaffinity(0))
    return {
        "commit": commit,
        "src_sha256": src_digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_build,
        "blas_threads": _blas_threads(nproc),
        "nproc": nproc,
        "cpu_model": model.group(1) if model else None,
        "l3_cache": _read_text("/sys/devices/system/cpu/cpu0/cache/index3/size"),
        "work_dir_fs": _fs_type(workdir),
    }


def _summary(values: list[float]) -> dict:
    if not values:
        return {"n": 0}
    quartiles = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": quartiles[0], "q3": quartiles[2],
            "n": len(values)}


def run(args) -> dict:
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import proxate as px
    import_in_process_s = time.perf_counter() - start
    if Path(px.__file__).resolve().parent != SRC / "proxate":
        raise RuntimeError(f"imported proxate from {px.__file__}, not {SRC / 'proxate'}")
    import spans

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "seconds": args.seconds, "env": _environment(workdir),
                  "import_in_process_s": import_in_process_s}
        workload = WORKLOADS[args.workload](px, args.seed, workdir)

        setup_samples = []
        setup_start = time.perf_counter()
        while len(setup_samples) < SETUP_REPEATS or (
            len(setup_samples) < SETUP_MAX
            and time.perf_counter() - setup_start < SETUP_MIN_SECONDS
        ):
            imported = _import_seconds()
            start = time.perf_counter()
            workload.build()
            setup_samples.append(imported + time.perf_counter() - start)
        detail["setup_s_samples"] = setup_samples

        tracer = spans.Tracer() if args.trace else None
        ops = []  # dicts: index, traced, calls, artifacts, error
        loop_start = time.perf_counter()
        while not ops or time.perf_counter() - loop_start < args.seconds or (
            tracer is not None and len(ops) < 2
        ):
            i = len(ops)
            traced = tracer is not None and i % 2 == 1
            op = {"index": i, "traced": traced, "calls": {}, "artifacts": None, "error": None}
            try:
                with tracer.patched(i) if traced else contextlib.nullcontext():
                    op["calls"], op["artifacts"] = workload.op(i)
            except Exception as exc:  # an op boundary: record it and keep measuring
                traceback.print_exc(file=sys.stderr)
                op["error"] = f"{type(exc).__name__}: {exc}"
            ops.append(op)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        # Check the first completed op against the library; every other op
        # must have written the same bytes (the determinism contract).
        done = [op for op in ops if op["error"] is None]
        if done:
            try:
                workload.check(done[0]["artifacts"])
                problem = None
            except Exception as exc:  # any failure of the check fails the ops
                traceback.print_exc(file=sys.stderr)
                problem = f"check failed: {type(exc).__name__}: {exc}"
            for op in done:
                if problem is not None:
                    op["error"] = problem
                elif op["artifacts"] != done[0]["artifacts"]:
                    op["error"] = "output differs from the first op's (determinism)"
        passed = [op for op in ops if op["error"] is None]
        failed = len(ops) - len(passed)

        measured = [op for op in passed if not op["traced"]]
        op_times = [sum(op["calls"].values()) for op in measured]
        detail["ops"] = {"attempted": len(ops), "failed": failed,
                         "errors": sorted({op["error"] for op in ops if op["error"]})}
        detail["op_s"] = _summary(op_times)
        detail["calls"] = {name: _summary([op["calls"][name] for op in measured])
                           for name in (measured[0]["calls"] if measured else ())}
        if workload.rate is not None:
            name, work = workload.rate
            detail[name] = _summary([work / t for t in op_times])
        detail["peak_rss_mb"] = peak_rss_mb

        if tracer is None:
            metrics = {
                "setup_s": (statistics.median(setup_samples), "s"),
                "op_s": (statistics.median(op_times) if op_times else 0.0, "s"),
                "peak_rss_mb": (peak_rss_mb, "MiB"),
                "success_ratio": (len(passed) / len(ops), "ratio"),
            }
        else:
            traced_ops = [op for op in passed if op["traced"]]
            traced_s = [sum(op["calls"].values()) for op in traced_ops]
            values = spans.summarize(tracer, [op["index"] for op in traced_ops], traced_s,
                                     op_times)
            metrics = {name: (values[name], unit) for name, (unit, _) in spans.PER_LAYER.items()}
            detail["missing_layers"] = tracer.missing
            detail["traced_op_s"] = _summary(traced_s)
            detail["layer_moves"] = {name: moves for name, (_, moves) in spans.PER_LAYER.items()}
            OUT.mkdir(exist_ok=True)
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
            spans_path.write_text(json.dumps(tracer.to_json()))
            detail["spans_file"] = str(spans_path.relative_to(ROOT))
        print(json.dumps(detail, sort_keys=True))
        return {
            "correct": failed == 0,
            "attempted": len(ops),
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "proxate" / "__init__.py").is_file():
        print(f"error: {SRC / 'proxate'} not found; run from a proxate checkout",
              file=sys.stderr)
        return 2
    try:
        result = run(args)
    except Exception:  # set-up or environment failure: no result line
        traceback.print_exc(file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
