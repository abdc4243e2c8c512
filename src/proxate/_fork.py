"""An ordered map over forked worker processes, one per CPU.

The CSV codec (row chunks to format, byte ranges to parse) and the Monte
Carlo harness (replications) share it. ``ordered_map(fn, items)`` gives
``fn(item)`` for each item in item order, where ``fn`` returns a
bytes-like object. With W workers, worker k runs items k, k + W, ... and
writes each result, length first, to its own pipe. The parent reads each
pipe as a buffered file and the results in item order, each into one
buffer with one ``readinto``, which comes back short only where the
worker closed its pipe without writing it all. A worker blocks
once its pipe is full, so it runs at most one result ahead, and the
parent queues nothing and starts no thread.

Workers are forked, not spawned: a spawned worker imports numpy and
proxate again (about 0.2 s, a third of a 10-replication study at
n = 4e4), and a forked one sees the parent's arrays without a copy.
OpenBLAS, the one library here that starts threads, stops its own
thread pool around fork. One worker per CPU already fills the CPUs, so
the map sets OpenBLAS to one thread in the parent before the first fork,
and restores the parent's count on every exit; each worker inherits the
one thread and starts no pool. A worker does not set the count itself:
after fork the setter re-creates the stopped pool, whose helper thread
spins for work (tens of milliseconds of CPU) before it sleeps, and would
make each worker's first item 2-3x slower than its later ones. A worker
that ends without its result (killed, out of memory, or any exception in
``fn``, whose traceback it prints to stderr) is a ``ProxateError`` naming
its exit status or signal; on any exit from the map, workers still
running are killed and every worker is reaped.
"""

from __future__ import annotations

import mmap
import os
import signal
import sys
import traceback
from contextlib import contextmanager
from functools import cache

from .errors import ProxateError

_LENGTH_BYTES = 8  # the length in front of each result, little-endian


@cache
def _openblas_num_threads():
    """The loaded OpenBLAS's ``get_num_threads`` and ``set_num_threads``,
    or None if none is found."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                getter = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                setter = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
                if getter is not None and setter is not None:
                    getter.argtypes, getter.restype = [], ctypes.c_int
                    setter.argtypes, setter.restype = [ctypes.c_int], None
                    return getter, setter
    return None


def _workers(n_items: int) -> int:
    """Worker processes for a map: one per CPU this process may run on,
    at most one per item. 1 (in-process) where workers cannot be forked
    or held to one OpenBLAS thread, which the map sets in the parent before
    it forks: workers that keep several threads each oversubscribe the
    CPUs and run slower than one process."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    workers = min(len(os.sched_getaffinity(0)), n_items)
    return workers if workers > 1 and _openblas_num_threads() is not None else 1


@contextmanager
def ordered_map(fn, items):
    """An iterator over ``fn(item)`` for each of the sequence ``items``, in
    order: the builtin ``map`` with one worker, else forked workers'."""
    workers = _workers(len(items))
    if workers == 1:
        yield map(fn, items)
        return
    # None only where a test pins the workers: then the count is left alone.
    get_threads, set_threads = _openblas_num_threads() or (None, None)
    blas_threads = get_threads() if get_threads else None
    pipes, pids = [], []  # each worker's read end, as a buffered file, and its pid

    def read(k: int, buf):
        """Fill ``buf`` from worker k's pipe; a short read is the worker's end."""
        if pipes[k].readinto(buf) == len(buf):  # short only at end of file
            return buf
        pid = pids.pop(k)  # reaped here, so not killed below
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        end = f"exit status {code}" if code >= 0 else f"signal {signal.Signals(-code).name}"
        raise ProxateError(f"worker process {pid} ended without its result ({end})")

    def results():
        for i in range(len(items)):
            k = i % workers
            size = int.from_bytes(read(k, bytearray(_LENGTH_BYTES)), "little")
            # An anonymous mapping, not the heap: a freed result of a few
            # MiB raises malloc's mmap threshold, and the heap then keeps
            # later large arrays, which fragments it and raises peak RSS.
            yield read(k, mmap.mmap(-1, size) if size else bytearray())

    try:
        if set_threads:
            set_threads(1)  # inherited by each worker, which then starts no pool
        for k in range(workers):
            r, w = os.pipe()
            pipes.append(open(r, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    _serve(fn, items[k::workers], w, pipes)
            finally:
                os.close(w)
            pids.append(pid)
        yield results()
    finally:
        # Kill before closing the pipes: a worker writing to a closed pipe prints a traceback.
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for fh in pipes:
            fh.close()
        if set_threads:
            set_threads(blas_threads)


def _serve(fn, items, out: int, pipes: list) -> None:
    """A worker's whole life: write ``fn(item)`` for each item to ``out``,
    then exit. It never returns into the parent's frames it was forked
    from, so every exception ends here, printed, as exit status 1. It
    runs with the one OpenBLAS thread the parent set before forking and
    calls no setter, which would re-create the pool stopped at fork."""
    status = 1
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent stops workers on Ctrl-C
        for fh in pipes:  # read ends: the parent's alone
            fh.close()
        with open(out, "wb") as fh:
            for item in items:
                result = memoryview(fn(item)).cast("B")
                fh.write(len(result).to_bytes(_LENGTH_BYTES, "little"))
                fh.write(result)
                fh.flush()
        status = 0
    except BaseException:  # not re-raised: the worker exits below, never returns
        traceback.print_exc()
        sys.stderr.flush()
    finally:
        os._exit(status)
