"""The forked map's OpenBLAS thread count: one thread in each worker, and
the parent's count restored on every exit from the map."""

from __future__ import annotations

import os

import numpy as np
import pytest

from proxate import _fork

from conftest import assert_no_child_left, blas_threads, pin_workers

pytestmark = pytest.mark.skipif(
    not os.path.isdir("/proc/self/task") or _fork._openblas_num_threads() is None,
    reason="needs /proc/self/task and OpenBLAS",
)


def _threads_after_blas(item: int) -> bytes:
    """This process's OS threads and OpenBLAS thread count, after a QR big
    enough for OpenBLAS to run on several threads."""
    np.linalg.qr(np.random.default_rng(item).standard_normal((400_000, 8)), mode="r")
    return f"{len(os.listdir('/proc/self/task'))} {blas_threads()}".encode()


def test_workers_run_one_thread(monkeypatch, blas_at_two):
    pin_workers(monkeypatch, 2)
    with _fork.ordered_map(_threads_after_blas, range(4)) as results:
        assert [bytes(r) for r in results] == [b"1 1"] * 4
    assert_no_child_left()
    assert blas_threads() == 2


def test_no_openblas_leaves_the_count(monkeypatch, blas_at_two):
    # Workers pinned where no OpenBLAS is found: the map runs and neither
    # sets nor restores a count.
    pin_workers(monkeypatch, 2)
    with monkeypatch.context() as m:
        m.setattr(_fork, "_openblas_num_threads", lambda: None)
        with _fork.ordered_map(lambda i: bytes([i]), range(4)) as results:
            assert [bytes(r) for r in results] == [bytes([i]) for i in range(4)]
    assert_no_child_left()
    assert blas_threads() == 2
