"""The shared exact-kernel pool survives ``fork``.

Frontend workers are forked from a process that may already have used
the kernel pool.  A forked child inherits the pool object but none of
its threads, so the pool must be dropped in the child; otherwise the
child's first fanned-out query waits forever.
"""

import multiprocessing
import os
import threading

import numpy as np
import pytest

import repro.core.index as index_module
from repro.core.index import CSRPlusIndex
from repro.graphs import chung_lu

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods()
    or not hasattr(os, "register_at_fork"),
    reason="needs the fork start method",
)

SEEDS = [5, 0, 17, 3]


def _child(index, conn) -> None:
    # the inherited pool must be gone before the child's first query
    if index_module._pool is not None:
        os._exit(3)
    conn.send_bytes(index.query_columns(SEEDS).tobytes())
    conn.close()


@pytest.mark.filterwarnings("ignore::DeprecationWarning")
def test_forked_child_fans_out_with_the_parents_bytes(monkeypatch):
    index = CSRPlusIndex(chung_lu(60, 240, seed=3), rank=4).prepare()
    # force fan-out in parent and (inherited) child
    monkeypatch.setattr(index_module, "FAN_OUT_MIN_ENTRIES", 0)
    monkeypatch.setattr(index_module, "KERNEL_BLOCK_BYTES", 7 * 4 * 8)
    monkeypatch.setattr(index_module, "available_cpus", lambda: 2)
    monkeypatch.setattr(index_module, "_pool", None)  # a fresh 2-thread pool
    expected = index.query_columns(SEEDS)
    pool = index_module._pool
    # warm: start both threads, so an inherited pool would count two
    # idle threads that do not exist in the child and start none
    barrier = threading.Barrier(2)
    for future in [pool.submit(barrier.wait, 30) for _ in range(2)]:
        future.result()

    context = multiprocessing.get_context("fork")
    receiver, sender = context.Pipe(duplex=False)
    child = context.Process(target=_child, args=(index, sender))
    child.start()
    sender.close()
    try:
        payload = receiver.recv_bytes() if receiver.poll(30) else None
    except EOFError:  # the child exited without answering
        payload = None
    finally:
        child.join(30)
        if child.is_alive():  # hung on the inherited pool
            child.kill()
            child.join()
        pool.shutdown()
    assert child.exitcode == 0
    assert payload == expected.tobytes()


def test_fan_out_rule_follows_size_and_affinity(monkeypatch):
    monkeypatch.setattr(index_module, "available_cpus", lambda: 4)
    rows = index_module.kernel_block_rows(16, 8)
    small = index_module.FAN_OUT_MIN_ENTRIES - 1
    assert index_module.kernel_workers(small, 1, 16, 8) == 1
    assert index_module.kernel_workers(10 * rows, 0, 16, 8) == 1
    # capped by the CPUs, then by the number of row blocks
    big = max(10 * rows, index_module.FAN_OUT_MIN_ENTRIES)
    assert index_module.kernel_workers(big, 1, 16, 8) == 4
    assert index_module.kernel_workers(2 * rows, big, 16, 8) == 2
    monkeypatch.setattr(index_module, "available_cpus", lambda: 1)
    assert index_module.kernel_workers(big, 64, 16, 8) == 1
