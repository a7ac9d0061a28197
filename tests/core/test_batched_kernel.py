"""The batched GEMM kernel: its bytes, its contract and its thread budget.

``batched_columns`` walks ``Z`` in the exact kernel's row blocks over
the same kernel pool, with every loaded OpenBLAS held at one thread for
the whole call (docs/algorithm.md, "Evaluating Eq. 12").  These tests
pin four things: the fan-out never changes its bytes, its answers stay
within ``batched_query_atol`` of the exact kernel, no block runs with
more than one BLAS thread, and the prior thread count is back after
every call — also when a block raises and when many threads mix exact
and batched calls.  Sharded batched answers keep the same contract.
"""

import sys
import threading

import numpy as np
import pytest

import repro.core.kernel as kernel_module
import repro.linalg.blas as blas
from repro.core.index import CSRPlusIndex
from repro.core.kernel import batched_columns, batched_query_atol, exact_columns
from repro.graphs import chung_lu
from repro.linalg.blas import blas_threads
from repro.sharding import ShardedIndex, shard_index

RANK = 4
SEEDS = [5, 0, 17, 3, 59, 5]


@pytest.fixture(scope="module")
def index():
    return CSRPlusIndex(chung_lu(60, 240, seed=3), rank=RANK).prepare()


@pytest.fixture
def pool_of_three(monkeypatch):
    """A fresh three-thread kernel pool, whatever the CPU count."""
    monkeypatch.setattr(kernel_module, "available_cpus", lambda: 3)
    monkeypatch.setattr(kernel_module, "_pool", None)
    yield
    if kernel_module._pool is not None:
        kernel_module._pool.shutdown()


@pytest.fixture
def two_blas_threads():
    """Every loaded OpenBLAS at two threads, so a pin is visible."""
    controls = blas._find_controls()
    if not controls:
        pytest.skip("no OpenBLAS thread control in this process")
    before = [getter() for getter, _ in controls]
    for _, setter in controls:
        setter(2)
    yield 2
    for (_, setter), count in zip(controls, before):
        setter(count)


@pytest.fixture
def recorded_blocks(monkeypatch):
    """``blas_threads()`` as read inside every block GEMM."""
    reads = []
    matmul = np.matmul

    def recording_matmul(*args, **kwargs):
        reads.append(blas_threads())
        return matmul(*args, **kwargs)

    monkeypatch.setattr(np, "matmul", recording_matmul)
    return reads


def _factors(index, seeds):
    u_matrix, _, _, z_matrix = index.factors
    return z_matrix, u_matrix[seeds, :]


def _batched(z_rows, u_rows, damping, workers):
    out = np.empty((z_rows.shape[0], u_rows.shape[0]), order="F")
    return batched_columns(z_rows, u_rows, damping, out, workers)


def _force_block_rows(monkeypatch, rows):
    monkeypatch.setattr(kernel_module, "KERNEL_BLOCK_BYTES", rows * RANK * 8)


@pytest.mark.usefixtures("pool_of_three")
def test_fan_out_keeps_bytes_and_the_contract(index, monkeypatch):
    z_rows, u_rows = _factors(index, SEEDS)
    n = index.num_nodes
    exact = exact_columns(
        z_rows, u_rows, index.damping, np.empty((n, len(SEEDS)), order="F")
    )
    atol = batched_query_atol(RANK, z_rows.dtype)
    for block_rows in sorted({1, 2, 7, n}):
        _force_block_rows(monkeypatch, block_rows)
        serial = _batched(z_rows, u_rows, index.damping, 1)
        assert np.max(np.abs(serial - exact)) <= atol
        for workers in (2, 3):
            fanned = _batched(z_rows, u_rows, index.damping, workers)
            assert fanned.tobytes() == serial.tobytes()


@pytest.mark.usefixtures("pool_of_three")
@pytest.mark.parametrize("workers", [1, 3])
def test_every_block_runs_at_one_blas_thread(
    index, monkeypatch, two_blas_threads, recorded_blocks, workers
):
    _force_block_rows(monkeypatch, 7)
    z_rows, u_rows = _factors(index, SEEDS)
    _batched(z_rows, u_rows, index.damping, workers)
    assert len(recorded_blocks) == -(-index.num_nodes // 7)
    assert set(recorded_blocks) == {1}
    assert blas_threads() == two_blas_threads


@pytest.mark.usefixtures("pool_of_three")
@pytest.mark.parametrize("workers", [1, 3])
def test_a_raising_block_restores_the_count(
    index, monkeypatch, two_blas_threads, workers
):
    _force_block_rows(monkeypatch, 7)
    reads, calls = [], []
    matmul = np.matmul

    def failing_matmul(*args, **kwargs):
        calls.append(None)
        reads.append(blas_threads())
        if len(calls) == 3:
            raise RuntimeError("block failed")
        return matmul(*args, **kwargs)

    monkeypatch.setattr(np, "matmul", failing_matmul)
    z_rows, u_rows = _factors(index, SEEDS)
    with pytest.raises(RuntimeError, match="block failed"):
        _batched(z_rows, u_rows, index.damping, workers)
    assert blas_threads() == two_blas_threads
    # a block task still running after the call would read the
    # restored count; let every task finish before looking
    if kernel_module._pool is not None:
        kernel_module._pool.shutdown(wait=True)
    assert len(calls) >= 3
    assert set(reads) == {1}


@pytest.mark.timeout(120)
@pytest.mark.usefixtures("pool_of_three")
def test_threads_mixing_exact_and_batched_calls(
    index, monkeypatch, two_blas_threads, recorded_blocks
):
    monkeypatch.setattr(kernel_module, "FAN_OUT_MIN_ENTRIES", 0)
    _force_block_rows(monkeypatch, 7)
    expected = {
        mode: index.query_columns(SEEDS, mode=mode).tobytes()
        for mode in ("exact", "batched")
    }
    recorded_blocks.clear()
    mismatches = []
    start = threading.Barrier(8)

    def caller(mode):
        start.wait()
        for _ in range(20):
            if index.query_columns(SEEDS, mode=mode).tobytes() != expected[mode]:
                mismatches.append(mode)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=caller, args=(mode,))
            for mode in ("exact", "batched") * 4
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    assert not mismatches
    assert len(recorded_blocks) == 4 * 20 * -(-index.num_nodes // 7)
    assert set(recorded_blocks) == {1}
    assert blas_threads() == two_blas_threads


@pytest.mark.parametrize("num_shards", [1, 3, 8])
@pytest.mark.parametrize("max_workers", [1, None])
def test_sharded_batched_answers_keep_the_contract(
    index, tmp_path, num_shards, max_workers
):
    store = shard_index(index, tmp_path / "store", num_shards=num_shards)
    atol = batched_query_atol(RANK, index.dtype)
    exact = index.query_columns(SEEDS, mode="exact")
    monolithic = index.query_columns(SEEDS, mode="batched")
    with ShardedIndex(store, max_workers=max_workers) as sharded:
        answer = sharded.query_columns(SEEDS, mode="batched")
    assert answer.dtype == monolithic.dtype
    assert np.max(np.abs(answer - monolithic)) <= atol
    assert np.max(np.abs(answer - exact)) <= atol
