"""The online query kernel: ``[S]_{*,Q} = [I]_{*,Q} + c * Z @ U[Q,:]^T``.

Everything a prepared CSR+ answer needs at query time, and nothing the
offline phase needs: the partition-stable exact kernel
(:func:`exact_columns`, :func:`exact_column_product`), the batched GEMM
kernel (:func:`batched_columns`), their shared block and
thread-fan-out rules, the batched-mode tolerance
(:func:`batched_query_atol`) and query-id validation
(:func:`normalize_queries`).  The module imports only numpy, the
standard library and the ctypes-only :mod:`repro.linalg.blas`, so the
online stack built on it — top-k, sharded stores, the serving service
and the HTTP frontend's processes — never loads scipy, which stays
behind prepare, build and repair (docs/frontend.md, "Boot and memory").
"""

from __future__ import annotations

import itertools
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Callable, Optional, Sequence, Union

import numpy as np

from repro.errors import QueryError
from repro.linalg.blas import single_threaded_blas

__all__ = [
    "FAN_OUT_MIN_ENTRIES",
    "KERNEL_BLOCK_BYTES",
    "QueryLike",
    "available_cpus",
    "batched_query_atol",
    "exact_column_product",
    "exact_columns",
    "kernel_block_rows",
    "kernel_workers",
    "normalize_queries",
]

QueryLike = Union[int, Sequence[int], np.ndarray]


def normalize_queries(queries: QueryLike, num_nodes: int) -> np.ndarray:
    """Validate a query specification and return it as an int64 array.

    Accepts a single node id or a sequence of ids.  Duplicates are
    allowed (the result has one column per requested query, in order).
    """
    if np.isscalar(queries):
        arr = np.asarray([queries], dtype=np.int64)
    else:
        arr = np.asarray(list(np.atleast_1d(queries)), dtype=np.int64)
    if arr.ndim != 1 or arr.size == 0:
        raise QueryError("query set must contain at least one node id")
    if arr.min() < 0 or arr.max() >= num_nodes:
        raise QueryError(
            f"query ids must be in [0, {num_nodes}), got range "
            f"[{arr.min()}, {arr.max()}]"
        )
    return arr


def exact_column_product(z_rows: np.ndarray, u_row: np.ndarray) -> np.ndarray:
    """The canonical exact kernel for one seed: ``z_rows @ u_row``.

    ``np.einsum`` with ``optimize=False`` reduces each output row with
    one fixed-order accumulation over its ``r`` products, so the result
    for row ``x`` depends only on ``z_rows[x]`` and ``u_row`` — never on
    which other rows share the call.  BLAS GEMV does not have this
    property: its blocked kernels produce different bits for 1–3-row
    slices than for the full product, so a row-partitioned evaluation
    could not reproduce the monolithic bytes.  Partition stability is
    what lets :class:`~repro.sharding.ShardedIndex` concatenate
    per-shard results into an answer ``np.array_equal`` to the
    monolithic one, for *any* shard layout (docs/sharding.md).

    This is the single-row reference that the serving row patcher and
    the top-k self score use; whole column blocks go through
    :func:`exact_columns`, which computes every entry with the same
    reduction and so returns the same bytes.
    """
    return np.einsum("ij,j->i", z_rows, u_row)


#: Bytes of ``Z`` per kernel block.  A block stays cache-resident while
#: every seed of the call is reduced against it, so ``Z`` streams from
#: memory once per call instead of once per seed.
KERNEL_BLOCK_BYTES = 1 << 18

#: Output entries (``n * |Q|``) from which :meth:`CSRPlusIndex.
#: query_columns` splits its row blocks over the kernel pool; smaller
#: calls stay on the calling thread, where a hand-off would cost more
#: than it saves.
FAN_OUT_MIN_ENTRIES = 1 << 18


def kernel_block_rows(rank: int, itemsize: int) -> int:
    """Rows of ``Z`` per block of :func:`exact_columns` and
    :func:`batched_columns`."""
    return max(1, KERNEL_BLOCK_BYTES // (rank * itemsize))


def available_cpus() -> int:
    """CPUs this process may run on (its affinity mask, where known)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - platforms without affinity
        return max(1, os.cpu_count() or 1)


def kernel_workers(num_rows: int, num_columns: int, rank: int, itemsize: int) -> int:
    """Threads :meth:`CSRPlusIndex.query_columns` uses for one call.

    One for calls under :data:`FAN_OUT_MIN_ENTRIES` output entries,
    otherwise one per available CPU, capped by the number of row
    blocks.  The choice never changes an exact result's bytes.
    """
    if num_columns == 0 or num_rows * num_columns < FAN_OUT_MIN_ENTRIES:
        return 1
    num_blocks = -(-num_rows // kernel_block_rows(rank, itemsize))
    return max(1, min(available_cpus(), num_blocks))


_pool_lock = threading.Lock()
_pool: Optional[ThreadPoolExecutor] = None


def _kernel_pool() -> ThreadPoolExecutor:
    """The process-wide pool every fanned-out kernel call shares.

    Sized to the available CPUs, so the kernel threads of any number of
    concurrent callers never outnumber the cores.
    """
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(
                max_workers=available_cpus(),
                thread_name_prefix="cosimrank-kernel",
            )
        return _pool


def _forget_pool_after_fork() -> None:
    # A forked child inherits the pool object but none of its threads,
    # so a submit would wait forever; the child builds its own.
    global _pool, _pool_lock
    _pool = None
    _pool_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool_after_fork)


def _run_blocks(
    num_rows: int, step: int, run_block: Callable[[int], None], workers: int
) -> None:
    """Call ``run_block(lo)`` for every block start ``lo`` of ``step``
    rows, on the calling thread or over the shared kernel pool.

    With ``workers > 1`` that many pool tasks claim blocks one at a
    time; the calling thread waits until every task has finished, so no
    block outlives the call even when one of them raises.
    """
    num_blocks = -(-num_rows // step)
    workers = min(workers, num_blocks)
    if workers <= 1:
        for lo in range(0, num_rows, step):
            run_block(lo)
        return

    # Each pool thread claims the next unclaimed block until none are
    # left, so a thread that gets less CPU (a busy core) simply does
    # fewer blocks instead of holding up the call.
    claims = itertools.count()

    def drain() -> None:
        for block_id in claims:  # next() on a shared count is atomic
            if block_id >= num_blocks:
                return
            run_block(block_id * step)

    futures = [_kernel_pool().submit(drain) for _ in range(workers)]
    wait(futures)
    for future in futures:
        future.result()


def exact_columns(
    z_rows: np.ndarray,
    u_rows: np.ndarray,
    damping: float,
    out: np.ndarray,
    workers: int = 1,
) -> np.ndarray:
    """``out[:] = damping * z_rows @ u_rows.T``, entry by exact entry.

    Walks ``z_rows`` in blocks of :func:`kernel_block_rows` rows.  Each
    block is one multi-seed ``np.einsum("ij,kj->ik")`` into its slice of
    ``out``, scaled in place.  Entry ``(x, j)`` is the same fixed-order
    reduction of ``z_rows[x]`` against ``u_rows[j]`` that
    :func:`exact_column_product` performs, followed by the same
    multiplication by ``damping``, so it depends on neither the block
    size, the other seeds, nor ``workers``.  With ``workers > 1`` that
    many tasks on the shared kernel pool claim blocks one at a time
    (``np.einsum`` releases the GIL); the calling thread waits.  The
    identity term is the caller's.
    """
    damping = float(damping)

    def run_block(lo: int) -> None:
        block = out[lo : lo + step]
        np.einsum("ij,kj->ik", z_rows[lo : lo + step], u_rows, out=block)
        block *= damping

    step = kernel_block_rows(z_rows.shape[1], z_rows.dtype.itemsize)
    _run_blocks(z_rows.shape[0], step, run_block, workers)
    return out


def batched_columns(
    z_rows: np.ndarray,
    u_rows: np.ndarray,
    damping: float,
    out: np.ndarray,
    workers: int = 1,
) -> np.ndarray:
    """``out[:] = damping * z_rows @ u_rows.T`` as one-thread BLAS GEMMs.

    The batched mode's kernel, and the exact top-k filter's.  It walks
    ``z_rows`` in the blocks of :func:`exact_columns`, with the same
    fan-out over the kernel pool; each block is one ``np.matmul`` into
    its slice of ``out``, scaled in place.  Every loaded OpenBLAS runs
    at one thread for the whole call
    (:func:`~repro.linalg.blas.single_threaded_blas`), so the pool is
    the process's only source of kernel threads: a multi-threaded GEMM
    would leave OpenBLAS threads spinning on the cores the pool's next
    fan-out needs.  Entries agree with :func:`exact_columns` within
    :func:`batched_query_atol`, not bit for bit.
    """
    damping = float(damping)
    u_cols = u_rows.T

    def run_block(lo: int) -> None:
        block = out[lo : lo + step]
        np.matmul(z_rows[lo : lo + step], u_cols, out=block)
        block *= damping

    step = kernel_block_rows(z_rows.shape[1], z_rows.dtype.itemsize)
    with single_threaded_blas():
        _run_blocks(z_rows.shape[0], step, run_block, workers)
    return out


def batched_query_atol(rank: int, dtype) -> float:
    """Tolerance bound between batched-GEMM and per-seed-GEMV columns.

    A batched ``Z @ (U[Q,:])^T`` product and the per-seed GEMV compute
    the same length-``r`` inner products in different summation orders,
    so each entry can differ by at most ~``r`` accumulated roundings of
    values bounded by ``||Z_x|| * ||U_q|| <= 1/(1-c)``.  The bound used
    throughout (tests, serving contract, docs) is

        ``atol = 64 * r * eps(dtype)``

    — a ~20x safety factor over the worst case observed in practice.
    """
    return 64.0 * max(1, int(rank)) * float(np.finfo(np.dtype(dtype)).eps)
