"""Fan-out query engine over a node-range shard store.

:class:`ShardedIndex` implements the :meth:`query_columns` contract of
:class:`~repro.core.index.CSRPlusIndex` on top of a
:class:`~repro.sharding.store.ShardStore`, without ever holding the
monolithic factors:

1. **route** — seeds are mapped to the shards owning their ``U`` rows
   (:class:`~repro.sharding.router.ShardRouter`) and the query vectors
   are gathered from just those shards;
2. **fan out** — every shard contributes its output row block
   ``[start, stop)``: per-shard tasks run on a thread pool and write
   disjoint row ranges of one Fortran-ordered result;
3. **concatenate** — the identity term is scattered into the assembled
   block, exactly as the monolithic path does.

Exactness: in ``"exact"`` mode each shard evaluates the same
partition-stable kernel (:func:`~repro.core.index.exact_columns`)
the monolithic index uses, and that kernel's output for row ``x``
depends only on ``Z[x]`` and the query vector — so the concatenation
is ``np.array_equal`` to the monolithic answer for any shard layout
(docs/sharding.md has the argument).  ``"batched"`` mode runs one GEMM
per shard and inherits the documented
:func:`~repro.core.index.batched_query_atol` tolerance contract.

Robustness: shard reads (the ``shard.read`` chaos seam) are retried
once by default; a shard that stays unreadable or fails validation
raises the typed :class:`~repro.errors.ShardCorrupted` — a poisoned
shard never degrades to silently wrong rows.  Under
:class:`~repro.serving.CoSimRankService` that error surfaces through
the existing per-seed isolation and typed-outcome machinery unchanged.

Observability: queries emit ``shard.query`` spans with one
``shard.query.block`` child per shard and ``shard.load`` spans for
store reads, plus ``csrplus_shard_*`` counters/gauges on the process
global (or an injected) metrics registry.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, Optional, Union

import numpy as np

import repro.obs as obs
from repro.core.config import QUERY_MODES, CSRPlusConfig
from repro.core.index import exact_columns
from repro.errors import InvalidParameterError, ShardCorrupted
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer
from repro.sharding.router import ShardRouter
from repro.sharding.store import Shard, ShardStore

__all__ = ["ShardedIndex"]


class ShardedIndex:
    """Query engine over mmap-ed node-range shards of ``Z`` and ``U``.

    Implements the backend surface :class:`~repro.serving.
    CoSimRankService` needs (``prepare()``, ``num_nodes``, ``dtype``,
    ``config``, ``query_columns``), so the serving layer's cache,
    deadlines, retries, load shedding, fault seams, and metrics all
    work unchanged over a sharded store.

    Parameters
    ----------
    store:
        A :class:`~repro.sharding.store.ShardStore` or the path of a
        store directory.
    query_mode:
        Default evaluation mode (``"exact"``/``"batched"``); ``None``
        uses ``"exact"``, mirroring :class:`~repro.core.config.
        CSRPlusConfig`.
    max_workers:
        Thread count for the per-shard fan-out.  ``None`` (default)
        uses ``min(num_shards, os.cpu_count())``; ``1`` computes every
        shard serially on the calling thread (no executor is created).
    mmap:
        Memory-map shard files (default) so only the pages a query
        touches become resident; ``False`` reads shards fully.
    validate_reads:
        Re-hash every shard against its manifest digest on load
        (opt-in, like the column cache's checksum validation): detects
        in-flight corruption at the cost of touching every page.
    read_retries:
        How many times a failed shard load is retried before the typed
        :class:`~repro.errors.ShardCorrupted` is raised.

    Examples
    --------
    >>> import numpy as np, tempfile
    >>> from repro.core.index import CSRPlusIndex
    >>> from repro.graphs import ring
    >>> from repro.sharding import ShardedIndex, shard_index
    >>> index = CSRPlusIndex(ring(9), rank=3).prepare()
    >>> store = shard_index(index, tempfile.mkdtemp(), num_shards=4)
    >>> sharded = ShardedIndex(store, max_workers=1)
    >>> np.array_equal(sharded.query_columns([0, 5]), index.query_columns([0, 5]))
    True
    """

    def __init__(
        self,
        store: Union[ShardStore, str, "os.PathLike[str]"],
        *,
        query_mode: Optional[str] = None,
        max_workers: Optional[int] = None,
        mmap: bool = True,
        validate_reads: bool = False,
        read_retries: int = 1,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ):
        if query_mode is not None and query_mode not in QUERY_MODES:
            raise InvalidParameterError(
                f"query_mode must be one of {QUERY_MODES} (or None), "
                f"got {query_mode!r}"
            )
        if max_workers is not None and max_workers < 1:
            raise InvalidParameterError(
                f"max_workers must be >= 1 (or None for auto), got {max_workers}"
            )
        if read_retries < 0:
            raise InvalidParameterError(
                f"read_retries must be >= 0, got {read_retries}"
            )
        if not isinstance(store, ShardStore):
            store = ShardStore(store)
        self._store = store
        self._router = ShardRouter(store.boundaries)
        manifest = store.manifest
        self.config = CSRPlusConfig(
            damping=manifest.damping,
            rank=manifest.rank,
            epsilon=manifest.epsilon,
            dtype=manifest.dtype,
            query_mode=query_mode or "exact",
        )
        self.max_workers = int(
            max_workers
            if max_workers is not None
            else min(store.num_shards, os.cpu_count() or 1)
        )
        self._mmap = bool(mmap)
        self._validate_reads = bool(validate_reads)
        self._read_retries = int(read_retries)
        self._shards: Dict[int, Shard] = {}
        self._cache_lock = threading.Lock()
        self._executor: Optional[ThreadPoolExecutor] = None
        self._executor_lock = threading.Lock()
        self._closed = False

        self._tracer = tracer if tracer is not None else obs.get_tracer()
        reg = metrics if metrics is not None else obs.get_registry()
        self._m_queries = reg.counter(
            "csrplus_shard_queries_total",
            "query_columns calls answered by sharded indexes",
        )
        self._m_columns = reg.counter(
            "csrplus_shard_columns_total",
            "Similarity columns served from sharded stores",
        )
        self._m_tasks = reg.counter(
            "csrplus_shard_tasks_total",
            "Per-shard row-block compute tasks executed",
        )
        self._m_loads = reg.counter(
            "csrplus_shard_loads_total", "Shard loads from disk"
        )
        self._m_read_retries = reg.counter(
            "csrplus_shard_read_retries_total",
            "Shard loads retried after a read failure",
        )
        self._m_read_failures = reg.counter(
            "csrplus_shard_read_failures_total",
            "Shard loads that stayed failed after the retry budget",
        )
        self._m_shard_count = reg.gauge(
            "csrplus_shard_count", "Shards in the store being served"
        )
        self._m_shard_count.set(store.num_shards)
        self._m_resident = reg.gauge(
            "csrplus_shard_resident", "Shards currently opened/cached"
        )

    # ------------------------------------------------------------------
    # backend surface (what CoSimRankService relies on)
    # ------------------------------------------------------------------
    def prepare(self) -> "ShardedIndex":
        """No-op (the offline phase already ran at build time)."""
        return self

    @property
    def num_nodes(self) -> int:
        return self._store.num_nodes

    @property
    def num_shards(self) -> int:
        return self._store.num_shards

    @property
    def dtype(self) -> np.dtype:
        return self._store.dtype

    @property
    def damping(self) -> float:
        return self.config.damping

    @property
    def rank(self) -> int:
        return self.config.rank

    @property
    def router(self) -> ShardRouter:
        return self._router

    @property
    def store(self) -> ShardStore:
        return self._store

    def resident_shards(self) -> int:
        """How many shards are currently loaded/cached."""
        with self._cache_lock:
            return len(self._shards)

    # ------------------------------------------------------------------
    # shard access with retry
    # ------------------------------------------------------------------
    def _get_shard(self, index: int) -> Shard:
        with self._cache_lock:
            shard = self._shards.get(index)
        if shard is not None:
            return shard
        shard = self._load_with_retry(index)
        with self._cache_lock:
            self._shards.setdefault(index, shard)
            self._m_resident.set(len(self._shards))
        return shard

    def _load_with_retry(self, index: int) -> Shard:
        last: Optional[BaseException] = None
        for attempt in range(self._read_retries + 1):
            try:
                with self._tracer.span(
                    "shard.load", shard=index, attempt=attempt
                ):
                    shard = self._store.load_shard(
                        index, mmap=self._mmap, validate=self._validate_reads
                    )
                self._m_loads.inc()
                return shard
            except (OSError, ShardCorrupted) as exc:
                last = exc
                if attempt < self._read_retries:
                    self._m_read_retries.inc()
        self._m_read_failures.inc()
        if isinstance(last, ShardCorrupted):
            raise last
        raise ShardCorrupted(
            self._store.path,
            index,
            f"unreadable after {self._read_retries + 1} attempt(s): {last}",
        ) from last

    def drop_shard_cache(self) -> None:
        """Forget loaded shards (the next query re-reads from disk)."""
        with self._cache_lock:
            self._shards.clear()
            self._m_resident.set(0)

    # ------------------------------------------------------------------
    # blockwise top-k surface (consumed by repro.core.topk)
    # ------------------------------------------------------------------
    def topk_block_plan(self):
        """Shards as candidate blocks: ``(shard_id, start, stop, bound)``.

        A shard is the natural row-block of the blockwise top-k kernel
        (:func:`~repro.core.topk.top_k_blockwise`): ``bound`` is the
        manifest's precomputed ``z_norm_max``, so the kernel can order
        blocks and skip cold shards *without reading them*.  ``None``
        stands in for manifests written before the field existed (bound
        unknown: the kernel must load and scan those shards).
        """
        plan = []
        for meta in self._store.manifest.shards:
            bound = meta.z_norm_max if meta.z_norm_max >= 0.0 else None
            plan.append((meta.index, meta.start, meta.stop, bound))
        return plan

    def load_topk_block(self, shard_id: int) -> np.ndarray:
        """The ``Z`` rows of one block, via the retrying shard loader.

        Shares :meth:`_get_shard`'s cache, retry budget, and typed
        :class:`~repro.errors.ShardCorrupted` error path, so a poisoned
        shard surfaces to the top-k caller exactly as it does to
        :meth:`query_columns` — never as silently wrong rankings.
        """
        return self._get_shard(int(shard_id)).z

    def gather_u_rows(self, seeds) -> np.ndarray:
        """``U[seeds, :]`` gathered from owner shards only (seed order)."""
        return self._gather_rows(seeds, "u")

    def gather_z_rows(self, seeds) -> np.ndarray:
        """``Z[seeds, :]`` gathered from owner shards only (seed order)."""
        return self._gather_rows(seeds, "z")

    def _gather_rows(self, seeds, which: str) -> np.ndarray:
        routed = self._router.plan(seeds)
        rows = np.empty((int(routed.seed_ids.size), self.rank), dtype=self.dtype)
        for s in routed.gather_shards:
            shard = self._get_shard(s)
            mask = routed.owners == s
            block = shard.u if which == "u" else shard.z
            rows[mask] = block[routed.local_rows[mask], :]
        return rows

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def query_columns(self, seeds, mode: Optional[str] = None) -> np.ndarray:
        """Similarity columns ``[S]_{*, seeds[j]}``, assembled shard-wise.

        Same contract as :meth:`~repro.core.index.CSRPlusIndex.
        query_columns`: ``"exact"`` mode reproduces the monolithic
        bytes (``np.array_equal``), ``"batched"`` mode is within
        :func:`~repro.core.index.batched_query_atol` of exact.
        """
        if mode is None:
            mode = self.config.query_mode
        if mode not in QUERY_MODES:
            raise InvalidParameterError(
                f"query mode must be one of {QUERY_MODES}, got {mode!r}"
            )
        routed = self._router.plan(seeds)
        seed_ids = routed.seed_ids
        n, k = self.num_nodes, int(seed_ids.size)
        out = np.empty((n, k), dtype=self.dtype, order="F")
        self._m_queries.inc()
        if k == 0:
            return out
        with self._tracer.span(
            "shard.query",
            seeds=k,
            shards=self.num_shards,
            query_mode=mode,
        ) as query_span:
            # gather: the batch's query vectors, from owner shards only
            u_rows = np.empty((k, self.rank), dtype=self.dtype)
            for s in routed.gather_shards:
                shard = self._get_shard(s)
                mask = routed.owners == s
                u_rows[mask] = shard.u[routed.local_rows[mask], :]

            damping = self.damping

            def run_block(shard_id: int) -> None:
                shard = self._get_shard(shard_id)
                # Explicit parent: worker threads have no open span, so
                # the block spans nest under this query instead of
                # becoming disconnected roots (service.py pattern).
                with self._tracer.span(
                    "shard.query.block",
                    parent=query_span,
                    shard=shard_id,
                    rows=shard.num_rows,
                ):
                    block = out[shard.start : shard.stop, :]
                    if mode == "batched":
                        partial = shard.z @ u_rows.T
                        partial *= damping
                        block[:] = partial
                    else:
                        exact_columns(shard.z, u_rows, damping, block)
                self._m_tasks.inc()

            # fan out: disjoint output row ranges, safe to fill in
            # parallel from many threads
            if self.max_workers == 1 or self.num_shards == 1:
                for shard_id in range(self.num_shards):
                    run_block(shard_id)
            else:
                futures = [
                    self._get_executor().submit(run_block, shard_id)
                    for shard_id in range(self.num_shards)
                ]
                for future in futures:
                    future.result()

            # identity term, after assembly — elementwise identical to
            # the monolithic path's per-column `column[seed] += 1.0`
            out[seed_ids, np.arange(k)] += 1.0
        self._m_columns.inc(k)
        return out

    def query(self, queries) -> np.ndarray:
        """``n x |Q|`` similarity block; mirrors ``CSRPlusIndex.query``."""
        from repro.core.base import normalize_queries

        query_ids = normalize_queries(queries, self.num_nodes)
        unique_ids, inverse = np.unique(query_ids, return_inverse=True)
        if unique_ids.size == query_ids.size:
            return self.query_columns(query_ids)
        return self.query_columns(unique_ids)[:, inverse]

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _get_executor(self) -> ThreadPoolExecutor:
        with self._executor_lock:
            if self._closed:
                raise InvalidParameterError("sharded index is closed")
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=self.max_workers,
                    thread_name_prefix="cosimrank-shard",
                )
            return self._executor

    def close(self) -> None:
        """Shut down the fan-out pool and drop cached shards (idempotent)."""
        with self._executor_lock:
            self._closed = True
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)
        self.drop_shard_cache()

    def __enter__(self) -> "ShardedIndex":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardedIndex(path={self._store.path!r}, n={self.num_nodes}, "
            f"shards={self.num_shards}, rank={self.rank}, "
            f"max_workers={self.max_workers})"
        )
