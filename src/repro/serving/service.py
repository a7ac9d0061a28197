"""The concurrent query-serving front-end for a prepared CSR+ index.

:class:`CoSimRankService` answers multi-source CoSimRank requests on
behalf of many callers:

1. **coalesce** — a batch of requests is validated and its seed set
   deduplicated (:func:`~repro.serving.scheduler.plan_batch`);
2. **admit** — the batch's distinct-seed cost is charged against the
   bounded in-flight budget (:class:`~repro.serving.admission.
   SeedBudget`); over budget, the batch is shed with
   :class:`~repro.errors.ServiceOverloaded` instead of queued;
3. **lookup** — distinct seeds are probed in the per-seed
   :class:`~repro.serving.cache.ColumnCache`;
4. **compute** — cache misses are split into chunks and evaluated with
   :meth:`~repro.core.index.CSRPlusIndex.query_columns`, optionally in
   parallel on a ``ThreadPoolExecutor`` (NumPy's BLAS releases the GIL
   during the matrix products, so threads give real speedup);
5. **assemble** — each request's ``n x |Q|`` block is scattered
   together from the column map.

Exactness (``query_mode="exact"``, the default): because a column is a
pure, batch-independent function of its seed (Theorem 3.5 + per-column
evaluation in ``query_columns``), the service's output is
``np.array_equal`` to calling ``index.query(request)`` directly — for
a cold cache, a warm cache, a tiny cache mid-eviction, or no cache at
all.

Batched fast path (``query_mode="batched"``): each miss chunk is
evaluated as one ``Z @ (U[Q,:])^T`` GEMM — far higher column
throughput under heavy multi-source traffic — and the cache stores the
batch-computed columns under a *tolerance-equivalence* contract
instead of the bit-exact one: every served entry is within
:func:`~repro.core.index.batched_query_atol` of the exact value, and a
cache hit replays the exact bytes of the first computation (serving
stays deterministic per cache state, but a column's bits depend on
which seeds shared its first chunk).  See docs/serving.md.

Robustness (docs/robustness.md): the same per-seed independence means
a batch has no shared fate.  A worker chunk that throws is degraded to
per-seed isolation retries; seeds that still fail poison only the
requests that need them (typed :class:`~repro.errors.
ColumnComputeFailed`), and every other request is answered bit-exactly.
Per-batch deadlines (``deadline_s``) cancel not-yet-started chunks
cooperatively and either raise :class:`~repro.errors.DeadlineExceeded`
or, under the partial-result policy, return the completed blocks.
Every failure path counts in the service's metrics registry
(``csrplus_serve_{retries,shed,deadline_exceeded,degraded_requests}_*``).

Degradation tier (docs/approx.md): a service constructed with an
``approx_index=`` replica — a rank-truncated CSR+ index of the same
SVD (:meth:`~repro.core.index.CSRPlusIndex.truncate_to_rank`, or a
replica :class:`~repro.sharding.ShardedIndex` store) — gains a
per-request ``quality=`` knob on :meth:`CoSimRankService.serve_batch`
/ :meth:`CoSimRankService.serve_topk`: ``"exact"`` (default) keeps
today's behaviour, ``"approx"`` answers straight from the replica,
and ``"auto"`` serves exactly until admission control would shed the
batch — then *downgrades* it onto the replica instead of raising
:class:`~repro.errors.ServiceOverloaded`.  Both tiers run the same
pipeline (chunking, isolation retries, deadlines, blockwise top-k);
replica batches skip only the seed budget and the exact
``ColumnCache`` / ``TopKCache``.  Replica answers carry
``tier="approx"`` on their outcomes and stay within the replica's
published ``approx_atol`` of the exact answer, entry by entry
(:func:`~repro.core.index.truncation_atol`).  Tier traffic is
accounted exactly once in ``csrplus_serve_tier_{exact,approx}_total``.

Observability (docs/observability.md): every batch emits a
``serve.batch`` span with nested ``serve.coalesce`` / ``serve.lookup``
/ ``serve.compute`` (plus one ``serve.compute.chunk`` per worker task
and one ``serve.compute.retry`` per isolation retry) /
``serve.assemble`` children, and the service maintains counters,
gauges, and a per-batch latency histogram in a
:class:`~repro.obs.metrics.MetricsRegistry`.
:class:`~repro.serving.stats.ServingStats` snapshots are read straight
from those instruments.  Batches slower than ``slow_query_seconds`` are
logged on the ``repro.serving`` logger and kept in a bounded in-memory
ring (:meth:`CoSimRankService.slow_queries`).
"""

from __future__ import annotations

import itertools
import json
import logging
import os
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

import repro.obs as obs
from repro.core.base import QueryLike, normalize_queries
from repro.core.index import CSRPlusIndex, exact_column_product
from repro.core.topk import TopKResult, top_k_blockwise
from repro.errors import (
    ColumnComputeFailed,
    DeadlineExceeded,
    InvalidParameterError,
    ReproError,
    ServiceOverloaded,
)
from repro.obs.latency import LatencyWindow
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Span, Tracer
from repro.serving.admission import SeedBudget
from repro.serving.cache import ColumnCache, TopKCache
from repro.serving.results import BatchResult, RequestOutcome
from repro.core.config import QUERY_MODES
from repro.serving.scheduler import chunk_seeds, effective_chunk_size, plan_batch
from repro.serving.stats import ServingStats
from repro.testing import faults

__all__ = ["CoSimRankService", "QUALITY_LEVELS"]

logger = logging.getLogger("repro.serving")

#: Serving phases tracked by the ``csrplus_serve_phase_seconds_total``
#: counter and the per-phase spans.
PHASES = ("coalesce", "lookup", "compute", "assemble")

#: Per-request quality knob: ``"exact"`` serves only from the exact
#: index (over budget -> shed), ``"approx"`` serves only from the
#: rank-truncated replica, ``"auto"`` serves exactly but downgrades a
#: batch the budget would shed onto the replica (docs/approx.md).
QUALITY_LEVELS = ("exact", "approx", "auto")


class CoSimRankService:
    """Thread-safe serving wrapper around a prepared :class:`CSRPlusIndex`.

    Parameters
    ----------
    index:
        The index to serve; :meth:`~repro.core.base.SimilarityEngine.
        prepare` is called if it has not run yet.  The service only
        ever *reads* the index factors, so one index may back several
        services.  Any object with the backend surface (``prepare()``,
        ``num_nodes``, ``dtype``, ``config.query_mode``,
        ``query_columns(seeds, mode=...)``) works — in particular a
        :class:`~repro.sharding.ShardedIndex`, which serves node-range
        shards bit-identically to the monolithic index it was sharded
        from (docs/sharding.md).
    cache_columns:
        LRU capacity in columns (each column is ``n * itemsize`` bytes).
        ``0`` disables caching.
    topk_cache_entries:
        LRU capacity of the separate top-k ranking cache backing
        :meth:`serve_topk` (each entry is ``O(k)`` bytes — far smaller
        than a column).  Entries are keyed ``(seed, exclude_self)`` and
        a cached top-``k'`` answers any ``k <= k'`` by prefix slicing
        (docs/topk.md).  ``0`` disables top-k caching.
    max_workers:
        Thread count for miss computation.  ``None`` (default) uses
        ``os.cpu_count()``; ``1`` computes misses serially on the
        calling thread (no executor is ever created).
    chunk_size:
        Misses handed to one worker task at a time.  In exact mode this
        is scheduling granularity only — results never depend on it.
        It is also the cancellation granularity for deadlines and the
        blast radius of a worker failure before per-seed isolation
        kicks in.  In batched mode each chunk is one GEMM, so chunks
        are widened to at least
        :data:`~repro.serving.scheduler.GEMM_MIN_CHUNK` columns (see
        :func:`~repro.serving.scheduler.effective_chunk_size`) and the
        chunking determines which seeds share a product.
    query_mode:
        ``"exact"``, ``"batched"``, or ``None`` (default) to inherit
        the index's ``config.query_mode``.  Exact serves bit-exact
        columns; batched computes whole miss chunks as single GEMMs and
        serves/caches them under the tolerance-equivalence contract
        (module docstring above).
    max_inflight_seeds:
        Admission-control budget: the maximum number of distinct seed
        columns allowed in flight across all concurrent batches.
        Batches that would exceed it raise
        :class:`~repro.errors.ServiceOverloaded` (load shedding) —
        unless they asked for ``quality="auto"`` and an
        ``approx_index`` replica is attached, in which case they are
        downgraded onto the approximate tier instead.
        ``None`` (default) disables admission control.
    approx_index:
        Optional replica backend over the same graph — typically
        ``index.truncate_to_rank(replica_rank(index.rank))`` or a
        replica :class:`~repro.sharding.ShardedIndex` — enabling
        ``quality="approx"`` / ``"auto"`` (docs/approx.md).  Prepared
        if needed; must match the exact index's ``num_nodes``.  Its
        ``approx_atol`` is published on ``csrplus_approx_atol``.
        Replica answers never enter the exact caches and never charge
        the seed budget.
    cache_validate:
        Fingerprint cached columns and re-verify on every hit; a
        corrupted entry is evicted and recomputed instead of served
        (see :class:`~repro.serving.cache.ColumnCache`).
    registry:
        Metrics registry backing this service's counters.  Defaults to
        a *private* :class:`~repro.obs.metrics.MetricsRegistry` so two
        services never mix traffic; pass a shared registry (or
        :func:`repro.obs.get_registry`) to aggregate.
    tracer:
        Span collector; defaults to the process-global tracer so serve
        spans land next to the engines' prepare/query spans.
    clock:
        Monotonic-seconds source for deadline checks (injectable so
        deadline behaviour is unit-testable without real waiting).
    slow_query_seconds:
        If set, any ``serve_batch`` call slower than this is counted,
        logged at ``WARNING`` on ``repro.serving``, and retained in a
        bounded ring readable via :meth:`slow_queries`.  Requires
        instrumentation to be enabled (spans provide the batch timing).
    slow_query_log_size:
        Capacity of the slow-query ring (oldest entries dropped).
    latency_window_samples:
        Ring capacity of the live latency window backing
        :meth:`latency_percentiles` (exact p50/p95/p99 over the most
        recent batches, independent of the bucketed histogram).

    Examples
    --------
    >>> import numpy as np
    >>> from repro.graphs import ring
    >>> from repro.core.index import CSRPlusIndex
    >>> service = CoSimRankService(CSRPlusIndex(ring(8), rank=4), max_workers=1)
    >>> cold = service.query([0, 3])                  # == index.query([0, 3])
    >>> np.array_equal(cold, service.query([0, 3]))   # warm: from cache
    True
    >>> (service.stats().hits, service.stats().misses)
    (2, 2)
    >>> service.close()
    """

    def __init__(
        self,
        index: CSRPlusIndex,
        *,
        cache_columns: int = 1024,
        topk_cache_entries: int = 1024,
        max_workers: Optional[int] = None,
        chunk_size: int = 64,
        query_mode: Optional[str] = None,
        max_inflight_seeds: Optional[int] = None,
        approx_index=None,
        cache_validate: bool = False,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        clock: Callable[[], float] = time.monotonic,
        slow_query_seconds: Optional[float] = None,
        slow_query_log_size: int = 64,
        latency_window_samples: int = 1024,
    ):
        if max_workers is not None and max_workers < 1:
            raise InvalidParameterError(
                f"max_workers must be >= 1 (or None for auto), got {max_workers}"
            )
        if chunk_size < 1:
            raise InvalidParameterError(
                f"chunk_size must be >= 1, got {chunk_size}"
            )
        if query_mode is not None and query_mode not in QUERY_MODES:
            raise InvalidParameterError(
                f"query_mode must be one of {QUERY_MODES} (or None to "
                f"inherit the index's), got {query_mode!r}"
            )
        if slow_query_seconds is not None and slow_query_seconds <= 0:
            raise InvalidParameterError(
                f"slow_query_seconds must be > 0 (or None to disable), "
                f"got {slow_query_seconds}"
            )
        if slow_query_log_size < 1:
            raise InvalidParameterError(
                f"slow_query_log_size must be >= 1, got {slow_query_log_size}"
            )
        index.prepare()
        self.index = index
        # live-graph versioning (docs/dynamic.md): batches pin
        # (index, version) under _swap_lock at entry, publish_index
        # replaces both atomically — in-flight batches finish on the
        # old index while new batches already serve the new one
        self._index_version = 0
        self._swap_lock = threading.Lock()
        self._publish_lock = threading.Lock()
        self.query_mode = query_mode or index.config.query_mode
        self.chunk_size = effective_chunk_size(chunk_size, self.query_mode)
        self.max_workers = int(max_workers or (os.cpu_count() or 1))
        self.slow_query_seconds = slow_query_seconds
        self._clock = clock
        self._budget = SeedBudget(
            max_inflight_seeds, on_underflow=self._on_budget_underflow
        )
        if approx_index is not None:
            approx_index.prepare()
            if int(approx_index.num_nodes) != int(index.num_nodes):
                raise InvalidParameterError(
                    "approx_index must cover the same node set: serving "
                    f"{index.num_nodes} nodes, replica has "
                    f"{approx_index.num_nodes}"
                )
        # the replica is version-tagged alongside the exact index;
        # publish_index swaps both under _swap_lock (docs/approx.md)
        self._approx_index = approx_index
        self._approx_version = 0
        self._cache = ColumnCache(
            cache_columns,
            num_rows=index.num_nodes,
            dtype=index.dtype,
            validate_checksums=cache_validate,
        )
        self._topk_cache = TopKCache(topk_cache_entries)
        self._stats_lock = threading.Lock()
        self._slow_log: "deque[dict]" = deque(maxlen=int(slow_query_log_size))
        # request-id mint: next(itertools.count()) is atomic under the
        # GIL, so concurrent batches get distinct monotone sequence ids
        self._batch_seq = itertools.count(1)
        self.latency_window = LatencyWindow(max_samples=latency_window_samples)
        self._executor: Optional[ThreadPoolExecutor] = None
        self._executor_lock = threading.Lock()
        self._closed = False

        self.registry = registry if registry is not None else MetricsRegistry()
        self._tracer = tracer if tracer is not None else obs.get_tracer()
        reg = self.registry
        self._m_requests = reg.counter(
            "csrplus_serve_requests_total", "Individual requests answered"
        )
        self._m_batches = reg.counter(
            "csrplus_serve_batches_total", "serve_batch calls"
        )
        self._m_seeds = reg.counter(
            "csrplus_serve_seeds_requested_total",
            "Seed columns returned, duplicates included",
        )
        self._m_unique = reg.counter(
            "csrplus_serve_unique_seeds_total",
            "Distinct seeds looked up in the cache, summed per batch",
        )
        self._m_hits = reg.counter(
            "csrplus_serve_cache_hits_total", "Cache lookup hits"
        )
        self._m_misses = reg.counter(
            "csrplus_serve_cache_misses_total", "Cache lookup misses"
        )
        self._m_evictions = reg.counter(
            "csrplus_serve_cache_evictions_total", "Columns evicted by LRU"
        )
        self._m_cached_columns = reg.gauge(
            "csrplus_serve_cache_columns", "Resident cached columns"
        )
        self._m_cache_bytes = reg.gauge(
            "csrplus_serve_cache_bytes", "Bytes held by the column cache"
        )
        self._m_cache_capacity = reg.gauge(
            "csrplus_serve_cache_capacity", "Column cache capacity"
        )
        self._m_cache_capacity.set(self._cache.capacity)
        self._m_integrity = reg.gauge(
            "csrplus_serve_cache_integrity_failures",
            "Cached columns dropped because their checksum no longer matched",
        )
        self._m_shed = reg.counter(
            "csrplus_serve_shed_total",
            "Batches rejected by admission control (load shedding)",
        )
        self._m_deadline = reg.counter(
            "csrplus_serve_deadline_exceeded_total",
            "Batches whose deadline cancelled at least one seed column",
        )
        self._m_retries = reg.counter(
            "csrplus_serve_retries_total",
            "Per-seed isolation retries after worker chunk failures",
        )
        self._m_degraded = reg.counter(
            "csrplus_serve_degraded_requests_total",
            "Requests that failed while the rest of their batch was served",
        )
        self._m_phase = {
            phase: reg.counter(
                "csrplus_serve_phase_seconds_total",
                "Cumulative wall time per serving phase",
                labels={"phase": phase},
            )
            for phase in PHASES
        }
        self._m_batch_seconds = reg.histogram(
            "csrplus_serve_batch_seconds", "serve_batch wall time"
        )
        self._m_slow = reg.counter(
            "csrplus_serve_slow_batches_total",
            "Batches slower than the slow-query threshold",
        )
        self._m_topk_batches = reg.counter(
            "csrplus_topk_batches_total", "serve_topk calls"
        )
        self._m_topk_seeds = reg.counter(
            "csrplus_topk_seeds_total",
            "Top-k rankings returned, duplicates included",
        )
        self._m_topk_hits = reg.counter(
            "csrplus_topk_cache_hits_total",
            "Top-k lookups answered from a resident ranking",
        )
        self._m_topk_misses = reg.counter(
            "csrplus_topk_cache_misses_total",
            "Top-k lookups that needed a fresh blockwise scan",
        )
        self._m_topk_evictions = reg.counter(
            "csrplus_topk_cache_evictions_total",
            "Rankings evicted from the top-k LRU",
        )
        self._m_topk_entries = reg.gauge(
            "csrplus_topk_cache_entries", "Resident cached rankings"
        )
        self._m_topk_candidates = reg.counter(
            "csrplus_topk_candidates_scored_total",
            "Candidates scored by the blockwise kernel (pruning visible "
            "as this staying well under seeds * n)",
        )
        self._m_topk_blocks_scanned = reg.counter(
            "csrplus_topk_blocks_scanned_total",
            "Row-blocks whose scores were computed",
        )
        self._m_topk_blocks_skipped = reg.counter(
            "csrplus_topk_blocks_skipped_total",
            "Row-blocks skipped by the norm bound",
        )
        self._m_topk_retries = reg.counter(
            "csrplus_topk_retries_total",
            "Per-seed isolation retries after top-k chunk failures",
        )
        self._m_topk_deadline = reg.counter(
            "csrplus_topk_deadline_exceeded_total",
            "serve_topk batches whose deadline cancelled at least one seed",
        )
        self._m_topk_degraded = reg.counter(
            "csrplus_topk_degraded_requests_total",
            "Top-k requests that failed while the rest of their batch "
            "was served",
        )
        # info-style gauge: scrapes (and regressions) can attribute this
        # service's numbers to the mode that produced them
        self._m_query_mode = reg.gauge(
            "csrplus_serve_query_mode",
            "Active column evaluation strategy (1 for the mode in use)",
            labels={"mode": self.query_mode},
        )
        self._m_query_mode.set(1)
        self._m_index_version = reg.gauge(
            "csrplus_index_version",
            "Version of the index currently being served",
        )
        self._m_index_version.set(0)
        self._m_swap_seconds = reg.histogram(
            "csrplus_update_swap_seconds",
            "Wall time of publish_index (swap + per-seed cache upgrade)",
        )
        self._m_cache_invalidated = reg.counter(
            "csrplus_serve_cache_invalidated_total",
            "Cached columns dropped by version swaps (touched seeds)",
        )
        self._m_cache_patched = reg.counter(
            "csrplus_serve_cache_patched_total",
            "Cached columns row-patched across version swaps",
        )
        self._m_cache_retained = reg.counter(
            "csrplus_serve_cache_retained_total",
            "Cached columns retained untouched across version swaps",
        )
        self._m_topk_invalidated = reg.counter(
            "csrplus_topk_cache_invalidated_total",
            "Cached rankings dropped by version swaps",
        )
        self._m_topk_retained = reg.counter(
            "csrplus_topk_cache_retained_total",
            "Cached rankings retained across clean version swaps",
        )
        # approximate-tier accounting (docs/approx.md): every answered
        # request lands in exactly one tier counter
        self._m_tier_exact = reg.counter(
            "csrplus_serve_tier_exact_total",
            "Requests answered by the exact tier (columns and top-k)",
        )
        self._m_tier_approx = reg.counter(
            "csrplus_serve_tier_approx_total",
            "Requests answered by the approximate (replica) tier",
        )
        self._m_approx_batches = reg.counter(
            "csrplus_approx_batches_total",
            "Batches answered on the approximate tier",
        )
        self._m_approx_downgrades = reg.counter(
            "csrplus_approx_downgrades_total",
            "quality=auto batches downgraded to the approximate tier "
            "instead of being shed",
        )
        self._m_approx_seeds = reg.counter(
            "csrplus_approx_seeds_total",
            "Distinct replica columns evaluated by the approximate tier",
        )
        self._m_approx_index_version = reg.gauge(
            "csrplus_approx_index_version",
            "Version of the approximate replica currently attached",
        )
        self._m_approx_atol = reg.gauge(
            "csrplus_approx_atol",
            "Published per-entry error bound of the attached replica "
            "against the exact tier (truncation_atol)",
        )
        self._publish_approx_atol(approx_index)
        self._m_budget_underflow = reg.counter(
            "csrplus_serve_budget_underflow_total",
            "SeedBudget.release calls exceeding what was acquired "
            "(double-release accounting bugs, surfaced not swallowed)",
        )

    def _publish_approx_atol(self, replica) -> None:
        bound = getattr(replica, "approx_atol", None)
        if bound is not None:
            self._m_approx_atol.set(bound)

    def _on_budget_underflow(self, deficit: int) -> None:
        """Wired into :class:`SeedBudget`; counts unmatched releases."""
        with self._stats_lock:
            self._m_budget_underflow.inc()

    # ------------------------------------------------------------------
    # serving entry points
    # ------------------------------------------------------------------
    def query(self, seeds: QueryLike) -> np.ndarray:
        """Answer one request; identical to ``index.query(seeds)``."""
        return self.serve_batch([seeds])[0]

    def serve_batch(
        self,
        requests: Sequence[QueryLike],
        *,
        deadline_s: Optional[float] = None,
        partial: bool = False,
        quality: str = "exact",
    ) -> List[np.ndarray]:
        """Answer a batch of requests, one ``n x |Q_i|`` block each.

        Seeds shared between requests (or with earlier traffic, via the
        cache) are computed once.  Safe to call from many threads
        concurrently.

        Parameters
        ----------
        deadline_s:
            Per-batch deadline in seconds.  Cancellation is cooperative
            and chunk-grained: chunks not yet started when the deadline
            passes are never computed.
        partial:
            Failure policy.  ``False`` (default): any failed request
            raises its typed error (:class:`~repro.errors.
            DeadlineExceeded`, :class:`~repro.errors.
            ColumnComputeFailed`, ...) — all-or-nothing, the original
            contract.  ``True``: graceful degradation — the returned
            list has ``None`` holes for failed requests while every
            successful block is still bit-exact.  Use
            :meth:`serve_batch_detailed` to see the per-request errors.
        quality:
            One of :data:`QUALITY_LEVELS`.  ``"exact"`` (default)
            serves from the exact index only; ``"approx"`` answers
            from the rank-truncated replica (within its published
            ``approx_atol`` of the exact answer, per entry);
            ``"auto"`` serves exactly unless admission control would
            shed the batch, in which case it is downgraded onto the
            replica instead of raising.  Requires an ``approx_index``
            for ``"approx"``; ``"auto"`` without one degrades to plain
            exact-or-shed.

        Raises
        ------
        ServiceOverloaded
            When admission control sheds the batch (both policies — an
            over-budget batch produces no results at all), unless
            ``quality="auto"`` downgraded it onto the replica.
        """
        detailed = self.serve_batch_detailed(
            requests, deadline_s=deadline_s, quality=quality
        )
        if partial:
            return detailed.partial_results()
        return detailed.results()

    def serve_batch_detailed(
        self,
        requests: Sequence[QueryLike],
        *,
        deadline_s: Optional[float] = None,
        quality: str = "exact",
    ) -> BatchResult:
        """Like :meth:`serve_batch` but with per-request outcomes.

        Never raises for individual request failures — each
        :class:`~repro.serving.results.RequestOutcome` carries either a
        bit-exact block or a typed :class:`~repro.errors.ReproError`.
        Batch-level rejections (invalid requests, load shedding) still
        raise, since no per-request answer exists.  Every outcome's
        ``tier`` names the tier that produced it (``"exact"`` /
        ``"approx"``, see the ``quality`` parameter on
        :meth:`serve_batch`).
        """
        self._check_request(deadline_s, quality)
        started = self._clock()
        deadline_at = started + deadline_s if deadline_s is not None else None
        batch_id = f"batch-{next(self._batch_seq)}"
        request_ids = [f"{batch_id}.{i}" for i in range(len(requests))]
        index, version, replica = self._pin(quality)
        tracer = self._tracer
        with tracer.span("serve.batch", batch_id=batch_id) as batch_span:
            with tracer.span("serve.coalesce") as coalesce_span:
                plan = plan_batch(requests, index.num_nodes)
            batch_span.set_attribute("requests", plan.num_requests)
            batch_span.set_attribute("unique_seeds", int(plan.unique_seeds.size))
            batch_span.set_attribute("query_mode", self.query_mode)
            batch_span.set_attribute("index_version", version)
            batch_span.set_attribute("request_ids", list(request_ids))
            tier, charged = self._admit(quality, int(plan.unique_seeds.size), replica)
            batch_span.set_attribute("tier", tier)
            exact = tier == "exact"
            backend = index if exact else replica
            try:
                with tracer.span("serve.lookup") as lookup_span:
                    # replica columns never touch the exact cache
                    hit_columns, missing = (
                        self._cache.lookup(plan.unique_seeds, version=version)
                        if exact
                        else ({}, plan.unique_seeds.tolist())
                    )
                # captured now: assembly below merges fresh columns into
                # the same dict, which would inflate the hit count
                num_hits = len(hit_columns)

                with tracer.span(
                    "serve.compute",
                    misses=len(missing),
                    query_mode=self.query_mode,
                ) as compute_span:
                    fresh, failures, cancelled, retries = self._compute_missing(
                        missing,
                        self._columns_of(backend),
                        "serve.compute",
                        compute_span,
                        deadline_at,
                    )
                    evicted = (
                        self._cache.insert(fresh, version=version) if exact else 0
                    )

                with tracer.span("serve.assemble") as assemble_span:
                    column_map = hit_columns
                    column_map.update(fresh)
                    outcomes = self._assemble_outcomes(
                        [[int(seed) for seed in ids] for ids in plan.request_ids],
                        column_map,
                        failures,
                        cancelled,
                        lambda seeds: self._assemble(seeds, column_map, backend),
                        deadline_s=deadline_s,
                        started=started,
                        request_ids=request_ids,
                        tier=tier,
                    )
            finally:
                self._budget.release(charged)

        num_failed = sum(1 for outcome in outcomes if not outcome.ok)
        self._record_batch(
            plan,
            tier=tier,
            hits=num_hits,
            misses=len(missing),
            evicted=evicted,
            retries=retries,
            num_failed=num_failed,
            deadline_hit=bool(cancelled),
            batch_span=batch_span,
            batch_id=batch_id,
            request_ids=request_ids,
            phase_spans={
                "coalesce": coalesce_span,
                "lookup": lookup_span,
                "compute": compute_span,
                "assemble": assemble_span,
            },
        )
        return BatchResult(
            outcomes=outcomes,
            retries=retries,
            failed_seeds=failures,
            cancelled_seeds=tuple(cancelled),
            batch_id=batch_id,
        )

    # ------------------------------------------------------------------
    # tier selection (docs/approx.md)
    # ------------------------------------------------------------------
    def _check_request(self, deadline_s: Optional[float], quality: str) -> None:
        if deadline_s is not None and deadline_s <= 0:
            raise InvalidParameterError(
                f"deadline_s must be > 0 (or None), got {deadline_s}"
            )
        if quality not in QUALITY_LEVELS:
            raise InvalidParameterError(
                f"quality must be one of {QUALITY_LEVELS}, got {quality!r}"
            )

    def _pin(self, quality: str):
        """``(index, version, replica)`` for one whole batch.

        Pinned under ``_swap_lock``: a ``publish_index`` racing with the
        batch never mixes versions inside one answer.
        """
        with self._swap_lock:
            pinned = (self.index, self._index_version, self._approx_index)
        if quality == "approx" and pinned[2] is None:
            raise InvalidParameterError(
                'quality="approx" requires an approx_index replica '
                "(pass approx_index= to the service constructor)"
            )
        return pinned

    def _admit(self, quality: str, num_seeds: int, replica) -> Tuple[str, int]:
        """Pick a batch's tier: ``(tier, seeds charged to the budget)``.

        ``"approx"`` goes straight to the replica; otherwise the batch
        charges the seed budget, and one the budget would shed is
        downgraded onto the replica under ``"auto"`` (when one is
        attached) or shed.  Replica batches never charge the budget.
        """
        if quality == "approx":
            return "approx", 0
        if self._budget.try_acquire(num_seeds):
            return "exact", num_seeds
        if quality == "auto" and replica is not None:
            with self._stats_lock:
                self._m_approx_downgrades.inc()
            return "approx", 0
        with self._stats_lock:
            self._m_shed.inc()
        assert self._budget.max_inflight is not None
        raise ServiceOverloaded(
            num_seeds, self._budget.in_flight, self._budget.max_inflight
        )

    # ------------------------------------------------------------------
    # top-k serving
    # ------------------------------------------------------------------
    def serve_topk(
        self,
        seeds: QueryLike,
        k: int,
        *,
        exclude_self: bool = True,
        deadline_s: Optional[float] = None,
        partial: bool = False,
        quality: str = "exact",
    ) -> List[TopKResult]:
        """Top-``k`` most-similar nodes for each seed, served.

        One :class:`~repro.core.topk.TopKResult` per input seed, in
        input order.  Rankings are produced by the blockwise pruned
        kernel (:func:`~repro.core.topk.top_k_blockwise`) — in exact
        mode the returned nodes, scores, and tie order are
        *bit-identical* to ``index.top_k(seed, k)`` plus the matching
        column entries; batched mode carries the
        :func:`~repro.core.index.batched_query_atol` contract.  Results
        are cached per ``(seed, exclude_self)``: a cached top-``k'``
        with ``k' >= k`` answers ``k`` by prefix slicing, without
        touching the index.

        The robustness surface matches :meth:`serve_batch`: admission
        control sheds over-budget batches
        (:class:`~repro.errors.ServiceOverloaded`), ``deadline_s``
        cancels not-yet-started work cooperatively, failed chunks are
        degraded to per-seed isolation retries, and with
        ``partial=True`` failed seeds come back as ``None`` holes
        instead of raising.  Use :meth:`serve_topk_detailed` for the
        per-seed typed errors.

        ``quality`` works as in :meth:`serve_batch`: ``"approx"``
        ranks with the same blockwise kernel over the rank-truncated
        replica, ``"auto"`` downgrades to that instead of shedding.
        Replica rankings never enter the
        :class:`~repro.serving.cache.TopKCache`.
        """
        detailed = self.serve_topk_detailed(
            seeds, k, exclude_self=exclude_self, deadline_s=deadline_s,
            quality=quality,
        )
        if partial:
            return detailed.partial_results()
        return detailed.results()

    def serve_topk_detailed(
        self,
        seeds: QueryLike,
        k: int,
        *,
        exclude_self: bool = True,
        deadline_s: Optional[float] = None,
        quality: str = "exact",
    ) -> BatchResult:
        """Like :meth:`serve_topk` but with per-seed outcomes.

        Never raises for individual seed failures — each
        :class:`~repro.serving.results.RequestOutcome` carries either a
        :class:`~repro.core.topk.TopKResult` or a typed
        :class:`~repro.errors.ReproError`.  Batch-level rejections
        (invalid seeds, bad ``k``, load shedding) still raise.
        """
        if k < 1:
            raise InvalidParameterError(f"k must be >= 1, got {k}")
        self._check_request(deadline_s, quality)
        started = self._clock()
        deadline_at = started + deadline_s if deadline_s is not None else None
        index, version, replica = self._pin(quality)
        seed_ids = normalize_queries(seeds, index.num_nodes)
        batch_id = f"topk-{next(self._batch_seq)}"
        request_ids = [f"{batch_id}.{i}" for i in range(int(seed_ids.size))]
        tracer = self._tracer
        with tracer.span(
            "serve.topk",
            seeds=int(seed_ids.size),
            k=int(k),
            exclude_self=bool(exclude_self),
            query_mode=self.query_mode,
            batch_id=batch_id,
            index_version=version,
            request_ids=list(request_ids),
        ) as topk_span:
            unique = np.unique(seed_ids)
            tier, charged = self._admit(quality, int(unique.size), replica)
            topk_span.set_attribute("tier", tier)
            exact = tier == "exact"
            try:
                # replica rankings never touch the exact top-k cache
                hit_results, missing = (
                    self._topk_cache.lookup(
                        unique, int(k), exclude_self, version=version
                    )
                    if exact
                    else ({}, unique.tolist())
                )
                num_hits = len(hit_results)
                with tracer.span(
                    "serve.topk.compute",
                    misses=len(missing),
                    query_mode=self.query_mode,
                ) as compute_span:
                    fresh, failures, cancelled, retries = self._compute_missing(
                        missing,
                        self._rankings_of(
                            index if exact else replica, int(k), exclude_self
                        ),
                        "serve.topk",
                        compute_span,
                        deadline_at,
                    )
                    evicted = (
                        self._topk_cache.insert(
                            fresh, int(k), exclude_self, version=version
                        )
                        if exact
                        else 0
                    )
                result_map = dict(hit_results)
                result_map.update(fresh)
                outcomes = self._assemble_outcomes(
                    [[int(seed)] for seed in seed_ids],
                    result_map,
                    failures,
                    cancelled,
                    lambda seeds: result_map[seeds[0]],
                    deadline_s=deadline_s,
                    started=started,
                    request_ids=request_ids,
                    tier=tier,
                )
            finally:
                self._budget.release(charged)

        with self._stats_lock:
            self._m_topk_batches.inc()
            self._m_topk_seeds.inc(int(seed_ids.size))
            if exact:
                self._m_tier_exact.inc(int(seed_ids.size))
                self._m_topk_hits.inc(num_hits)
                self._m_topk_misses.inc(len(missing))
                self._m_topk_evictions.inc(evicted)
            else:
                self._m_tier_approx.inc(int(seed_ids.size))
                self._m_approx_batches.inc()
                self._m_approx_seeds.inc(int(unique.size))
            self._m_topk_retries.inc(retries)
            self._m_topk_degraded.inc(
                sum(1 for outcome in outcomes if not outcome.ok)
            )
            if cancelled:
                self._m_topk_deadline.inc()
            for result in fresh.values():
                self._m_topk_candidates.inc(result.candidates_scored)
                self._m_topk_blocks_scanned.inc(result.blocks_scanned)
                self._m_topk_blocks_skipped.inc(result.blocks_skipped)
            self._m_topk_entries.set(
                self._topk_cache.counters()["cached_entries"]
            )
        return BatchResult(
            outcomes=outcomes,
            retries=retries,
            failed_seeds=failures,
            cancelled_seeds=tuple(cancelled),
            batch_id=batch_id,
        )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _compute_missing(
        self,
        missing: List[int],
        evaluate: Callable[[List[int], str, Span], list],
        span_name: str,
        parent_span: Optional[Span],
        deadline_at: Optional[float],
    ) -> Tuple[Dict[int, object], Dict[int, ReproError], List[int], int]:
        """Answer missing seeds with isolation and cancellation.

        ``evaluate(seeds, mode, span)`` returns one answer per seed, in
        order — a column or a ranking from the batch-pinned backend.
        Chunks run (possibly in parallel) under ``<span_name>.chunk``
        spans; a failed chunk is retried seed by seed in exact mode
        (``<span_name>.retry``), and seeds that miss the deadline are
        cancelled rather than computed late.  Returns ``(answers,
        failures, cancelled, retries)``: per-seed answers, per-seed
        typed errors for seeds that failed even in isolation, seeds
        cancelled by the deadline, and the number of isolation retries
        attempted.
        """
        answers: Dict[int, object] = {}
        failures: Dict[int, ReproError] = {}
        cancelled: List[int] = []
        retries = 0
        if not missing:
            return answers, failures, cancelled, retries
        chunks = chunk_seeds(missing, self.chunk_size)

        def run_chunk(chunk):
            # cooperative cancellation: a chunk that has not started by
            # the deadline is abandoned, not computed late
            if deadline_at is not None and self._clock() >= deadline_at:
                return ("cancelled", None)
            # Explicit parent: worker threads have no open span of their
            # own, so the chunk spans nest under this batch's compute
            # span instead of becoming disconnected roots.
            with self._tracer.span(
                f"{span_name}.chunk", parent=parent_span, seeds=len(chunk)
            ) as chunk_span:
                try:
                    faults.fire(
                        "compute.chunk", seeds=[int(s) for s in chunk]
                    )
                    return ("ok", evaluate(chunk, self.query_mode, chunk_span))
                except Exception as exc:  # isolated below, per seed
                    return ("error", exc)

        if self.max_workers == 1 or len(chunks) == 1:
            outcomes = [run_chunk(chunk) for chunk in chunks]
        else:
            outcomes = list(self._get_executor().map(run_chunk, chunks))

        failed_chunks = []
        for chunk, (status, payload) in zip(chunks, outcomes):
            if status == "ok":
                answers.update(zip((int(seed) for seed in chunk), payload))
            elif status == "cancelled":
                cancelled.extend(int(seed) for seed in chunk)
            else:
                failed_chunks.append(chunk)

        # graceful degradation: a failed chunk is retried seed by seed,
        # so one poisonous seed cannot take its chunk-mates down with it
        for chunk in failed_chunks:
            for seed in chunk:
                seed = int(seed)
                if deadline_at is not None and self._clock() >= deadline_at:
                    cancelled.append(seed)
                    continue
                retries += 1
                with self._tracer.span(
                    f"{span_name}.retry", parent=parent_span, seed=seed
                ) as retry_span:
                    try:
                        faults.fire("compute.chunk", seeds=[seed])
                        # isolation retries are single-seed, where the
                        # batched GEMM degenerates to the exact GEMV —
                        # use exact so a retried answer is canonical
                        answers[seed] = evaluate([seed], "exact", retry_span)[0]
                    except Exception as exc:
                        error = ColumnComputeFailed(
                            seed, str(exc) or type(exc).__name__
                        )
                        error.__cause__ = exc
                        failures[seed] = error
        return answers, failures, cancelled, retries

    @staticmethod
    def _columns_of(index) -> Callable[[List[int], str, Span], list]:
        """:meth:`_compute_missing`'s ``evaluate`` for similarity columns."""

        def evaluate(seeds, mode, _span):
            block = index.query_columns(seeds, mode=mode)
            # copy: a column view would pin the whole chunk block in
            # memory for as long as the cache retains any one column
            return [block[:, j].copy() for j in range(len(seeds))]

        return evaluate

    def _rankings_of(
        self, index, k: int, exclude_self: bool
    ) -> Callable[[List[int], str, Span], list]:
        """:meth:`_compute_missing`'s ``evaluate`` for top-k rankings."""

        def evaluate(seeds, mode, span):
            # backends that rank remotely (a PooledIndex fans the chunk
            # to a worker process, keeping the blockwise scan next to
            # the shard bytes) expose top_k_chunk; everything else runs
            # the kernel here
            if hasattr(index, "top_k_chunk"):
                return index.top_k_chunk(
                    seeds, k, exclude_self=exclude_self, mode=mode
                )
            return top_k_blockwise(
                index,
                seeds,
                k,
                exclude_self=exclude_self,
                mode=mode,
                tracer=self._tracer,
                parent_span=span,
            )

        return evaluate

    def _assemble_outcomes(
        self,
        needs: List[List[int]],
        answers: Dict[int, object],
        failures: Dict[int, ReproError],
        cancelled: List[int],
        build: Callable[[List[int]], object],
        *,
        deadline_s: Optional[float],
        started: float,
        request_ids: List[str],
        tier: str,
    ) -> List[RequestOutcome]:
        """One outcome per request — ``build`` over the answers for the
        seeds it ``needs``, or the typed reason why not."""
        cancelled_set = set(cancelled)
        outcomes: List[RequestOutcome] = []
        for request_id, needed in zip(request_ids, needs):
            unavailable = [seed for seed in needed if seed not in answers]
            if not unavailable:
                fate = {"result": build(needed)}
            elif any(seed in cancelled_set for seed in unavailable):
                fate = {
                    "error": DeadlineExceeded(
                        deadline_s if deadline_s is not None else 0.0,
                        self._clock() - started,
                        completed_seeds=len(answers),
                        cancelled_seeds=len(cancelled_set),
                    )
                }
            else:
                fate = {"error": failures[unavailable[0]]}
            outcomes.append(
                RequestOutcome(request_id=request_id, tier=tier, **fate)
            )
        return outcomes

    @staticmethod
    def _assemble(
        seeds: List[int], column_map: Dict[int, np.ndarray], index
    ) -> np.ndarray:
        out = np.empty(
            (index.num_nodes, len(seeds)), dtype=index.dtype, order="F"
        )
        for j, seed in enumerate(seeds):
            out[:, j] = column_map[seed]
        return out

    def _record_batch(
        self,
        plan,
        *,
        tier: str,
        hits: int,
        misses: int,
        evicted: int,
        retries: int,
        num_failed: int,
        deadline_hit: bool,
        batch_span,
        batch_id: Optional[str] = None,
        request_ids: Optional[List[str]] = None,
        phase_spans,
    ) -> None:
        """Fold one batch's outcome into the registry (consistent snapshot)."""
        cache = self._cache.counters()
        with self._stats_lock:
            self._m_batches.inc()
            self._m_requests.inc(plan.num_requests)
            self._m_seeds.inc(plan.seeds_requested)
            if tier == "exact":
                self._m_tier_exact.inc(plan.num_requests)
                self._m_unique.inc(int(plan.unique_seeds.size))
                self._m_hits.inc(hits)
                self._m_misses.inc(misses)
                self._m_evictions.inc(evicted)
            else:
                self._m_tier_approx.inc(plan.num_requests)
                self._m_approx_batches.inc()
                self._m_approx_seeds.inc(int(plan.unique_seeds.size))
            self._m_retries.inc(retries)
            self._m_degraded.inc(num_failed)
            if deadline_hit:
                self._m_deadline.inc()
            self._m_cached_columns.set(cache["cached_columns"])
            self._m_cache_bytes.set(cache["bytes_cached"])
            self._m_integrity.set(cache["integrity_failures"])
            for phase, span in phase_spans.items():
                self._m_phase[phase].inc(span.wall_seconds)
            if batch_span is not obs.NULL_SPAN:
                self._m_batch_seconds.observe(batch_span.wall_seconds)
                self.latency_window.observe(batch_span.wall_seconds)
        if (
            self.slow_query_seconds is not None
            and batch_span.wall_seconds >= self.slow_query_seconds
        ):
            entry = {
                "batch_id": batch_id,
                "request_ids": list(request_ids or []),
                "tier": tier,
                "seconds": batch_span.wall_seconds,
                "requests": plan.num_requests,
                "unique_seeds": int(plan.unique_seeds.size),
                "hits": hits,
                "misses": misses,
                "phases": {
                    phase: span.wall_seconds
                    for phase, span in phase_spans.items()
                },
            }
            with self._stats_lock:
                self._m_slow.inc()
                self._slow_log.append(entry)
            # structured JSON so log pipelines can join the slow batch
            # with its trace span and outcomes by batch_id/request_ids;
            # the "slow batch" event name is the stable grep handle
            logger.warning(
                "%s",
                json.dumps(
                    {
                        "event": "slow batch",
                        "threshold_seconds": self.slow_query_seconds,
                        **entry,
                    },
                    sort_keys=False,
                ),
            )

    def _get_executor(self) -> ThreadPoolExecutor:
        with self._executor_lock:
            if self._closed:
                raise InvalidParameterError("service is closed")
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=self.max_workers,
                    thread_name_prefix="cosimrank-serve",
                )
            return self._executor

    # ------------------------------------------------------------------
    # live-graph version swaps (docs/dynamic.md)
    # ------------------------------------------------------------------
    @property
    def index_version(self) -> int:
        """Monotone version of the currently published index."""
        with self._swap_lock:
            return self._index_version

    @property
    def approx_index(self):
        """The attached approximate replica, or ``None``."""
        with self._swap_lock:
            return self._approx_index

    @property
    def approx_version(self) -> int:
        """Version tag of the attached approximate replica."""
        with self._swap_lock:
            return self._approx_version

    def publish_index(
        self,
        new_index,
        *,
        dirty_ranges: Optional[Sequence[Tuple[int, int]]] = None,
        approx_index=None,
    ) -> int:
        """Atomically swap in a rebuilt index — zero downtime.

        The swap itself is one pointer exchange under ``_swap_lock``:
        batches entering after it serve the new index; batches that
        pinned the old one at entry finish on it undisturbed (the old
        index object is never mutated, so no request ever mixes
        versions inside one answer).

        Caches are *upgraded*, not flushed: entries whose seed row
        ranges were untouched by the rebuild are retagged to the new
        version wholesale; entries overlapping a dirty row range are
        row-patched with the canonical exact kernel (bit-identical to a
        fresh recompute, Theorem 3.5 row independence) or dropped when
        their seed itself went dirty.  See
        :meth:`~repro.serving.cache.ColumnCache.advance`.

        Parameters
        ----------
        new_index:
            A prepared index for the updated graph.  Must have the same
            ``num_nodes`` and ``dtype`` as the one being replaced (the
            per-seed caches are shaped for them).
        dirty_ranges:
            Row ranges ``(start, stop)`` whose ``Z``/``U`` rows changed
            in the rebuild (e.g. from
            :class:`~repro.sharding.ShardRepairReport.dirty_ranges`).
            ``None`` infers them by diffing factors when both indexes
            are monolithic, else conservatively marks every row dirty.
        approx_index:
            Optional replica for the updated graph (e.g.
            ``new_index.truncate_to_rank(...)``); swapped atomically
            alongside the exact index and version-tagged with the same
            new version.  ``None`` keeps the current replica (it then
            serves the old graph's factors until the next publish
            supplies one — acceptable for a degraded tier, but the
            version gauges make the skew visible).

        Returns
        -------
        The new version number (old version + 1).
        """
        if hasattr(new_index, "prepare"):
            new_index.prepare()
        if approx_index is not None:
            approx_index.prepare()
            if int(approx_index.num_nodes) != int(new_index.num_nodes):
                raise InvalidParameterError(
                    "published approx_index must cover the same node set: "
                    f"index has {new_index.num_nodes} nodes, replica has "
                    f"{approx_index.num_nodes}"
                )
        started = self._clock()
        with self._publish_lock:
            old_index = self.index
            if int(new_index.num_nodes) != int(old_index.num_nodes):
                raise InvalidParameterError(
                    "publish_index requires an index over the same node "
                    f"set: serving {old_index.num_nodes} nodes, got "
                    f"{new_index.num_nodes}"
                )
            if np.dtype(new_index.dtype) != np.dtype(old_index.dtype):
                raise InvalidParameterError(
                    "publish_index requires the serving dtype to match: "
                    f"serving {np.dtype(old_index.dtype)}, got "
                    f"{np.dtype(new_index.dtype)}"
                )
            if dirty_ranges is None:
                dirty_ranges = self._infer_dirty_ranges(old_index, new_index)
            ranges = tuple(
                (int(start), int(stop))
                for start, stop in dirty_ranges
                if int(stop) > int(start)
            )
            with self._tracer.span(
                "index.swap",
                from_version=self._index_version,
                to_version=self._index_version + 1,
                dirty_ranges=len(ranges),
                dirty_rows=sum(stop - start for start, stop in ranges),
            ):
                with self._swap_lock:
                    self.index = new_index
                    self._index_version += 1
                    version = self._index_version
                    if approx_index is not None:
                        self._approx_index = approx_index
                        self._approx_version = version
                # in-flight batches pinned the old (index, version) pair
                # and keep finishing on it; from here on every new batch
                # sees the new pair.  The cache upgrade below happens
                # outside _swap_lock — stale-version inserts are dropped
                # by the caches, so old batches cannot poison entries.
                patcher = self._make_row_patcher(new_index)
                col = self._cache.advance(
                    version, ranges, recompute_rows=patcher
                )
                topk = self._topk_cache.advance(version, ranges)
            elapsed = self._clock() - started
            with self._stats_lock:
                self._m_index_version.set(version)
                if approx_index is not None:
                    self._m_approx_index_version.set(version)
                    self._publish_approx_atol(approx_index)
                self._m_swap_seconds.observe(elapsed)
                self._m_cache_invalidated.inc(col["dropped"])
                self._m_cache_patched.inc(col["patched"])
                self._m_cache_retained.inc(col["retained"])
                self._m_topk_invalidated.inc(topk["dropped"])
                self._m_topk_retained.inc(topk["retained"])
        return version

    @staticmethod
    def _infer_dirty_ranges(old_index, new_index):
        """Row ranges whose factors changed, by direct comparison.

        Only possible when both backends expose dense ``factors``
        (monolithic indexes); otherwise every row is conservatively
        dirty — sharded rebuilds should pass the repair report's
        digest-diffed ranges instead.
        """
        n = int(new_index.num_nodes)
        if not (hasattr(old_index, "factors") and hasattr(new_index, "factors")):
            return ((0, n),)
        old_u, _, _, old_z = old_index.factors
        new_u, _, _, new_z = new_index.factors
        if old_u.shape != new_u.shape or old_z.shape != new_z.shape:
            return ((0, n),)
        dirty = np.any(old_z != new_z, axis=1) | np.any(old_u != new_u, axis=1)
        ranges: List[Tuple[int, int]] = []
        start = None
        for row in range(n):
            if dirty[row] and start is None:
                start = row
            elif not dirty[row] and start is not None:
                ranges.append((start, row))
                start = None
        if start is not None:
            ranges.append((start, n))
        return tuple(ranges)

    @staticmethod
    def _make_row_patcher(index):
        """``recompute_rows(seed, start, stop)`` against ``index``.

        Returns the *final* cached-column values for rows
        ``[start, stop)`` of seed's column — damping applied and the
        identity contribution included — via the same expression, cast,
        and add order as the backends' exact paths, so a patched column
        is bit-identical to a fresh ``query_columns([seed])``
        (partition stability of :func:`~repro.core.index.
        exact_column_product`).
        """
        damping = index.config.damping
        dtype = np.dtype(index.dtype)
        if hasattr(index, "gather_z_rows"):
            # sharded backend: gather the stored-dtype rows from owner
            # shards (same bytes the shard kernel reads)
            def load(seed, start, stop):
                z_rows = index.gather_z_rows(
                    np.arange(start, stop, dtype=np.int64)
                )
                u_row = index.gather_u_rows(
                    np.asarray([seed], dtype=np.int64)
                )[0]
                return z_rows, u_row
        else:
            u_all, _sigma, _p, z_all = index.factors

            def load(seed, start, stop):
                return z_all[start:stop], u_all[int(seed), :]

        def recompute_rows(seed, start, stop):
            z_rows, u_row = load(seed, start, stop)
            rows = damping * exact_column_product(z_rows, u_row)
            rows = np.asarray(rows, dtype=dtype)
            if start <= seed < stop:
                rows[seed - start] += 1.0
            return rows

        return recompute_rows

    # ------------------------------------------------------------------
    # stats and lifecycle
    # ------------------------------------------------------------------
    def stats(self) -> ServingStats:
        """A consistent snapshot of traffic, cache, and phase timings.

        Values are read from the backing metrics registry (the
        ``csrplus_serve_*`` instruments), so this dataclass and a
        Prometheus scrape of :attr:`registry` always agree.
        """
        cache = self._cache.counters()
        with self._stats_lock:
            self._m_cached_columns.set(cache["cached_columns"])
            self._m_cache_bytes.set(cache["bytes_cached"])
            self._m_integrity.set(cache["integrity_failures"])
            return ServingStats(
                requests=int(self._m_requests.value),
                batches=int(self._m_batches.value),
                seeds_requested=int(self._m_seeds.value),
                unique_seeds=int(self._m_unique.value),
                hits=int(self._m_hits.value),
                misses=int(self._m_misses.value),
                evictions=int(self._m_evictions.value),
                cached_columns=cache["cached_columns"],
                bytes_cached=cache["bytes_cached"],
                cache_capacity=self._cache.capacity,
                retries=int(self._m_retries.value),
                shed=int(self._m_shed.value),
                deadline_exceeded=int(self._m_deadline.value),
                degraded_requests=int(self._m_degraded.value),
                cache_integrity_failures=cache["integrity_failures"],
                lookup_seconds=self._m_phase["lookup"].value,
                compute_seconds=self._m_phase["compute"].value,
                assemble_seconds=self._m_phase["assemble"].value,
                tier_exact=int(self._m_tier_exact.value),
                tier_approx=int(self._m_tier_approx.value),
                approx_batches=int(self._m_approx_batches.value),
                approx_downgrades=int(self._m_approx_downgrades.value),
                budget_underflows=int(self._m_budget_underflow.value),
            )

    def topk_stats(self) -> Dict[str, int]:
        """A consistent snapshot of the ``csrplus_topk_*`` instruments."""
        cache = self._topk_cache.counters()
        with self._stats_lock:
            self._m_topk_entries.set(cache["cached_entries"])
            return {
                "batches": int(self._m_topk_batches.value),
                "seeds": int(self._m_topk_seeds.value),
                "hits": int(self._m_topk_hits.value),
                "misses": int(self._m_topk_misses.value),
                "evictions": int(self._m_topk_evictions.value),
                "cached_entries": cache["cached_entries"],
                "bytes_cached": cache["bytes_cached"],
                "candidates_scored": int(self._m_topk_candidates.value),
                "blocks_scanned": int(self._m_topk_blocks_scanned.value),
                "blocks_skipped": int(self._m_topk_blocks_skipped.value),
                "retries": int(self._m_topk_retries.value),
                "deadline_exceeded": int(self._m_topk_deadline.value),
                "degraded_requests": int(self._m_topk_degraded.value),
            }

    def slow_queries(self) -> List[dict]:
        """Recent slow-batch records, oldest first (bounded ring)."""
        with self._stats_lock:
            return list(self._slow_log)

    def latency_percentiles(self) -> Dict[str, float]:
        """Exact p50/p95/p99 over the most recent batch latencies.

        Computed from the sliding :class:`~repro.obs.latency.
        LatencyWindow` (raw samples), so unlike
        ``csrplus_serve_batch_seconds`` quantiles the values carry no
        bucket-interpolation error — at the cost of covering only the
        window's last ``latency_window_samples`` batches.  All ``nan``
        when instrumentation is disabled or no batch has completed.
        """
        return self.latency_window.snapshot()

    def clear_cache(self) -> None:
        """Drop all cached columns and rankings (for cold-start runs)."""
        self._cache.clear()
        self._topk_cache.clear()

    def close(self) -> None:
        """Shut down the worker pool (idempotent)."""
        with self._executor_lock:
            self._closed = True
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)

    def __enter__(self) -> "CoSimRankService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CoSimRankService(n={self.index.num_nodes}, "
            f"cache_columns={self._cache.capacity}, "
            f"max_workers={self.max_workers}, chunk_size={self.chunk_size}, "
            f"query_mode={self.query_mode!r})"
        )
