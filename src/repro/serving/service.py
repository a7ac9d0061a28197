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

Top-k requests (:meth:`CoSimRankService.serve_topk`) run the same
pipeline: a top-k answer is a reduction of the same columns, so only
the cache (:class:`~repro.serving.cache.TopKCache`), the evaluator (the
blockwise top-k kernel), the span names and a few kind-only
instruments differ.  Each seed is its own request.

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
:func:`~repro.core.kernel.batched_query_atol` of the exact value, and a
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

Observability (docs/observability.md): every column batch emits a
``serve.batch`` span with nested ``serve.coalesce`` / ``serve.lookup``
/ ``serve.compute`` (plus one ``serve.compute.chunk`` per worker task
and one ``serve.compute.retry`` per isolation retry) /
``serve.assemble`` children; a top-k batch emits ``serve.topk`` with
one ``serve.topk.compute`` child (``serve.topk.chunk`` /
``serve.topk.retry`` beneath it).  The service maintains counters,
gauges, and a per-batch latency histogram in a
:class:`~repro.obs.metrics.MetricsRegistry`.
:class:`~repro.serving.stats.ServingStats` snapshots are read straight
from those instruments.  Column batches slower than
``slow_query_seconds`` are logged on the ``repro.serving`` logger and
kept in a bounded in-memory ring (:meth:`CoSimRankService.slow_queries`).
"""

from __future__ import annotations

import functools
import itertools
import json
import logging
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

import repro.obs as obs
from repro.core.kernel import QueryLike, available_cpus, normalize_queries
from repro.core.topk import TopKResult, top_k_blockwise
from repro.errors import (
    ColumnComputeFailed,
    DeadlineExceeded,
    InvalidParameterError,
    ReproError,
    ServiceOverloaded,
)
from repro.obs.latency import LatencyWindow
from repro.obs.metrics import Counter, Gauge, MetricsRegistry
from repro.obs.tracing import Span, Tracer
from repro.serving.admission import SeedBudget
from repro.serving.cache import ColumnCache, TopKCache
from repro.serving.results import BatchResult, RequestOutcome
from repro.core.config import QUERY_MODES
from repro.serving.scheduler import (
    BatchPlan,
    chunk_seeds,
    effective_chunk_size,
    plan_batch,
)
from repro.serving.stats import ServingStats
from repro.sharding.index import ShardedIndex
from repro.testing import faults

if TYPE_CHECKING:
    from repro.core.index import CSRPlusIndex

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

#: Capacity of the live latency window behind
#: :meth:`CoSimRankService.latency_percentiles` (most recent batches).
LATENCY_WINDOW_SAMPLES = 1024

#: The eight counter families each answer kind keeps, keyed by kind
#: (the batch-id prefix): ``stat -> (family, HELP)``.  The stat names
#: are also the keys :meth:`CoSimRankService.topk_stats` reports.
_KIND_FAMILIES = {
    "batch": {
        "batches": ("csrplus_serve_batches_total", "serve_batch calls"),
        "seeds": (
            "csrplus_serve_seeds_requested_total",
            "Seed columns returned, duplicates included",
        ),
        "hits": ("csrplus_serve_cache_hits_total", "Cache lookup hits"),
        "misses": ("csrplus_serve_cache_misses_total", "Cache lookup misses"),
        "evictions": (
            "csrplus_serve_cache_evictions_total", "Columns evicted by LRU"
        ),
        "retries": (
            "csrplus_serve_retries_total",
            "Per-seed isolation retries after worker chunk failures",
        ),
        "deadline_exceeded": (
            "csrplus_serve_deadline_exceeded_total",
            "Batches whose deadline cancelled at least one seed column",
        ),
        "degraded_requests": (
            "csrplus_serve_degraded_requests_total",
            "Requests that failed while the rest of their batch was served",
        ),
    },
    "topk": {
        "batches": ("csrplus_topk_batches_total", "serve_topk calls"),
        "seeds": (
            "csrplus_topk_seeds_total",
            "Top-k rankings returned, duplicates included",
        ),
        "hits": (
            "csrplus_topk_cache_hits_total",
            "Top-k lookups answered from a resident ranking",
        ),
        "misses": (
            "csrplus_topk_cache_misses_total",
            "Top-k lookups that needed a fresh blockwise scan",
        ),
        "evictions": (
            "csrplus_topk_cache_evictions_total",
            "Rankings evicted from the top-k LRU",
        ),
        "retries": (
            "csrplus_topk_retries_total",
            "Per-seed isolation retries after top-k chunk failures",
        ),
        "deadline_exceeded": (
            "csrplus_topk_deadline_exceeded_total",
            "serve_topk batches whose deadline cancelled at least one seed",
        ),
        "degraded_requests": (
            "csrplus_topk_degraded_requests_total",
            "Top-k requests that failed while the rest of their batch "
            "was served",
        ),
    },
}


@dataclass(frozen=True)
class _AnswerKind:
    """What the one serving pipeline (``CoSimRankService._serve``)
    varies by answer kind: similarity columns or top-k rankings."""

    #: batch-id prefix, and this kind's key in :data:`_KIND_FAMILIES`
    prefix: str
    root_span: str
    compute_span: str
    #: parent name of the per-chunk ``.chunk`` / ``.retry`` spans
    chunk_span: str
    #: the exact-tier cache: ``lookup`` / ``insert(..., *key, version=)``
    cache: Union[ColumnCache, TopKCache]
    #: ``(backend, *key, seeds, mode, span) -> one answer per seed``
    evaluate: Callable
    #: ``(requests, num_nodes) -> BatchPlan``
    plan: Callable[..., BatchPlan]
    #: ``(plan, key) -> root-span attributes``
    attributes: Callable[[BatchPlan, tuple], dict]
    #: ``(seeds, answers, backend) -> one request's result``
    build: Callable
    #: the eight families of :data:`_KIND_FAMILIES`, by stat
    metrics: Dict[str, Counter]
    #: occupancy gauges, by ``cache.counters()`` key
    gauges: Dict[str, Gauge]
    #: column batches alone get phase spans and feed the request,
    #: unique-seed, phase, latency and slow-query instruments; top-k
    #: batches alone feed the pruning counters
    columns: bool


def _plan_seeds(seed_ids: np.ndarray, _num_nodes: int) -> BatchPlan:
    """A top-k batch's plan: every (validated) seed is one request."""
    return BatchPlan(tuple(seed_ids.reshape(-1, 1)), np.unique(seed_ids))


def factors_changed(old_index, new_index) -> bool:
    """Whether answers from ``new_index`` may differ from ``old_index``'s.

    ``False`` only when the factors are provably byte-identical: both
    backends expose dense ``factors`` whose ``Z`` and ``U`` are equal,
    or both are :class:`~repro.sharding.ShardedIndex` stores whose
    manifests list the same shard entries (ranges and digests) — and
    the damping agrees.
    Any other pair (e.g. every frontend ``PooledIndex``) counts as
    changed.
    """
    if old_index.config.damping != new_index.config.damping:
        return True
    if hasattr(old_index, "factors") and hasattr(new_index, "factors"):
        old_u, _, _, old_z = old_index.factors
        new_u, _, _, new_z = new_index.factors
        return not (np.array_equal(old_z, new_z) and np.array_equal(old_u, new_u))
    if isinstance(old_index, ShardedIndex) and isinstance(new_index, ShardedIndex):
        return old_index.store.manifest.shards != new_index.store.manifest.shards
    return True


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
        the CPUs this process may run on
        (:func:`~repro.core.kernel.available_cpus`, its affinity mask);
        ``1`` computes misses serially on the
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
    ):
        if max_workers is not None and max_workers < 1:
            raise InvalidParameterError(
                f"max_workers must be >= 1 (or None for auto), got {max_workers}"
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
        self.query_mode = query_mode or index.config.query_mode
        # also rejects chunk_size < 1
        self.chunk_size = effective_chunk_size(chunk_size, self.query_mode)
        index.prepare()
        self.index = index
        # live-graph versioning (docs/dynamic.md): batches pin
        # (index, version) under _swap_lock at entry, publish_index
        # replaces both atomically — in-flight batches finish on the
        # old index while new batches already serve the new one
        self._index_version = 0
        self._swap_lock = threading.Lock()
        self._publish_lock = threading.Lock()
        self.max_workers = int(max_workers or available_cpus())
        self.slow_query_seconds = slow_query_seconds
        self._clock = clock
        self._budget = SeedBudget(
            max_inflight_seeds, on_underflow=self._on_budget_underflow
        )
        if approx_index is not None:
            approx_index.prepare()
            self._check_node_set("approx_index", approx_index, index)
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
        self.latency_window = LatencyWindow(max_samples=LATENCY_WINDOW_SAMPLES)
        self._executor: Optional[ThreadPoolExecutor] = None
        self._executor_lock = threading.Lock()
        self._closed = False

        self.registry = registry if registry is not None else MetricsRegistry()
        self._tracer = tracer if tracer is not None else obs.get_tracer()
        reg = self.registry
        metrics = {
            kind: {
                stat: reg.counter(name, help_text)
                for stat, (name, help_text) in families.items()
            }
            for kind, families in _KIND_FAMILIES.items()
        }
        self._m_requests = reg.counter(
            "csrplus_serve_requests_total", "Individual requests answered"
        )
        self._m_unique = reg.counter(
            "csrplus_serve_unique_seeds_total",
            "Distinct seeds looked up in the cache, summed per batch",
        )
        reg.gauge(
            "csrplus_serve_cache_capacity", "Column cache capacity"
        ).set(self._cache.capacity)
        self._m_shed = reg.counter(
            "csrplus_serve_shed_total",
            "Batches rejected by admission control (load shedding)",
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
        # info-style gauge: scrapes (and regressions) can attribute this
        # service's numbers to the mode that produced them
        reg.gauge(
            "csrplus_serve_query_mode",
            "Active column evaluation strategy (1 for the mode in use)",
            labels={"mode": self.query_mode},
        ).set(1)
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
        # registered so the family stays on the scrape; swaps are
        # all-or-nothing now, so it reads 0
        reg.counter(
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
        self._batch = _AnswerKind(
            prefix="batch",
            root_span="serve.batch",
            compute_span="serve.compute",
            chunk_span="serve.compute",
            cache=self._cache,
            evaluate=self._columns,
            plan=plan_batch,
            attributes=lambda plan, _key: {
                "requests": plan.num_requests,
                "unique_seeds": int(plan.unique_seeds.size),
            },
            build=self._assemble,
            metrics=metrics["batch"],
            gauges={
                "cached_columns": reg.gauge(
                    "csrplus_serve_cache_columns", "Resident cached columns"
                ),
                "bytes_cached": reg.gauge(
                    "csrplus_serve_cache_bytes", "Bytes held by the column cache"
                ),
                "integrity_failures": reg.gauge(
                    "csrplus_serve_cache_integrity_failures",
                    "Cached columns dropped because their checksum no longer "
                    "matched",
                ),
            },
            columns=True,
        )
        self._topk = _AnswerKind(
            prefix="topk",
            root_span="serve.topk",
            compute_span="serve.topk.compute",
            chunk_span="serve.topk",
            cache=self._topk_cache,
            evaluate=self._rankings,
            plan=_plan_seeds,
            attributes=lambda plan, key: {
                "seeds": plan.num_requests, "k": key[0], "exclude_self": key[1]
            },
            build=lambda seeds, answers, _backend: answers[seeds[0]],
            metrics=metrics["topk"],
            gauges={
                "cached_entries": reg.gauge(
                    "csrplus_topk_cache_entries", "Resident cached rankings"
                )
            },
            columns=False,
        )

    @staticmethod
    def _check_node_set(what: str, candidate, index) -> None:
        if int(candidate.num_nodes) != int(index.num_nodes):
            raise InvalidParameterError(
                f"{what} must cover the same node set: serving "
                f"{index.num_nodes} nodes, got {candidate.num_nodes}"
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
        return self._serve(self._batch, requests, deadline_s, quality)

    # ------------------------------------------------------------------
    # tier selection (docs/approx.md)
    # ------------------------------------------------------------------
    def _check_request(self, deadline_s: Optional[float], quality: str) -> None:
        if self._closed:
            raise InvalidParameterError("service is closed")
        if deadline_s is not None and deadline_s <= 0:
            raise InvalidParameterError(
                f"deadline_s must be > 0 (or None), got {deadline_s}"
            )
        if quality not in QUALITY_LEVELS:
            raise InvalidParameterError(
                f"quality must be one of {QUALITY_LEVELS}, got {quality!r}"
            )
        # unlocked read: publish_index never detaches a replica
        if quality == "approx" and self._approx_index is None:
            raise InvalidParameterError(
                'quality="approx" requires an approx_index replica '
                "(pass approx_index= to the service constructor)"
            )

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
        :func:`~repro.core.kernel.batched_query_atol` contract.  Results
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
        seed_ids = normalize_queries(seeds, self.index.num_nodes)
        return self._serve(
            self._topk, seed_ids, deadline_s, quality,
            key=(int(k), bool(exclude_self)),
        )

    # ------------------------------------------------------------------
    # the serving pipeline
    # ------------------------------------------------------------------
    def _serve(
        self,
        kind: _AnswerKind,
        requests,
        deadline_s: Optional[float],
        quality: str,
        key: tuple = (),
    ) -> BatchResult:
        """Serve one batch of ``kind``: check → pin → coalesce → admit →
        lookup → compute → assemble → record.

        ``key`` is the per-call part of the cache key and evaluator
        arguments: ``()`` for columns, ``(k, exclude_self)`` for top-k.
        """
        self._check_request(deadline_s, quality)
        started = self._clock()
        deadline_at = started + deadline_s if deadline_s is not None else None
        # pinned for the whole batch: a publish_index racing with it
        # never mixes versions inside one answer
        with self._swap_lock:
            index, version = self.index, self._index_version
            replica = self._approx_index
        batch_id = f"{kind.prefix}-{next(self._batch_seq)}"
        request_ids = [f"{batch_id}.{i}" for i in range(len(requests))]
        tracer = self._tracer
        # column batches time each phase in its own span; a top-k
        # batch's root holds only its compute span
        phase = tracer.span if kind.columns else lambda _name: obs.NULL_SPAN
        with tracer.span(kind.root_span, batch_id=batch_id) as batch_span:
            with phase("serve.coalesce") as coalesce_span:
                plan = kind.plan(requests, index.num_nodes)
            for name, value in kind.attributes(plan, key).items():
                batch_span.set_attribute(name, value)
            batch_span.set_attribute("query_mode", self.query_mode)
            batch_span.set_attribute("index_version", version)
            batch_span.set_attribute("request_ids", list(request_ids))
            tier, charged = self._admit(quality, int(plan.unique_seeds.size), replica)
            batch_span.set_attribute("tier", tier)
            exact = tier == "exact"
            backend = index if exact else replica
            try:
                with phase("serve.lookup") as lookup_span:
                    # replica answers never touch the exact caches
                    answers, missing = (
                        kind.cache.lookup(plan.unique_seeds, *key, version=version)
                        if exact
                        else ({}, plan.unique_seeds.tolist())
                    )
                # captured now: assembly below merges fresh answers into
                # the same dict, which would inflate the hit count
                num_hits = len(answers)

                with tracer.span(
                    kind.compute_span,
                    misses=len(missing),
                    query_mode=self.query_mode,
                ) as compute_span:
                    fresh, failures, cancelled, retries = self._compute_missing(
                        missing,
                        functools.partial(kind.evaluate, backend, *key),
                        kind.chunk_span,
                        compute_span,
                        deadline_at,
                    )
                    evicted = (
                        kind.cache.insert(fresh, *key, version=version)
                        if exact
                        else 0
                    )

                with phase("serve.assemble") as assemble_span:
                    answers.update(fresh)
                    cancelled_set = set(cancelled)
                    outcomes = []
                    for request_id, ids in zip(request_ids, plan.request_ids):
                        # the request's result, or the typed reason why not
                        outcome = RequestOutcome(request_id=request_id, tier=tier)
                        needed = [int(seed) for seed in ids]
                        unavailable = [s for s in needed if s not in answers]
                        if not unavailable:
                            outcome.result = kind.build(needed, answers, backend)
                        elif not cancelled_set.isdisjoint(unavailable):
                            outcome.error = DeadlineExceeded(
                                deadline_s or 0.0,
                                self._clock() - started,
                                completed_seeds=len(answers),
                                cancelled_seeds=len(cancelled_set),
                            )
                        else:
                            outcome.error = failures[unavailable[0]]
                        outcomes.append(outcome)
            finally:
                self._budget.release(charged)

        result = BatchResult(
            outcomes=outcomes,
            retries=retries,
            failed_seeds=failures,
            cancelled_seeds=tuple(cancelled),
            batch_id=batch_id,
        )
        self._record_batch(
            kind, plan, result, tier=tier, hits=num_hits, evicted=evicted,
            fresh=fresh, batch_span=batch_span,
            phase_seconds={
                phase: span.wall_seconds
                for phase, span in zip(PHASES, (
                    coalesce_span, lookup_span, compute_span, assemble_span
                ))
            },
        )
        return result

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

        def run(chunk, mode, suffix, **attributes):
            # cooperative cancellation: work that has not started by the
            # deadline is abandoned, not computed late
            if deadline_at is not None and self._clock() >= deadline_at:
                return "cancelled", None
            # Explicit parent: worker threads have no open span of their
            # own, so the chunk spans nest under this batch's compute
            # span instead of becoming disconnected roots.
            with self._tracer.span(
                f"{span_name}.{suffix}", parent=parent_span, **attributes
            ) as span:
                try:
                    faults.fire("compute.chunk", seeds=[int(s) for s in chunk])
                    return "ok", evaluate(chunk, mode, span)
                except Exception as exc:  # isolated below, per seed
                    return "error", exc

        def run_chunk(chunk):
            return run(chunk, self.query_mode, "chunk", seeds=len(chunk))

        chunks = chunk_seeds(missing, self.chunk_size)
        if self.max_workers == 1 or len(chunks) <= 1:
            outcomes = [run_chunk(chunk) for chunk in chunks]
        else:
            outcomes = list(self._get_executor().map(run_chunk, chunks))

        failed: List[int] = []
        for chunk, (status, payload) in zip(chunks, outcomes):
            seeds = [int(seed) for seed in chunk]
            if status == "ok":
                answers.update(zip(seeds, payload))
            elif status == "cancelled":
                cancelled.extend(seeds)
            else:
                failed.extend(seeds)

        # graceful degradation: a failed chunk is retried seed by seed,
        # so one poisonous seed cannot take its chunk-mates down with it.
        # Isolation retries are single-seed, where the batched GEMM
        # degenerates to the exact GEMV — use exact so a retried answer
        # is canonical.
        for seed in failed:
            status, payload = run([seed], "exact", "retry", seed=seed)
            if status == "cancelled":
                cancelled.append(seed)
                continue
            retries += 1
            if status == "ok":
                answers[seed] = payload[0]
            else:
                error = ColumnComputeFailed(
                    seed, str(payload) or type(payload).__name__
                )
                error.__cause__ = payload
                failures[seed] = error
        return answers, failures, cancelled, retries

    @staticmethod
    def _columns(index, seeds, mode: str, _span) -> list:
        """One similarity column per seed (a column batch's evaluator)."""
        block = index.query_columns(seeds, mode=mode)
        # copy: a column view would pin the whole chunk block in
        # memory for as long as the cache retains any one column
        return [block[:, j].copy() for j in range(len(seeds))]

    def _rankings(
        self, index, k: int, exclude_self: bool, seeds, mode: str, span
    ) -> list:
        """One top-``k`` ranking per seed (a top-k batch's evaluator)."""
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
        kind: _AnswerKind,
        plan: BatchPlan,
        result: BatchResult,
        *,
        tier: str,
        hits: int,
        evicted: int,
        fresh: Dict[int, object],
        batch_span,
        phase_seconds: Dict[str, float],
    ) -> None:
        """Fold one batch's outcome into the registry (consistent snapshot).

        The only place batch metrics are recorded, for both kinds.
        """
        metrics = kind.metrics
        unique = int(plan.unique_seeds.size)
        misses = unique - hits  # every distinct seed is a hit or a miss
        with self._stats_lock:
            metrics["batches"].inc()
            metrics["seeds"].inc(plan.seeds_requested)
            if tier == "exact":
                self._m_tier_exact.inc(plan.num_requests)
                metrics["hits"].inc(hits)
                metrics["misses"].inc(misses)
                metrics["evictions"].inc(evicted)
            else:
                self._m_tier_approx.inc(plan.num_requests)
                self._m_approx_batches.inc()
                self._m_approx_seeds.inc(unique)
            metrics["retries"].inc(result.retries)
            metrics["degraded_requests"].inc(result.num_failed)
            if result.cancelled_seeds:
                metrics["deadline_exceeded"].inc()
            self._refresh_gauges(kind)
            if kind.columns:
                self._m_requests.inc(plan.num_requests)
                if tier == "exact":
                    self._m_unique.inc(unique)
                for phase, seconds in phase_seconds.items():
                    self._m_phase[phase].inc(seconds)
                if batch_span is not obs.NULL_SPAN:
                    self._m_batch_seconds.observe(batch_span.wall_seconds)
                    self.latency_window.observe(batch_span.wall_seconds)
            else:
                for ranking in fresh.values():
                    self._m_topk_candidates.inc(ranking.candidates_scored)
                    self._m_topk_blocks_scanned.inc(ranking.blocks_scanned)
                    self._m_topk_blocks_skipped.inc(ranking.blocks_skipped)
        if (
            kind.columns
            and self.slow_query_seconds is not None
            and batch_span.wall_seconds >= self.slow_query_seconds
        ):
            entry = {
                "batch_id": result.batch_id,
                "request_ids": [outcome.request_id for outcome in result.outcomes],
                "tier": tier,
                "seconds": batch_span.wall_seconds,
                "requests": plan.num_requests,
                "unique_seeds": unique,
                "hits": hits,
                "misses": misses,
                "phases": phase_seconds,
            }
            with self._stats_lock:
                self._m_slow.inc()
                self._slow_log.append(entry)
            # structured JSON so log pipelines can join the slow batch
            # with its trace span and outcomes by batch_id/request_ids;
            # the "slow batch" event name is the stable grep handle
            logger.warning("%s", json.dumps({
                "event": "slow batch",
                "threshold_seconds": self.slow_query_seconds,
                **entry,
            }))

    @staticmethod
    def _counts(kind: _AnswerKind) -> Dict[str, int]:
        """``kind``'s eight per-kind counters, by stat."""
        return {stat: int(counter.value) for stat, counter in kind.metrics.items()}

    def _refresh_gauges(self, kind: _AnswerKind) -> Dict[str, int]:
        """Set ``kind``'s occupancy gauges from one cache snapshot and
        return it.  Caller holds ``_stats_lock``."""
        counts = kind.cache.counters()
        for stat, gauge in kind.gauges.items():
            gauge.set(counts[stat])
        return counts

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

    def publish_index(self, new_index, *, approx_index=None) -> int:
        """Atomically swap in a rebuilt index — zero downtime.

        The swap itself is one pointer exchange under ``_swap_lock``:
        batches entering after it serve the new index; batches that
        pinned the old one at entry finish on it undisturbed (the old
        index object is never mutated, so no request ever mixes
        versions inside one answer).

        The caches advance all-or-nothing (:func:`factors_changed`):
        when the new factors are byte-identical to the old ones (e.g. a
        batch that re-added an existing edge) every entry is retagged
        to the new version and keeps its exact bytes; otherwise every
        entry is dropped.  See :meth:`~repro.serving.cache.ColumnCache.
        advance`.

        Parameters
        ----------
        new_index:
            A prepared index for the updated graph.  Must have the same
            ``num_nodes`` and ``dtype`` as the one being replaced (the
            per-seed caches are shaped for them).
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
            self._check_node_set("published approx_index", approx_index, new_index)
        started = self._clock()
        with self._publish_lock:
            old_index = self.index
            self._check_node_set("published index", new_index, old_index)
            if np.dtype(new_index.dtype) != np.dtype(old_index.dtype):
                raise InvalidParameterError(
                    "publish_index requires the serving dtype to match: "
                    f"serving {np.dtype(old_index.dtype)}, got "
                    f"{np.dtype(new_index.dtype)}"
                )
            changed = factors_changed(old_index, new_index)
            with self._tracer.span(
                "index.swap",
                from_version=self._index_version,
                to_version=self._index_version + 1,
                changed=changed,
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
                # sees the new pair.  The cache advance below happens
                # outside _swap_lock — stale-version inserts are dropped
                # by the caches, so old batches cannot poison entries.
                col = self._cache.advance(version, changed)
                topk = self._topk_cache.advance(version, changed)
            elapsed = self._clock() - started
            with self._stats_lock:
                self._m_index_version.set(version)
                if approx_index is not None:
                    self._m_approx_index_version.set(version)
                    self._publish_approx_atol(approx_index)
                self._m_swap_seconds.observe(elapsed)
                self._m_cache_invalidated.inc(col["dropped"])
                self._m_cache_retained.inc(col["retained"])
                self._m_topk_invalidated.inc(topk["dropped"])
                self._m_topk_retained.inc(topk["retained"])
        return version

    # ------------------------------------------------------------------
    # stats and lifecycle
    # ------------------------------------------------------------------
    def stats(self) -> ServingStats:
        """A consistent snapshot of traffic, cache, and phase timings.

        Values are read from the backing metrics registry (the
        ``csrplus_serve_*`` instruments), so this dataclass and a
        Prometheus scrape of :attr:`registry` always agree.
        """
        with self._stats_lock:
            cache = self._refresh_gauges(self._batch)
            counts = self._counts(self._batch)
            return ServingStats(
                seeds_requested=counts.pop("seeds"),
                **counts,
                requests=int(self._m_requests.value),
                unique_seeds=int(self._m_unique.value),
                cached_columns=cache["cached_columns"],
                bytes_cached=cache["bytes_cached"],
                cache_capacity=self._cache.capacity,
                shed=int(self._m_shed.value),
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
        with self._stats_lock:
            cache = self._refresh_gauges(self._topk)
            return {
                **self._counts(self._topk),
                "cached_entries": cache["cached_entries"],
                "bytes_cached": cache["bytes_cached"],
                "candidates_scored": int(self._m_topk_candidates.value),
                "blocks_scanned": int(self._m_topk_blocks_scanned.value),
                "blocks_skipped": int(self._m_topk_blocks_skipped.value),
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
        window's last :data:`LATENCY_WINDOW_SAMPLES` batches.  All ``nan``
        when instrumentation is disabled or no batch has completed.
        """
        return self.latency_window.snapshot()

    def clear_cache(self) -> None:
        """Drop all cached columns and rankings (for cold-start runs)."""
        self._cache.clear()
        self._topk_cache.clear()

    def close(self) -> None:
        """Shut down the worker pool (idempotent).

        Every later ``serve_*`` call raises
        :class:`~repro.errors.InvalidParameterError` at entry, whatever
        its size or the worker count.
        """
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
