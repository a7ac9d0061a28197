"""Concurrent query serving for CSR+ (docs/serving.md, docs/robustness.md).

This package turns a prepared :class:`~repro.core.index.CSRPlusIndex`
into a traffic-serving component:

* :class:`~repro.serving.service.CoSimRankService` — the front-end:
  request coalescing, per-seed column caching, parallel miss
  computation, bit-exact results; plus the robustness layer — per-batch
  deadlines, admission control with load shedding, and per-seed failure
  isolation (graceful degradation);
* :class:`~repro.serving.cache.ColumnCache` — thread-safe LRU of
  ``[S]_{*,s}`` columns with shape/dtype validation and optional
  checksum integrity;
* :class:`~repro.serving.scheduler.BatchPlan` /
  :func:`~repro.serving.scheduler.plan_batch` /
  :func:`~repro.serving.scheduler.chunk_seeds` — pure batch planning;
* :class:`~repro.serving.admission.SeedBudget` — bounded in-flight
  seed budget backing the load shedder;
* :class:`~repro.serving.retry.RetryPolicy` /
  :class:`~repro.serving.retry.Retrier` — capped, jittered exponential
  backoff with injectable clock/sleep;
* :class:`~repro.serving.results.BatchResult` /
  :class:`~repro.serving.results.RequestOutcome` — per-request
  outcomes for degraded batches;
* :class:`~repro.serving.stats.ServingStats` — traffic/cache/timing/
  failure snapshot;
* :class:`~repro.serving.registry.IndexRegistry` — named, lazily
  loaded on-disk indexes with retry, checksum validation, and
  automatic re-prepare on corruption;
* :class:`~repro.serving.live.LiveIndexChain` /
  :class:`~repro.serving.live.IndexVersion` — live-graph serving
  (docs/dynamic.md): edge batches repaired into per-version stores and
  published to attached services with zero downtime
  (:meth:`~repro.serving.service.CoSimRankService.publish_index`);
* :mod:`repro.serving.loadgen` — deterministic open-loop load
  generation (Zipf popularity, bursts, SLO verdicts, and live-mutation
  schedules) behind ``csrplus loadgen`` and ``csrplus bench``;
* the ``quality="approx"``/``"auto"`` degraded tier (docs/approx.md):
  the service's ``approx_index=`` replica is a rank-truncated CSR+
  index (:func:`~repro.core.index.replica_rank`) served through the
  same pipeline, with a published per-entry error bound;
* :mod:`repro.serving.frontend` — the multi-process network front end
  (docs/frontend.md): an asyncio HTTP/JSON server fanning queries to a
  pool of worker processes that mmap the sharded store read-only (one
  physical copy of ``Z`` in page cache), with cross-request
  coalescing, merged Prometheus scrapes, graceful drain, and
  crashed-worker respawn;
* :class:`~repro.serving.locks.FileLock` — re-entrant advisory file
  lock coordinating multi-process access to on-disk index state.
"""

from repro._lazy import lazy_exports as _lazy_exports

__getattr__, __dir__ = _lazy_exports(__name__, {
    ".admission": ["SeedBudget"],
    ".cache": ["ColumnCache", "TopKCache"],
    ".frontend": [
        "BackgroundFrontend",
        "FrontendClient",
        "FrontendConfig",
        "FrontendServer",
        "WorkerPool",
    ],
    ".live": ["IndexVersion", "LiveIndexChain"],
    ".loadgen": [
        "LoadProfile",
        "LoadReport",
        "LoadSchedule",
        "ScheduledRequest",
        "SimulatedClock",
        "build_schedule",
        "loadgen_slos",
        "run_load",
        "zipf_probabilities",
    ],
    ".locks": ["FileLock"],
    ".registry": ["IndexRegistry"],
    ".results": ["BatchResult", "RequestOutcome"],
    ".retry": ["Retrier", "RetryPolicy"],
    ".scheduler": [
        "GEMM_MIN_CHUNK",
        "BatchPlan",
        "chunk_seeds",
        "effective_chunk_size",
        "plan_batch",
    ],
    ".service": ["QUALITY_LEVELS", "CoSimRankService"],
    ".stats": ["ServingStats"],
})

__all__ = [
    "CoSimRankService",
    "QUALITY_LEVELS",
    "ColumnCache",
    "TopKCache",
    "ServingStats",
    "IndexRegistry",
    "LiveIndexChain",
    "IndexVersion",
    "BatchPlan",
    "plan_batch",
    "chunk_seeds",
    "effective_chunk_size",
    "GEMM_MIN_CHUNK",
    "SeedBudget",
    "RetryPolicy",
    "Retrier",
    "BatchResult",
    "RequestOutcome",
    "LoadProfile",
    "LoadSchedule",
    "ScheduledRequest",
    "LoadReport",
    "SimulatedClock",
    "build_schedule",
    "run_load",
    "zipf_probabilities",
    "loadgen_slos",
    "BackgroundFrontend",
    "FileLock",
    "FrontendClient",
    "FrontendConfig",
    "FrontendServer",
    "WorkerPool",
]
