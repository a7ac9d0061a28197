"""Serving-layer statistics.

:class:`ServingStats` is an immutable-by-convention snapshot of what a
:class:`~repro.serving.service.CoSimRankService` has done so far:
traffic volume, cache effectiveness, and where the wall time went.
The live counters are the ``csrplus_serve_*`` instruments in the
service's :class:`~repro.obs.metrics.MetricsRegistry` (updated under
the service's stats lock); this dataclass is only the *exported* view,
so reading one is always race-free, and its fields agree with a
Prometheus scrape of the same registry.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

__all__ = ["ServingStats"]


@dataclass
class ServingStats:
    """A consistent snapshot of a service's counters.

    Attributes
    ----------
    requests:
        Individual query requests answered (a batch of ``k`` requests
        counts ``k``).
    batches:
        ``serve_batch`` calls (a single :meth:`~repro.serving.service.
        CoSimRankService.query` counts as a batch of one).
    seeds_requested:
        Total seed columns returned, duplicates included.
    unique_seeds:
        Total distinct seeds looked up in the cache, summed per batch
        (the same seed in two different batches counts twice).  Always
        equals ``hits + misses``.
    hits / misses:
        Cache lookup outcomes, counted per distinct seed per batch.
    evictions:
        Columns discarded by the LRU policy since construction.
    cached_columns / bytes_cached:
        Current cache occupancy.
    cache_capacity:
        Maximum number of resident columns (0 = caching disabled).
    retries:
        Per-seed isolation retries after worker chunk failures
        (``csrplus_serve_retries_total``).
    shed:
        Batches rejected by admission control
        (``csrplus_serve_shed_total``).
    deadline_exceeded:
        Batches whose deadline cancelled at least one seed column
        (``csrplus_serve_deadline_exceeded_total``).
    degraded_requests:
        Requests answered with a typed error while the rest of their
        batch was served (``csrplus_serve_degraded_requests_total``).
    cache_integrity_failures:
        Cached columns dropped because their checksum no longer matched
        (only with ``cache_validate=True``).
    lookup_seconds / compute_seconds / assemble_seconds:
        Cumulative wall time in the three serving phases: cache
        probing, miss computation (``query_columns``), and scattering
        columns into per-request result blocks, for batches of either
        tier.  Measured by the ``serve.*`` spans, so they are zero
        while instrumentation is disabled (:func:`repro.obs.disable`).
    tier_exact / tier_approx:
        Answered requests per serving tier — the exact index or the
        rank-truncated replica (docs/approx.md) — column requests plus
        top-k seed requests, each counted exactly once:
        ``tier_exact + tier_approx`` always equals
        ``requests + topk seeds served``.
    approx_batches:
        Batches answered on the approximate tier
        (``csrplus_approx_batches_total``).
    approx_downgrades:
        ``quality="auto"`` batches downgraded to the approximate tier
        instead of shed (``csrplus_approx_downgrades_total``).
    budget_underflows:
        ``SeedBudget.release`` calls exceeding what was acquired — a
        double-release accounting bug surfaced, never swallowed
        (``csrplus_serve_budget_underflow_total``).
    """

    requests: int = 0
    batches: int = 0
    seeds_requested: int = 0
    unique_seeds: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    cached_columns: int = 0
    bytes_cached: int = 0
    cache_capacity: int = 0
    retries: int = 0
    shed: int = 0
    deadline_exceeded: int = 0
    degraded_requests: int = 0
    cache_integrity_failures: int = 0
    lookup_seconds: float = 0.0
    compute_seconds: float = 0.0
    assemble_seconds: float = 0.0
    tier_exact: int = 0
    tier_approx: int = 0
    approx_batches: int = 0
    approx_downgrades: int = 0
    budget_underflows: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of distinct-seed lookups served from cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict:
        """Plain-dict form (JSON-friendly), including ``hit_rate``."""
        payload = asdict(self)
        payload["hit_rate"] = self.hit_rate
        return payload
