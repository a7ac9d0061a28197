"""The metric surface of :class:`~repro.serving.CoSimRankService`, pinned.

:func:`tests.obs.prom.assert_known_families` rejects unknown family
names, but nothing there notices a family that stops being emitted, a
HELP string that drifts, or a label key that changes.  This suite
drives every answer kind and tier through one service (an exact column
batch, a top-k batch, a replica batch, then one ``publish_index``) and
compares the scrape against a committed list of ``(family, TYPE, HELP,
label keys)`` for the service's own families, plus the values of its
deterministic counters and gauges for that traffic.
"""

import re

import pytest

import repro.obs as obs
from repro.core.index import CSRPlusIndex, replica_rank
from repro.graphs import ring
from repro.obs.metrics import MetricsRegistry
from repro.serving import CoSimRankService
from tests.obs.prom import assert_known_families

#: Family prefixes (or exact names) the service owns.
SERVICE_FAMILY_PREFIXES = (
    "csrplus_serve_",
    "csrplus_topk_",
    "csrplus_approx_",
    "csrplus_index_version",
    "csrplus_update_swap_seconds",
)

#: ``family -> (TYPE, HELP, label keys)`` for every family above.
EXPECTED_FAMILIES = {
    "csrplus_approx_atol": (
        "gauge",
        "Published per-entry error bound of the attached replica against "
        "the exact tier (truncation_atol)",
        (),
    ),
    "csrplus_approx_batches_total": (
        "counter", "Batches answered on the approximate tier", (),
    ),
    "csrplus_approx_downgrades_total": (
        "counter",
        "quality=auto batches downgraded to the approximate tier instead "
        "of being shed",
        (),
    ),
    "csrplus_approx_index_version": (
        "gauge", "Version of the approximate replica currently attached", (),
    ),
    "csrplus_approx_seeds_total": (
        "counter",
        "Distinct replica columns evaluated by the approximate tier",
        (),
    ),
    "csrplus_index_version": (
        "gauge", "Version of the index currently being served", (),
    ),
    "csrplus_serve_batch_seconds": (
        "histogram", "serve_batch wall time", (),
    ),
    "csrplus_serve_batches_total": ("counter", "serve_batch calls", ()),
    "csrplus_serve_budget_underflow_total": (
        "counter",
        "SeedBudget.release calls exceeding what was acquired "
        "(double-release accounting bugs, surfaced not swallowed)",
        (),
    ),
    "csrplus_serve_cache_bytes": (
        "gauge", "Bytes held by the column cache", (),
    ),
    "csrplus_serve_cache_capacity": ("gauge", "Column cache capacity", ()),
    "csrplus_serve_cache_columns": ("gauge", "Resident cached columns", ()),
    "csrplus_serve_cache_evictions_total": (
        "counter", "Columns evicted by LRU", (),
    ),
    "csrplus_serve_cache_hits_total": ("counter", "Cache lookup hits", ()),
    "csrplus_serve_cache_integrity_failures": (
        "gauge",
        "Cached columns dropped because their checksum no longer matched",
        (),
    ),
    "csrplus_serve_cache_invalidated_total": (
        "counter",
        "Cached columns dropped by version swaps (touched seeds)",
        (),
    ),
    "csrplus_serve_cache_misses_total": ("counter", "Cache lookup misses", ()),
    "csrplus_serve_cache_patched_total": (
        "counter", "Cached columns row-patched across version swaps", (),
    ),
    "csrplus_serve_cache_retained_total": (
        "counter",
        "Cached columns retained untouched across version swaps",
        (),
    ),
    "csrplus_serve_deadline_exceeded_total": (
        "counter",
        "Batches whose deadline cancelled at least one seed column",
        (),
    ),
    "csrplus_serve_degraded_requests_total": (
        "counter",
        "Requests that failed while the rest of their batch was served",
        (),
    ),
    "csrplus_serve_phase_seconds_total": (
        "counter", "Cumulative wall time per serving phase", ("phase",),
    ),
    "csrplus_serve_query_mode": (
        "gauge",
        "Active column evaluation strategy (1 for the mode in use)",
        ("mode",),
    ),
    "csrplus_serve_requests_total": (
        "counter", "Individual requests answered", (),
    ),
    "csrplus_serve_retries_total": (
        "counter",
        "Per-seed isolation retries after worker chunk failures",
        (),
    ),
    "csrplus_serve_seeds_requested_total": (
        "counter", "Seed columns returned, duplicates included", (),
    ),
    "csrplus_serve_shed_total": (
        "counter", "Batches rejected by admission control (load shedding)", (),
    ),
    "csrplus_serve_slow_batches_total": (
        "counter", "Batches slower than the slow-query threshold", (),
    ),
    "csrplus_serve_tier_approx_total": (
        "counter", "Requests answered by the approximate (replica) tier", (),
    ),
    "csrplus_serve_tier_exact_total": (
        "counter",
        "Requests answered by the exact tier (columns and top-k)",
        (),
    ),
    "csrplus_serve_unique_seeds_total": (
        "counter",
        "Distinct seeds looked up in the cache, summed per batch",
        (),
    ),
    "csrplus_topk_batches_total": ("counter", "serve_topk calls", ()),
    "csrplus_topk_blocks_scanned_total": (
        "counter", "Row-blocks whose scores were computed", (),
    ),
    "csrplus_topk_blocks_skipped_total": (
        "counter", "Row-blocks skipped by the norm bound", (),
    ),
    "csrplus_topk_cache_entries": ("gauge", "Resident cached rankings", ()),
    "csrplus_topk_cache_evictions_total": (
        "counter", "Rankings evicted from the top-k LRU", (),
    ),
    "csrplus_topk_cache_hits_total": (
        "counter", "Top-k lookups answered from a resident ranking", (),
    ),
    "csrplus_topk_cache_invalidated_total": (
        "counter", "Cached rankings dropped by version swaps", (),
    ),
    "csrplus_topk_cache_misses_total": (
        "counter", "Top-k lookups that needed a fresh blockwise scan", (),
    ),
    "csrplus_topk_cache_retained_total": (
        "counter", "Cached rankings retained across clean version swaps", (),
    ),
    "csrplus_topk_candidates_scored_total": (
        "counter",
        "Candidates scored by the blockwise kernel (pruning visible as "
        "this staying well under seeds * n)",
        (),
    ),
    "csrplus_topk_deadline_exceeded_total": (
        "counter",
        "serve_topk batches whose deadline cancelled at least one seed",
        (),
    ),
    "csrplus_topk_degraded_requests_total": (
        "counter",
        "Top-k requests that failed while the rest of their batch was "
        "served",
        (),
    ),
    "csrplus_topk_retries_total": (
        "counter",
        "Per-seed isolation retries after top-k chunk failures",
        (),
    ),
    "csrplus_topk_seeds_total": (
        "counter", "Top-k rankings returned, duplicates included", (),
    ),
    "csrplus_update_swap_seconds": (
        "histogram",
        "Wall time of publish_index (swap + per-seed cache upgrade)",
        (),
    ),
}

#: Sample values the traffic in :func:`scrape` produces, for every
#: family whose value does not depend on the clock or on BLAS rounding
#: (wall-time families and ``csrplus_approx_atol`` are left out).
EXPECTED_VALUES = {
    "csrplus_approx_batches_total": 1,
    "csrplus_approx_downgrades_total": 0,
    "csrplus_approx_index_version": 1,
    "csrplus_approx_seeds_total": 1,
    "csrplus_index_version": 1,
    "csrplus_serve_batches_total": 2,
    "csrplus_serve_budget_underflow_total": 0,
    "csrplus_serve_cache_bytes": 256,
    "csrplus_serve_cache_capacity": 1024,
    "csrplus_serve_cache_columns": 2,
    "csrplus_serve_cache_evictions_total": 0,
    "csrplus_serve_cache_hits_total": 0,
    "csrplus_serve_cache_integrity_failures": 0,
    "csrplus_serve_cache_invalidated_total": 0,
    "csrplus_serve_cache_misses_total": 2,
    "csrplus_serve_cache_patched_total": 0,
    "csrplus_serve_cache_retained_total": 2,
    "csrplus_serve_deadline_exceeded_total": 0,
    "csrplus_serve_degraded_requests_total": 0,
    'csrplus_serve_query_mode{mode="exact"}': 1,
    "csrplus_serve_requests_total": 3,
    "csrplus_serve_retries_total": 0,
    "csrplus_serve_seeds_requested_total": 4,
    "csrplus_serve_shed_total": 0,
    "csrplus_serve_slow_batches_total": 0,
    "csrplus_serve_tier_approx_total": 1,
    "csrplus_serve_tier_exact_total": 4,
    "csrplus_serve_unique_seeds_total": 2,
    "csrplus_topk_batches_total": 1,
    "csrplus_topk_blocks_scanned_total": 2,
    "csrplus_topk_blocks_skipped_total": 0,
    "csrplus_topk_cache_entries": 2,
    "csrplus_topk_cache_evictions_total": 0,
    "csrplus_topk_cache_hits_total": 0,
    "csrplus_topk_cache_invalidated_total": 0,
    "csrplus_topk_cache_misses_total": 2,
    "csrplus_topk_cache_retained_total": 2,
    "csrplus_topk_candidates_scored_total": 30,
    "csrplus_topk_deadline_exceeded_total": 0,
    "csrplus_topk_degraded_requests_total": 0,
    "csrplus_topk_retries_total": 0,
    "csrplus_topk_seeds_total": 2,
}

_COMMENT_RE = re.compile(r"^# (HELP|TYPE) (\S+) ?(.*)$")
_LABEL_KEY_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="')


def _is_service_family(name: str) -> bool:
    return name.startswith(SERVICE_FAMILY_PREFIXES)


def _family_of(sample_name: str, families) -> str:
    for suffix in ("_bucket", "_sum", "_count"):
        base = sample_name[: -len(suffix)]
        if sample_name.endswith(suffix) and base in families:
            return base
    return sample_name


def _surface(text: str):
    """``family -> (TYPE, HELP, label keys)`` and ``sample -> value``."""
    types, helps, labels, values = {}, {}, {}, {}
    for line in text.splitlines():
        if not line:
            continue
        match = _COMMENT_RE.match(line)
        if match:
            kind, name, rest = match.groups()
            (types if kind == "TYPE" else helps)[name] = rest
            continue
        sample, value = line.rsplit(" ", 1)
        name = sample.split("{", 1)[0]
        family = _family_of(name, types)
        keys = set(_LABEL_KEY_RE.findall(sample)) - {"le"}
        labels.setdefault(family, set()).update(keys)
        values[sample] = float(value)
    surface = {
        name: (types[name], helps.get(name, ""), tuple(sorted(labels.get(name, ()))))
        for name in types
        if _is_service_family(name)
    }
    return surface, values


@pytest.fixture
def scrape():
    previous = obs.set_enabled(True)
    try:
        index = CSRPlusIndex(ring(16), rank=4).prepare()
        replica = index.truncate_to_rank(replica_rank(index.rank))
        registry = MetricsRegistry()
        with CoSimRankService(
            index, max_workers=1, approx_index=replica, registry=registry
        ) as service:
            service.serve_batch([[0, 3], [3]])
            service.serve_topk([1, 2], 3)
            service.serve_batch([[4]], quality="approx")
            rebuilt = CSRPlusIndex(ring(16), rank=4).prepare()
            service.publish_index(
                rebuilt,
                approx_index=rebuilt.truncate_to_rank(
                    replica_rank(rebuilt.rank)
                ),
            )
        return registry.render_prometheus()
    finally:
        obs.set_enabled(previous)


def test_families_types_help_and_labels_are_pinned(scrape):
    assert_known_families(scrape)
    surface, _ = _surface(scrape)
    missing = sorted(set(EXPECTED_FAMILIES) - set(surface))
    extra = sorted(set(surface) - set(EXPECTED_FAMILIES))
    assert not missing, f"families no longer emitted: {missing}"
    assert not extra, f"unpinned families emitted: {extra}"
    for name, expected in EXPECTED_FAMILIES.items():
        assert surface[name] == expected, name


def test_deterministic_values_for_fixed_traffic(scrape):
    _, values = _surface(scrape)
    observed = {
        sample: values[sample] for sample in EXPECTED_VALUES if sample in values
    }
    assert observed == {k: float(v) for k, v in EXPECTED_VALUES.items()}
    phases = {
        sample for sample in values
        if sample.startswith("csrplus_serve_phase_seconds_total{")
    }
    assert phases == {
        f'csrplus_serve_phase_seconds_total{{phase="{phase}"}}'
        for phase in ("assemble", "coalesce", "compute", "lookup")
    }
