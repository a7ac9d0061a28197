"""Observability of the live-graph path (docs/dynamic.md).

Three layers of instruments, each pinned against the shared scrape
validator in :mod:`tests.obs.prom` so renames and typos fail here:

* :class:`~repro.core.dynamic.DynamicCSRPlus` — the
  ``csrplus_dynamic_staleness`` gauge tracks the update log, every
  rebuild increments ``csrplus_dynamic_rebuilds_total`` and emits a
  ``dynamic.rebuild`` span;
* :meth:`~repro.serving.service.CoSimRankService.publish_index` — the
  ``csrplus_index_version`` gauge, swap-latency histogram, per-entry
  cache invalidation counters, and the ``index.swap`` span;
* :class:`~repro.serving.live.LiveIndexChain` — the
  ``csrplus_update_*`` counters summarising each applied batch.
"""

import numpy as np

from repro.core.dynamic import DynamicCSRPlus
from repro.core.index import CSRPlusIndex
from repro.graphs.generators import erdos_renyi
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer
from repro.serving import CoSimRankService, LiveIndexChain

from .prom import assert_known_families, assert_valid_prometheus


def _span_names(tracer, names=None):
    """All span names in the tracer, roots and children flattened."""
    names = [] if names is None else names

    def walk(span):
        names.append(span.name)
        for child in span.children:
            walk(child)

    for root in tracer.roots():
        walk(root)
    return names


def _find_span(tracer, name):
    def walk(span):
        if span.name == name:
            return span
        for child in span.children:
            found = walk(child)
            if found is not None:
                return found
        return None

    for root in tracer.roots():
        found = walk(root)
        if found is not None:
            return found
    return None


class TestDynamicEngineObs:
    def test_staleness_gauge_tracks_update_log(self):
        graph = erdos_renyi(30, 120, seed=5)
        metrics = MetricsRegistry()
        dyn = DynamicCSRPlus(graph, rank=4, policy="manual", metrics=metrics)
        gauge = metrics.gauge("csrplus_dynamic_staleness", "x")
        assert gauge.value == 0
        dyn.update_edges(added=[(0, 11)])
        dyn.update_edges(added=[(1, 12)], removed=[(0, 11)])
        assert gauge.value == 3  # three edge changes pending
        dyn.refresh()
        assert gauge.value == 0
        assert metrics.counter("csrplus_dynamic_rebuilds_total", "x").value == 1

    def test_rebuild_emits_span_with_attributes(self):
        graph = erdos_renyi(30, 120, seed=5)
        tracer = Tracer()
        dyn = DynamicCSRPlus(
            graph, rank=4, policy="manual",
            metrics=MetricsRegistry(), tracer=tracer,
        )
        dyn.update_edges(added=[(0, 11), (2, 13)])
        dyn.refresh()
        span = _find_span(tracer, "dynamic.rebuild")
        assert span is not None
        assert span.attributes["policy"] == "manual"
        assert span.attributes["staleness"] == 2

    def test_scrape_format_and_families(self):
        graph = erdos_renyi(30, 120, seed=5)
        metrics = MetricsRegistry()
        dyn = DynamicCSRPlus(graph, rank=4, policy="immediate", metrics=metrics)
        dyn.update_edges(added=[(0, 11)])
        text = metrics.render_prometheus()
        assert assert_known_families(text) >= 2
        assert "csrplus_dynamic_staleness 0" in text
        assert "csrplus_dynamic_rebuilds_total 1" in text


class TestPublishObs:
    def test_swap_updates_version_gauge_and_counters(self):
        graph = erdos_renyi(30, 120, seed=5)
        index = CSRPlusIndex(graph, rank=4).prepare()
        metrics = MetricsRegistry()
        tracer = Tracer()
        with CoSimRankService(
            index, max_workers=1, registry=metrics, tracer=tracer
        ) as service:
            service.serve_batch([[0, 5]])  # two warm entries
            replacement = CSRPlusIndex(graph, rank=4).prepare()
            service.publish_index(replacement)  # identical factors
            text = service.registry.render_prometheus()
        assert "csrplus_index_version 1" in text
        assert "csrplus_update_swap_seconds_count 1" in text
        # identical factors -> an unchanged swap -> both entries retained
        assert "csrplus_serve_cache_retained_total 2" in text
        assert "csrplus_serve_cache_invalidated_total 0" in text
        span = _find_span(tracer, "index.swap")
        assert span is not None
        assert span.attributes["from_version"] == 0
        assert span.attributes["to_version"] == 1
        assert span.attributes["changed"] is False
        assert_known_families(text)

    def test_changed_swap_counts_invalidations(self):
        graph = erdos_renyi(30, 120, seed=5)
        index = CSRPlusIndex(graph, rank=4).prepare()
        tracer = Tracer()
        with CoSimRankService(index, max_workers=1, tracer=tracer) as service:
            service.serve_batch([[0, 15]])
            service.serve_topk([0], 3)
            replacement = CSRPlusIndex(
                graph.with_edges_added([(0, 15)]), rank=4
            ).prepare()
            service.publish_index(replacement)  # every entry is dropped
            text = service.registry.render_prometheus()
        assert "csrplus_serve_cache_invalidated_total 2" in text
        assert "csrplus_serve_cache_retained_total 0" in text
        assert "csrplus_serve_cache_patched_total 0" in text
        assert "csrplus_topk_cache_invalidated_total 1" in text
        assert _find_span(tracer, "index.swap").attributes["changed"] is True
        assert_known_families(text)


class TestChainObs:
    def test_update_counters_accumulate(self, tmp_path):
        graph = erdos_renyi(30, 120, seed=5)
        metrics = MetricsRegistry()
        chain = LiveIndexChain(
            graph, rank=4, num_shards=3, store_root=str(tmp_path),
            metrics=metrics,
        )
        existing = next(iter(graph.edges()))
        chain.update_edges(added=[existing])  # byte-no-op: repairs 0
        chain.update_edges(added=[(0, 15), (15, 0)])  # real churn
        text = metrics.render_prometheus()
        assert "csrplus_update_edges_total 3" in text
        repaired = metrics.counter("csrplus_update_repaired_shards_total", "x")
        assert repaired.value >= 1  # the real batch rewrote shards
        assert_valid_prometheus(text)
        assert_known_families(text)

    def test_full_rebuild_counter(self):
        graph = erdos_renyi(30, 120, seed=5)
        metrics = MetricsRegistry()
        chain = LiveIndexChain(graph, rank=4, metrics=metrics)
        counter = metrics.counter("csrplus_update_full_rebuilds_total", "x")
        chain.update_edges(added=[next(iter(graph.edges()))])
        assert counter.value == 0  # a byte-no-op batch changes no factor
        chain.update_edges(added=[(0, 15)])
        assert counter.value == 1
