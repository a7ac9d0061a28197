"""Per-version cache invalidation across index swaps (docs/dynamic.md).

The contract, per layer:

* :class:`~repro.serving.cache.ColumnCache` — ``advance(version,
  changed)`` is all-or-nothing: a swap that changed the factors drops
  every entry, one that did not retains every entry with its exact
  pre-swap bytes; inserts tagged with a replaced version are silently
  dropped.
* :class:`~repro.serving.cache.TopKCache` — the same rule: a changed
  swap clears the cache, a clean swap retags and keeps serving
  prefixes.
* :class:`~repro.serving.service.CoSimRankService.publish_index` — the
  served view of the same rules, including the acceptance pin that an
  untouched seed still *hits* (replaying exact pre-swap bytes) after a
  byte-no-op live update, for monolithic and sharded chains alike.
"""

import numpy as np
import pytest

from repro.core.index import CSRPlusIndex
from repro.core.topk import TopKResult
from repro.errors import InvalidParameterError
from repro.graphs.generators import erdos_renyi
from repro.serving import ColumnCache, CoSimRankService, LiveIndexChain, TopKCache


@pytest.fixture
def graph():
    return erdos_renyi(30, 120, seed=5)


@pytest.fixture
def index(graph):
    return CSRPlusIndex(graph, rank=4).prepare()


def _filled(num_rows=8, seeds=(0, 3, 6)):
    cache = ColumnCache(capacity=16, num_rows=num_rows)
    cache.insert({s: np.full(num_rows, float(s + 1)) for s in seeds})
    return cache


class TestColumnCacheAdvance:
    def test_clean_swap_retains_exact_bytes(self):
        cache = _filled()
        before = {s: cache.lookup([s])[0][s].copy() for s in (0, 3, 6)}
        counts = cache.advance(1, changed=False)
        assert counts == {"dropped": 0, "retained": 3}
        assert cache.version == 1
        for s in (0, 3, 6):
            hits, misses = cache.lookup([s])
            assert not misses
            assert np.array_equal(hits[s], before[s])

    def test_changed_swap_drops_every_entry(self):
        cache = _filled()
        counts = cache.advance(1, changed=True)
        assert counts == {"dropped": 3, "retained": 0}
        assert cache.version == 1
        assert len(cache) == 0
        assert cache.bytes_cached == 0
        _, misses = cache.lookup([0, 3, 6])
        assert misses == [0, 3, 6]

    def test_version_must_advance_monotonically(self):
        cache = _filled()
        cache.advance(2, False)
        with pytest.raises(InvalidParameterError):
            cache.advance(2, False)
        with pytest.raises(InvalidParameterError):
            cache.advance(1, False)

    def test_stale_insert_silently_dropped(self):
        cache = _filled()
        cache.advance(1, False)
        assert cache.insert({9: np.zeros(8)}, version=0) == 0
        assert 9 not in cache
        # a current-version insert still lands
        cache.insert({9: np.zeros(8)}, version=1)
        assert 9 in cache

    def test_old_version_lookup_misses_without_eviction(self):
        cache = _filled()
        cache.advance(1, False)
        _, misses = cache.lookup([0], version=0)
        assert misses == [0]  # pinned to the replaced version
        hits, _ = cache.lookup([0], version=1)
        assert 0 in hits  # ... but the entry itself survived


def _ranking(k=5):
    return TopKResult(
        nodes=np.arange(k, dtype=np.int64),
        scores=np.linspace(1.0, 0.1, k),
        candidates_scored=k,
        blocks_scanned=1,
        blocks_skipped=0,
    )


class TestTopKCacheAdvance:
    def test_clean_swap_keeps_prefix_answers(self):
        cache = TopKCache(capacity=8)
        cache.insert({4: _ranking(5)}, 5, True)
        counts = cache.advance(1, False)
        assert counts == {"dropped": 0, "retained": 1}
        hits, misses = cache.lookup([4], 3, True)
        assert not misses
        assert np.array_equal(hits[4].nodes, np.arange(3))

    def test_changed_swap_clears_everything(self):
        cache = TopKCache(capacity=8)
        cache.insert({4: _ranking(5), 9: _ranking(5)}, 5, True)
        counts = cache.advance(1, changed=True)
        assert counts == {"dropped": 2, "retained": 0}
        assert len(cache) == 0

    def test_monotonic_and_stale_insert(self):
        cache = TopKCache(capacity=8)
        cache.advance(3, False)
        with pytest.raises(InvalidParameterError):
            cache.advance(3, False)
        assert cache.insert({1: _ranking(4)}, 4, True, version=2) == 0
        assert len(cache) == 0


class TestServedInvalidation:
    def test_untouched_seed_hits_with_exact_preswap_bytes(self, graph, index):
        """Acceptance pin: across a byte-no-op live update's swap, an
        untouched seed's cache hit rate stays > 0 and the replayed
        bytes are the exact pre-swap ones."""
        chain = LiveIndexChain(graph, rank=4)
        existing = next(iter(graph.edges()))
        with CoSimRankService(chain.index, max_workers=1) as service:
            chain.attach(service)
            before = service.serve_batch([[2]])[0]
            hits_before = service.stats().hits
            link = chain.update_edges(added=[existing])  # byte-no-op batch
            assert link.version == 1
            after = service.serve_batch([[2]])[0]
            hits_after = service.stats().hits
        assert hits_after - hits_before > 0  # served from cache, post-swap
        assert np.array_equal(after, before)

    def test_touched_seed_recomputes_against_new_version(self, graph, index):
        chain = LiveIndexChain(graph, rank=4)
        with CoSimRankService(chain.index, max_workers=1) as service:
            chain.attach(service)
            service.serve_batch([[2]])
            misses_before = service.stats().misses
            chain.update_edges(added=[(2, 25), (25, 2)])
            got = service.serve_batch([[2]])[0]
            assert service.stats().misses > misses_before
        scratch = CSRPlusIndex(chain.graph, rank=4).prepare()
        assert np.array_equal(got, scratch.query_columns([2], mode="exact"))

    def test_sharded_noop_swap_keeps_entries(self, graph, tmp_path):
        """A sharded chain's byte-no-op batch leaves every shard digest
        unchanged, so the swap keeps the column and ranking caches."""
        chain = LiveIndexChain(
            graph, rank=4, num_shards=3, store_root=str(tmp_path)
        )
        existing = next(iter(graph.edges()))
        with CoSimRankService(chain.index, max_workers=1) as service:
            chain.attach(service)
            before = service.serve_batch([[2]])[0]
            deep = service.serve_topk([7], 6)[0]
            link = chain.update_edges(added=[existing])
            assert link.repaired_shards == ()
            hits_before = service.stats().hits
            topk_hits_before = service.topk_stats()["hits"]
            after = service.serve_batch([[2]])[0]
            shallow = service.serve_topk([7], 3)[0]
            assert service.stats().hits - hits_before == 1
            assert service.topk_stats()["hits"] - topk_hits_before == 1
        assert np.array_equal(after, before)
        assert np.array_equal(shallow.nodes, deep.nodes[:3])

    def test_topk_prefix_served_across_clean_swap(self, graph, index):
        chain = LiveIndexChain(graph, rank=4)
        existing = next(iter(graph.edges()))
        with CoSimRankService(chain.index, max_workers=1) as service:
            chain.attach(service)
            deep = service.serve_topk([7], 6)[0]
            chain.update_edges(added=[existing])  # clean (no-op) swap
            hits_before = service.topk_stats()["hits"]
            shallow = service.serve_topk([7], 3)[0]
            assert service.topk_stats()["hits"] - hits_before == 1
        assert np.array_equal(shallow.nodes, deep.nodes[:3])
        assert np.array_equal(shallow.scores, deep.scores[:3])

    def test_real_mutation_drops_topk_rankings(self, graph, index):
        chain = LiveIndexChain(graph, rank=4)
        with CoSimRankService(chain.index, max_workers=1) as service:
            chain.attach(service)
            service.serve_topk([7], 4)
            misses_before = service.topk_stats()["misses"]
            chain.update_edges(added=[(7, 22), (22, 7)])
            got = service.serve_topk([7], 4)[0]
            assert service.topk_stats()["misses"] > misses_before
        from repro.core.topk import top_k_blockwise

        scratch = CSRPlusIndex(chain.graph, rank=4).prepare()
        want = top_k_blockwise(scratch, [7], 4, mode="exact")[0]
        assert np.array_equal(got.nodes, want.nodes)
        assert np.array_equal(got.scores, want.scores)
