"""Unit tests for :class:`~repro.serving.live.LiveIndexChain`.

The version-chain mechanics (docs/dynamic.md): monotone version
numbers, per-version shard stores produced by repair, retention of
recent links, service attachment, and the acceptance pin that a
byte-no-op batch changes **strictly fewer** shards than the manifest
total.
"""

import os

import numpy as np
import pytest

from repro.core.index import CSRPlusIndex
from repro.errors import InvalidParameterError
from repro.graphs.generators import erdos_renyi
from repro.serving import CoSimRankService, IndexRegistry, LiveIndexChain
from repro.sharding import ShardStore


@pytest.fixture
def graph():
    return erdos_renyi(30, 120, seed=5)


class TestChainBasics:
    def test_initial_state(self, graph):
        chain = LiveIndexChain(graph, rank=4)
        assert chain.version == 0
        assert not chain.is_sharded
        assert chain.staleness == 0
        assert chain.current.index is chain.index
        assert chain.index.is_prepared

    def test_empty_update_is_noop(self, graph):
        chain = LiveIndexChain(graph, rank=4)
        link = chain.update_edges()
        assert link.version == 0
        assert link is chain.current

    def test_versions_are_monotone_and_trimmed(self, graph):
        chain = LiveIndexChain(graph, rank=4, keep_versions=2)
        for step in range(4):
            link = chain.update_edges(added=[(step, step + 10)])
            assert link.version == step + 1
        retained = chain.versions()
        assert [v.version for v in retained] == [3, 4]
        assert chain.staleness == 0  # every batch was rebuilt immediately

    def test_monolithic_update_matches_scratch(self, graph):
        chain = LiveIndexChain(graph, rank=4)
        chain.update_edges(added=[(0, 15)], removed=[next(iter(graph.edges()))])
        scratch = CSRPlusIndex(chain.graph, rank=4).prepare()
        seeds = [0, 7, 29]
        assert np.array_equal(
            chain.index.query_columns(seeds, mode="exact"),
            scratch.query_columns(seeds, mode="exact"),
        )

    def test_validation(self, graph, tmp_path):
        with pytest.raises(InvalidParameterError):
            LiveIndexChain(graph, rank=4, num_shards=0, store_root=str(tmp_path))
        with pytest.raises(InvalidParameterError):
            LiveIndexChain(graph, rank=4, num_shards=2)  # no store_root
        with pytest.raises(InvalidParameterError):
            LiveIndexChain(graph, rank=4, keep_versions=0)


class TestShardedRepair:
    def test_noop_batch_repairs_strictly_fewer_shards(self, graph, tmp_path):
        """Acceptance pin: a batch that leaves the graph's bytes
        unchanged (re-adding an existing edge) must change strictly
        fewer shards than the manifest total — here, zero — and still
        publish a new, fully serviceable version."""
        chain = LiveIndexChain(
            graph, rank=4, num_shards=3, store_root=str(tmp_path)
        )
        existing = next(iter(graph.edges()))
        link = chain.update_edges(added=[existing])
        total = ShardStore(link.store_path).manifest.num_shards
        assert link.version == 1
        assert len(link.repaired_shards) < total  # strictly fewer
        assert link.repaired_shards == ()
        seeds = [0, 14, 29]
        scratch = CSRPlusIndex(chain.graph, rank=4).prepare()
        assert np.array_equal(
            chain.index.query_columns(seeds, mode="exact"),
            scratch.query_columns(seeds, mode="exact"),
        )

    def test_noop_batch_writes_identical_shard_files(self, graph, tmp_path):
        """A byte-no-op batch writes the new version's own shard files,
        byte-identical to the old version's; no file is shared, so each
        version directory stands alone."""
        chain = LiveIndexChain(
            graph, rank=4, num_shards=3, store_root=str(tmp_path)
        )
        old_path = chain.current.store_path
        link = chain.update_edges(added=[next(iter(graph.edges()))])
        assert link.store_path != old_path
        old_files = sorted(
            f for f in os.listdir(old_path) if f.endswith(".npy")
        )
        assert old_files
        for name in old_files:
            old_file = os.path.join(old_path, name)
            new_file = os.path.join(link.store_path, name)
            assert os.stat(old_file).st_ino != os.stat(new_file).st_ino
            with open(old_file, "rb") as old, open(new_file, "rb") as new:
                assert old.read() == new.read()

    def test_real_batch_matches_scratch(self, graph, tmp_path):
        chain = LiveIndexChain(
            graph, rank=4, num_shards=3, store_root=str(tmp_path)
        )
        link = chain.update_edges(added=[(0, 15), (15, 0)])
        assert link.repaired_shards  # factors genuinely changed
        seeds = [0, 14, 29]
        scratch = CSRPlusIndex(chain.graph, rank=4).prepare()
        assert np.array_equal(
            chain.index.query_columns(seeds, mode="exact"),
            scratch.query_columns(seeds, mode="exact"),
        )

    def test_version_directories_accumulate(self, graph, tmp_path):
        chain = LiveIndexChain(
            graph, rank=4, num_shards=2, store_root=str(tmp_path)
        )
        chain.update_edges(added=[(1, 20)])
        chain.update_edges(added=[(2, 21)])
        dirs = sorted(os.listdir(tmp_path))
        # old version stores are never deleted — pinned readers may
        # still hold mmaps into them
        assert dirs == ["v000000", "v000001", "v000002"]


class TestAttachment:
    def test_attach_publishes_current_to_stale_service(self, graph):
        chain = LiveIndexChain(graph, rank=4)
        stale = CSRPlusIndex(graph, rank=4).prepare()
        with CoSimRankService(stale, max_workers=1) as service:
            chain.update_edges(added=[(0, 15)])
            chain.attach(service)  # service was behind the chain
            assert service.index is chain.index
            assert service.index_version == 1

    def test_detach_stops_publishing(self, graph):
        chain = LiveIndexChain(graph, rank=4)
        with CoSimRankService(chain.index, max_workers=1) as service:
            chain.attach(service)
            chain.detach(service)
            chain.detach(service)  # idempotent
            chain.update_edges(added=[(0, 15)])
            assert service.index_version == 0
            assert service.index is not chain.index

    def test_publish_rejects_mismatched_geometry(self, graph):
        other = erdos_renyi(31, 120, seed=6)
        index = CSRPlusIndex(graph, rank=4).prepare()
        wrong_nodes = CSRPlusIndex(other, rank=4).prepare()
        wrong_dtype = CSRPlusIndex(graph, rank=4, dtype="float32").prepare()
        with CoSimRankService(index, max_workers=1) as service:
            with pytest.raises(InvalidParameterError):
                service.publish_index(wrong_nodes)
            with pytest.raises(InvalidParameterError):
                service.publish_index(wrong_dtype)
            assert service.index_version == 0  # nothing swapped


class TestRegistryIntegration:
    def test_get_live_memoized(self, graph, tmp_path):
        registry = IndexRegistry(tmp_path)
        chain = registry.get_live("er30", graph, rank=4)
        assert registry.get_live("er30", graph, rank=4) is chain
        assert chain.version == 0

    def test_get_live_sharded_store_location(self, graph, tmp_path):
        registry = IndexRegistry(tmp_path)
        chain = registry.get_live("er30", graph, rank=4, num_shards=2)
        assert chain.is_sharded
        root = registry.live_store_root_for("er30")
        assert chain.current.store_path.startswith(root)
        assert os.path.isdir(chain.current.store_path)

    def test_evict_drops_chain_and_store(self, graph, tmp_path):
        registry = IndexRegistry(tmp_path)
        chain = registry.get_live("er30", graph, rank=4, num_shards=2)
        root = registry.live_store_root_for("er30")
        assert os.path.isdir(root)
        registry.evict("er30", delete_file=True)
        assert not os.path.exists(root)
        assert registry.get_live("er30", graph, rank=4) is not chain
