"""Unit tests for the shard store: writer, reader, integrity, repair."""

import numpy as np
import pytest

from repro.core.config import CSRPlusConfig
from repro.core.index import CSRPlusIndex
from repro.errors import InvalidParameterError, ShardCorrupted
from repro.graphs.generators import erdos_renyi
from repro.sharding import ShardStore, ShardStoreWriter, plan_shards, shard_index


@pytest.fixture
def graph():
    return erdos_renyi(50, 220, seed=3)


@pytest.fixture
def index(graph):
    return CSRPlusIndex(graph, rank=4).prepare()


@pytest.fixture
def store(index, tmp_path):
    return shard_index(index, tmp_path / "store", num_shards=3)


class TestShardIndex:
    def test_shards_hold_exact_factor_bytes(self, index, store):
        u_matrix, _, _, z_matrix = index.factors
        for i, (start, stop) in enumerate(store.boundaries):
            shard = store.load_shard(i, mmap=False)
            assert np.array_equal(shard.z, z_matrix[start:stop, :])
            assert np.array_equal(shard.u, u_matrix[start:stop, :])
            assert shard.z.dtype == z_matrix.dtype

    def test_manifest_records_index_parameters(self, index, store):
        manifest = store.manifest
        assert manifest.builder == "from-index"
        assert manifest.rank == index.config.rank
        assert manifest.damping == index.config.damping
        assert manifest.svd_seed == index.config.svd_seed
        assert manifest.solver == index.config.solver
        assert manifest.stein_iterations == index.stein_iterations

    def test_refuses_unprepared_index(self, graph, tmp_path):
        from repro.errors import NotPreparedError

        with pytest.raises(NotPreparedError):
            shard_index(CSRPlusIndex(graph, rank=4), tmp_path, num_shards=2)

    def test_existing_store_needs_overwrite(self, index, store, tmp_path):
        with pytest.raises(InvalidParameterError):
            shard_index(index, store.path, num_shards=3)
        replaced = shard_index(index, store.path, num_shards=2, overwrite=True)
        assert replaced.num_shards == 2


class TestWriter:
    def test_finalize_requires_every_shard(self, tmp_path):
        writer = ShardStoreWriter(
            tmp_path / "w",
            plan_shards(6, 2),
            CSRPlusConfig(rank=2, damping=0.6, epsilon=1e-8),
            builder="from-index",
        )
        writer.write_shard(0, np.zeros((3, 2)), np.zeros((3, 2)))
        with pytest.raises(InvalidParameterError) as excinfo:
            writer.finalize()
        assert "[1]" in str(excinfo.value)

    def test_rejects_wrong_shape_and_dtype(self, tmp_path):
        writer = ShardStoreWriter(
            tmp_path / "w",
            plan_shards(6, 2),
            CSRPlusConfig(rank=2, damping=0.6, epsilon=1e-8),
            builder="from-index",
        )
        with pytest.raises(InvalidParameterError):
            writer.write_shard(0, np.zeros((2, 2)), np.zeros((3, 2)))
        with pytest.raises(InvalidParameterError):
            writer.write_shard(
                0, np.zeros((3, 2), np.float32), np.zeros((3, 2), np.float32)
            )

    def test_crashed_build_leaves_no_openable_store(self, tmp_path):
        writer = ShardStoreWriter(
            tmp_path / "w",
            plan_shards(6, 2),
            CSRPlusConfig(rank=2, damping=0.6, epsilon=1e-8),
            builder="from-index",
        )
        writer.write_shard(0, np.zeros((3, 2)), np.zeros((3, 2)))
        # no finalize(): no manifest, so the partial store does not open
        with pytest.raises(OSError):
            ShardStore(tmp_path / "w")


class TestIntegrity:
    @staticmethod
    def _flip_byte(path, offset=-9):
        data = bytearray(path.read_bytes())
        data[offset] ^= 0xFF
        path.write_bytes(bytes(data))

    def test_verify_shard_catches_disk_corruption(self, store, tmp_path):
        z_path, _ = store.shard_paths(1)
        self._flip_byte(tmp_path / "store" / z_path.split("/")[-1])
        store.verify_shard(0)  # neighbours unaffected
        with pytest.raises(ShardCorrupted) as excinfo:
            store.verify_shard(1)
        assert excinfo.value.shard == 1

    def test_load_without_validate_trusts_bytes(self, store, tmp_path):
        """mmap-friendly default: digests are not recomputed per load."""
        z_path, _ = store.shard_paths(1)
        self._flip_byte(tmp_path / "store" / z_path.split("/")[-1])
        store.load_shard(1)  # no error: shape/dtype still match
        with pytest.raises(ShardCorrupted):
            store.load_shard(1, validate=True)

    def test_open_with_hashes_fsck(self, index, tmp_path):
        store = shard_index(index, tmp_path / "s", num_shards=3)
        ShardStore(store.path, verify="hashes")  # clean store passes
        z_path, _ = store.shard_paths(2)
        self._flip_byte(tmp_path / "s" / z_path.split("/")[-1])
        with pytest.raises(ShardCorrupted):
            ShardStore(store.path, verify="hashes")

    def test_quarantine_moves_both_files(self, store):
        import os

        z_path, u_path = store.shard_paths(0)
        store.quarantine_shard(0)
        assert not os.path.exists(z_path)
        assert not os.path.exists(u_path)
        assert os.path.exists(z_path + ".corrupt")
        assert os.path.exists(u_path + ".corrupt")

    def test_truncated_shard_file_is_shape_corruption(self, store, tmp_path):
        """A wrong-shaped file fails the always-on structural check."""
        z_path, _ = store.shard_paths(0)
        np.save(z_path, np.zeros((1, store.manifest.rank)))
        with pytest.raises(ShardCorrupted):
            store.load_shard(0)


class TestRebuild:
    def test_rebuild_reproduces_exact_bytes(self, graph, index, tmp_path):
        from repro.sharding import rebuild_shards

        store = shard_index(index, tmp_path / "s", num_shards=4)
        originals = {
            i: store.load_shard(i, mmap=False) for i in range(store.num_shards)
        }
        store.quarantine_shard(2)
        assert rebuild_shards(graph, store.path, [2]) == [2]
        rebuilt = store.load_shard(2, mmap=False)
        assert np.array_equal(rebuilt.z, originals[2].z)
        assert np.array_equal(rebuilt.u, originals[2].u)
        # and the untouched shard digests still verify
        for i in range(store.num_shards):
            store.verify_shard(i)

    def test_rebuild_against_wrong_graph_refuses(self, index, tmp_path):
        from repro.sharding import rebuild_shards

        store = shard_index(index, tmp_path / "s", num_shards=3)
        other = erdos_renyi(50, 220, seed=99)  # same size, different edges
        with pytest.raises(ShardCorrupted):
            rebuild_shards(other, store.path, [1])
