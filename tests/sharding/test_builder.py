"""Out-of-core builder: equivalence, memory accounting, determinism."""

import pathlib

import numpy as np
import pytest

from repro.core.config import CSRPlusConfig
from repro.core.index import CSRPlusIndex, batched_query_atol
from repro.core.memory import MemoryMeter
from repro.errors import InvalidParameterError
from repro.graphs.generators import chung_lu, erdos_renyi, ring
from repro.linalg.svd import uses_dense_fallback
from repro.sharding import (
    REPLICA_DIR,
    ShardedIndex,
    ShardStore,
    build_sharded_store,
    rebuild_shards,
    repair_sharded_store,
    replica_store_path,
)


def _file_bytes(root):
    """Every file under ``root``, keyed by its path relative to it."""
    root = pathlib.Path(root)
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


class TestDensePathFidelity:
    """Below the dense-SVD threshold the builder mirrors prepare()."""

    def test_shards_are_byte_identical_to_prepare(self, tmp_path):
        graph = ring(40)
        config = CSRPlusConfig(rank=4)
        assert uses_dense_fallback((40, 40), 4)
        index = CSRPlusIndex(graph, config).prepare()
        u_matrix, _, _, z_matrix = index.factors
        store = build_sharded_store(
            graph, tmp_path / "s", num_shards=3, config=config
        )
        assert store.manifest.builder == "out-of-core"
        for i, (start, stop) in enumerate(store.boundaries):
            shard = store.load_shard(i, mmap=False)
            assert np.array_equal(shard.z, z_matrix[start:stop, :])
            assert np.array_equal(shard.u, u_matrix[start:stop, :])


class TestStreamingPathEquivalence:
    """Above the threshold (ARPACK path) the contract is tolerance."""

    @pytest.fixture(scope="class")
    def graph(self):
        return chung_lu(300, 1500, seed=7)

    def test_queries_within_batched_atol_of_monolithic(self, graph, tmp_path):
        config = CSRPlusConfig(rank=6)
        assert not uses_dense_fallback((300, 300), 6)
        index = CSRPlusIndex(graph, config).prepare()
        store = build_sharded_store(
            graph, tmp_path / "s", num_shards=4, config=config
        )
        with ShardedIndex(store, max_workers=1) as sharded:
            seeds = [0, 17, 150, 299]
            got = sharded.query_columns(seeds)
            want = index.query_columns(seeds)
            atol = batched_query_atol(config.rank, np.float64)
            np.testing.assert_allclose(got, want, rtol=0.0, atol=atol)

    def test_build_is_deterministic(self, graph, tmp_path):
        """Same graph + config => byte-identical stores (repair relies
        on this)."""
        kwargs = dict(num_shards=3, config=CSRPlusConfig(rank=5))
        a = build_sharded_store(graph, tmp_path / "a", **kwargs)
        b = build_sharded_store(graph, tmp_path / "b", **kwargs)
        for meta_a, meta_b in zip(a.manifest.shards, b.manifest.shards):
            assert meta_a.z_sha256 == meta_b.z_sha256
            assert meta_a.u_sha256 == meta_b.u_sha256

    def test_block_rows_recorded_for_deterministic_rebuild(
        self, graph, tmp_path
    ):
        """Blockwise H accumulation is partition-dependent in floating
        point, so the manifest must record the height and repair must
        replay it."""
        from repro.sharding import rebuild_shards

        store = build_sharded_store(
            graph, tmp_path / "s", num_shards=3,
            config=CSRPlusConfig(rank=5), block_rows=17,
        )
        assert store.manifest.block_rows == 17
        store.quarantine_shard(1)
        assert rebuild_shards(graph, store.path, [1]) == [1]
        store.verify_shard(1)  # rebuilt bytes match the manifest digest

    def test_block_rows_stays_within_tolerance(self, graph, tmp_path):
        """Different heights shift bits, never past the documented atol."""
        config = CSRPlusConfig(rank=5)
        index = CSRPlusIndex(graph, config).prepare()
        atol = batched_query_atol(config.rank, np.float64)
        seeds = [0, 123, 299]
        want = index.query_columns(seeds)
        for label, height in (("a", 17), ("b", 300)):
            store = build_sharded_store(
                graph, tmp_path / label, num_shards=3,
                config=config, block_rows=height,
            )
            with ShardedIndex(store, max_workers=1) as sharded:
                np.testing.assert_allclose(
                    sharded.query_columns(seeds), want, rtol=0.0, atol=atol
                )


class TestMemoryAccounting:
    def test_ledger_charges_shards_individually(self, tmp_path):
        graph = chung_lu(300, 1500, seed=7)
        meter = MemoryMeter()
        build_sharded_store(
            graph, tmp_path / "s", num_shards=4,
            config=CSRPlusConfig(rank=5), memory=meter,
        )
        peaks = meter.high_water_breakdown()
        assert any(label.startswith("shard/z-block-") for label in peaks)
        assert "shard/U" in peaks
        # transient charges were released: nothing stays resident
        assert meter.current_bytes == 0

    def test_peak_well_below_full_factors(self, tmp_path):
        """The point of the subsystem: never 2 x n x r resident.

        Rank is chosen high enough that the factors dominate the
        (unavoidable, both-paths) sparse ``Q`` charge.
        """
        n, rank, shards = 1024, 32, 4
        graph = chung_lu(n, 5000, seed=13)
        meter = MemoryMeter()
        build_sharded_store(
            graph, tmp_path / "s", num_shards=shards,
            config=CSRPlusConfig(rank=rank), memory=meter,
        )
        both_factors = 2 * n * rank * 8
        assert meter.peak_bytes < both_factors

    def test_float32_store_halves_shard_bytes(self, tmp_path):
        graph = chung_lu(200, 900, seed=5)
        meter = MemoryMeter()
        store = build_sharded_store(
            graph, tmp_path / "s", num_shards=2,
            config=CSRPlusConfig(rank=4, dtype="float32"), memory=meter,
        )
        shard = store.load_shard(0, mmap=False)
        assert shard.z.dtype == np.float32
        assert shard.u.dtype == np.float32


class TestBuilderValidation:
    def test_rank_above_n_rejected(self, tmp_path):
        with pytest.raises(InvalidParameterError):
            build_sharded_store(
                ring(5), tmp_path / "s", num_shards=2,
                config=CSRPlusConfig(rank=9),
            )

    def test_bad_block_rows_rejected(self, tmp_path):
        with pytest.raises(InvalidParameterError):
            build_sharded_store(
                erdos_renyi(30, 100, seed=1), tmp_path / "s",
                num_shards=2, block_rows=0,
            )

    def test_overrides_forwarded_to_config(self, tmp_path):
        store = build_sharded_store(
            ring(30), tmp_path / "s", num_shards=2, rank=3, damping=0.7
        )
        assert store.manifest.rank == 3
        assert store.manifest.damping == 0.7


class TestReplicaStore:
    """``replica_path`` writes the degraded tier's store (docs/approx.md)."""

    def test_overwrite_without_replica_drops_the_stale_one(self, tmp_path):
        store_path = tmp_path / "s"
        config = CSRPlusConfig(rank=4)
        build_sharded_store(
            ring(40), store_path, num_shards=2, config=config,
            replica_path=store_path / REPLICA_DIR,
        )
        assert replica_store_path(store_path) is not None
        # a rebuild for another graph must not keep the old graph's replica
        build_sharded_store(
            ring(40).with_edges_added([(0, 20)]), store_path, num_shards=2,
            config=config, overwrite=True,
        )
        assert replica_store_path(store_path) is None

    def test_rebuild_shards_refuses_a_replica(self, tmp_path):
        store_path = tmp_path / "s"
        build_sharded_store(
            ring(40), store_path, num_shards=2, config=CSRPlusConfig(rank=4),
            replica_path=store_path / REPLICA_DIR,
        )
        with pytest.raises(InvalidParameterError, match="replica"):
            rebuild_shards(ring(40), store_path / REPLICA_DIR, [0])

    def test_repair_refuses_a_replica(self, tmp_path):
        store_path = tmp_path / "s"
        build_sharded_store(
            ring(40), store_path, num_shards=2, config=CSRPlusConfig(rank=4),
            replica_path=store_path / REPLICA_DIR,
        )
        with pytest.raises(InvalidParameterError, match="replica"):
            repair_sharded_store(
                ring(40).with_edges_added([(0, 20)]),
                store_path / REPLICA_DIR,
                tmp_path / "repaired",
            )
        assert not (tmp_path / "repaired").exists()


class TestRepairMatchesFreshBuild:
    """A repaired store is a from-scratch build of the mutated graph,
    file for file: shards, ``manifest.json`` and its sidecar."""

    @pytest.mark.parametrize(
        "graph, config",
        [
            (erdos_renyi(40, 160, seed=3), CSRPlusConfig(rank=4)),
            (chung_lu(300, 1500, seed=7), CSRPlusConfig(rank=6)),
            (chung_lu(300, 1500, seed=7), CSRPlusConfig(rank=6, dtype="float32")),
        ],
        ids=["dense", "streaming", "streaming-float32"],
    )
    @pytest.mark.parametrize("mutate", [True, False], ids=["batch", "no-op"])
    def test_repair_equals_fresh_build(self, graph, config, mutate, tmp_path):
        build_sharded_store(graph, tmp_path / "old", num_shards=4, config=config)
        mutated = graph.with_edges_added([(0, 17), (5, 31)]) if mutate else graph
        report = repair_sharded_store(mutated, tmp_path / "old", tmp_path / "new")
        fresh = build_sharded_store(
            mutated, tmp_path / "fresh", num_shards=4, config=config
        )
        assert _file_bytes(report.path) == _file_bytes(fresh.path)
        assert report.total_shards == 4
        if mutate:
            # one global SVD: a real edge change moves every shard
            assert report.repaired_shards == (0, 1, 2, 3)
        else:
            assert report.repaired_shards == ()

    @pytest.mark.parametrize("mutate", [True, False], ids=["batch", "no-op"])
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_repair_writes_a_fresh_replica(self, mutate, dtype, tmp_path):
        """An old store's replica is rebuilt in the same pass: the new
        ``<store>/replica`` is a fresh build's replica, file for file,
        so its ``approx_atol`` bounds the distance to the *new* exact
        answers."""
        graph = chung_lu(300, 1500, seed=7)
        config = CSRPlusConfig(rank=8, dtype=dtype)
        old, fresh = tmp_path / "old", tmp_path / "fresh"
        build_sharded_store(
            graph, old, num_shards=4, config=config,
            replica_path=old / REPLICA_DIR,
        )
        mutated = graph.with_edges_added([(0, 17), (5, 31)]) if mutate else graph
        report = repair_sharded_store(mutated, old, tmp_path / "new")
        build_sharded_store(
            mutated, fresh, num_shards=4, config=config,
            replica_path=fresh / REPLICA_DIR,
        )
        repaired = replica_store_path(report.path)
        assert repaired is not None
        assert _file_bytes(repaired) == _file_bytes(fresh / REPLICA_DIR)
        assert _file_bytes(report.path) == _file_bytes(fresh)
        atol = ShardStore(repaired).manifest.approx_atol
        assert atol is not None
        assert atol == ShardStore(fresh / REPLICA_DIR).manifest.approx_atol
        if mutate:
            assert atol != ShardStore(old / REPLICA_DIR).manifest.approx_atol

    def test_repair_without_a_replica_writes_none(self, tmp_path):
        graph = erdos_renyi(40, 160, seed=3)
        build_sharded_store(
            graph, tmp_path / "old", num_shards=2, config=CSRPlusConfig(rank=4)
        )
        report = repair_sharded_store(
            graph.with_edges_added([(0, 17)]), tmp_path / "old", tmp_path / "new"
        )
        assert replica_store_path(report.path) is None
