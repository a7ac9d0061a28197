"""ShardedIndex and ShardRouter: routing, fan-out, exactness, metrics."""

import numpy as np
import pytest

from repro.core.index import CSRPlusIndex, batched_query_atol
from repro.errors import InvalidParameterError, QueryError
from repro.graphs.generators import chung_lu, erdos_renyi
from repro.obs.metrics import MetricsRegistry
from repro.sharding import ShardedIndex, ShardRouter, shard_index


@pytest.fixture
def graph():
    return erdos_renyi(80, 350, seed=19)


@pytest.fixture
def index(graph):
    return CSRPlusIndex(graph, rank=5).prepare()


@pytest.fixture
def store(index, tmp_path):
    return shard_index(index, tmp_path / "store", num_shards=4)


class TestRouter:
    def test_shard_of_respects_boundaries(self):
        router = ShardRouter([(0, 3), (3, 7), (7, 10)])
        assert [router.shard_of(i) for i in range(10)] == [
            0, 0, 0, 1, 1, 1, 1, 2, 2, 2,
        ]

    def test_plan_preserves_duplicates_and_order(self):
        router = ShardRouter([(0, 5), (5, 10)])
        routed = router.plan([7, 2, 7])
        assert routed.seed_ids.tolist() == [7, 2, 7]
        assert routed.owners.tolist() == [1, 0, 1]
        assert routed.local_rows.tolist() == [2, 2, 2]
        assert sorted(routed.gather_shards) == [0, 1]

    def test_plan_rejects_out_of_range(self):
        router = ShardRouter([(0, 5)])
        with pytest.raises(QueryError):
            router.plan([5])
        with pytest.raises(QueryError):
            router.plan([-1])

    def test_non_contiguous_boundaries_rejected(self):
        with pytest.raises(InvalidParameterError):
            ShardRouter([(0, 3), (4, 6)])


class TestExactEquivalence:
    def test_bit_identical_serial_and_parallel(self, index, store):
        seeds = [0, 1, 41, 79]
        want = index.query_columns(seeds)
        with ShardedIndex(store, max_workers=1) as serial:
            assert np.array_equal(serial.query_columns(seeds), want)
        with ShardedIndex(store, max_workers=4) as pooled:
            assert np.array_equal(pooled.query_columns(seeds), want)

    def test_batched_mode_within_atol(self, index, store):
        seeds = [3, 60, 61]
        want = index.query_columns(seeds, mode="exact")
        with ShardedIndex(store) as sharded:
            got = sharded.query_columns(seeds, mode="batched")
        atol = batched_query_atol(index.config.rank, np.float64)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=atol)

    def test_query_mirrors_monolithic_query(self, index, store):
        request = [5, 5, 2, 70]  # duplicates preserved
        with ShardedIndex(store, max_workers=2) as sharded:
            assert np.array_equal(sharded.query(request), index.query(request))

    def test_empty_seed_list(self, store):
        with ShardedIndex(store) as sharded:
            out = sharded.query_columns([])
        assert out.shape == (sharded.num_nodes, 0)

    def test_mmap_and_full_reads_agree(self, index, store):
        seeds = [10, 50]
        with ShardedIndex(store, mmap=True) as a:
            with ShardedIndex(store, mmap=False) as b:
                assert np.array_equal(
                    a.query_columns(seeds), b.query_columns(seeds)
                )


class TestServiceSurface:
    def test_backend_contract(self, store):
        with ShardedIndex(store) as sharded:
            assert sharded.prepare() is sharded
            assert sharded.num_nodes == 80
            assert sharded.dtype == np.float64
            assert sharded.config.query_mode == "exact"

    def test_config_replays_the_manifest(self, graph, tmp_path):
        """The backend's config is the store's pipeline, not the defaults."""
        built = CSRPlusIndex(
            graph, rank=5, solver="direct", dangling="uniform", svd_seed=7
        ).prepare()
        store = shard_index(built, tmp_path / "direct", num_shards=2)
        with ShardedIndex(store, query_mode="batched") as sharded:
            assert sharded.config == built.config.with_overrides(
                query_mode="batched"
            )

    def test_invalid_parameters(self, store):
        with pytest.raises(InvalidParameterError):
            ShardedIndex(store, query_mode="nope")
        with pytest.raises(InvalidParameterError):
            ShardedIndex(store, max_workers=0)
        with pytest.raises(InvalidParameterError):
            ShardedIndex(store, read_retries=-1)

    def test_closed_index_refuses_fanout(self, store):
        sharded = ShardedIndex(store, max_workers=2)
        sharded.close()
        with pytest.raises(InvalidParameterError):
            sharded.query_columns([0, 1])


class TestShardCacheAndMetrics:
    def test_shards_load_once_and_drop(self, store):
        metrics = MetricsRegistry()
        with ShardedIndex(store, max_workers=1, metrics=metrics) as sharded:
            sharded.query_columns([0])
            loads_cold = metrics.counter("csrplus_shard_loads_total", "x").value
            assert loads_cold == store.num_shards  # all output blocks
            assert sharded.resident_shards() == store.num_shards
            sharded.query_columns([1, 2])
            assert (
                metrics.counter("csrplus_shard_loads_total", "x").value
                == loads_cold  # cache hit: no re-reads
            )
            sharded.drop_shard_cache()
            assert sharded.resident_shards() == 0
            sharded.query_columns([3])
            assert (
                metrics.counter("csrplus_shard_loads_total", "x").value
                == 2 * loads_cold
            )

    def test_query_counters(self, store):
        metrics = MetricsRegistry()
        with ShardedIndex(store, max_workers=2, metrics=metrics) as sharded:
            sharded.query_columns([0, 9, 33])
        assert metrics.counter("csrplus_shard_queries_total", "x").value == 1
        assert metrics.counter("csrplus_shard_columns_total", "x").value == 3
        assert (
            metrics.counter("csrplus_shard_tasks_total", "x").value
            == store.num_shards
        )
        assert metrics.gauge("csrplus_shard_count", "x").value == 4

    def test_spans_nest_under_query(self, store):
        import repro.obs as obs
        from repro.obs.tracing import Tracer

        tracer = Tracer()
        previous = obs.set_enabled(True)
        try:
            with ShardedIndex(store, max_workers=4, tracer=tracer) as sharded:
                sharded.query_columns([0, 45])
        finally:
            obs.set_enabled(previous)
        roots = tracer.as_dict()["spans"]
        query_roots = [s for s in roots if s["name"] == "shard.query"]
        assert len(query_roots) == 1
        children = {c["name"] for c in query_roots[0]["children"]}
        assert "shard.query.block" in children
        blocks = [
            c for c in query_roots[0]["children"]
            if c["name"] == "shard.query.block"
        ]
        assert len(blocks) == store.num_shards  # none became orphan roots


class TestDtypeAndLayouts:
    @pytest.mark.parametrize("num_shards", [1, 2, 7, 80])
    def test_every_layout_is_exact(self, index, tmp_path, num_shards):
        store = shard_index(
            index, tmp_path / f"s{num_shards}", num_shards=num_shards
        )
        seeds = [0, 39, 79]
        with ShardedIndex(store, max_workers=2) as sharded:
            assert np.array_equal(
                sharded.query_columns(seeds), index.query_columns(seeds)
            )

    def test_float32_round_trip(self, tmp_path):
        graph = chung_lu(90, 400, seed=2)
        index = CSRPlusIndex(graph, rank=4, dtype="float32").prepare()
        store = shard_index(index, tmp_path / "s", num_shards=3)
        with ShardedIndex(store) as sharded:
            assert sharded.dtype == np.float32
            got = sharded.query_columns([0, 88])
            assert got.dtype == np.float32
            assert np.array_equal(got, index.query_columns([0, 88]))


class TestRowGathers:
    """``gather_u_rows``/``gather_z_rows`` return the monolithic rows,
    on the row-by-row path for short requests and the per-owner path
    past ``ROW_COPY_MAX`` ids."""

    REQUESTS = {
        "duplicates": [7, 7, 41, 7, 41],
        "unsorted": [79, 3, 60, 22, 0, 45],
        "one-per-shard": [0, 20, 40, 60],
        "empty": [],
        "long-unsorted": list(np.random.default_rng(4).permutation(80)[:50]),
        "long-duplicates": [79, 0, 41] * 20,
    }

    @pytest.mark.parametrize("name", sorted(REQUESTS))
    def test_rows_match_the_monolithic_factors(self, index, store, name):
        from repro.sharding.index import ROW_COPY_MAX

        ids = np.asarray(self.REQUESTS[name], dtype=np.int64)
        if name.startswith("long"):
            assert ids.size > ROW_COPY_MAX
        u, _, _, z = index.factors
        with ShardedIndex(store, max_workers=1) as sharded:
            assert sharded.router.boundaries == [
                (0, 20), (20, 40), (40, 60), (60, 80),
            ]
            for got, want in (
                (sharded.gather_u_rows(ids), u[ids]),
                (sharded.gather_z_rows(ids), z[ids]),
            ):
                assert got.shape == (ids.size, index.rank)
                assert got.dtype == want.dtype
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("ids", [[80], [-1], [3, 80], list(range(40)) + [81]])
    def test_out_of_range_ids_raise_query_error(self, store, ids):
        with ShardedIndex(store, max_workers=1) as sharded:
            with pytest.raises(QueryError):
                sharded.gather_u_rows(ids)
            with pytest.raises(QueryError):
                sharded.gather_z_rows(ids)
