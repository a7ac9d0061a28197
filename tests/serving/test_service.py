"""Behavioural tests for CoSimRankService (single-threaded paths)."""

import os

import numpy as np
import pytest

from repro.core.index import CSRPlusIndex, batched_query_atol
from repro.errors import InvalidParameterError, QueryError
from repro.serving import CoSimRankService
from repro.serving.scheduler import (
    GEMM_MIN_CHUNK,
    BatchPlan,
    chunk_seeds,
    effective_chunk_size,
    plan_batch,
)


@pytest.fixture
def index(small_er) -> CSRPlusIndex:
    return CSRPlusIndex(small_er, rank=6).prepare()


class TestExactness:
    def test_query_matches_index_bitwise(self, index):
        with CoSimRankService(index, max_workers=1) as service:
            for request in ([0], [3, 7, 3], list(range(10))):
                assert np.array_equal(service.query(request), index.query(request))

    def test_cache_disabled_passthrough(self, index):
        with CoSimRankService(index, cache_columns=0, max_workers=1) as service:
            request = [1, 5, 9]
            first = service.query(request)
            second = service.query(request)
            assert np.array_equal(first, index.query(request))
            assert np.array_equal(first, second)
            stats = service.stats()
            assert stats.hits == 0
            assert stats.misses == 6  # 3 distinct seeds, both passes
            assert stats.cached_columns == 0

    def test_chunk_size_never_changes_values(self, index):
        request = list(range(20))
        expected = index.query(request)
        for chunk_size in (1, 3, 7, 64):
            with CoSimRankService(
                index, chunk_size=chunk_size, max_workers=1, cache_columns=0
            ) as service:
                assert np.array_equal(service.query(request), expected)

    def test_float32_index_served_exactly(self, small_er):
        index32 = CSRPlusIndex(small_er, rank=6, dtype="float32").prepare()
        with CoSimRankService(index32, max_workers=1) as service:
            block = service.query([2, 4])
            assert block.dtype == np.float32
            assert np.array_equal(block, index32.query([2, 4]))


class TestBatching:
    def test_batch_output_order_and_shapes(self, index):
        requests = [[5], [1, 2, 3], [2, 5, 2]]
        with CoSimRankService(index, max_workers=1) as service:
            results = service.serve_batch(requests)
        assert [block.shape for block in results] == [(60, 1), (60, 3), (60, 3)]
        for request, block in zip(requests, results):
            assert np.array_equal(block, index.query(request))

    def test_batch_deduplicates_across_requests(self, index):
        requests = [[1, 2], [2, 3], [3, 1]]
        with CoSimRankService(index, max_workers=1) as service:
            service.serve_batch(requests)
            stats = service.stats()
        assert stats.misses == 3      # seeds {1, 2, 3} computed once
        assert stats.hits == 0
        assert stats.seeds_requested == 6
        assert stats.unique_seeds == 3

    def test_warm_batch_is_all_hits(self, index):
        requests = [[1, 2], [3]]
        with CoSimRankService(index, max_workers=1) as service:
            service.serve_batch(requests)
            service.serve_batch(requests)
            stats = service.stats()
        assert (stats.hits, stats.misses) == (3, 3)
        assert stats.batches == 2
        assert stats.requests == 4
        assert stats.hits + stats.misses == stats.unique_seeds

    def test_empty_batch_returns_empty_list(self, index):
        with CoSimRankService(index, max_workers=1) as service:
            assert service.serve_batch([]) == []
            assert service.stats().batches == 1


class TestStatsAndLifecycle:
    def test_bytes_cached_matches_occupancy(self, index):
        with CoSimRankService(index, cache_columns=8, max_workers=1) as service:
            service.query(list(range(12)))  # 12 misses -> 4 evictions
            stats = service.stats()
        assert stats.evictions == 4
        assert stats.cached_columns == 8
        assert stats.bytes_cached == 8 * index.num_nodes * 8
        assert stats.cache_capacity == 8

    def test_phase_timings_accumulate(self, index):
        with CoSimRankService(index, max_workers=1) as service:
            service.query([0, 1])
            stats = service.stats()
        assert stats.compute_seconds > 0.0
        assert stats.lookup_seconds >= 0.0
        assert stats.assemble_seconds >= 0.0
        payload = stats.as_dict()
        assert payload["hit_rate"] == stats.hit_rate

    def test_clear_cache_forces_recompute(self, index):
        with CoSimRankService(index, max_workers=1) as service:
            first = service.query([4])
            service.clear_cache()
            second = service.query([4])
            stats = service.stats()
        assert np.array_equal(first, second)
        assert stats.misses == 2
        assert stats.hits == 0

    def test_close_is_idempotent(self, index):
        service = CoSimRankService(index, max_workers=2)
        service.query([0])
        service.close()
        service.close()

    @pytest.mark.parametrize("kind", ["columns", "topk"])
    @pytest.mark.parametrize("seeds", [[0], [0, 1, 2, 3, 4]])
    @pytest.mark.parametrize("max_workers", [1, 2])
    def test_closed_service_rejects_every_call(
        self, index, kind, seeds, max_workers
    ):
        # chunk_size=2: five seeds span three chunks, one seed one chunk
        service = CoSimRankService(
            index, chunk_size=2, max_workers=max_workers
        )
        service.close()
        with pytest.raises(InvalidParameterError, match="service is closed"):
            if kind == "columns":
                service.serve_batch_detailed([seeds])
            else:
                service.serve_topk_detailed(seeds, 3)
        assert service.stats().batches == 0
        assert service.topk_stats()["batches"] == 0


class TestValidation:
    def test_out_of_range_seed_rejected(self, index):
        with CoSimRankService(index, max_workers=1) as service:
            with pytest.raises(QueryError):
                service.query([0, index.num_nodes])

    def test_empty_request_rejected(self, index):
        with CoSimRankService(index, max_workers=1) as service:
            with pytest.raises(QueryError):
                service.serve_batch([[0], []])

    def test_bad_construction_parameters(self, index):
        with pytest.raises(InvalidParameterError):
            CoSimRankService(index, chunk_size=0)
        with pytest.raises(InvalidParameterError):
            CoSimRankService(index, max_workers=0)
        with pytest.raises(InvalidParameterError):
            CoSimRankService(index, cache_columns=-1)

    def test_default_workers_follow_the_affinity_mask(
        self, index, monkeypatch
    ):
        """Three CPUs in the mask on a 64-CPU box: three threads."""
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False
        )
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        with CoSimRankService(index) as service:
            assert service.max_workers == 3

    def test_unprepared_index_is_prepared_on_construction(self, small_er):
        index = CSRPlusIndex(small_er, rank=4)
        assert not index.is_prepared
        with CoSimRankService(index, max_workers=1) as service:
            assert index.is_prepared
            assert np.array_equal(service.query([0]), index.query([0]))


class TestQueryMode:
    def test_default_mode_is_exact(self, index):
        with CoSimRankService(index, max_workers=1) as service:
            assert service.query_mode == "exact"
            assert "query_mode='exact'" in repr(service)

    def test_mode_inherited_from_index_config(self, small_er):
        batched_index = CSRPlusIndex(
            small_er, rank=6, query_mode="batched"
        ).prepare()
        with CoSimRankService(batched_index, max_workers=1) as service:
            assert service.query_mode == "batched"

    def test_explicit_mode_overrides_config(self, small_er):
        batched_index = CSRPlusIndex(
            small_er, rank=6, query_mode="batched"
        ).prepare()
        with CoSimRankService(
            batched_index, max_workers=1, query_mode="exact"
        ) as service:
            assert service.query_mode == "exact"
            assert np.array_equal(
                service.query([0, 1]), batched_index.query_columns([0, 1], mode="exact")
            )

    def test_invalid_mode_rejected(self, index):
        with pytest.raises(InvalidParameterError):
            CoSimRankService(index, query_mode="turbo")

    def test_batched_mode_widens_chunks(self, index):
        with CoSimRankService(
            index, max_workers=1, chunk_size=4, query_mode="batched"
        ) as service:
            assert service.chunk_size == GEMM_MIN_CHUNK
        with CoSimRankService(
            index, max_workers=1, chunk_size=4, query_mode="exact"
        ) as service:
            assert service.chunk_size == 4
        with CoSimRankService(
            index, max_workers=1, chunk_size=256, query_mode="batched"
        ) as service:
            assert service.chunk_size == 256

    def test_batched_mode_serves_within_atol(self, index):
        request = list(range(20))
        exact = index.query_columns(request, mode="exact")
        atol = batched_query_atol(index.config.rank, exact.dtype)
        with CoSimRankService(
            index, max_workers=1, cache_columns=0, query_mode="batched"
        ) as service:
            np.testing.assert_allclose(
                service.query(request), exact, rtol=0.0, atol=atol
            )


class TestScheduler:
    def test_plan_batch_coalesces_and_sorts(self):
        plan = plan_batch([[3, 1], [1, 5]], num_nodes=10)
        assert isinstance(plan, BatchPlan)
        assert [ids.tolist() for ids in plan.request_ids] == [[3, 1], [1, 5]]
        assert plan.unique_seeds.tolist() == [1, 3, 5]
        assert plan.seeds_requested == 4
        assert plan.num_requests == 2

    def test_plan_batch_validates_each_request(self):
        with pytest.raises(QueryError):
            plan_batch([[0], [99]], num_nodes=10)

    def test_chunk_seeds_partitions_exactly(self):
        chunks = chunk_seeds(list(range(10)), 4)
        assert [c.tolist() for c in chunks] == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]
        assert chunk_seeds([], 4) == []
        with pytest.raises(InvalidParameterError):
            chunk_seeds([1], 0)

    def test_effective_chunk_size_per_mode(self):
        assert effective_chunk_size(4) == 4
        assert effective_chunk_size(4, "exact") == 4
        assert effective_chunk_size(4, "batched") == GEMM_MIN_CHUNK
        assert effective_chunk_size(GEMM_MIN_CHUNK, "batched") == GEMM_MIN_CHUNK
        assert effective_chunk_size(200, "batched") == 200
        with pytest.raises(InvalidParameterError):
            effective_chunk_size(0, "batched")
