"""WorkerPool: bit-identity, crash recovery, versioning, metrics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.index import available_cpus
from repro.errors import InvalidParameterError, WorkerCrashed
from repro.linalg.blas import blas_threads
from repro.serving.frontend import WorkerPool
from repro.serving.frontend.metrics import merge_metric_dicts
from repro.sharding import ShardedIndex


@pytest.fixture(scope="module")
def pool(store_path):
    with WorkerPool(store_path, 2) as worker_pool:
        yield worker_pool


@pytest.fixture(scope="module")
def reference(store_path):
    index = ShardedIndex(store_path)
    yield index
    index.close()


class TestBitIdentity:
    def test_columns_match_in_process_exactly(self, pool, reference):
        seeds = [0, 7, 93, 149]
        got = pool.columns(0, seeds, "exact")
        want = reference.query_columns(seeds, mode="exact")
        assert got.dtype == want.dtype
        assert np.array_equal(got, want), (
            "a column served by a worker process must be bit-identical "
            "to the in-process kernel"
        )

    def test_topk_matches_in_process_exactly(self, pool, reference):
        from repro.core.topk import top_k_blockwise

        seeds = [3, 42]
        got = pool.topk(0, seeds, 5, True, "exact")
        want = top_k_blockwise(reference, seeds, 5, exclude_self=True,
                               mode="exact")
        for got_one, want_one in zip(got, want):
            assert np.array_equal(got_one.nodes, want_one.nodes)
            assert np.array_equal(got_one.scores, want_one.scores)


class TestDescribe:
    def test_describe_reports_store_shape(self, pool, reference):
        meta = pool.describe()
        assert meta["num_nodes"] == reference.num_nodes
        assert meta["dtype"] == str(np.dtype(reference.dtype))
        assert meta["config"]["rank"] == reference.config.rank
        assert meta["versions"] == [0]
        assert meta["has_approx"] is False

    @pytest.mark.parametrize("num_workers", [1, 2])
    def test_workers_split_blas_threads_over_cores(
        self, store_path, num_workers
    ):
        """Each worker runs OpenBLAS at cpus // workers threads (at
        least one); the dispatcher process keeps its own count."""
        if blas_threads() is None:
            pytest.skip("no OpenBLAS thread control in this process")
        before = blas_threads()
        with WorkerPool(store_path, num_workers) as workers:
            reported = {
                workers.describe()["blas_threads"]
                for _ in range(2 * num_workers)
            }
        assert reported == {max(1, available_cpus() // num_workers)}
        assert blas_threads() == before


class TestErrors:
    def test_worker_errors_come_back_typed(self, pool):
        with pytest.raises(InvalidParameterError):
            pool.columns(99, [0], "exact")  # unpublished version

    def test_crash_is_detected_respawned_and_typed(self, store_path):
        with WorkerPool(store_path, 1) as pool:
            before = pool.worker_pids()
            with pytest.raises(WorkerCrashed):
                pool.submit("crash")
            # the pool replaced the dead process before raising, so the
            # very next task lands on a healthy worker
            block = pool.columns(0, [1], "exact")
            assert block.shape[1] == 1
            assert pool.respawns == 1
            assert pool.worker_pids() != before
            assert pool.alive_workers() == 1


class TestMetrics:
    def test_snapshots_merge_to_per_worker_series(self, pool):
        pool.columns(0, [0, 1], "exact")
        snapshots = pool.metrics_snapshots()
        assert len(snapshots) >= 1
        merged = merge_metric_dicts(snapshots)
        families = {f["name"]: f for f in merged["metrics"]}
        tasks = families["csrplus_worker_tasks_total"]
        workers_seen = {
            sample["labels"]["worker"] for sample in tasks["samples"]
        }
        assert workers_seen <= {"0", "1"}
        assert sum(s["value"] for s in tasks["samples"]) >= 1


class TestValidation:
    def test_zero_workers_rejected(self, store_path):
        with pytest.raises(InvalidParameterError):
            WorkerPool(store_path, 0)

    def test_submit_after_close_rejected(self, store_path):
        pool = WorkerPool(store_path, 1)
        pool.close()
        with pytest.raises(InvalidParameterError):
            pool.columns(0, [0], "exact")
