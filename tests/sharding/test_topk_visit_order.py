"""Top-k over a sharded store: one norm-ordered visit order per index.

:func:`~repro.core.topk.top_k_blockwise` visits rows in decreasing
``||Z[x]||`` order, ``block_rows`` rows per block, for a
:class:`~repro.sharding.ShardedIndex` exactly as for an in-memory
index.  Shards are contiguous id ranges, so each holds a hub; blocks
of the norm order do not, and their bounds fall below the seeds'
floors.  The order is built from ``z_row_norms`` on an index's first
top-k call only, and the cache that holds it never keeps an index
alive.  The order also keeps the ``Z`` rows of its head resident, up
to ``RESIDENT_PREFIX_BYTES``; blocks sliced from that copy must carry
the bytes a gather would.
"""

import gc
import sys
import threading
import weakref

import numpy as np
import pytest

from repro.core import topk
from repro.core.index import CSRPlusIndex, batched_query_atol
from repro.core.topk import DEFAULT_BLOCK_ROWS, top_k_blockwise
from repro.graphs.generators import preferential_attachment
from repro.obs.metrics import MetricsRegistry
from repro.sharding import ShardedIndex, shard_index

SEEDS = [0, 11, 500, 1999]
BLOCK_ROWS = 128


@pytest.fixture(scope="module")
def skewed_index():
    graph = preferential_attachment(2_000, 4, seed=41)
    return CSRPlusIndex(graph, rank=8).prepare()


@pytest.fixture(scope="module")
def store(skewed_index, tmp_path_factory):
    return shard_index(
        skewed_index, tmp_path_factory.mktemp("store"), num_shards=8
    )


def _assert_same(results, expected):
    for got, want in zip(results, expected):
        np.testing.assert_array_equal(got.nodes, want.nodes)
        assert got.scores.tobytes() == want.scores.tobytes()


class TestShardedPruning:
    def test_skewed_store_skips_most_blocks(self, skewed_index, store):
        with ShardedIndex(store, max_workers=1) as sharded:
            results = top_k_blockwise(
                sharded, SEEDS, 10, block_rows=BLOCK_ROWS
            )
        blocks = -(-skewed_index.num_nodes // BLOCK_ROWS)
        for result in results:
            assert result.blocks_scanned + result.blocks_skipped == blocks
            assert result.blocks_skipped > blocks / 2
        _assert_same(
            results,
            top_k_blockwise(skewed_index, SEEDS, 10, block_rows=BLOCK_ROWS),
        )

    def test_block_layout_does_not_follow_shards(self, store):
        with ShardedIndex(store, max_workers=1) as sharded:
            result = top_k_blockwise(sharded, [11], 10)[0]
            blocks = -(-sharded.num_nodes // DEFAULT_BLOCK_ROWS)
        assert result.blocks_scanned + result.blocks_skipped == blocks


class TestVisitOrderCache:
    @pytest.mark.parametrize("backend", ["memory", "sharded"])
    def test_order_is_built_once_per_index(
        self, backend, store, monkeypatch, tmp_path
    ):
        calls = []
        kind = CSRPlusIndex if backend == "memory" else ShardedIndex
        norms = kind.z_row_norms

        def counting(self):
            calls.append(self)
            return norms(self)

        monkeypatch.setattr(kind, "z_row_norms", counting)

        def open_index(graph_seed):
            graph = preferential_attachment(2_000, 4, seed=graph_seed)
            index = CSRPlusIndex(graph, rank=8).prepare()
            if backend == "memory":
                return index, index
            path = tmp_path / f"store-{graph_seed}"
            sharded = ShardedIndex(
                shard_index(index, path, num_shards=4), max_workers=1
            )
            return sharded, index

        first, _ = open_index(41)
        for k, block_rows in ((10, BLOCK_ROWS), (10, BLOCK_ROWS), (5, 64)):
            top_k_blockwise(first, SEEDS, k, block_rows=block_rows)
        assert calls == [first]

        # a new store version is another index object, with its own
        # order: its answers are its own graph's full-sort rankings
        second, reference = open_index(42)
        results = top_k_blockwise(second, SEEDS, 10, block_rows=BLOCK_ROWS)
        for seed, result in zip(SEEDS, results):
            nodes = reference.top_k(seed, 10)
            np.testing.assert_array_equal(result.nodes, nodes)
            assert (
                result.scores.tobytes()
                == reference.single_source(seed)[nodes].tobytes()
            )
        assert calls == [first, second]

    def test_cache_does_not_keep_a_retired_index_alive(self, store):
        sharded = ShardedIndex(store, max_workers=1)
        top_k_blockwise(sharded, SEEDS, 10, block_rows=BLOCK_ROWS)
        retired = weakref.ref(sharded)
        sharded.close()
        del sharded
        gc.collect()
        assert retired() is None


def _full_sort(reference, seeds, k):
    """Each seed's full-sort ranking, with its exact column's bytes."""
    rankings = []
    for seed in seeds:
        nodes = reference.top_k(seed, k)
        rankings.append(
            topk.TopKResult(nodes, reference.single_source(seed)[nodes], 0)
        )
    return rankings


@pytest.fixture
def fresh_orders(monkeypatch):
    """An empty visit-order cache, so each index builds (and fills) its
    order under the test's cap."""
    monkeypatch.setattr(topk, "_VISIT_ORDERS", weakref.WeakKeyDictionary())
    return topk._VISIT_ORDERS


def _open(backend, skewed_index, store):
    if backend == "memory":
        return skewed_index
    return ShardedIndex(store, max_workers=1)


class TestResidentHead:
    @pytest.mark.parametrize("backend", ["memory", "sharded"])
    @pytest.mark.parametrize("mode", ["exact", "batched"])
    @pytest.mark.parametrize("block_rows", [1, 7, 128, None])
    @pytest.mark.parametrize("cap", ["none", "one-block", "mid-block", "all"])
    def test_blocks_from_the_copy_carry_the_gathered_bytes(
        self, backend, mode, block_rows, cap, skewed_index, store,
        monkeypatch, fresh_orders,
    ):
        n = skewed_index.num_nodes
        block_rows = n if block_rows is None else block_rows
        row_bytes = skewed_index.rank * np.dtype(skewed_index.dtype).itemsize
        cap_bytes = {
            "none": 0,
            "one-block": block_rows * row_bytes,
            "mid-block": (5 * block_rows * row_bytes) // 2,
            "all": n * row_bytes,
        }[cap]
        index = _open(backend, skewed_index, store)
        # the gathered answer, from a cache the capped run does not share
        monkeypatch.setattr(topk, "RESIDENT_PREFIX_BYTES", 0)
        gathered = top_k_blockwise(
            index, SEEDS, 10, block_rows=block_rows, mode=mode
        )
        fresh_orders.clear()
        monkeypatch.setattr(topk, "RESIDENT_PREFIX_BYTES", cap_bytes)
        for _ in range(2):  # the filling call, then a warm one
            results = top_k_blockwise(
                index, SEEDS, 10, block_rows=block_rows, mode=mode
            )
            _assert_same(results, gathered)
            head = fresh_orders[index]._head
            assert head is None or head.nbytes <= cap_bytes
        if cap != "none":
            assert head is not None and head.shape[0] >= block_rows
        want = _full_sort(skewed_index, SEEDS, 10)
        if mode == "exact":
            _assert_same(results, want)
        else:
            # the k-th best batched score is within the contract of
            # the k-th best exact one, whichever near-tie wins
            atol = batched_query_atol(skewed_index.rank, skewed_index.dtype)
            for got, ranking in zip(results, want):
                assert got.scores.size == ranking.scores.size
                np.testing.assert_allclose(
                    got.scores, ranking.scores, rtol=0, atol=atol
                )
        if backend == "sharded":
            index.close()

    @pytest.mark.parametrize("backend", ["memory", "sharded"])
    @pytest.mark.parametrize("block_rows", [7, BLOCK_ROWS])
    def test_racing_first_calls_match_a_serial_call(
        self, backend, block_rows, skewed_index, store, fresh_orders
    ):
        serial = top_k_blockwise(
            skewed_index, SEEDS, 10, block_rows=block_rows
        )
        fresh_orders.clear()
        metrics = MetricsRegistry()
        index = (
            skewed_index if backend == "memory"
            else ShardedIndex(store, max_workers=1, metrics=metrics)
        )
        # the race covers first shard loads, the order and its head
        start = threading.Barrier(8)
        results = [None] * 8

        def race(slot):
            start.wait()
            results[slot] = top_k_blockwise(
                index, SEEDS, 10, block_rows=block_rows
            )

        threads = [threading.Thread(target=race, args=(slot,)) for slot in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the fills finely
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for got in results:
            _assert_same(got, serial)
        if backend == "sharded":
            # each shard was loaded once, however the first calls raced
            loads = metrics.counter("csrplus_shard_loads_total", "x")
            assert loads.value == index.num_shards
            index.close()

    @pytest.mark.parametrize("backend", ["memory", "sharded"])
    def test_a_failed_fill_raises_and_the_next_call_is_exact(
        self, backend, skewed_index, store, monkeypatch, fresh_orders
    ):
        gatherers = topk._row_gatherers
        failures = []

        def flaky(index):
            gather_z, gather_u = gatherers(index)

            def gather_once_failing(ids):
                if not failures:
                    failures.append(len(ids))
                    raise OSError("injected shard read failure")
                return gather_z(ids)

            return gather_once_failing, gather_u

        monkeypatch.setattr(topk, "_row_gatherers", flaky)
        index = _open(backend, skewed_index, store)
        with pytest.raises(OSError, match="injected"):
            top_k_blockwise(index, SEEDS, 10, block_rows=BLOCK_ROWS)
        assert failures == [BLOCK_ROWS]  # it was the head's first fill
        assert fresh_orders[index]._head is None
        results = top_k_blockwise(index, SEEDS, 10, block_rows=BLOCK_ROWS)
        _assert_same(results, _full_sort(skewed_index, SEEDS, 10))
        if backend == "sharded":
            index.close()

    def test_the_order_holds_no_gatherer(self, store, fresh_orders):
        sharded = ShardedIndex(store, max_workers=1)
        top_k_blockwise(sharded, SEEDS, 10, block_rows=BLOCK_ROWS)
        order = fresh_orders[sharded]
        assert order._head is not None
        held = [ref for ref in gc.get_referents(order) if ref is not type(order)]
        assert not any(callable(ref) for ref in held)
        sharded.close()
