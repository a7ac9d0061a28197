"""Top-k over a sharded store: one norm-ordered visit order per index.

:func:`~repro.core.topk.top_k_blockwise` visits rows in decreasing
``||Z[x]||`` order, ``block_rows`` rows per block, for a
:class:`~repro.sharding.ShardedIndex` exactly as for an in-memory
index.  Shards are contiguous id ranges, so each holds a hub; blocks
of the norm order do not, and their bounds fall below the seeds'
floors.  The order is built from ``z_row_norms`` on an index's first
top-k call only, and the cache that holds it never keeps an index
alive.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.core.index import CSRPlusIndex
from repro.core.topk import DEFAULT_BLOCK_ROWS, top_k_blockwise
from repro.graphs.generators import preferential_attachment
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
