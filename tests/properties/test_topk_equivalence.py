"""Property: every top-k path returns the full-sort engine's ranking.

``SimilarityEngine.top_k`` scores all ``n`` nodes and lexsorts on
``(-score, id)``; the blockwise kernel visits norm-ordered blocks and
prunes.  Because top-k selection under a total order is associative
over partitions, the two must agree *exactly* — same nodes, same
scores, same tie order.  Hypothesis searches for a counter-example
across:

* arbitrary small digraphs (plus hub-skewed stars — heavy ties and
  extreme norm skew) and seed batches with duplicates;
* shard counts ``{1, 2, 7, n}`` and the monolithic layout, and block
  heights ``{1, 3, 4096}`` over each;
* both storage dtypes (float64 / float32);
* ``k`` spanning ``{1, 5, n-1, n}`` (clamping included);
* ``exclude_self`` on and off;
* cold and warm top-k cache states when served through
  :class:`~repro.serving.CoSimRankService.serve_topk`;
* batched mode, where node sets may legitimately differ on near-ties
  but every returned score must sit within
  :func:`~repro.core.index.batched_query_atol` of the exact column.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.index import CSRPlusIndex, batched_query_atol
from repro.core.topk import top_k_blockwise
from repro.graphs.digraph import DiGraph
from repro.serving import CoSimRankService
from repro.sharding import ShardedIndex, shard_index

SETTINGS = dict(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

SHARD_COUNTS = (1, 2, 7, None)  # None stands for n (one row per shard)


@st.composite
def topk_case(draw):
    n = draw(st.integers(min_value=2, max_value=14))
    if draw(st.booleans()):
        # hub-skewed: a star into node 0 (all norms concentrate on the
        # hub, everyone else ties — the tie-order torture case)
        edges = [(s, 0) for s in range(1, n)]
        extra = [(s, t) for s in range(n) for t in range(n) if s != t]
        edges += draw(
            st.lists(st.sampled_from(extra), min_size=0, max_size=n, unique=True)
        )
        edges = sorted(set(edges))
    else:
        possible = [(s, t) for s in range(n) for t in range(n) if s != t]
        edges = draw(
            st.lists(
                st.sampled_from(possible), min_size=1, max_size=3 * n, unique=True
            )
        )
    seed = st.integers(min_value=0, max_value=n - 1)
    seeds = draw(st.lists(seed, min_size=1, max_size=2 * n))  # dups allowed
    rank = draw(st.integers(min_value=1, max_value=min(4, n)))
    dtype = draw(st.sampled_from(["float64", "float32"]))
    num_shards = draw(st.sampled_from(SHARD_COUNTS))
    k = draw(st.sampled_from(sorted({1, min(5, n), n - 1, n})))
    exclude_self = draw(st.booleans())
    return DiGraph(n, edges), seeds, rank, dtype, num_shards or n, k, exclude_self


def _reference(index, seeds, k, exclude_self):
    """Full-sort rankings and their exact column scores, per seed."""
    expected = []
    for seed in seeds:
        nodes = index.top_k(int(seed), k, exclude_self=exclude_self)
        column = index.single_source(int(seed))
        expected.append((nodes, column[nodes]))
    return expected


def _assert_identical(results, expected):
    for result, (nodes, scores) in zip(results, expected):
        np.testing.assert_array_equal(result.nodes, nodes)
        np.testing.assert_array_equal(
            np.asarray(result.scores, dtype=np.float64),
            scores.astype(np.float64),
        )


@settings(**SETTINGS)
@given(case=topk_case())
def test_blockwise_matches_full_sort(case):
    """Contract 1: the monolithic blockwise kernel is bit-identical."""
    graph, seeds, rank, dtype, _, k, exclude_self = case
    index = CSRPlusIndex(graph, rank=rank, dtype=dtype).prepare()
    expected = _reference(index, seeds, k, exclude_self)
    for block_rows in (1, 3, graph.num_nodes):
        results = top_k_blockwise(
            index, seeds, k,
            exclude_self=exclude_self, block_rows=block_rows, mode="exact",
        )
        _assert_identical(results, expected)


@settings(**SETTINGS)
@given(case=topk_case())
def test_sharded_blockwise_matches_full_sort(case, tmp_path_factory):
    """Contract 2: norm-ordered blocks gathered from the shards are
    bit-identical too, at every block height — including blocks whose
    rows span several shards."""
    graph, seeds, rank, dtype, num_shards, k, exclude_self = case
    index = CSRPlusIndex(graph, rank=rank, dtype=dtype).prepare()
    expected = _reference(index, seeds, k, exclude_self)
    store = shard_index(
        index, tmp_path_factory.mktemp("store"), num_shards=num_shards
    )
    with ShardedIndex(store, max_workers=1) as sharded:
        for block_rows in (1, 3, 4096):
            results = top_k_blockwise(
                sharded, seeds, k,
                exclude_self=exclude_self, block_rows=block_rows, mode="exact",
            )
            _assert_identical(results, expected)


@settings(**SETTINGS)
@given(case=topk_case())
def test_served_topk_matches_full_sort(case, tmp_path_factory):
    """Contract 3: serve_topk is bit-identical, cold cache and warm."""
    graph, seeds, rank, dtype, num_shards, k, exclude_self = case
    index = CSRPlusIndex(graph, rank=rank, dtype=dtype).prepare()
    expected = _reference(index, seeds, k, exclude_self)
    store = shard_index(
        index, tmp_path_factory.mktemp("store"), num_shards=num_shards
    )
    with ShardedIndex(store, max_workers=1) as sharded:
        for backend in (index, sharded):
            with CoSimRankService(backend, max_workers=1) as service:
                cold = service.serve_topk(
                    seeds, k, exclude_self=exclude_self
                )
                _assert_identical(cold, expected)
                warm = service.serve_topk(
                    seeds, k, exclude_self=exclude_self
                )
                _assert_identical(warm, expected)
                # a shallower request must be the deeper prefix
                if k > 1:
                    shallow = service.serve_topk(
                        seeds, k - 1, exclude_self=exclude_self
                    )
                    for deep, narrow in zip(cold, shallow):
                        np.testing.assert_array_equal(
                            narrow.nodes, deep.nodes[: k - 1]
                        )


@settings(**SETTINGS)
@given(case=topk_case())
def test_batched_mode_within_tolerance(case):
    """Contract 4: batched top-k scores obey the batched_query_atol bound."""
    graph, seeds, rank, dtype, _, k, exclude_self = case
    index = CSRPlusIndex(graph, rank=rank, dtype=dtype).prepare()
    atol = batched_query_atol(rank, dtype)
    results = top_k_blockwise(
        index, seeds, k, exclude_self=exclude_self, block_rows=3, mode="batched"
    )
    for seed, result in zip(seeds, results):
        column = index.single_source(int(seed))
        np.testing.assert_allclose(
            np.asarray(result.scores, dtype=np.float64),
            column[result.nodes],
            rtol=0.0,
            atol=atol,
        )
        # every returned node must genuinely belong near the top:
        # no score may sit below the exact k-th floor by more than
        # the documented tolerance
        order = np.lexsort((np.arange(column.size), -column))
        if exclude_self:
            order = order[order != int(seed)]
        floor = column[order[: min(k, order.size)]][-1]
        assert np.all(
            np.asarray(result.scores, dtype=np.float64) >= floor - atol
        )
