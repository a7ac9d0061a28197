"""Property: a live-repaired index is indistinguishable from a rebuild.

The live chain (docs/dynamic.md) answers queries after any sequence of
edge batches by publishing each repaired version all-or-nothing: the
repair rewrites every shard, and an attached service drops its caches
whole on the swap unless the new factors are byte-identical to the old
ones, in which case it keeps them whole.  The property to pin is
equivalence with the boring alternative: throw everything away and
``prepare()`` from scratch on the mutated graph.  Hypothesis searches
for a counter-example across:

* arbitrary small digraphs and random add/remove batch sequences
  (duplicates, re-adds of existing edges, and removals of missing
  edges included — byte-no-op batches are the one case where a swap
  keeps the caches, and must still be correct);
* monolithic chains and sharded chains with shard counts ``{1, 2, 7}``;
* both storage dtypes (float64 / float32);
* exact mode bit-identical (``np.array_equal``), batched mode within
  :func:`~repro.core.index.batched_query_atol`;
* the served path across version swaps — a warm
  :class:`~repro.serving.CoSimRankService` attached before the updates
  must serve post-swap answers (columns *and* top-k rankings)
  bit-identical to a cold from-scratch service.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.index import CSRPlusIndex, batched_query_atol
from repro.core.topk import top_k_blockwise
from repro.graphs.digraph import DiGraph
from repro.serving import CoSimRankService, LiveIndexChain

SETTINGS = dict(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: ``None`` is a monolithic chain; the rest repair sharded stores.
SHARD_COUNTS = (None, 1, 2, 7)


@st.composite
def dynamic_case(draw):
    n = draw(st.integers(min_value=4, max_value=10))
    possible = [(s, t) for s in range(n) for t in range(n) if s != t]
    edge = st.sampled_from(possible)
    initial = draw(st.lists(edge, min_size=1, max_size=2 * n, unique=True))
    batches = draw(
        st.lists(
            st.tuples(
                st.lists(edge, min_size=0, max_size=4),  # added
                st.lists(edge, min_size=0, max_size=2),  # removed (may miss)
            ),
            min_size=1,
            max_size=2,
        )
    )
    seeds = draw(
        st.lists(
            st.integers(min_value=0, max_value=n - 1), min_size=1, max_size=6
        )
    )
    rank = draw(st.integers(min_value=1, max_value=min(4, n)))
    dtype = draw(st.sampled_from(["float64", "float32"]))
    num_shards = draw(st.sampled_from(SHARD_COUNTS))
    return DiGraph(n, initial), batches, seeds, rank, dtype, num_shards


def _build_chain(case, tmp_path_factory):
    graph, batches, seeds, rank, dtype, num_shards = case
    kwargs = {}
    if num_shards is not None:
        kwargs["num_shards"] = num_shards
        kwargs["store_root"] = str(tmp_path_factory.mktemp("live"))
    chain = LiveIndexChain(graph, rank=rank, dtype=dtype, **kwargs)
    return chain, batches, seeds, rank, dtype


@settings(**SETTINGS)
@given(case=dynamic_case())
def test_exact_mode_bit_identical_to_scratch(case, tmp_path_factory):
    """Contract 1: after any batch sequence, exact-mode answers match a
    from-scratch prepare on the mutated graph to the bit."""
    chain, batches, seeds, rank, dtype = _build_chain(case, tmp_path_factory)
    for added, removed in batches:
        chain.update_edges(added=added, removed=removed)
    scratch = CSRPlusIndex(chain.graph, rank=rank, dtype=dtype).prepare()
    got = chain.index.query_columns(seeds, mode="exact")
    want = scratch.query_columns(seeds, mode="exact")
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


@settings(**SETTINGS)
@given(case=dynamic_case())
def test_batched_mode_within_atol_of_scratch(case, tmp_path_factory):
    """Contract 2: the repaired factors keep batched mode inside the
    documented tolerance of the scratch exact answer."""
    chain, batches, seeds, rank, dtype = _build_chain(case, tmp_path_factory)
    for added, removed in batches:
        chain.update_edges(added=added, removed=removed)
    scratch = CSRPlusIndex(chain.graph, rank=rank, dtype=dtype).prepare()
    got = chain.index.query_columns(seeds, mode="batched")
    want = scratch.query_columns(seeds, mode="exact")
    atol = batched_query_atol(rank, np.dtype(dtype))
    np.testing.assert_allclose(
        got.astype(np.float64),
        want.astype(np.float64),
        rtol=0.0,
        atol=atol,
    )


@settings(**SETTINGS)
@given(case=dynamic_case())
def test_served_answers_survive_version_swaps(case, tmp_path_factory):
    """Contract 3: a service warmed *before* the updates — so every swap
    must drop its caches whole, or keep them whole when the factors did
    not change — serves post-swap columns and rankings bit-identical to
    a cold from-scratch service."""
    chain, batches, seeds, rank, dtype = _build_chain(case, tmp_path_factory)
    k = min(3, chain.graph.num_nodes)
    with CoSimRankService(chain.index, max_workers=1) as service:
        chain.attach(service)
        service.serve_batch([seeds])  # warm the column cache on v0
        service.serve_topk(seeds, k)  # ... and the ranking cache
        for added, removed in batches:
            chain.update_edges(added=added, removed=removed)
        assert service.index_version == chain.version
        got = service.serve_batch([seeds])[0]
        got_topk = service.serve_topk(seeds, k)
    scratch = CSRPlusIndex(chain.graph, rank=rank, dtype=dtype).prepare()
    assert np.array_equal(got, scratch.query_columns(seeds, mode="exact"))
    want_topk = top_k_blockwise(scratch, seeds, k, mode="exact")
    for got_r, want_r in zip(got_topk, want_topk):
        assert np.array_equal(got_r.nodes, want_r.nodes)
        assert np.array_equal(got_r.scores, want_r.scores)
