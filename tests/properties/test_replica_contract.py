"""Property: the degraded tier's replica honours its published bound.

The ``quality="approx"`` tier answers from a rank-``r'`` truncation of
the exact index's own SVD (docs/approx.md).  Because the replica keeps
``U' = U[:, :r']``, its column for seed ``q`` differs from the exact one
by exactly ``c * D @ U_q`` with ``D = Z - [Z', 0]``, so every entry obeys

    ``|replica - exact|_{iq} <= c * ||D_i|| * ||U_q|| + batched_query_atol(r, dtype)``

and the published scalar ``approx_atol`` (the same bound maximised over
``i`` and ``q``) covers the MaxDiff — hence the AvgDiff — of any
answer.  Hypothesis searches for a counterexample over graphs, both
storage dtypes, ranks ``1..17`` and seed multisets, for the monolithic
replica (:meth:`~repro.core.index.CSRPlusIndex.truncate_to_rank`) and
for the sharded replica store written by
:func:`~repro.sharding.build_sharded_store` on both its dense and its
streaming (out-of-core) path.  A last property pins determinism: the
replica's bytes are a pure function of the exact index.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import CSRPlusConfig
from repro.core.index import (
    CSRPlusIndex,
    batched_query_atol,
    replica_rank,
    truncation_residual_norms,
)
from repro.graphs.digraph import DiGraph
from repro.linalg.svd import uses_dense_fallback
from repro.metrics.accuracy import avg_diff
from repro.sharding import REPLICA_DIR, ShardedIndex, build_sharded_store

SETTINGS = dict(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

DTYPES = ("float32", "float64")
MAX_RANK = 17

#: Node ranges that send the sharded builder down each factor path
#: (:func:`~repro.linalg.svd.uses_dense_fallback`: dense up to 64 nodes).
BUILDER_NODES = {"dense": (MAX_RANK + 1, 40), "streaming": (65, 90)}


@st.composite
def replica_case(draw, min_nodes=MAX_RANK + 1, max_nodes=40):
    n = draw(st.integers(min_value=min_nodes, max_value=max_nodes))
    possible = [(s, t) for s in range(n) for t in range(n) if s != t]
    edges = draw(
        st.lists(
            st.sampled_from(possible), min_size=2 * n, max_size=5 * n, unique=True
        )
    )
    rank = draw(st.integers(min_value=1, max_value=MAX_RANK))
    dtype = draw(st.sampled_from(DTYPES))
    # a served request: duplicates allowed
    seeds = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=8))
    return DiGraph(n, edges), rank, dtype, seeds


@st.composite
def sharded_case(draw):
    path = draw(st.sampled_from(sorted(BUILDER_NODES)))
    low, high = BUILDER_NODES[path]
    case = draw(replica_case(min_nodes=low, max_nodes=high))
    num_shards = draw(st.sampled_from((1, 2, 5)))
    return path, num_shards, case


def _assert_per_entry_bound(exact, replica, z, u, z_small, seeds, dtype):
    """Both halves of the contract for one request."""
    got = replica.query_columns(seeds).astype(np.float64)
    want = exact.query_columns(seeds).astype(np.float64)
    assert got.shape == want.shape
    diff = np.abs(got - want)
    residual = truncation_residual_norms(z, z_small)
    u_norms = np.linalg.norm(
        u[np.asarray(seeds)].astype(np.float64), axis=1
    )
    per_entry = exact.config.damping * np.outer(residual, u_norms) + (
        batched_query_atol(exact.config.rank, dtype)
    )
    assert np.all(diff <= per_entry)
    assert diff.max() <= replica.approx_atol


class TestMonolithicReplica:
    @given(case=replica_case())
    @settings(**SETTINGS)
    def test_per_entry_bound_against_exact(self, case):
        graph, rank, dtype, seeds = case
        exact = CSRPlusIndex(graph, rank=rank, dtype=dtype).prepare()
        replica = exact.truncate_to_rank(replica_rank(rank))
        assert replica.dtype == np.dtype(dtype)
        u, _, _, z = exact.factors
        _assert_per_entry_bound(
            exact, replica, z, u, replica.factors[3], seeds, dtype
        )

    @given(case=replica_case())
    @settings(**SETTINGS)
    def test_published_bound_covers_max_diff(self, case):
        graph, rank, dtype, _ = case
        exact = CSRPlusIndex(graph, rank=rank, dtype=dtype).prepare()
        replica = exact.truncate_to_rank(replica_rank(rank))
        every_seed = np.arange(graph.num_nodes)
        got = replica.query_columns(every_seed).astype(np.float64)
        want = exact.query_columns(every_seed).astype(np.float64)
        assert np.abs(got - want).max() <= replica.approx_atol
        assert avg_diff(got, want) <= replica.approx_atol


class TestShardedReplica:
    @given(case=sharded_case())
    @settings(**SETTINGS)
    def test_per_entry_bound_against_own_store(self, case, tmp_path_factory):
        path, num_shards, (graph, rank, dtype, seeds) = case
        n = graph.num_nodes
        assert uses_dense_fallback((n, n), rank) == (path == "dense")
        root = tmp_path_factory.mktemp("store")
        store = build_sharded_store(
            graph,
            root / "s",
            num_shards=num_shards,
            config=CSRPlusConfig(rank=rank, dtype=dtype),
            replica_path=root / "s" / REPLICA_DIR,
        )
        rows = np.arange(n)
        with ShardedIndex(store, max_workers=1) as exact, ShardedIndex(
            root / "s" / REPLICA_DIR, max_workers=1
        ) as replica:
            assert replica.rank == replica_rank(rank)
            assert replica.dtype == np.dtype(dtype)
            assert exact.approx_atol is None
            _assert_per_entry_bound(
                exact,
                replica,
                exact.gather_z_rows(rows),
                exact.gather_u_rows(rows),
                replica.gather_z_rows(rows),
                seeds,
                dtype,
            )


class TestReplicaDeterminism:
    @given(case=replica_case())
    @settings(**SETTINGS)
    def test_monolithic_bytes_are_pure(self, case):
        graph, rank, dtype, seeds = case
        exact = CSRPlusIndex(graph, rank=rank, dtype=dtype).prepare()
        first = exact.truncate_to_rank(replica_rank(rank))
        second = exact.truncate_to_rank(replica_rank(rank))
        for a, b in zip(first.factors, second.factors):
            assert a.dtype == b.dtype
            assert a.tobytes() == b.tobytes()
        assert first.approx_atol == second.approx_atol
        assert np.array_equal(
            first.query_columns(seeds), second.query_columns(seeds)
        )

    @given(case=sharded_case())
    @settings(**SETTINGS)
    def test_sharded_bytes_are_pure(self, case, tmp_path_factory):
        _, num_shards, (graph, rank, dtype, _) = case
        manifests = []
        for _attempt in range(2):
            root = tmp_path_factory.mktemp("store")
            build_sharded_store(
                graph,
                root / "s",
                num_shards=num_shards,
                config=CSRPlusConfig(rank=rank, dtype=dtype),
                replica_path=root / "s" / REPLICA_DIR,
            )
            with ShardedIndex(root / "s" / REPLICA_DIR) as replica:
                manifests.append(replica.store.manifest)
        first, second = manifests
        # shard digests cover the raw factor bytes
        assert first.shards == second.shards
        assert first.approx_atol == second.approx_atol
