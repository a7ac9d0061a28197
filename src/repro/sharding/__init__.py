"""Sharded out-of-core indexes: node-range shards with fan-out routing.

The paper's online formula ``S[x,q] = [x=q] + c * <Z[x], U[q]>``
(Theorem 3.5) is independent per output row, so row-partitioning the
``n x r`` factors is *embarrassingly exact* — this package exploits
that to serve graphs whose factors do not fit in RAM as one block
(docs/sharding.md):

* :mod:`~repro.sharding.manifest` — shard layout planning and the
  sidecar-checked JSON manifest (per-shard sha256 digests);
* :mod:`~repro.sharding.store` — mmap-able ``.npy`` shard files:
  :func:`shard_index` cuts a prepared monolithic index into
  byte-identical row slices, :class:`ShardStore` reads them back
  (carrying the ``shard.read`` chaos seam);
* :mod:`~repro.sharding.builder` — :func:`build_sharded_store` runs
  Algorithm 1 out-of-core (~one shard of ``Z`` resident, ledger
  charged per shard) and :func:`rebuild_shards` deterministically
  regenerates single shards for corruption repair;
* :mod:`~repro.sharding.router` / :mod:`~repro.sharding.index` —
  :class:`ShardRouter` maps seeds to owner shards and
  :class:`ShardedIndex` fans per-shard work across a thread pool,
  concatenating row blocks into answers ``np.array_equal`` to the
  monolithic exact path (within
  :func:`~repro.core.kernel.batched_query_atol` for batched mode).

A :class:`ShardedIndex` plugs straight into
:class:`~repro.serving.CoSimRankService` — cache, deadlines, retries,
load shedding, fault seams, and metrics all work unchanged — and into
the CLI via ``csrplus shard-build`` / ``--shards``.
"""

from repro._lazy import lazy_exports as _lazy_exports

__getattr__, __dir__ = _lazy_exports(__name__, {
    ".builder": [
        "ShardRepairReport",
        "build_sharded_store",
        "rebuild_shards",
        "repair_sharded_store",
    ],
    ".index": ["ShardedIndex"],
    ".manifest": ["ShardManifest", "ShardMeta", "array_sha256", "plan_shards"],
    ".router": ["RoutedSeeds", "ShardRouter"],
    ".store": [
        "REPLICA_DIR",
        "Shard",
        "ShardStore",
        "ShardStoreWriter",
        "replica_store_path",
        "shard_index",
    ],
})

__all__ = [
    "ShardManifest",
    "ShardMeta",
    "array_sha256",
    "plan_shards",
    "Shard",
    "ShardStore",
    "ShardStoreWriter",
    "shard_index",
    "REPLICA_DIR",
    "replica_store_path",
    "build_sharded_store",
    "rebuild_shards",
    "repair_sharded_store",
    "ShardRepairReport",
    "RoutedSeeds",
    "ShardRouter",
    "ShardedIndex",
]
