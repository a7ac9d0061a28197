"""Proxy index that routes kernel calls to the worker pool.

:class:`PooledIndex` presents the backend surface
:class:`~repro.serving.service.CoSimRankService` computes against —
``query_columns`` and the ``top_k_chunk`` hook — but every call is an RPC to a :class:`~repro.serving.frontend.worker.
WorkerPool` process.  The service therefore *is* the frontend
dispatcher: plan/coalesce/cache/budget/deadline/retry logic runs once
in the dispatcher process, and only cache *misses* cross the process
boundary, chunked exactly as the in-process path chunks them.  Because
the workers run the unchanged kernels over the same shard bytes, a
block served through a :class:`PooledIndex` is bit-identical to one
served by an in-process :class:`~repro.sharding.ShardedIndex`.

Each proxy is pinned to one store *version*: ``publish`` hands the
frontend a fresh :class:`PooledIndex` for the new version while
batches that pinned the old proxy keep resolving against the old
store (workers keep the previous version open — see
``KEEP_VERSIONS``), which is how
:meth:`~repro.serving.service.CoSimRankService.publish_index`'s
zero-downtime contract extends across processes.

Each proxy also names a *tier*: ``"exact"`` routes to a version's
exact store, ``"approx"`` to its rank-truncated replica store — the
service's ``approx_index`` in the frontend (docs/approx.md).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

import numpy as np

from repro.core.config import CSRPlusConfig

__all__ = ["PooledIndex"]


class PooledIndex:
    """The serving surface of one tier's store, evaluated in worker
    processes."""

    def __init__(
        self, pool, meta: Dict[str, Any], version: int = 0, tier: str = "exact"
    ):
        self._pool = pool
        self._meta = dict(meta)
        self.version = int(version)
        self.tier = tier
        #: the replica store's published error bound (``None`` for exact)
        self.approx_atol = meta.get("approx_atol")
        self.num_nodes = int(meta["num_nodes"])
        self.dtype = np.dtype(meta["dtype"])
        config = meta.get("config", {})
        self.config = CSRPlusConfig(
            damping=float(config.get("damping", 0.6)),
            rank=int(config.get("rank", 5)),
            epsilon=float(config.get("epsilon", 1e-4)),
            dtype=str(np.dtype(meta["dtype"])),
            query_mode=config.get("query_mode", "exact"),
        )

    # -- backend surface the service computes against ------------------
    def prepare(self) -> "PooledIndex":
        return self

    @property
    def is_prepared(self) -> bool:
        return True

    def query_columns(self, seeds, mode: Optional[str] = None) -> np.ndarray:
        return self._pool.columns(self.version, seeds, mode, self.tier)

    def top_k_chunk(
        self,
        seeds,
        k: int,
        *,
        exclude_self: bool = True,
        mode: Optional[str] = None,
    ) -> List[Any]:
        """Whole top-k chunks ranked inside one worker.

        This is the optional backend hook ``CoSimRankService`` prefers
        over running :func:`~repro.core.topk.top_k_blockwise` itself —
        shipping the chunk to the worker keeps the blockwise scan next
        to the mmapped shard bytes instead of streaming row blocks over
        the pipe.
        """
        return self._pool.topk(
            self.version, seeds, k, exclude_self, mode, self.tier
        )

    def close(self) -> None:
        """The pool outlives its proxies; closing a proxy is a no-op."""

    def at_version(self, version: int, meta: Optional[Dict[str, Any]] = None):
        """A sibling proxy pinned to another published version."""
        return PooledIndex(self._pool, meta or self._meta, version, self.tier)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PooledIndex(n={self.num_nodes}, version={self.version}, "
            f"tier={self.tier}, pool={self._pool!r})"
        )
