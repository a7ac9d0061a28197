"""Pure seed-to-shard routing for a node-range shard layout.

:class:`ShardRouter` is the planning half of the sharded query path —
no I/O, no threads, just arithmetic on the shard boundaries — in the
same spirit as :mod:`repro.serving.scheduler` for the service.  Keeping
it pure makes the routing decisions unit-testable in isolation and
reusable by any executor (the in-process thread pool today, a
multi-process or multi-host dispatcher later).

Two distinct shard sets matter for one query batch:

* the **gather set** — shards owning the rows ``U[seed, :]`` for the
  batch's seeds (only these are touched to fetch query vectors);
* the **compute set** — *every* shard, because each shard contributes
  its own output row block ``[start, stop)`` of every column.

:meth:`ShardRouter.plan` resolves the first; the second is simply
``range(num_shards)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.errors import InvalidParameterError, QueryError

__all__ = ["RoutedSeeds", "ShardRouter"]


@dataclass(frozen=True)
class RoutedSeeds:
    """Where each seed of a batch lives.

    Attributes
    ----------
    seed_ids:
        The validated batch, in request order (duplicates preserved).
    owners:
        ``owners[j]`` is the shard whose row range contains
        ``seed_ids[j]``.
    local_rows:
        ``local_rows[j] = seed_ids[j] - start[owners[j]]`` — the row of
        ``seed_ids[j]`` inside its owner's ``U`` block.
    gather_shards:
        Sorted distinct owners (the shards that must be read to gather
        the batch's query vectors).
    """

    seed_ids: np.ndarray
    owners: np.ndarray
    local_rows: np.ndarray
    gather_shards: Tuple[int, ...]


class ShardRouter:
    """Maps node ids to the shards owning their factor rows."""

    def __init__(self, boundaries: Sequence[Tuple[int, int]]):
        if not boundaries:
            raise InvalidParameterError("boundaries must be non-empty")
        starts = np.asarray([b[0] for b in boundaries], dtype=np.int64)
        stops = np.asarray([b[1] for b in boundaries], dtype=np.int64)
        if starts[0] != 0 or np.any(stops <= starts) or (
            starts.size > 1 and np.any(starts[1:] != stops[:-1])
        ):
            raise InvalidParameterError(
                f"boundaries must tile [0, n) contiguously, got "
                f"{list(boundaries)}"
            )
        self._starts = starts
        self._stops = stops

    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        return int(self._starts.size)

    @property
    def num_nodes(self) -> int:
        return int(self._stops[-1])

    @property
    def boundaries(self) -> List[Tuple[int, int]]:
        return [
            (int(a), int(b)) for a, b in zip(self._starts, self._stops)
        ]

    def row_range(self, shard: int) -> Tuple[int, int]:
        if not (0 <= shard < self.num_shards):
            raise InvalidParameterError(
                f"shard index {shard} out of range [0, {self.num_shards})"
            )
        return int(self._starts[shard]), int(self._stops[shard])

    def shard_of(self, node: int) -> int:
        """The shard whose row range contains ``node``."""
        node = int(node)
        if not (0 <= node < self.num_nodes):
            raise QueryError(
                f"node id must be in [0, {self.num_nodes}), got {node}"
            )
        return int(np.searchsorted(self._stops, node, side="right"))

    def owners(self, seed_ids: np.ndarray) -> np.ndarray:
        """``owners[j]``: the shard holding ``seed_ids[j]`` (an int64
        array; validated, one ``searchsorted``)."""
        if seed_ids.size and (
            seed_ids.min() < 0 or seed_ids.max() >= self.num_nodes
        ):
            raise QueryError(
                f"seed ids must be in [0, {self.num_nodes}), got range "
                f"[{seed_ids.min()}, {seed_ids.max()}]"
            )
        return np.searchsorted(self._stops, seed_ids, side="right")

    def plan(self, seeds) -> RoutedSeeds:
        """Route a seed batch (validates ids, preserves duplicates)."""
        seed_ids = np.asarray(seeds, dtype=np.int64).ravel()
        owners = self.owners(seed_ids)
        local_rows = seed_ids - self._starts[owners] if seed_ids.size else owners
        return RoutedSeeds(
            seed_ids=seed_ids,
            owners=owners,
            local_rows=local_rows,
            gather_shards=tuple(int(s) for s in np.unique(owners)),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardRouter(num_shards={self.num_shards}, "
            f"num_nodes={self.num_nodes})"
        )
