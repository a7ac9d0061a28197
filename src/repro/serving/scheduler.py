"""Batch planning: coalesce requests, dedupe seeds, chunk the misses.

The scheduler is deliberately pure — it turns a list of raw requests
into a :class:`BatchPlan` (validated per-request ids plus the distinct
seed union) and splits miss lists into work chunks.  All locking,
caching, and execution policy lives in
:class:`~repro.serving.service.CoSimRankService`; keeping the planning
side-effect-free makes it independently testable and trivially
thread-safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.core.base import QueryLike, normalize_queries
from repro.errors import InvalidParameterError

__all__ = [
    "BatchPlan",
    "plan_batch",
    "chunk_seeds",
    "effective_chunk_size",
    "GEMM_MIN_CHUNK",
]

#: Minimum worker-chunk width in batched query mode.  A batched
#: ``Z @ (U[Q,:])^T`` product narrower than this wastes the GEMM's
#: blocking (the kernel's advantage over per-seed GEMV only
#: materialises at |Q| ≳ 64); exact mode is width-indifferent.
GEMM_MIN_CHUNK = 64


@dataclass(frozen=True)
class BatchPlan:
    """A validated, deduplicated execution plan for one request batch.

    Attributes
    ----------
    request_ids:
        One validated int64 array per request, in request order
        (duplicates within a request preserved — one output column per
        requested seed).
    unique_seeds:
        Sorted distinct union of all requested seeds; the only seeds
        that ever touch the cache or the index.
    """

    request_ids: Tuple[np.ndarray, ...]
    unique_seeds: np.ndarray

    @property
    def num_requests(self) -> int:
        return len(self.request_ids)

    @property
    def seeds_requested(self) -> int:
        """Total output columns, duplicates included."""
        return int(sum(ids.size for ids in self.request_ids))


def plan_batch(requests: Sequence[QueryLike], num_nodes: int) -> BatchPlan:
    """Validate every request and coalesce the batch's seed set.

    Each request is normalised exactly like
    :meth:`~repro.core.base.SimilarityEngine.query` input (so the
    service rejects precisely what the index would reject), then the
    union of all seeds is deduplicated once for the whole batch —
    a seed shared by ten requests is looked up and computed at most
    once.
    """
    request_ids = tuple(
        normalize_queries(request, num_nodes) for request in requests
    )
    if request_ids:
        unique_seeds = np.unique(np.concatenate(request_ids))
    else:
        unique_seeds = np.empty(0, dtype=np.int64)
    return BatchPlan(request_ids=request_ids, unique_seeds=unique_seeds)


def effective_chunk_size(chunk_size: int, query_mode: str = "exact") -> int:
    """Worker-chunk width tuned for the query mode's kernel shape.

    ``"exact"`` mode computes every entry independently of its
    chunk-mates, so the configured ``chunk_size`` is purely a
    scheduling granularity and passes through unchanged.
    ``"batched"`` mode evaluates each chunk as one
    GEMM whose width *is* the chunk size; chunks are widened to at
    least :data:`GEMM_MIN_CHUNK` columns so the kernel amortises its
    blocking (narrower chunks would pay GEMM overheads at GEMV speed).
    """
    if chunk_size < 1:
        raise InvalidParameterError(
            f"chunk_size must be >= 1, got {chunk_size}"
        )
    if query_mode == "batched":
        return max(int(chunk_size), GEMM_MIN_CHUNK)
    return int(chunk_size)


def chunk_seeds(seeds: Sequence[int], chunk_size: int) -> List[np.ndarray]:
    """Split a miss list into contiguous chunks of at most ``chunk_size``.

    In exact query mode, chunking only affects *scheduling* granularity,
    never values: columns are evaluated per seed (see
    :meth:`~repro.core.index.CSRPlusIndex.query_columns`), so any
    chunking of the same miss set yields bit-identical columns.  In
    batched mode a chunk is one GEMM, so the chunking *is* the batch
    structure — size chunks with :func:`effective_chunk_size`.
    """
    if chunk_size < 1:
        raise InvalidParameterError(
            f"chunk_size must be >= 1, got {chunk_size}"
        )
    seed_array = np.asarray(seeds, dtype=np.int64).ravel()
    return [
        seed_array[start : start + chunk_size]
        for start in range(0, seed_array.size, chunk_size)
    ]
