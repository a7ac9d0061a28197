"""Pruned top-k search over a CSR+ index.

``SimilarityEngine.top_k`` scores all ``n`` nodes and sorts.  For large
graphs with a skewed score distribution most of that work is wasted:
by Eq. (12), ``S[x, q] = [x = q] + c * <Z[x], U[q]>``, and
Cauchy–Schwarz bounds the off-diagonal part by
``c * ||Z[x]|| * ||U[q]||``.  Visiting candidates in decreasing
``||Z[x]||`` order therefore admits classic threshold-algorithm
pruning: once the k-th best score found so far exceeds the bound of
every unvisited candidate, the scan can stop.

Two kernels implement this idea (docs/topk.md):

* :func:`top_k_pruned` — the scalar reference oracle: one seed, one
  Python loop, one GEMV per candidate.  Obviously correct, trivially
  auditable, and kept as the ground truth the fast path is tested
  against.
* :func:`top_k_blockwise` — the production kernel: many seeds at once,
  evaluated one *row-block* at a time (a vectorised product per block,
  never a per-candidate GEMV), with blocks visited in decreasing
  max-norm order and skipped outright once their bound falls below
  every live seed's k-th floor.  Peak extra memory is
  ``O(block_rows * |Q|)`` — a dense ``n x |Q|`` score matrix is never
  materialised.  Over a :class:`~repro.sharding.ShardedIndex` a shard
  is the natural block and the manifest's precomputed per-shard bound
  lets cold shards be skipped without a disk read.

Both kernels reproduce ``SimilarityEngine.top_k``'s exact ordering —
descending score, ties broken by ascending node id — so their results
are drop-in substitutes for the full-sort path.  Both query modes
score each block with one GEMM.  ``"batched"`` mode keeps those scores
and inherits the :func:`~repro.core.index.batched_query_atol`
tolerance contract.  ``"exact"`` mode uses them only as a filter: a
proven bound on the GEMM's rounding (:func:`filter_margin`) decides
which rows could still place, and only those are rescored with the
partition-stable :func:`~repro.core.index.exact_columns` kernel, so
the scores are *bit-identical* to the full column and the rankings do
not depend on the GEMM's bits.  A seed whose ``U`` row is all zero
scores ``+-0`` against every other node; its ranking is written down
without scanning a block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

import repro.obs as obs
from repro.core.config import QUERY_MODES
from repro.core.index import (
    CSRPlusIndex,
    batched_query_atol,
    exact_column_product,
    exact_columns,
)
from repro.errors import InvalidParameterError

__all__ = ["TopKResult", "top_k_pruned", "top_k_blockwise"]


@dataclass(frozen=True)
class TopKResult:
    """Result of a pruned top-k scan."""

    #: node ids in descending score order (ties: ascending id)
    nodes: np.ndarray
    #: matching similarity scores
    scores: np.ndarray
    #: how many candidates the block product scored (<= n); in exact
    #: mode the exact kernel rescores only the filter's survivors
    candidates_scored: int
    #: row-blocks whose scores were computed for this seed
    blocks_scanned: int = 0
    #: row-blocks skipped because their norm bound fell below the floor
    blocks_skipped: int = 0


def top_k_pruned(
    index: CSRPlusIndex,
    query: int,
    k: int,
    exclude_self: bool = True,
) -> TopKResult:
    """Exact top-k most-similar nodes using norm-bound pruning.

    Produces exactly the same ranking as
    ``SimilarityEngine.top_k`` (ties broken by ascending node id) but
    typically scores far fewer than ``n`` candidates when ``||Z[x]||``
    is skewed (hub-dominated graphs).
    """
    if k < 1:
        raise InvalidParameterError(f"k must be >= 1, got {k}")
    index.prepare()
    u_matrix, _, _, z_matrix = index.factors
    n = index.num_nodes
    query = int(query)
    if not (0 <= query < n):
        raise InvalidParameterError(f"query {query} out of range for n={n}")

    c = index.damping
    u_q = u_matrix[query]
    u_q_norm = float(np.linalg.norm(u_q))
    z_norms = np.linalg.norm(z_matrix, axis=1)

    # candidate visit order: decreasing upper bound c * ||Z[x]|| * ||U[q]||
    order = np.lexsort((np.arange(n), -z_norms))

    # The query node's diagonal +1 breaks the bound ordering; score it
    # up front so the scan only needs the off-diagonal bound.
    best_nodes: list = []
    best_scores: list = []

    def push(node: int, score: float) -> None:
        best_nodes.append(node)
        best_scores.append(score)

    if not exclude_self:
        self_score = 1.0 + c * float(z_matrix[query] @ u_q)
        push(query, self_score)

    scored = 0
    kth_floor = -np.inf
    for position in range(n):
        node = int(order[position])
        bound = c * z_norms[node] * u_q_norm
        if len(best_scores) >= k and bound < kth_floor:
            break  # no unvisited candidate can enter the top-k
        if node == query:
            continue  # handled above / excluded
        score = c * float(z_matrix[node] @ u_q)
        scored += 1
        push(node, score)
        if len(best_scores) >= k:
            kth_floor = np.partition(np.asarray(best_scores), -k)[-k]

    nodes_arr = np.asarray(best_nodes, dtype=np.int64)
    scores_arr = np.asarray(best_scores, dtype=np.float64)
    top_order = np.lexsort((nodes_arr, -scores_arr))[:k]
    return TopKResult(
        nodes=nodes_arr[top_order],
        scores=scores_arr[top_order],
        candidates_scored=scored,
        blocks_scanned=1,
        blocks_skipped=0,
    )


#: Default row-block height for monolithic indexes.  Small enough that
#: the per-block score buffer (``block_rows * |Q|`` entries) is a few
#: MB for realistic batches, large enough that block products hit BLAS.
DEFAULT_BLOCK_ROWS = 4096


class _MonolithicBlocks:
    """Norm-ordered row blocks over an in-memory :class:`CSRPlusIndex`.

    Contiguous node-id ranges make poor pruning blocks: on real graphs
    high-norm rows land in every range, so each block's max-norm bound
    stays high and nothing is ever skipped.  With the whole ``Z`` in
    RAM we can do what the scalar oracle does — visit rows in
    decreasing ``||Z[x]||`` order — blockwise: the plan chunks the
    norm-sorted row permutation, so block bounds decay monotonically
    and the scan stops after the same ~prefix the oracle scans, just
    one vectorised product per block instead of one GEMV per row.
    """

    def __init__(self, index: CSRPlusIndex, block_rows: Optional[int]):
        index.prepare()
        u_matrix, _, _, z_matrix = index.factors
        self._u = u_matrix
        self._z = z_matrix
        if block_rows is None:
            block_rows = DEFAULT_BLOCK_ROWS
        if block_rows < 1:
            raise InvalidParameterError(
                f"block_rows must be >= 1, got {block_rows}"
            )
        norms = index.z_row_norms()
        n = index.num_nodes
        # same visit order as top_k_pruned: desc norm, ties by asc id
        self._order = np.lexsort((np.arange(n), -norms))
        self.plan = []
        for block_id, start in enumerate(range(0, n, int(block_rows))):
            stop = min(start + int(block_rows), n)
            bound = float(norms[self._order[start]])
            self.plan.append((block_id, start, stop, bound))

    def load(self, block_id: int, start: int, stop: int):
        row_ids = self._order[start:stop]
        return row_ids, self._z[row_ids, :]

    def u_rows(self, seed_ids: np.ndarray) -> np.ndarray:
        return self._u[seed_ids, :]

    def z_rows(self, seed_ids: np.ndarray) -> np.ndarray:
        return self._z[seed_ids, :]


class _ShardBlocks:
    """Shard-per-block adapter over a ``ShardedIndex`` (duck-typed, so
    the core package never imports :mod:`repro.sharding`).

    A shard is the natural block: its rows are already a contiguous
    unit on disk, and the manifest's precomputed ``z_norm_max`` bounds
    the whole unit, so a cold shard below every seed's floor is skipped
    without a read.
    """

    def __init__(self, index, block_rows: Optional[int]):
        # block_rows is ignored: the shard layout *is* the block layout.
        self._index = index
        self.plan = list(index.topk_block_plan())

    def load(self, block_id: int, start: int, stop: int):
        return (
            np.arange(start, stop, dtype=np.int64),
            self._index.load_topk_block(block_id),
        )

    def u_rows(self, seed_ids: np.ndarray) -> np.ndarray:
        return self._index.gather_u_rows(seed_ids)

    def z_rows(self, seed_ids: np.ndarray) -> np.ndarray:
        return self._index.gather_z_rows(seed_ids)


def top_k_blockwise(
    index,
    seeds,
    k: int,
    *,
    exclude_self: bool = True,
    block_rows: Optional[int] = None,
    mode: Optional[str] = None,
    memory=None,
    tracer=None,
    parent_span=None,
) -> List[TopKResult]:
    """Exact multi-seed top-k via blockwise evaluation with pruning.

    Evaluates ``Z[blk] @ U[Q,:]^T`` one row-block at a time (one GEMM;
    in exact mode a filter whose survivors the exact kernel rescores,
    docs/topk.md), keeps a per-seed running top-k, and visits blocks
    in decreasing
    ``max ||Z[x]||`` order so that a block whose Cauchy–Schwarz bound
    ``c * max||Z[x]|| * ||U[q]||`` falls below a seed's current k-th
    floor is skipped for that seed — and never loaded at all once every
    seed can skip it.  Peak extra memory is ``O(block_rows * |Q|)``;
    a dense ``n x |Q|`` intermediate is never formed.

    Parameters
    ----------
    index:
        A :class:`~repro.core.index.CSRPlusIndex` (norm-ordered row
        blocks of the in-memory ``Z``) or any object exposing the blockwise
        surface ``topk_block_plan`` / ``load_topk_block`` /
        ``gather_u_rows`` / ``gather_z_rows`` — in particular a
        :class:`~repro.sharding.ShardedIndex`, where a shard is a block
        and the manifest's precomputed per-shard bound skips cold
        shards without a disk read.
    seeds:
        Seed node ids (an int or a sequence; duplicates allowed).  One
        :class:`TopKResult` is returned per entry, in order.
    k:
        Ranking depth.  Clamped like ``SimilarityEngine.top_k``: at
        most ``n - 1`` nodes exist with ``exclude_self=True``, ``n``
        otherwise.
    exclude_self:
        Drop each seed from its own ranking (default), mirroring
        ``SimilarityEngine.top_k``.
    block_rows:
        Row-block height for monolithic indexes (default
        ``DEFAULT_BLOCK_ROWS``); ignored for sharded backends, whose
        shard layout is the block layout.
    mode:
        ``"exact"`` (bit-identical to the full column; the default via
        the index config) or ``"batched"`` (one GEMM per block, within
        :func:`~repro.core.index.batched_query_atol` of exact).
    memory:
        Optional :class:`~repro.core.memory.MemoryMeter`; each block's
        transient score buffer is charged while live, so the meter's
        peak proves the ``O(block_rows * |Q|)`` claim.
    tracer / parent_span:
        Span plumbing: each scanned block emits a ``topk.block`` span
        (free when observability is off).

    Returns
    -------
    ``List[TopKResult]`` — nodes and scores in descending score order
    with ties broken by ascending id, exactly
    ``SimilarityEngine.top_k``'s order, so in exact mode
    ``result.nodes`` is ``np.array_equal`` to the engine's answer and
    ``result.scores`` carries the identical column bytes.
    """
    if k < 1:
        raise InvalidParameterError(f"k must be >= 1, got {k}")
    if mode is None:
        mode = index.config.query_mode
    if mode not in QUERY_MODES:
        raise InvalidParameterError(
            f"query mode must be one of {QUERY_MODES}, got {mode!r}"
        )
    if hasattr(index, "topk_block_plan"):
        source = _ShardBlocks(index, block_rows)
    else:
        source = _MonolithicBlocks(index, block_rows)
    n = index.num_nodes
    seed_ids = np.atleast_1d(np.asarray(seeds, dtype=np.int64)).ravel()
    if seed_ids.size and (seed_ids.min() < 0 or seed_ids.max() >= n):
        raise InvalidParameterError(
            f"seed ids must be in [0, {n}), got range "
            f"[{seed_ids.min()}, {seed_ids.max()}]"
        )
    num_seeds = int(seed_ids.size)
    if num_seeds == 0:
        return []
    if tracer is None:
        tracer = obs.get_tracer()

    damping = float(index.damping)
    rank = int(index.config.rank)
    dtype = index.dtype
    k_eff = min(int(k), n - 1 if exclude_self else n)
    exact = mode == "exact"

    u_rows = source.u_rows(seed_ids)
    u_norms = np.linalg.norm(u_rows.astype(np.float64, copy=False), axis=1)
    # Rounding can push a computed score a hair past its mathematical
    # bound (both the per-row dot and the batched GEMM); inflating the
    # bound by the documented tolerance makes wrongly pruning a true
    # top-k candidate impossible in either mode.
    safety = batched_query_atol(rank, dtype)
    margin_scale, margin_floor = filter_margin(rank, dtype)

    empty_nodes = np.empty(0, dtype=np.int64)
    empty_scores = np.empty(0, dtype=dtype)
    best_nodes = [empty_nodes] * num_seeds
    best_scores = [empty_scores] * num_seeds
    floors = np.full(num_seeds, -np.inf)
    filled = np.zeros(num_seeds, dtype=bool)
    #: seeds whose ranking is final before any block is scanned
    done = np.zeros(num_seeds, dtype=bool)
    scored = np.zeros(num_seeds, dtype=np.int64)
    scanned = np.zeros(num_seeds, dtype=np.int64)
    skipped = np.zeros(num_seeds, dtype=np.int64)

    if k_eff > 0 and not exclude_self:
        # The diagonal +1 breaks the norm-bound ordering; seed it into
        # each running top-k up front, exactly as the scalar oracle
        # does.  The per-seed 1-row product is the partition-stable
        # kernel, so the self score carries the full column's bits.
        z_self = source.z_rows(seed_ids)
        for i in range(num_seeds):
            col = damping * exact_column_product(
                z_self[i : i + 1, :], u_rows[i]
            )
            col[0] += 1.0
            best_nodes[i] = seed_ids[i : i + 1].copy()
            best_scores[i] = col
            if k_eff == 1:
                floors[i] = float(col[0])
                filled[i] = True

    def merge(i: int, cand_nodes: np.ndarray, cand_scores: np.ndarray) -> None:
        nodes = np.concatenate([best_nodes[i], cand_nodes])
        values = np.concatenate([best_scores[i], cand_scores])
        order = np.lexsort((nodes, -values))[:k_eff]
        best_nodes[i] = nodes[order]
        best_scores[i] = values[order]
        if best_scores[i].size >= k_eff:
            floors[i] = float(best_scores[i][-1])
            filled[i] = True

    def rescore(z_rows: np.ndarray, i: int) -> np.ndarray:
        # the partition-stable kernel gives each row its full-column bytes
        out = np.empty((z_rows.shape[0], 1), dtype=dtype, order="F")
        return exact_columns(z_rows, u_rows[i : i + 1, :], damping, out)[:, 0]

    zero_u = ~u_rows.any(axis=1)
    if exact and k_eff > 0 and zero_u.any():
        # An all-zero U row makes every off-diagonal score +-0, so those
        # all tie and the ranking is the smallest ids besides the seed
        # (after the seed itself when it is kept).  No block can change
        # that, so such seeds skip every block.
        head_ids = np.arange(min(n, k_eff + 1), dtype=np.int64)
        z_head = source.z_rows(head_ids)
        for i in np.flatnonzero(zero_u):
            need = k_eff - best_nodes[i].size
            picks = np.flatnonzero(head_ids != seed_ids[i])[:need]
            merge(i, head_ids[picks], rescore(z_head[picks], i))
            done[i] = True

    # descending bound order; unknown bounds (None) sort first and are
    # always scanned, so a legacy manifest degrades to a full scan,
    # never to a wrong skip
    block_order = sorted(
        source.plan,
        key=lambda blk: (-np.inf if blk[3] is None else -blk[3], blk[0]),
    )
    itemsize = np.dtype(dtype).itemsize
    if k_eff > 0:
        for block_id, start, stop, bound in block_order:
            if bound is None:
                active = np.flatnonzero(~done)
            else:
                # seed i is done with this (and every later) block when
                # the inflated bound sits strictly below its floor —
                # candidates tied with the floor must still be scanned,
                # since a smaller id wins the tie
                limits = damping * bound * u_norms * (1.0 + safety) + safety
                active = np.flatnonzero(~done & (~filled | (limits >= floors)))
            rows = stop - start
            if active.size == 0:
                skipped += 1
                continue
            skipped[np.setdiff1d(np.arange(num_seeds), active)] += 1
            with tracer.span(
                "topk.block",
                parent=parent_span,
                block=int(block_id),
                rows=int(rows),
                active=int(active.size),
                query_mode=mode,
            ):
                row_ids, z_blk = source.load(block_id, start, stop)
                charge = memory.charged if memory is not None else None
                ctx = (
                    charge("topk/block", rows * active.size * itemsize)
                    if charge is not None
                    else _null_context()
                )
                with ctx:
                    block_scores = _block_product(
                        z_blk, u_rows[active, :], damping
                    )
                    if exact:
                        if bound is None:
                            bound = _max_row_norm(z_blk)
                        margins = (
                            margin_scale * damping * bound * u_norms
                            + margin_floor
                        )
                    for pos, i in enumerate(active):
                        col = block_scores[:, pos]
                        # the seed's own row was handled up front (its
                        # diagonal +1 breaks the bound ordering), so it
                        # is never a candidate here
                        keep = row_ids != int(seed_ids[i])
                        num_cand = int(np.count_nonzero(keep))
                        scored[i] += num_cand
                        scanned[i] += 1
                        if exact:
                            picks = _filter_rows(
                                col,
                                keep,
                                num_cand,
                                k_eff,
                                float(floors[i]) if filled[i] else None,
                                float(margins[i]),
                            )
                            cand_nodes = row_ids[picks]
                            col = rescore(z_blk[picks], i)
                        elif num_cand == rows:
                            cand_nodes = row_ids
                        else:
                            cand_nodes = row_ids[keep]
                            col = col[keep]
                        if filled[i]:
                            passing = col >= best_scores[i][-1]
                            cand_nodes = cand_nodes[passing]
                            col = col[passing]
                        merge(i, cand_nodes, col)

    return [
        TopKResult(
            nodes=best_nodes[i],
            scores=best_scores[i],
            candidates_scored=int(scored[i]),
            blocks_scanned=int(scanned[i]),
            blocks_skipped=int(skipped[i]),
        )
        for i in range(num_seeds)
    ]


def _block_product(
    z_rows: np.ndarray, u_rows: np.ndarray, damping: float
) -> np.ndarray:
    """``damping * z_rows @ u_rows.T`` as one GEMM: the scores in
    batched mode, the filter in exact mode."""
    scores = z_rows @ u_rows.T
    scores *= damping
    return scores


def filter_margin(rank: int, dtype) -> Tuple[float, float]:
    """``(scale, floor)`` of the exact-mode filter margin (docs/topk.md).

    For a block whose rows have ``||Z_x|| <= b`` and a seed ``q``, the
    block GEMM's score and the exact kernel's score of any row differ
    by at most ``scale * c * b * ||U_q|| + floor``, where
    ``scale = 2 * gamma_{r+3}`` with ``gamma_j = j*u / (1 - j*u)`` and
    ``u`` the dtype's unit roundoff, and ``floor = 2 * (r + 1)`` times
    the dtype's smallest subnormal (underflow in the products).  The
    extra steps of ``gamma`` cover the scaling by ``c`` and the float64
    arithmetic that forms the margin itself.  (The bound needs
    ``(r + 3) * u < 1``, true of any rank a dense ``Z`` can hold.)
    """
    info = np.finfo(np.dtype(dtype))
    steps = (max(1, int(rank)) + 3) * float(info.eps) / 2.0
    scale = 2.0 * steps / (1.0 - steps)
    return scale, 2.0 * (int(rank) + 1) * float(info.smallest_subnormal)


def _max_row_norm(z_rows: np.ndarray) -> float:
    if z_rows.shape[0] == 0:
        return 0.0
    norms = np.linalg.norm(z_rows.astype(np.float64, copy=False), axis=1)
    return float(norms.max())


def _filter_rows(
    gemm: np.ndarray,
    keep: np.ndarray,
    num_cand: int,
    k_eff: int,
    floor: Optional[float],
    margin: float,
) -> np.ndarray:
    """Positions of the block rows the exact kernel must rescore.

    ``gemm`` holds the block's GEMM scores for one seed, each within
    ``margin`` of the exact score; ``keep`` masks out the seed's own
    row.  A filled seed (``floor`` set) needs every row whose exact
    score can reach the floor: GEMM score ``>= floor - margin``.  An
    unfilled seed needs the block's own exact top ``k_eff``: each of
    the ``k_eff`` best GEMM rows has an exact score ``>= t - margin``
    (``t`` the ``k_eff``-th best GEMM score), so every member of the
    exact top ``k_eff`` has GEMM score ``>= t - 2 * margin``.  Rounding
    the cut (to float64, then to the scores' dtype) is monotone, and
    the scores are representable, so a cut at or below a score stays
    at or below it: no row that can place is dropped.
    """
    if floor is not None:
        cut = floor - margin
    elif num_cand > k_eff:
        candidates = gemm[keep] if num_cand < keep.size else gemm
        place = num_cand - k_eff
        cut = float(np.partition(candidates, place)[place]) - 2.0 * margin
    else:
        return np.flatnonzero(keep)
    return np.flatnonzero((gemm >= cut) & keep)


class _null_context:
    def __enter__(self):
        return None

    def __exit__(self, *exc_info):
        return False
