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
  never a per-candidate GEMV).  A block is ``block_rows`` consecutive
  rows of the oracle's visit order, which is built once per index
  object (an in-memory index and a
  :class:`~repro.sharding.ShardedIndex` alike), so block bounds fall
  along the scan: a block is skipped once its bound falls below every
  live seed's k-th floor, and the scan stops there.  The order also
  keeps the ``Z`` rows of its head resident, contiguous and in visit
  order, up to :data:`RESIDENT_PREFIX_BYTES`: the blocks most calls
  read are sliced from that copy instead of gathered again.  Extra
  memory is ``O(block_rows * |Q|)`` per call plus at most
  ``RESIDENT_PREFIX_BYTES`` per index — a dense ``n x |Q|`` score
  matrix is never materialised.

Both kernels reproduce ``SimilarityEngine.top_k``'s exact ordering —
descending score, ties broken by ascending node id — so their results
are drop-in substitutes for the full-sort path.  Both query modes
score each block with one GEMM.  ``"batched"`` mode keeps those scores
and inherits the :func:`~repro.core.kernel.batched_query_atol`
tolerance contract.  ``"exact"`` mode uses them only as a filter: a
proven bound on the GEMM's rounding (:func:`filter_margin`) decides
which rows could still place, and only those are rescored with the
partition-stable :func:`~repro.core.kernel.exact_columns` kernel, so
the scores are *bit-identical* to the full column and the rankings do
not depend on the GEMM's bits.  A seed whose ``U`` row is all zero
scores ``+-0`` against every other node; its ranking is written down
without scanning a block.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Tuple

import numpy as np

import repro.obs as obs
from repro.core.config import QUERY_MODES
from repro.core.kernel import (
    batched_columns,
    batched_query_atol,
    exact_column_product,
    exact_columns,
)
from repro.errors import InvalidParameterError
from repro.linalg.blas import single_threaded_blas

if TYPE_CHECKING:
    from repro.core.index import CSRPlusIndex

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


#: Default row-block height.  Small enough that the per-block score
#: buffer (``block_rows * |Q|`` entries) is a few MB for realistic
#: batches, large enough that block products hit BLAS.
DEFAULT_BLOCK_ROWS = 4096


#: Bytes of ``Z``'s norm-ordered head that each index's visit order
#: keeps resident: 4 MiB is 8 default blocks at rank 16 in float64.
#: Skewed seeds rarely read past the first block or two, so slicing
#: those from one contiguous copy saves re-gathering the same rows on
#: every call; the cap stops a seed that scans everything from leaving
#: a full copy of ``Z`` behind.
RESIDENT_PREFIX_BYTES = 4 << 20


class _VisitOrder:
    """One index's rows in decreasing ``||Z[x]||`` order, ties by
    ascending id (the scalar oracle's order), with the norms in that
    order: the first norm of each ``block_rows`` slice is its block's
    bound, so any block height is served from the same O(n) state.

    It also holds the ``Z`` rows of the order's head, contiguous and
    in visit order, filled on demand up to ``RESIDENT_PREFIX_BYTES``.
    The gatherer comes with each call and is never stored: a bound
    method would keep its index alive through the weak-key cache.
    """

    __slots__ = ("rows", "norms", "_head", "_lock")

    def __init__(self, norms: np.ndarray):
        self.rows = np.lexsort((np.arange(norms.size), -norms))
        self.norms = norms[self.rows]
        #: ``Z[rows[:m]]`` for the ``m`` head rows filled so far
        self._head: Optional[np.ndarray] = None
        self._lock = threading.Lock()

    def z_block(self, start: int, stop: int, gather_z, row_bytes: int):
        """``Z`` rows of visit positions ``[start, stop)``.

        A block that ends within the cap is sliced from the resident
        head, which first grows to cover it if it is shorter — at least
        doubling, within the cap, so small blocks fill it in O(cap)
        copying; a failed gather leaves it as it was.  Any other block
        is gathered.  Either way the rows carry ``Z``'s bytes."""
        head = self._head
        if head is not None and stop <= head.shape[0]:
            return head[start:stop]
        cap_rows = min(self.rows.size, RESIDENT_PREFIX_BYTES // row_bytes)
        if stop > cap_rows:
            return gather_z(self.rows[start:stop])
        with self._lock:
            head = self._head
            have = 0 if head is None else head.shape[0]
            if stop > have:
                grow_to = min(max(stop, 2 * have), cap_rows)
                tail = gather_z(self.rows[have:grow_to])
                head = tail if head is None else np.concatenate([head, tail])
                self._head = head
        return head[start:stop]


#: Visit orders by index object.  Weak keys: an order never keeps its
#: index (say, a retired store version in a frontend worker) alive.
_VISIT_ORDERS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
_VISIT_ORDERS_LOCK = threading.Lock()


def _visit_order(index) -> _VisitOrder:
    """``index``'s visit order, built on its first top-k call only."""
    with _VISIT_ORDERS_LOCK:
        order = _VISIT_ORDERS.get(index)
    if order is None:
        order = _VisitOrder(index.z_row_norms())
        with _VISIT_ORDERS_LOCK:
            order = _VISIT_ORDERS.setdefault(index, order)
    return order


def _row_gatherers(index):
    """``(z_rows, u_rows)``: each maps node ids to those factor rows.

    A sharded index reads them from the owner shards; an in-memory
    index indexes its factors."""
    if hasattr(index, "gather_z_rows"):
        return index.gather_z_rows, index.gather_u_rows
    u_matrix, _, _, z_matrix = index.factors
    return (lambda ids: z_matrix[ids, :]), (lambda ids: u_matrix[ids, :])


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
    docs/topk.md), and keeps a per-seed running top-k.  Blocks are
    ``block_rows`` consecutive rows of one order — decreasing
    ``||Z[x]||``, ties by ascending id — built once per index object,
    so block bounds only fall: a block whose Cauchy–Schwarz bound
    ``c * max||Z[x]|| * ||U[q]||`` falls below a seed's current k-th
    floor is skipped for that seed, never gathered once every seed can
    skip it, and the scan stops when no seed is left.  A block that
    ends within the order's first :data:`RESIDENT_PREFIX_BYTES` of
    ``Z`` rows is sliced from a resident copy of that head, filled on
    demand; later blocks are gathered on every call.  Extra memory is
    ``O(block_rows * |Q|)`` per call plus at most
    ``RESIDENT_PREFIX_BYTES`` per index; a dense ``n x |Q|``
    intermediate is never formed.

    Parameters
    ----------
    index:
        A :class:`~repro.core.index.CSRPlusIndex` or any object
        exposing ``z_row_norms`` / ``gather_z_rows`` /
        ``gather_u_rows`` — in particular a
        :class:`~repro.sharding.ShardedIndex`, whose blocks gather
        their rows from the owner shards.
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
        Row-block height (default ``DEFAULT_BLOCK_ROWS``).
    mode:
        ``"exact"`` (bit-identical to the full column; the default via
        the index config) or ``"batched"`` (one GEMM per block, within
        :func:`~repro.core.kernel.batched_query_atol` of exact).
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
    if block_rows is None:
        block_rows = DEFAULT_BLOCK_ROWS
    if block_rows < 1:
        raise InvalidParameterError(
            f"block_rows must be >= 1, got {block_rows}"
        )
    block_rows = int(block_rows)
    index.prepare()
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

    gather_z, gather_u = _row_gatherers(index)
    u_rows = gather_u(seed_ids)
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
        z_self = gather_z(seed_ids)
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
        z_head = gather_z(head_ids)
        for i in np.flatnonzero(zero_u):
            need = k_eff - best_nodes[i].size
            picks = np.flatnonzero(head_ids != seed_ids[i])[:need]
            merge(i, head_ids[picks], rescore(z_head[picks], i))
            done[i] = True

    itemsize = np.dtype(dtype).itemsize
    row_bytes = u_rows.shape[1] * itemsize
    if k_eff > 0:
        visit = _visit_order(index)
        # each block's bound is its first row's norm, the block maximum
        bounds = visit.norms[::block_rows]
        # every block GEMM runs at one BLAS thread (batched_columns);
        # pinning here once makes each block's own pin a depth bump
        with single_threaded_blas():
            for block_id, bound in enumerate(bounds):
                # seed i is done with this (and every later) block when the
                # inflated bound sits strictly below its floor — candidates
                # tied with the floor must still be scanned, since a
                # smaller id wins the tie
                limits = damping * bound * u_norms * (1.0 + safety) + safety
                live = ~done & (~filled | (limits >= floors))
                if not live.any():
                    # bounds only fall and floors only rise along the
                    # order, so no seed comes back: skip the rest
                    skipped += bounds.size - block_id
                    break
                skipped[~live] += 1
                active = np.flatnonzero(live)
                start = block_id * block_rows
                stop = min(start + block_rows, n)
                row_ids = visit.rows[start:stop]
                rows = row_ids.size
                with tracer.span(
                    "topk.block",
                    parent=parent_span,
                    block=block_id,
                    rows=rows,
                    active=int(active.size),
                    query_mode=mode,
                ):
                    z_blk = visit.z_block(start, stop, gather_z, row_bytes)
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
    """``damping * z_rows @ u_rows.T`` by the batched kernel: the scores
    in batched mode, the filter in exact mode."""
    scores = np.empty(
        (z_rows.shape[0], u_rows.shape[0]),
        dtype=np.result_type(z_rows, u_rows),
        order="F",
    )
    return batched_columns(z_rows, u_rows, damping, scores)


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
