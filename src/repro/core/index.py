"""CSR+ — Algorithm 1 of the paper.

:class:`CSRPlusIndex` implements the full pipeline:

Precomputation (offline, graph-only)
    1. ``Q``  — column-normalised adjacency (sparse, ``O(m)``);
    2. ``U, Sigma, V`` — rank-``r`` truncated SVD of ``Q`` (``O(mr + r^3)``);
    3. ``H = V^T U Sigma`` — the ``r x r`` subspace map (``O(nr^2)``);
    4. ``P`` — solution of ``P = c H P H^T + I_r`` by repeated squaring
       (lines 4–5, ``O(r^3)`` per step, ``O(log2 log_c eps)`` steps);
    5. ``Z = U (Sigma P Sigma)`` — memoised ``n x r`` query factor.

Online multi-source query
    ``[S]_{*,Q} = [I_n]_{*,Q} + c * Z @ (U[Q, :])^T``     (Theorem 3.5)

Two evaluation strategies implement that formula (``query_mode``):

* ``"exact"`` (default) — the blocked, partition-stable
  :func:`exact_columns` kernel, making every column a bit-exact pure
  function of its seed alone — and every *entry* a pure function of
  its own ``Z`` row — the contracts the serving cache's bit-exactness
  and the sharded backend's row-block concatenation
  (:mod:`repro.sharding`) rely on;
* ``"batched"`` — the whole batch as GEMMs (one per row block, at one
  BLAS thread) with the identity scattered in afterwards; much higher
  column throughput at large ``|Q|``, with columns within
  :func:`batched_query_atol` of exact.

Total: ``O(r(m + n(r + |Q|)))`` time and ``O(rn)`` memory (Theorem 3.7),
with output identical to the CSR-NI baseline at equal rank
(Theorems 3.1–3.5 are exact identities, not approximations).
"""

from __future__ import annotations

import os
from typing import Optional, Union

import numpy as np

import repro.obs as obs
from repro.core.base import SimilarityEngine
from repro.core.config import QUERY_MODES, CSRPlusConfig
from repro.core.kernel import (  # noqa: F401 - re-exported
    FAN_OUT_MIN_ENTRIES,
    KERNEL_BLOCK_BYTES,
    QueryLike,
    available_cpus,
    batched_columns,
    batched_query_atol,
    exact_column_product,
    exact_columns,
    kernel_block_rows,
    kernel_workers,
    normalize_queries,
)
from repro.core.memory import sparse_nbytes
from repro.errors import InvalidParameterError, NotPreparedError, QueryError
from repro.graphs.digraph import DiGraph
from repro.linalg.stein import sigma_p_sigma, solve_stein
from repro.linalg.svd import truncated_svd

__all__ = [
    "CSRPlusIndex",
    "REPLICA_RANK_DIVISOR",
    "batched_query_atol",
    "exact_column_product",
    "exact_columns",
    "replica_rank",
    "truncation_atol",
    "truncation_residual_norms",
]


#: The degraded serving tier answers from a replica that keeps one rank
#: in this many of its source index (docs/approx.md).
REPLICA_RANK_DIVISOR = 4


def replica_rank(rank: int) -> int:
    """Rank ``r' = max(1, r // REPLICA_RANK_DIVISOR)`` of a serving replica."""
    return max(1, int(rank) // REPLICA_RANK_DIVISOR)


def truncation_residual_norms(
    z_rows: np.ndarray, z_small_rows: np.ndarray
) -> np.ndarray:
    """Per-row ``||D_i||`` (float64) of ``D = Z - [Z', 0]``.

    ``Z'`` is the query factor of a rank-``r'`` truncation of the same
    SVD (:meth:`CSRPlusIndex.truncate_to_rank`), padded with zero
    columns to rank ``r``.
    """
    residual = z_rows.astype(np.float64)
    residual[:, : z_small_rows.shape[1]] -= z_small_rows
    return np.linalg.norm(residual, axis=1)


def truncation_atol(
    damping: float,
    max_residual_norm: float,
    max_u_norm: float,
    rank: int,
    dtype,
) -> float:
    """Per-entry bound between a rank-truncated replica and its source.

    The replica keeps ``U' = U[:, :r']``, so its column for seed ``q``
    is ``e_q + c * [Z', 0] @ U_q`` and differs from the exact column by
    exactly ``c * D @ U_q``.  Cauchy–Schwarz bounds entry ``i`` by
    ``c * ||D_i|| * ||U_q||``, hence every served entry satisfies

        ``|replica - exact| <= c * max_i ||D_i|| * max_q ||U_q||
        + batched_query_atol(r, dtype)``,

    the last term covering both sides' rounding.  Computed from the
    stored-dtype factors in ``O(n r)`` when the replica is built.
    """
    bound = float(damping) * float(max_residual_norm) * float(max_u_norm)
    return bound + batched_query_atol(rank, dtype)


class CSRPlusIndex(SimilarityEngine):
    """Multi-source CoSimRank index (the paper's CSR+ algorithm).

    Parameters
    ----------
    graph:
        Directed graph to index.
    config:
        A :class:`CSRPlusConfig`; keyword overrides may be passed
        instead (or additionally), e.g. ``CSRPlusIndex(g, rank=10)``.

    Examples
    --------
    >>> from repro.graphs import ring
    >>> index = CSRPlusIndex(ring(8), rank=4).prepare()
    >>> block = index.query([0, 3])          # n x 2 similarity block
    >>> float(block[0, 0]) >= 1.0            # diagonal dominates
    True
    """

    name = "CSR+"

    def __init__(
        self,
        graph: DiGraph,
        config: Optional[CSRPlusConfig] = None,
        **overrides,
    ):
        config = (config or CSRPlusConfig()).with_overrides(**overrides)
        max_rank = max(1, graph.num_nodes)
        if config.rank > max_rank:
            raise InvalidParameterError(
                f"rank {config.rank} exceeds the number of nodes {graph.num_nodes}"
            )
        super().__init__(
            graph,
            damping=config.damping,
            memory_budget_bytes=config.memory_budget_bytes,
            dangling=config.dangling,
        )
        self.config = config
        self._u: Optional[np.ndarray] = None
        self._sigma: Optional[np.ndarray] = None
        self._h: Optional[np.ndarray] = None
        self._p: Optional[np.ndarray] = None
        self._z: Optional[np.ndarray] = None
        self._z_norms: Optional[np.ndarray] = None
        self.stein_iterations: int = 0
        #: Published per-entry error bound against the index this one was
        #: truncated from (:func:`truncation_atol`); ``None`` otherwise.
        self.approx_atol: Optional[float] = None

    # ------------------------------------------------------------------
    # offline phase (Algorithm 1, lines 1-6)
    # ------------------------------------------------------------------
    def _prepare_impl(self) -> None:
        cfg = self.config
        q_matrix = self.transition()  # line 1 (charged by base class)

        # line 2: the paper's factors satisfy Q^T = U Sigma V^T (so that
        # S - I = c Q^T S Q is U-flanked, as Theorem 3.5 requires; see the
        # worked Example 3.6, where row b of the printed U is non-zero even
        # though row b of Q vanishes).  We decompose Q = U_q Sigma V_q^T and
        # take U := V_q, V := U_q.
        with self._stage("svd", rank=cfg.rank):
            svd = truncated_svd(q_matrix, cfg.rank, seed=cfg.svd_seed)
        u_factor, v_factor = svd.v, svd.u
        self.memory.charge("precompute/U", u_factor.nbytes)
        self.memory.charge("precompute/V", v_factor.nbytes)
        self.memory.charge("precompute/Sigma", svd.sigma.nbytes)

        # line 3: H = V^T U Sigma  (r x r)
        h_matrix = (v_factor.T @ u_factor) * svd.sigma[np.newaxis, :]
        self.memory.charge("precompute/H", h_matrix.nbytes)

        # lines 4-5: P via the configured Stein solver
        with self._stage("stein", solver=cfg.solver) as stein_span:
            p_matrix, iterations = solve_stein(
                h_matrix, cfg.damping, cfg.epsilon, cfg.solver
            )
            stein_span.set_attribute("iterations", iterations)
        self.stein_iterations = iterations
        self.memory.charge("precompute/P", p_matrix.nbytes)

        # line 6: Z = U (Sigma P Sigma)  — n x r, the only large factor kept
        with self._stage("assemble"):
            z_matrix = u_factor @ sigma_p_sigma(svd.sigma, p_matrix)

            if cfg.dtype == "float32":
                # halve the retained factors; all computation above stayed
                # in float64 for accuracy
                u_factor = u_factor.astype(np.float32)
                z_matrix = z_matrix.astype(np.float32)
                self.memory.charge("precompute/U", u_factor.nbytes)
        self.memory.charge("precompute/Z", z_matrix.nbytes)

        self._u = u_factor
        self._sigma = svd.sigma
        self._h = h_matrix  # damping-independent; kept for re-damping
        self._p = p_matrix
        self._z = z_matrix
        # V is only needed to form H; drop it to realise the O(rn) bound.
        self.memory.release("precompute/V")

    # ------------------------------------------------------------------
    # online phase (Algorithm 1, line 7)
    # ------------------------------------------------------------------
    def query_columns(self, seeds, mode: Optional[str] = None) -> np.ndarray:
        """Similarity columns ``[S]_{*, seeds[j]}``, per-seed or batched.

        Column ``j`` is ``c * Z @ U[seeds[j], :]`` with ``1`` added at
        row ``seeds[j]`` — exactly ``[S]_{*, seeds[j]}`` by Theorem 3.5,
        which shows every output column depends only on its own seed.

        ``mode="exact"`` is the *canonical* evaluation of a column: the
        :func:`exact_columns` kernel computes every entry as one
        fixed-order einsum reduction of its ``Z`` row against the
        seed's ``U`` row, never as part of a BLAS product.  BLAS GEMM
        results for one column vary bitwise with the batch width (a
        1-column product dispatches to GEMV, and blocking differs with
        shape), so a BLAS product would make a column's bits depend on
        which other seeds happened to share the batch.  With the einsum
        reduction each column is a pure function of the seed alone,
        which is what lets the serving layer (:mod:`repro.serving`)
        cache and reuse columns with bit-exact results for every cache
        state; the kernel's *partition stability* additionally makes
        each entry a pure function of its own ``Z`` row, which is what
        lets a sharded backend (:mod:`repro.sharding`) concatenate
        per-shard row blocks into the same bytes.  :meth:`query` routes
        through this same primitive, so cached and direct answers are
        ``np.array_equal``.

        The kernel walks ``Z`` in cache-sized row blocks, all seeds per
        block.  Calls with at least :data:`FAN_OUT_MIN_ENTRIES` output
        entries split the blocks over the process-wide kernel pool, one
        run per available CPU (:func:`kernel_workers`); smaller calls
        stay on the calling thread.  Neither the block size nor the
        thread count can change a bit, because no entry's reduction
        depends on them.

        ``mode="batched"`` evaluates the whole batch as
        ``c * Z @ (U[seeds,:])^T`` GEMMs with the identity scattered in —
        the literal Theorem 3.5 formula — one per row block of the
        exact kernel, each at one BLAS thread, fanned out the same way
        (:func:`~repro.core.kernel.batched_columns`).  Far higher column
        throughput at large ``len(seeds)``, but a column's bits now
        depend on its batch-mates; every entry stays within
        ``batched_query_atol(rank, dtype)`` of the exact evaluation.

        Parameters
        ----------
        seeds:
            Integer node ids; may be empty.  Duplicates are honoured
            (one column per entry, in order).
        mode:
            ``"exact"``, ``"batched"``, or ``None`` (default) to use
            ``self.config.query_mode``.

        Returns
        -------
        ``n x len(seeds)`` array (Fortran order, one contiguous block
        per column) in the index dtype.
        """
        self._require_prepared()
        if self._z is None or self._u is None:
            raise NotPreparedError("CSR+ factors missing; prepare() did not run")
        if mode is None:
            mode = self.config.query_mode
        if mode not in QUERY_MODES:
            raise InvalidParameterError(
                f"query mode must be one of {QUERY_MODES}, got {mode!r}"
            )
        seed_ids = np.asarray(seeds, dtype=np.int64).ravel()
        n = self.num_nodes
        if seed_ids.size and (seed_ids.min() < 0 or seed_ids.max() >= n):
            raise QueryError(
                f"seed ids must be in [0, {n}), got range "
                f"[{seed_ids.min()}, {seed_ids.max()}]"
            )
        if mode == "batched":
            return self._query_columns_batched(seed_ids)
        k = int(seed_ids.size)
        out = np.empty((n, k), dtype=self._z.dtype, order="F")
        exact_columns(
            self._z, self._u[seed_ids, :], self.damping, out,
            self._kernel_workers(k),
        )
        out[seed_ids, np.arange(k)] += 1.0
        return out

    def _kernel_workers(self, num_columns: int) -> int:
        """Kernel threads for a call of ``num_columns`` seeds."""
        return kernel_workers(
            self.num_nodes, num_columns, self._z.shape[1], self._z.dtype.itemsize
        )

    def _query_columns_batched(self, seed_ids: np.ndarray) -> np.ndarray:
        """One-thread GEMM row blocks for the whole batch (validated ids,
        factors present), fanned out like the exact kernel."""
        n, k = self.num_nodes, int(seed_ids.size)
        out = np.empty((n, k), dtype=self._z.dtype, order="F")
        if k:
            # U[seeds,:] is a |Q| x r gather (small); each block's
            # product lands straight in the Fortran-ordered output.
            batched_columns(
                self._z, self._u[seed_ids, :], self.damping, out,
                self._kernel_workers(k),
            )
            out[seed_ids, np.arange(k)] += 1.0
        return out

    def _query_impl(self, query_ids: np.ndarray) -> np.ndarray:
        if self._z is None or self._u is None:
            raise NotPreparedError("CSR+ factors missing; prepare() did not run")
        n = self.num_nodes
        num_queries = query_ids.size
        self.memory.require(
            "query/S", n * num_queries * self._z.dtype.itemsize
        )

        # [S]_{*,Q} = [I_n]_{*,Q} + c * Z * (U[Q, :])^T, evaluated once
        # per distinct seed (per the configured query_mode).  Distinct
        # ids are answered in caller order; duplicates are computed once
        # and scattered to their positions.
        unique_ids, inverse = np.unique(query_ids, return_inverse=True)
        distinct = unique_ids.size == num_queries
        seeds = query_ids if distinct else unique_ids
        span = obs.get_tracer().current_span()
        if span is not None:
            span.set_attribute("workers", self._kernel_workers(seeds.size))
        result = self.query_columns(seeds)
        if not distinct:
            result = result[:, inverse]
        self.memory.charge("query/S", result.nbytes)
        return result

    # ------------------------------------------------------------------
    # diagonal and normalised scores
    # ------------------------------------------------------------------
    def diagonal(self) -> np.ndarray:
        """All self-similarities ``[S]_{x,x} = 1 + c <Z[x], U[x]>``.

        Computed in ``O(nr)`` without materialising any ``n x n`` block.
        Unlike SimRank, CoSimRank's diagonal is not constant — hubs with
        rich in-neighbourhoods score higher — which is why normalised
        comparisons (:meth:`query_normalized`) are useful downstream.
        """
        self._require_prepared()
        return 1.0 + self.damping * np.einsum("ij,ij->i", self._z, self._u)

    def query_normalized(self, queries: QueryLike) -> np.ndarray:
        """Cosine-normalised similarities ``S[x,q] / sqrt(S[x,x] S[q,q])``.

        Self-similarity becomes exactly 1 for every node, making scores
        comparable across hub and non-hub queries (the usual move when
        CoSimRank feeds a ranking application).
        """
        block = self.query(queries)
        diag = self.diagonal()
        query_ids = normalize_queries(queries, self.num_nodes)
        scale = np.sqrt(
            np.maximum(diag[:, np.newaxis], 1e-300)
            * np.maximum(diag[query_ids][np.newaxis, :], 1e-300)
        )
        return block / scale

    # ------------------------------------------------------------------
    # cheap re-damping (no new SVD)
    # ------------------------------------------------------------------
    def rebuild_for_damping(self, damping: float) -> "CSRPlusIndex":
        """A prepared index for a different damping factor, reusing the SVD.

        The expensive line of Algorithm 1 (the truncated SVD) does not
        depend on ``c``; only the ``r x r`` Stein solve and the ``n x r``
        ``Z`` build do.  This constructs the new index in
        ``O(r^3 + n r^2)`` instead of ``O(mr + ...)``, sharing the ``U``
        factor with this one.
        """
        self._require_prepared()
        if not (0.0 < damping < 1.0):
            raise InvalidParameterError(
                f"damping must be in (0, 1), got {damping}"
            )
        if self._h is None:
            raise NotPreparedError(
                "this index lacks the H factor (saved by an older version); "
                "rebuild it from the graph to enable re-damping"
            )
        return self._derived(
            self.config.with_overrides(damping=damping),
            self._u,
            self._sigma,
            self._h,
        )

    def truncate_to_rank(self, rank: int) -> "CSRPlusIndex":
        """A prepared index at a *smaller* rank, reusing this SVD.

        The rank-``r'`` truncated SVD is exactly the first ``r'``
        columns of the rank-``r`` one, so downgrading never needs a new
        decomposition: slice ``U``/``Sigma``, re-derive ``H``, ``P`` and
        ``Z`` in ``O(r'^3 + n r'^2)``.  Useful for accuracy/cost sweeps
        (one SVD, many ranks) — the rank-tuning helpers and Table-3
        style studies — and for the degraded serving tier, which
        answers from such a replica (docs/approx.md).  The result's
        :attr:`approx_atol` bounds every entry's distance to this
        index's answer (:func:`truncation_atol`).
        """
        self._require_prepared()
        if not (1 <= rank <= self.config.rank):
            raise InvalidParameterError(
                f"rank must be in [1, {self.config.rank}] "
                f"(the built rank), got {rank}"
            )
        if self._h is None:
            raise NotPreparedError(
                "this index lacks the H factor; rebuild it from the graph"
            )
        # The rank-r' SVD is the first r' columns of this one, and
        # H = V^T U Sigma truncates to its leading principal block.
        sibling = self._derived(
            self.config.with_overrides(rank=rank),
            np.ascontiguousarray(self._u[:, :rank]),
            self._sigma[:rank].copy(),
            self._h[:rank, :rank].copy(),
        )
        sibling.approx_atol = truncation_atol(
            sibling.config.damping,
            truncation_residual_norms(self._z, sibling._z).max(),
            np.linalg.norm(self._u.astype(np.float64, copy=False), axis=1).max(),
            self.config.rank,
            self._z.dtype,
        )
        return sibling

    def _derived(
        self,
        config: CSRPlusConfig,
        u_factor: np.ndarray,
        sigma: np.ndarray,
        h_matrix: np.ndarray,
    ) -> "CSRPlusIndex":
        """A prepared sibling from a reused SVD: Algorithm 1's lines 4-6.

        Solves ``P`` from ``h_matrix`` and forms ``Z`` with prepare()'s
        dtype policy: compute in float64, cast only the retained
        factors.  Without the upcast a float32 ``U`` would promote
        ``U @ (Sigma P Sigma)`` to float64 and keep it — a sibling whose
        query dtype (and ledger) diverges from a freshly prepared one.

        A float64 sibling is byte-identical to a fresh ``prepare()``.  A
        float32 one is not: only the float32 ``U`` is kept, so its ``Z``
        is formed from ``U`` rounded to float32 (``|dU_x| <= u |U_x|``,
        ``u = eps32 / 2``) where a fresh build uses the float64 ``U``.
        Row ``x`` of the product then moves by at most
        ``u * ||U_x|| * ||Sigma P Sigma||_2`` per entry, and the two
        final roundings to float32 add ``u`` times each entry's
        magnitude, itself at most ``||U_x|| * ||Sigma P Sigma||_2``.
        So every entry of ``Z`` differs from the fresh one by at most

            ``1.5 * eps32 * max_x ||U_x|| * ||Sigma P Sigma||_2``

        (times ``1 + eps32`` for the second-order and float64 rounding
        terms).  On ``erdos_renyi(40, 160, seed=3)`` at rank 4,
        re-damped 0.6 -> 0.8, the bound is 7.6e-7 and the largest gap
        1.19e-7, one float32 ulp (``tests/core/test_redamping.py``).
        """
        sibling = CSRPlusIndex(self.graph, config)
        p_matrix, sibling.stein_iterations = solve_stein(
            h_matrix, config.damping, config.epsilon, config.solver
        )
        z_matrix = u_factor.astype(np.float64, copy=False) @ sigma_p_sigma(
            sigma, p_matrix
        )
        if config.dtype == "float32":
            u_factor = u_factor.astype(np.float32, copy=False)
            z_matrix = z_matrix.astype(np.float32)
        sibling._u, sibling._sigma, sibling._h = u_factor, sigma, h_matrix
        sibling._p, sibling._z = p_matrix, z_matrix
        for label, factor in zip(
            ("U", "Sigma", "H", "P", "Z"),
            (u_factor, sigma, h_matrix, p_matrix, z_matrix),
        ):
            sibling.memory.charge(f"precompute/{label}", factor.nbytes)
        sibling._prepared = True
        return sibling

    # ------------------------------------------------------------------
    # memory-bounded streaming queries
    # ------------------------------------------------------------------
    def query_chunked(self, queries, chunk_size: int = 1024):
        """Yield ``(query_ids_chunk, block_chunk)`` pairs.

        For very large query sets the full ``n x |Q|`` result may not
        fit in memory even though the index itself is only ``O(rn)``;
        this generator bounds the live result to ``n x chunk_size``.
        """
        if chunk_size < 1:
            raise InvalidParameterError(
                f"chunk_size must be >= 1, got {chunk_size}"
            )
        self.prepare()
        query_ids = normalize_queries(queries, self.num_nodes)
        for start in range(0, query_ids.size, chunk_size):
            chunk = query_ids[start : start + chunk_size]
            yield chunk, self.query(chunk)

    def top_k_multi(self, queries, k: int, chunk_size: int = 1024) -> np.ndarray:
        """Top-``k`` similar nodes per query (self excluded), streamed.

        Returns a ``|Q| x k`` int array; row ``j`` holds the ids most
        similar to ``queries[j]`` in descending order (ties broken by
        ascending id).  Processes queries in chunks so the peak result
        memory is ``O(n * chunk_size)`` regardless of ``|Q|``.
        """
        if k < 1:
            raise InvalidParameterError(f"k must be >= 1, got {k}")
        rows = []
        node_ids = np.arange(self.num_nodes)
        for chunk, block in self.query_chunked(queries, chunk_size):
            for j, query in enumerate(chunk):
                scores = block[:, j]
                order = np.lexsort((node_ids, -scores))
                order = order[order != int(query)]
                rows.append(order[: min(k, order.size)])
        width = min(k, max(0, self.num_nodes - 1))
        return np.vstack([row[:width] for row in rows]).astype(np.int64)

    # ------------------------------------------------------------------
    # accessors for tests / downstream tools
    # ------------------------------------------------------------------
    @property
    def factors(self):
        """The retained factors ``(U, sigma, P, Z)`` (after prepare)."""
        self._require_prepared()
        return self._u, self._sigma, self._p, self._z

    def z_row_norms(self) -> np.ndarray:
        """Per-row ``||Z[x]||_2`` in float64, computed once and cached.

        These are the Cauchy–Schwarz score bounds behind the pruned
        top-k kernels (:mod:`repro.core.topk`): by Eq. (12) the
        off-diagonal score satisfies ``|S[x,q] - [x=q]| <= c * ||Z[x]||
        * ||U[q]||``.  The returned array is read-only and shared
        between calls.
        """
        self._require_prepared()
        if self._z is None:
            raise NotPreparedError("CSR+ factors missing; prepare() did not run")
        if self._z_norms is None:
            norms = np.linalg.norm(
                self._z.astype(np.float64, copy=False), axis=1
            )
            norms.flags.writeable = False
            self._z_norms = norms
        return self._z_norms

    @property
    def rank(self) -> int:
        return self.config.rank

    @property
    def dtype(self) -> np.dtype:
        """Dtype of the retained query factors (after prepare).

        Part of the backend surface the serving layer relies on
        (alongside :meth:`query_columns`, ``num_nodes`` and ``config``)
        so that backends without a monolithic ``Z`` — e.g.
        :class:`~repro.sharding.ShardedIndex` — can stand in for this
        class.
        """
        self._require_prepared()
        if self._z is None:
            raise NotPreparedError("CSR+ factors missing; prepare() did not run")
        return self._z.dtype

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def save(self, path: Union[str, "os.PathLike[str]"]) -> None:
        """Serialise the prepared index to an ``.npz`` file.

        Only the query-time factors (``U``, ``Z``) plus metadata are
        stored — exactly the ``O(rn)`` state of Theorem 3.7.  The
        metadata includes how the factors were made (``solver``,
        ``dangling``, ``svd_seed``), so a loaded index re-damps and
        truncates exactly like the one that was saved.
        """
        self._require_prepared()
        np.savez_compressed(
            os.fspath(path),
            u=self._u,
            z=self._z,
            sigma=self._sigma,
            h=self._h,
            p=self._p,
            num_nodes=np.int64(self.num_nodes),
            damping=np.float64(self.damping),
            rank=np.int64(self.config.rank),
            epsilon=np.float64(self.config.epsilon),
            stein_iterations=np.int64(self.stein_iterations),
            solver=self.config.solver,
            dangling=self.config.dangling,
            svd_seed=np.int64(self.config.svd_seed),
        )

    @classmethod
    def load(
        cls, path: Union[str, "os.PathLike[str]"], graph: DiGraph
    ) -> "CSRPlusIndex":
        """Load an index saved with :meth:`save` for the same graph."""
        with np.load(os.fspath(path)) as data:
            num_nodes = int(data["num_nodes"])
            if num_nodes != graph.num_nodes:
                raise InvalidParameterError(
                    f"saved index is for a graph with {num_nodes} nodes, "
                    f"got one with {graph.num_nodes}"
                )
            # files written before the pipeline keys get today's defaults
            pipeline = {
                key: cast(data[key])
                for key, cast in (
                    ("solver", str), ("dangling", str), ("svd_seed", int)
                )
                if key in data
            }
            config = CSRPlusConfig(
                damping=float(data["damping"]),
                rank=int(data["rank"]),
                epsilon=float(data["epsilon"]),
                dtype=str(data["u"].dtype),
                **pipeline,
            )
            index = cls(graph, config)
            index._u = data["u"]
            index._z = data["z"]
            index._sigma = data["sigma"]
            index._h = data["h"] if "h" in data else None
            index._p = data["p"]
            if "stein_iterations" in data:  # absent in pre-1.x files
                index.stein_iterations = int(data["stein_iterations"])
        index.memory.charge("precompute/U", index._u.nbytes)
        index.memory.charge("precompute/Z", index._z.nbytes)
        index.memory.charge("precompute/Sigma", index._sigma.nbytes)
        index.memory.charge("precompute/P", index._p.nbytes)
        if index._h is not None:
            index.memory.charge("precompute/H", index._h.nbytes)
        index._prepared = True
        return index
