"""Out-of-core shard-store builder: Algorithm 1 without the full factors.

The monolithic :meth:`~repro.core.index.CSRPlusIndex.prepare` holds
three ``n x r`` dense factors at its peak (``U_q``, ``V_q``, ``Z``,
each ``n*r*8`` bytes) on top of the sparse ``Q``.  For a graph whose
factors do not fit, this builder runs the same pipeline with ~one
``n x r`` factor resident:

1. ``Q`` — sparse transition matrix (as usual);
2. SVD with ``return_singular_vectors="vh"`` — ARPACK solves the same
   eigenproblem but materialises only the right factor ``V_q`` (which
   is the *retained* query factor ``U := V_q``; the left factor is
   only ever needed transiently to form ``H``);
3. ``H`` accumulated blockwise: ``U_q[blk] = (Q[blk] @ V_q) / sigma``
   reconstructs ``block_rows`` rows of the left factor at a time, and
   ``H = (sum_blk U_q[blk]^T V_q[blk]) * sigma`` — peak extra memory
   is one ``block_rows x r`` buffer, and ``Q`` is released right after;
4. Stein solve for ``P`` (``r x r``, as usual);
5. ``Z`` streamed shard by shard: ``Z[a:b] = V_q[a:b] @ (Sigma P
   Sigma)`` is computed, persisted via
   :class:`~repro.sharding.store.ShardStoreWriter`, and freed before
   the next shard.

Every buffer is charged to a :class:`~repro.core.memory.MemoryMeter`
under ``shard/*`` labels for exactly its lifetime, so the ledger peak
honestly reflects the out-of-core profile — ``benchmarks/
test_sharding.py`` asserts it at <= 0.5x the monolithic build's peak.

**Equivalence contract** (docs/sharding.md): stores built this way are
*tolerance-equivalent*, not bit-identical, to a monolithic prepare —
the vh-only SVD skips sign canonicalisation (per-column sign flips
applied consistently to ``Z`` and ``U`` cancel exactly in every query,
since float negation is lossless) and the blockwise ``H``/``Z`` GEMMs
sum in a different order.  Queries against such a store agree with the
monolithic index within :func:`~repro.core.kernel.batched_query_atol`
(measured ~1e-16 vs a ~1e-14 bound).  For *byte-identical* shards use
:func:`~repro.sharding.store.shard_index` on a prepared index; the
small-matrix dense-SVD path below (where out-of-core cannot pay
anyway) also reproduces the monolithic bytes exactly.

Builds are deterministic: the factors are a pure function of
``(graph, config)`` and the shard layout of ``(n, num_shards)``, so
rebuilding any single shard reproduces its original bytes — which is
what lets :class:`~repro.serving.registry.IndexRegistry` repair one
corrupt shard in place (:func:`rebuild_shards`) with the manifest's
digests unchanged.
"""

from __future__ import annotations

import os
import shutil
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Tuple, Union

import numpy as np

from repro.core.config import CSRPlusConfig
from repro.core.index import (
    CSRPlusIndex,
    replica_rank,
    truncation_atol,
    truncation_residual_norms,
)
from repro.core.memory import MemoryMeter, publish_peak, sparse_nbytes
from repro.errors import (
    DecompositionError,
    InvalidParameterError,
    ShardCorrupted,
)
from repro.graphs.digraph import DiGraph
from repro.graphs.transition import transition_matrix
from repro.linalg.stein import sigma_p_sigma, solve_stein
from repro.linalg.svd import arpack_svds, truncated_svd, uses_dense_fallback
from repro.sharding.manifest import (
    ShardManifest,
    ShardMeta,
    array_sha256,
    plan_shards,
)
from repro.sharding.store import (
    REPLICA_DIR,
    ShardStore,
    ShardStoreWriter,
    replica_store_path,
)

__all__ = [
    "build_sharded_store",
    "rebuild_shards",
    "repair_sharded_store",
    "ShardRepairReport",
]

#: Default cap on the transient left-factor reconstruction buffer.
DEFAULT_BLOCK_ROWS = 4096


def _default_block_rows(num_nodes: int) -> int:
    """<= 1/8 of the factor rows, capped — keeps the buffer marginal."""
    return max(1, min(DEFAULT_BLOCK_ROWS, -(-num_nodes // 8)))


#: What a factor pass yields: the retained ``n x r`` query factor ``U``
#: (float64), ``sigma``, the ``r x r`` map ``H``, ``z_block_of(a, b)``
#: computing ``Z[a:b]`` on demand, and the Stein iteration count.
_Factors = Tuple[
    np.ndarray, np.ndarray, np.ndarray, Callable[[int, int], np.ndarray], int
]


def _factors_streaming(
    graph: DiGraph,
    cfg: CSRPlusConfig,
    meter: MemoryMeter,
    block_rows: int,
) -> _Factors:
    """The vh-only pipeline (see :data:`_Factors` for what it returns).

    ``U`` is *not* sign canonicalised (see the module docstring);
    neither the left SVD factor nor the full ``Z`` is ever
    materialised.
    """
    q_matrix = transition_matrix(graph, dangling=cfg.dangling).tocsr()
    meter.charge("shard/Q", sparse_nbytes(q_matrix))
    n = graph.num_nodes

    # Same deterministic start vector as linalg.svd.truncated_svd, but
    # only the right singular vectors are computed and kept.
    rng = np.random.default_rng(cfg.svd_seed)
    v0 = rng.standard_normal(n)
    try:
        _, s, vt = arpack_svds(
            q_matrix.astype(np.float64, copy=False),
            cfg.rank,
            v0,
            return_singular_vectors="vh",
        )
    except Exception as exc:
        raise DecompositionError(f"sparse SVD (ARPACK) failed: {exc}") from exc
    order = np.argsort(s)[::-1]
    sigma = np.ascontiguousarray(s[order])
    u_factor = np.ascontiguousarray(vt[order].T)  # U := V_q, the retained factor
    meter.charge("shard/U", u_factor.nbytes)
    meter.charge("shard/Sigma", sigma.nbytes)

    # H = (U_q^T V_q) * sigma, with U_q reconstructed block by block:
    # Q V_q = U_q Sigma, so U_q[blk] = (Q[blk] @ V_q) / sigma.  A zero
    # singular value zeroes its H column either way (H scales by sigma),
    # so the guarded divisor never changes the result.
    divisor = np.where(sigma == 0.0, 1.0, sigma)
    h_matrix = np.zeros((cfg.rank, cfg.rank), dtype=np.float64)
    with meter.charged(
        "shard/Ublock", min(block_rows, n) * cfg.rank * 8
    ):
        for start in range(0, n, block_rows):
            stop = min(start + block_rows, n)
            left_block = (q_matrix[start:stop, :] @ u_factor) / divisor
            h_matrix += left_block.T @ u_factor[start:stop, :]
    h_matrix *= sigma[np.newaxis, :]
    meter.charge("shard/H", h_matrix.nbytes)

    # Q was only needed for the SVD and the H reconstruction.
    del q_matrix
    meter.release("shard/Q")

    p_matrix, iterations = solve_stein(h_matrix, cfg.damping, cfg.epsilon, cfg.solver)
    meter.charge("shard/P", p_matrix.nbytes)
    sps = sigma_p_sigma(sigma, p_matrix)

    def z_block_of(start: int, stop: int) -> np.ndarray:
        return u_factor[start:stop, :] @ sps

    return u_factor, sigma, h_matrix, z_block_of, iterations


def _factors_dense(
    graph: DiGraph,
    cfg: CSRPlusConfig,
    meter: MemoryMeter,
) -> _Factors:
    """The small-matrix path: mirrors ``prepare()`` line for line.

    Runs exactly the monolithic pipeline (dense SVD via
    :func:`~repro.linalg.svd.truncated_svd`, including sign
    canonicalisation, and one full-``Z`` GEMM), so the resulting shards
    are byte-identical to slicing a prepared index.  Out-of-core
    streaming cannot pay below the dense-fallback threshold, so
    fidelity wins over streaming here.
    """
    q_matrix = transition_matrix(graph, dangling=cfg.dangling)
    meter.charge("shard/Q", sparse_nbytes(q_matrix))
    svd = truncated_svd(q_matrix, cfg.rank, seed=cfg.svd_seed)
    u_factor, v_factor = svd.v, svd.u
    meter.charge("shard/U", u_factor.nbytes)
    meter.charge("shard/V", v_factor.nbytes)
    meter.charge("shard/Sigma", svd.sigma.nbytes)
    h_matrix = (v_factor.T @ u_factor) * svd.sigma[np.newaxis, :]
    meter.charge("shard/H", h_matrix.nbytes)
    del v_factor, q_matrix
    meter.release("shard/V")
    meter.release("shard/Q")
    p_matrix, iterations = solve_stein(h_matrix, cfg.damping, cfg.epsilon, cfg.solver)
    meter.charge("shard/P", p_matrix.nbytes)
    z_matrix = u_factor @ sigma_p_sigma(svd.sigma, p_matrix)
    meter.charge("shard/Z", z_matrix.nbytes)
    return (
        u_factor,
        svd.sigma,
        h_matrix,
        lambda start, stop: z_matrix[start:stop, :],
        iterations,
    )


def _compute_factors(
    graph: DiGraph,
    cfg: CSRPlusConfig,
    meter: MemoryMeter,
    block_rows: Optional[int],
) -> Tuple[_Factors, int]:
    """The factor pass for ``graph``, plus the streaming block height it
    used (``0``: the dense path ran)."""
    max_rank = max(1, graph.num_nodes)
    if cfg.rank > max_rank:
        raise InvalidParameterError(
            f"rank {cfg.rank} exceeds the number of nodes {graph.num_nodes}"
        )
    if block_rows is not None and block_rows < 1:
        raise InvalidParameterError(
            f"block_rows must be >= 1 (or None for auto), got {block_rows}"
        )
    shape = (graph.num_nodes, graph.num_nodes)
    if uses_dense_fallback(shape, cfg.rank):
        return _factors_dense(graph, cfg, meter), 0
    block_rows = block_rows or _default_block_rows(graph.num_nodes)
    return _factors_streaming(graph, cfg, meter, block_rows), block_rows


def _cast_block(block: np.ndarray, dtype: str) -> np.ndarray:
    """prepare()'s dtype policy: compute in f64, cast only what is kept."""
    if dtype == "float32":
        return block.astype(np.float32)
    return np.ascontiguousarray(block)


def build_sharded_store(
    graph: DiGraph,
    path: Union[str, "os.PathLike[str]"],
    *,
    num_shards: int,
    config: Optional[CSRPlusConfig] = None,
    block_rows: Optional[int] = None,
    overwrite: bool = False,
    memory: Optional[MemoryMeter] = None,
    replica_path: Union[str, "os.PathLike[str]", None] = None,
    **overrides,
) -> ShardStore:
    """Build a sharded store from ``graph`` with ~one shard resident.

    Parameters
    ----------
    graph / config / overrides:
        Exactly as for :class:`~repro.core.index.CSRPlusIndex` —
        ``build_sharded_store(g, path, num_shards=4, rank=32)`` builds
        the sharded counterpart of ``CSRPlusIndex(g, rank=32)``.
    num_shards:
        Node-range shards to cut (clamped to ``num_nodes``;
        :func:`~repro.sharding.manifest.plan_shards`).
    block_rows:
        Rows per transient left-factor reconstruction block (streaming
        path only); ``None`` picks ``min(4096, ceil(n / 8))``.
    memory:
        Ledger to charge; a fresh unlimited
        :class:`~repro.core.memory.MemoryMeter` by default.  A
        ``memory_budget_bytes`` in the config is honoured either way.
    replica_path:
        Also write the degraded serving tier's store here (the HTTP
        frontend serves ``<store>/replica``, :data:`~repro.sharding.
        store.REPLICA_DIR`): the same shard layout over the rank-``r'``
        truncation (:func:`~repro.core.index.replica_rank`) of this
        build's SVD — ``U[:, :r']`` rows and ``U[:, :r'] (Sigma' P'
        Sigma')`` rows with ``P'`` solved from ``H[:r', :r']`` — and its
        :func:`~repro.core.index.truncation_atol` bound against this
        store in the manifest (docs/approx.md).  With ``overwrite`` and
        no ``replica_path``, a ``<store>/replica`` left from an earlier
        build is removed, so a rebuilt store never keeps a replica of
        its old factors.

    Returns the opened :class:`~repro.sharding.store.ShardStore`.
    """
    cfg = (config or CSRPlusConfig()).with_overrides(**overrides)
    meter = memory if memory is not None else MemoryMeter(cfg.memory_budget_bytes)
    factors, block_rows = _compute_factors(graph, cfg, meter, block_rows)
    # The effective streaming block height is part of the determinism
    # record: blockwise H accumulation is partition-dependent in
    # floating point, so rebuilds must replay the same height (0 = the
    # dense path ran and no streaming was involved).
    writer = ShardStoreWriter(
        path,
        plan_shards(graph.num_nodes, num_shards),
        cfg,
        builder="out-of-core",
        stein_iterations=factors[4],
        block_rows=block_rows,
        overwrite=overwrite,
    )
    if replica_path is None and overwrite:
        shutil.rmtree(os.path.join(writer.path, REPLICA_DIR), ignore_errors=True)
    store, _ = _write_store(
        writer, factors, cfg, block_rows, meter, replica_path, overwrite
    )
    # Everything the factor pipeline retained dies with this frame —
    # settle the ledger so the peak is the build's only legacy.
    del factors
    for label in list(meter.live_breakdown()):
        if label.startswith("shard/"):
            meter.release(label)
    publish_peak(meter, "shard-build")
    return store


def _write_store(
    writer: ShardStoreWriter,
    factors: _Factors,
    cfg: CSRPlusConfig,
    block_rows: int,
    meter: MemoryMeter,
    replica_path=None,
    overwrite: bool = False,
) -> Tuple[ShardStore, List[ShardMeta]]:
    """Write every shard of ``factors`` (and, with ``replica_path``,
    the replica store beside it) and finalize both manifests.

    The one write loop behind builds and repairs.  Returns the opened
    store and the manifest entries :meth:`ShardStoreWriter.write_shard`
    recorded, in shard order.
    """
    u_factor, sigma, h_matrix, z_block_of, _ = factors
    replica = None
    if replica_path is not None:
        replica = _ReplicaWriter(
            replica_path, writer.boundaries, sigma, h_matrix, cfg,
            block_rows, overwrite,
        )
    itemsize = np.dtype(cfg.dtype).itemsize
    metas = []
    for i, (start, stop) in enumerate(writer.boundaries):
        rows = stop - start
        # transient f64 block plus (for f32 stores) the cast copies
        transient = rows * cfg.rank * (8 + 2 * itemsize if cfg.dtype == "float32" else 8)
        if replica is not None:
            # the replica's blocks plus the f64 residual D = Z - [Z', 0]
            transient *= 2
        with meter.charged(f"shard/z-block-{i}", transient):
            z_block = _cast_block(z_block_of(start, stop), cfg.dtype)
            u_block = _cast_block(u_factor[start:stop, :], cfg.dtype)
            metas.append(writer.write_shard(i, z_block, u_block))
            if replica is not None:
                replica.write_shard(i, u_factor[start:stop, :], z_block, u_block)
            del z_block, u_block
    # the exact manifest goes last: a crash before it leaves no store
    if replica is not None:
        replica.finalize()
    return writer.finalize(), metas


class _ReplicaWriter:
    """Writes the rank-``r'`` replica store shard by shard, beside the
    exact one, and accumulates its :func:`~repro.core.index.
    truncation_atol` bound from the stored-dtype blocks of both."""

    def __init__(
        self,
        path,
        boundaries: List[Tuple[int, int]],
        sigma: np.ndarray,
        h_matrix: np.ndarray,
        cfg: CSRPlusConfig,
        block_rows: int,
        overwrite: bool,
    ):
        self.cfg = cfg
        self.rank = replica_rank(cfg.rank)
        p_small, iterations = solve_stein(
            h_matrix[: self.rank, : self.rank], cfg.damping, cfg.epsilon, cfg.solver
        )
        self.sps = sigma_p_sigma(sigma[: self.rank], p_small)
        self.writer = ShardStoreWriter(
            path,
            boundaries,
            cfg.with_overrides(rank=self.rank),
            builder="replica",
            stein_iterations=iterations,
            block_rows=block_rows,
            overwrite=overwrite,
        )
        self.max_residual = 0.0
        self.max_u_norm = 0.0

    def write_shard(
        self,
        index: int,
        u_rows: np.ndarray,
        z_block: np.ndarray,
        u_block: np.ndarray,
    ) -> None:
        """``u_rows``: float64 ``U`` rows; ``z_block``/``u_block``: the
        exact store's stored-dtype blocks for the same rows."""
        u_small = u_rows[:, : self.rank]
        z_small = _cast_block(u_small @ self.sps, self.cfg.dtype)
        self.writer.write_shard(
            index, z_small, _cast_block(u_small, self.cfg.dtype)
        )
        self.max_residual = max(
            self.max_residual,
            float(truncation_residual_norms(z_block, z_small).max()),
        )
        self.max_u_norm = max(
            self.max_u_norm,
            float(
                np.linalg.norm(
                    u_block.astype(np.float64, copy=False), axis=1
                ).max()
            ),
        )

    def finalize(self) -> ShardStore:
        return self.writer.finalize(
            approx_atol=truncation_atol(
                self.cfg.damping,
                self.max_residual,
                self.max_u_norm,
                self.cfg.rank,
                self.cfg.dtype,
            )
        )


def rebuild_shards(
    graph: DiGraph,
    path: Union[str, "os.PathLike[str]"],
    shard_ids: Iterable[int],
    *,
    verify: bool = True,
) -> List[int]:
    """Deterministically regenerate selected shards of an existing store.

    Re-runs the build pipeline recorded in the manifest (``builder``,
    ``svd_seed``, ``solver``, ...) against ``graph`` and rewrites only
    the files of ``shard_ids``, leaving the manifest untouched — builds
    are deterministic, so the regenerated bytes match the manifest's
    digests (checked when ``verify=True``; a mismatch raises
    :class:`~repro.errors.ShardCorrupted`, meaning the graph or code no
    longer matches the store and the whole store must be rebuilt).

    This is the single-shard repair primitive behind
    :meth:`~repro.serving.registry.IndexRegistry.get_sharded`.
    """
    root = os.fspath(path)
    manifest = ShardManifest.load(root)
    if manifest.num_nodes != graph.num_nodes:
        raise InvalidParameterError(
            f"store at {root!r} was built for {manifest.num_nodes} nodes, "
            f"got a graph with {graph.num_nodes}"
        )
    targets = sorted({int(i) for i in shard_ids})
    for i in targets:
        if not (0 <= i < manifest.num_shards):
            raise InvalidParameterError(
                f"shard index {i} out of range [0, {manifest.num_shards})"
            )
    if not targets:
        return []
    u_factor, _, _, z_block_of, _ = _replay(graph, root, manifest)
    dtype = manifest.config.dtype
    for i in targets:
        meta = manifest.shards[i]
        z_block = _cast_block(z_block_of(meta.start, meta.stop), dtype)
        u_block = _cast_block(u_factor[meta.start : meta.stop, :], dtype)
        if verify:
            for name, block, digest in (
                ("Z", z_block, meta.z_sha256),
                ("U", u_block, meta.u_sha256),
            ):
                actual = array_sha256(block)
                if actual != digest:
                    raise ShardCorrupted(
                        root,
                        i,
                        f"rebuilt {name} block does not reproduce the "
                        f"manifest digest (expected {digest[:12]}..., got "
                        f"{actual[:12]}...); graph/config no longer match "
                        "the store",
                    )
        np.save(os.path.join(root, meta.z_file), z_block)
        np.save(os.path.join(root, meta.u_file), u_block)
        # drop any quarantined leftovers for the repaired files
        for leftover in (meta.z_file, meta.u_file):
            try:
                os.remove(os.path.join(root, leftover + ".corrupt"))
            except OSError:
                pass
    return targets


@dataclass(frozen=True)
class ShardRepairReport:
    """Outcome of :func:`repair_sharded_store`.

    Every shard is rewritten; ``repaired_shards`` lists those whose
    manifest entry — row range, digests, norm bound — differs from the
    old store's (empty for a batch that changed no factor byte, e.g.
    re-adding an existing edge).
    """

    path: str
    repaired_shards: Tuple[int, ...]
    total_shards: int

    def open(self, **kwargs) -> ShardStore:
        """Open the repaired store for serving."""
        return ShardStore(self.path, **kwargs)


def repair_sharded_store(
    graph: DiGraph,
    old_path: Union[str, "os.PathLike[str]"],
    new_path: Union[str, "os.PathLike[str]"],
    *,
    overwrite: bool = False,
) -> ShardRepairReport:
    """Rebuild a store against a *mutated* graph into a new directory.

    Unlike :func:`rebuild_shards` — which restores a corrupted shard of
    an *unchanged* graph and leaves the manifest alone — this is the
    live-update primitive: the graph has genuinely changed, so the
    factors have too.  The pipeline recorded in the old manifest is
    replayed against ``graph`` and every shard is written into
    ``new_path`` by the same loop a build runs; when the old store has
    a replica (``<store>/replica``) the new one gets a fresh replica in
    the same pass.  The old directory is never touched — in-flight
    queries against mmap-ed old shards keep their bytes (zero-downtime
    swap, docs/dynamic.md).

    Every shard is written because the factors come from one global
    truncated SVD: a real edge change moves every row of ``Z`` and
    ``U`` that is not exactly zero, so there is no partial work to
    save.  The repaired store is file-for-file identical to a fresh
    build against the mutated graph.  A replica store is refused, as by
    :func:`rebuild_shards`: repair its exact store instead.
    """
    old_root = os.fspath(old_path)
    new_root = os.fspath(new_path)
    if os.path.abspath(old_root) == os.path.abspath(new_root):
        raise InvalidParameterError(
            "repair_sharded_store must write a fresh directory: rewriting "
            "the live store in place would corrupt mmap-ed readers"
        )
    if os.path.exists(new_root) and not overwrite:
        raise InvalidParameterError(
            f"repair target {new_root!r} already exists "
            "(pass overwrite=True to replace it)"
        )
    manifest = ShardManifest.load(old_root)
    factors = _replay(graph, old_root, manifest)
    if os.path.exists(new_root):
        shutil.rmtree(new_root)
    writer = ShardStoreWriter(
        new_root,
        plan_shards(graph.num_nodes, manifest.num_shards),
        manifest.config,
        builder=manifest.builder,
        stein_iterations=factors[4],
        block_rows=manifest.block_rows,
    )
    replica_path = None
    if replica_store_path(old_root) is not None:
        replica_path = os.path.join(new_root, REPLICA_DIR)
    _, metas = _write_store(
        writer, factors, manifest.config, manifest.block_rows, MemoryMeter(),
        replica_path,
    )
    old = {meta.index: meta for meta in manifest.shards}
    return ShardRepairReport(
        path=new_root,
        repaired_shards=tuple(
            meta.index for meta in metas if old.get(meta.index) != meta
        ),
        total_shards=len(metas),
    )


def _replay(graph: DiGraph, root: str, manifest: ShardManifest) -> _Factors:
    """Re-run the pipeline ``manifest`` records against ``graph``.

    A replica store is refused: its factors are a truncation of its
    exact store's build, not a build of their own.
    """
    if manifest.builder == "replica":
        raise InvalidParameterError(
            f"store at {root!r} is a replica; rebuild it together with "
            "its exact store (build_sharded_store's replica_path)"
        )
    cfg = manifest.config
    if manifest.builder == "from-index":
        index = CSRPlusIndex(graph, cfg).prepare()
        u_factor, sigma, _, z_matrix = index.factors
        return (
            u_factor,
            sigma,
            index._h,  # kept by prepare() for re-damping and truncation
            lambda start, stop: z_matrix[start:stop, :],
            index.stein_iterations,
        )
    factors, _ = _compute_factors(
        graph, cfg, MemoryMeter(), manifest.block_rows or None
    )
    return factors
