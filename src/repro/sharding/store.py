"""Persistent node-range shard store for the CSR+ query factors.

Layout of a store directory::

    <store>/
      manifest.json          # ShardManifest (+ .sha256 sidecar)
      shard-00000.z.npy      # Z[start_0:stop_0, :]
      shard-00000.u.npy      # U[start_0:stop_0, :]
      shard-00001.z.npy
      ...
      replica/               # optional: the degraded tier's store

Two ways to create one:

* :func:`shard_index` slices a *prepared* monolithic
  :class:`~repro.core.index.CSRPlusIndex` — the shard files hold the
  exact bytes of the corresponding factor rows, so a
  :class:`~repro.sharding.ShardedIndex` over the store answers
  queries ``np.array_equal`` to the source index;
* :func:`repro.sharding.builder.build_sharded_store` builds shards
  incrementally from the graph without ever materialising the full
  factors (the out-of-core path, tolerance-equivalence contract).

Reads go through :meth:`ShardStore.load_shard`, which carries the
``shard.read`` chaos seam (:mod:`repro.testing.faults`): tests inject
read failures, latency, and in-memory corruption there, and the
sharded index's retry + validation logic is proven against it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.core.config import CSRPlusConfig
from repro.errors import InvalidParameterError, ShardCorrupted
from repro.sharding.manifest import (
    MANIFEST_NAME,
    MANIFEST_VERSION,
    ShardManifest,
    ShardMeta,
    array_sha256,
    plan_shards,
)
from repro.testing import faults

__all__ = [
    "REPLICA_DIR",
    "Shard",
    "ShardStore",
    "ShardStoreWriter",
    "replica_store_path",
    "shard_index",
]

#: Subdirectory of an exact store that holds its rank-truncated replica
#: (:func:`~repro.sharding.builder.build_sharded_store`'s
#: ``replica_path``), which the HTTP frontend serves as the degraded
#: tier (docs/approx.md).
REPLICA_DIR = "replica"


def replica_store_path(
    store_path: Union[str, "os.PathLike[str]"]
) -> Optional[str]:
    """``<store>/replica`` when it holds a finished store, else ``None``."""
    path = os.path.join(os.fspath(store_path), REPLICA_DIR)
    return path if os.path.exists(os.path.join(path, MANIFEST_NAME)) else None


def _shard_file_names(index: int) -> Tuple[str, str]:
    return f"shard-{index:05d}.z.npy", f"shard-{index:05d}.u.npy"


@dataclass(frozen=True)
class Shard:
    """One loaded shard: row range plus its two factor blocks."""

    index: int
    start: int
    stop: int
    z: np.ndarray
    u: np.ndarray

    @property
    def num_rows(self) -> int:
        return self.stop - self.start


class ShardStoreWriter:
    """Incremental writer: one shard at a time, manifest at the end.

    The out-of-core builder hands each ``(Z block, U block)`` pair to
    :meth:`write_shard` as soon as it is computed and frees it
    immediately after, so the writer never holds more than the shard
    currently being persisted.  :meth:`finalize` refuses to run until
    every planned shard was written — a crashed build leaves no
    manifest, and a store without a manifest does not open.

    ``config`` is the pipeline the factors came from; the manifest
    records its rank, damping, epsilon, dtype, solver, dangling policy
    and SVD seed (:attr:`ShardManifest.config` reads them back), plus
    the ``builder`` provenance, the Stein iteration count and the
    streaming ``block_rows``.
    """

    def __init__(
        self,
        path: Union[str, "os.PathLike[str]"],
        boundaries: List[Tuple[int, int]],
        config: CSRPlusConfig,
        *,
        builder: str,
        stein_iterations: int = 0,
        block_rows: int = 0,
        overwrite: bool = False,
    ):
        self.path = os.fspath(path)
        if not boundaries:
            raise InvalidParameterError("boundaries must be non-empty")
        self._boundaries = [(int(a), int(b)) for a, b in boundaries]
        self._config = config
        self._rank = int(config.rank)
        self._dtype = np.dtype(config.dtype)
        self._builder = str(builder)
        self._stein_iterations = int(stein_iterations)
        self._block_rows = int(block_rows)
        self._written: dict = {}
        if os.path.exists(os.path.join(self.path, MANIFEST_NAME)):
            if not overwrite:
                raise InvalidParameterError(
                    f"shard store {self.path!r} already exists "
                    "(pass overwrite=True to replace it)"
                )
        os.makedirs(self.path, exist_ok=True)

    @property
    def boundaries(self) -> List[Tuple[int, int]]:
        return list(self._boundaries)

    def _slot(self, index: int) -> Tuple[int, int]:
        if not (0 <= index < len(self._boundaries)):
            raise InvalidParameterError(
                f"shard index {index} out of range "
                f"[0, {len(self._boundaries)})"
            )
        return self._boundaries[index]

    def write_shard(self, index: int, z_block: np.ndarray, u_block: np.ndarray) -> ShardMeta:
        """Persist one shard's factor blocks and record their digests."""
        start, stop = self._slot(index)
        for name, block in (("Z", z_block), ("U", u_block)):
            if block.shape != (stop - start, self._rank):
                raise InvalidParameterError(
                    f"shard {index} {name} block has shape {block.shape}, "
                    f"expected {(stop - start, self._rank)}"
                )
            if block.dtype != self._dtype:
                raise InvalidParameterError(
                    f"shard {index} {name} block dtype {block.dtype} does "
                    f"not match the store dtype {self._dtype}"
                )
        z_name, u_name = _shard_file_names(index)
        z_block = np.ascontiguousarray(z_block)
        u_block = np.ascontiguousarray(u_block)
        np.save(os.path.join(self.path, z_name), z_block)
        np.save(os.path.join(self.path, u_name), u_block)
        # The shard's score bound (ShardMeta.z_norm_max): a pure float64
        # function of the shard bytes, so a single-shard rebuild
        # (repro.sharding.builder.rebuild_shards) reproduces it exactly.
        z_norms = np.linalg.norm(z_block.astype(np.float64, copy=False), axis=1)
        meta = ShardMeta(
            index=int(index),
            start=start,
            stop=stop,
            z_file=z_name,
            u_file=u_name,
            z_sha256=array_sha256(z_block),
            u_sha256=array_sha256(u_block),
            z_norm_max=float(z_norms.max()) if z_norms.size else 0.0,
        )
        self._written[int(index)] = meta
        return meta

    def finalize(self, approx_atol: Optional[float] = None) -> "ShardStore":
        """Write the manifest (all shards must have been written).

        ``approx_atol`` is a replica store's published error bound
        (:attr:`ShardManifest.approx_atol`).
        """
        missing = [
            i for i in range(len(self._boundaries)) if i not in self._written
        ]
        if missing:
            raise InvalidParameterError(
                f"cannot finalize shard store: shards {missing} were "
                "never written"
            )
        cfg = self._config
        manifest = ShardManifest(
            version=MANIFEST_VERSION,
            num_nodes=self._boundaries[-1][1],
            rank=self._rank,
            damping=float(cfg.damping),
            epsilon=float(cfg.epsilon),
            dtype=self._dtype.name,
            builder=self._builder,
            stein_iterations=self._stein_iterations,
            svd_seed=int(cfg.svd_seed),
            solver=cfg.solver,
            dangling=cfg.dangling,
            block_rows=self._block_rows,
            shards=[self._written[i] for i in range(len(self._boundaries))],
            approx_atol=approx_atol,
        )
        manifest.save(self.path)
        return ShardStore(self.path)


class ShardStore:
    """Read side of a shard-store directory.

    Parameters
    ----------
    path:
        Store directory (must contain a valid ``manifest.json``; the
        manifest's sidecar digest is always verified on open).
    verify:
        ``"manifest"`` (default) trusts the per-shard digests and
        checks them lazily/never; ``"hashes"`` re-hashes every shard
        file on open (full-store fsck, what the registry does before
        serving a store found on disk).

    Notes
    -----
    :meth:`load_shard` defaults to ``mmap=True`` so opening a store
    costs O(manifest) memory and queries touch only the pages of the
    shards they route to — the point of the subsystem.
    """

    def __init__(
        self,
        path: Union[str, "os.PathLike[str]"],
        *,
        verify: str = "manifest",
    ):
        if verify not in ("manifest", "hashes"):
            raise InvalidParameterError(
                f"verify must be 'manifest' or 'hashes', got {verify!r}"
            )
        self.path = os.fspath(path)
        self.manifest = ShardManifest.load(self.path)
        if verify == "hashes":
            for meta in self.manifest.shards:
                self.verify_shard(meta.index)

    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return self.manifest.num_nodes

    @property
    def num_shards(self) -> int:
        return self.manifest.num_shards

    @property
    def boundaries(self) -> List[Tuple[int, int]]:
        return self.manifest.boundaries

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(self.manifest.dtype)

    def shard_paths(self, index: int) -> Tuple[str, str]:
        meta = self._meta(index)
        return (
            os.path.join(self.path, meta.z_file),
            os.path.join(self.path, meta.u_file),
        )

    def _meta(self, index: int) -> ShardMeta:
        if not (0 <= index < self.num_shards):
            raise InvalidParameterError(
                f"shard index {index} out of range [0, {self.num_shards})"
            )
        return self.manifest.shards[index]

    # ------------------------------------------------------------------
    # reads (the chaos seam lives here)
    # ------------------------------------------------------------------
    def load_shard(
        self, index: int, *, mmap: bool = True, validate: bool = False
    ) -> Shard:
        """Load one shard's ``(Z, U)`` blocks.

        The ``shard.read`` seam fires before the files are opened
        (injected ``OSError``/latency travel the real error path) and
        transforms the loaded pair afterwards (injected corruption).
        With ``validate=True`` both blocks are re-hashed against the
        manifest digests after loading — a corrupted shard (on disk or
        in flight) raises :class:`~repro.errors.ShardCorrupted` instead
        of flowing silently into query results.  Validation reads every
        page, so it defeats mmap laziness; the sharded index exposes it
        as an opt-in (``validate_reads``), mirroring the column cache's
        ``validate_checksums``.
        """
        meta = self._meta(index)
        z_path, u_path = self.shard_paths(index)
        faults.fire("shard.read", shard=int(index), path=self.path)
        mode: Optional[str] = "r" if mmap else None
        z_block = np.load(z_path, mmap_mode=mode)
        u_block = np.load(u_path, mmap_mode=mode)
        z_block, u_block = faults.transform(
            "shard.read", (z_block, u_block), shard=int(index), path=self.path
        )
        self._check_blocks(meta, z_block, u_block, validate=validate)
        # plain ndarray views of the maps: np.memmap's subclass hooks
        # run on every slice and cost more than a small row copy
        return Shard(
            index=int(index),
            start=meta.start,
            stop=meta.stop,
            z=np.asarray(z_block),
            u=np.asarray(u_block),
        )

    def _check_blocks(
        self,
        meta: ShardMeta,
        z_block: np.ndarray,
        u_block: np.ndarray,
        *,
        validate: bool,
    ) -> None:
        expected_shape = (meta.num_rows, self.manifest.rank)
        for name, block, digest in (
            ("Z", z_block, meta.z_sha256),
            ("U", u_block, meta.u_sha256),
        ):
            if block.shape != expected_shape or block.dtype != self.dtype:
                raise ShardCorrupted(
                    self.path,
                    meta.index,
                    f"{name} block has shape {block.shape} dtype "
                    f"{block.dtype}, expected {expected_shape} {self.dtype}",
                )
            if validate:
                actual = array_sha256(block)
                if actual != digest:
                    raise ShardCorrupted(
                        self.path,
                        meta.index,
                        f"{name} sha256 mismatch (expected {digest[:12]}..., "
                        f"got {actual[:12]}...)",
                    )

    def verify_shard(self, index: int) -> None:
        """Re-read shard ``index`` from disk and check it byte-for-byte.

        Bypasses the chaos seam (this is the fsck path, not the serving
        path).  Raises :class:`~repro.errors.ShardCorrupted` on digest
        or shape mismatch; ``OSError`` propagates for missing files.
        """
        meta = self._meta(index)
        z_path, u_path = self.shard_paths(index)
        z_block = np.load(z_path, mmap_mode="r")
        u_block = np.load(u_path, mmap_mode="r")
        self._check_blocks(meta, z_block, u_block, validate=True)

    def quarantine_shard(self, index: int) -> None:
        """Move a bad shard's files aside (best effort, registry pattern)."""
        for target in self.shard_paths(index):
            try:
                os.replace(target, target + ".corrupt")
            except OSError:
                try:
                    os.remove(target)
                except OSError:
                    pass

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardStore(path={self.path!r}, n={self.num_nodes}, "
            f"shards={self.num_shards}, dtype={self.manifest.dtype})"
        )


def shard_index(
    index,
    path: Union[str, "os.PathLike[str]"],
    *,
    num_shards: int,
    overwrite: bool = False,
) -> ShardStore:
    """Shard a *prepared* monolithic index into a store, byte-exactly.

    Shard ``i`` holds ``Z[start_i:stop_i, :]`` and ``U[start_i:stop_i,
    :]`` as contiguous copies of the factor rows — the identical bytes
    — so a :class:`~repro.sharding.ShardedIndex` over the result is
    ``np.array_equal`` to ``index.query_columns`` in exact mode and
    within :func:`~repro.core.kernel.batched_query_atol` in batched
    mode, for every shard count (docs/sharding.md).  This is the path
    behind ``csrplus shard-build --from-index``; the memory-bounded
    default is :func:`repro.sharding.builder.build_sharded_store`.
    """
    u_matrix, _, _, z_matrix = index.factors  # enforces prepared-ness
    writer = ShardStoreWriter(
        path,
        plan_shards(index.num_nodes, num_shards),
        index.config,
        builder="from-index",
        stein_iterations=index.stein_iterations,
        overwrite=overwrite,
    )
    for i, (start, stop) in enumerate(writer.boundaries):
        writer.write_shard(i, z_matrix[start:stop, :], u_matrix[start:stop, :])
    return writer.finalize()
