"""Shard layout planning and the on-disk shard-store manifest.

A sharded store row-partitions the two ``n x r`` query factors ``Z``
and ``U`` into contiguous *node-range* shards: shard ``i`` owns the
half-open row range ``[start_i, stop_i)`` and persists its slices as
two ``.npy`` files.  The manifest (``manifest.json``) is the store's
single source of truth: shard boundaries, the index hyper-parameters
needed to answer queries (``rank``, ``damping``, ``dtype``, ...), and
one sha256 per shard file computed over the **raw array bytes** — not
the ``.npy`` container — so the same digest verifies a file on disk
and an array in memory (the chaos seam corrupts arrays, not files).

Integrity follows the sidecar pattern of
:mod:`repro.serving.registry`: the manifest itself carries a
``manifest.json.sha256`` sidecar, and each shard is covered by the
digests *inside* the manifest.  One flipped bit therefore localises:
a bad sidecar condemns only the manifest, a bad shard digest condemns
only that shard (:class:`~repro.errors.ShardCorrupted`), and the
registry can quarantine and rebuild the damaged piece alone
(docs/sharding.md).
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.core.config import CSRPlusConfig
from repro.errors import InvalidParameterError, ShardCorrupted

__all__ = [
    "MANIFEST_NAME",
    "ShardManifest",
    "ShardMeta",
    "array_sha256",
    "plan_shards",
]

#: File name of the manifest inside a shard-store directory.
MANIFEST_NAME = "manifest.json"

#: Manifest schema version (bump on incompatible layout changes).
MANIFEST_VERSION = 1


def array_sha256(array: np.ndarray) -> str:
    """sha256 of an array's raw data bytes (C order, container-free).

    Hashing the data bytes rather than the ``.npy`` file makes one
    digest usable both for disk verification (load, then hash) and for
    in-memory validation of arrays that may have been corrupted after
    loading (the ``shard.read`` chaos seam).
    """
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def plan_shards(num_nodes: int, num_shards: int) -> List[Tuple[int, int]]:
    """Contiguous, balanced ``[start, stop)`` row ranges covering ``n``.

    The first ``n % num_shards`` shards get one extra row, so shard
    sizes differ by at most one and the layout is a pure function of
    ``(num_nodes, num_shards)`` — the determinism single-shard rebuild
    relies on.  ``num_shards`` is clamped to ``num_nodes`` (a shard
    must own at least one row).
    """
    if num_nodes < 1:
        raise InvalidParameterError(f"num_nodes must be >= 1, got {num_nodes}")
    if num_shards < 1:
        raise InvalidParameterError(
            f"num_shards must be >= 1, got {num_shards}"
        )
    num_shards = min(int(num_shards), int(num_nodes))
    base, extra = divmod(int(num_nodes), num_shards)
    bounds: List[Tuple[int, int]] = []
    start = 0
    for i in range(num_shards):
        stop = start + base + (1 if i < extra else 0)
        bounds.append((start, stop))
        start = stop
    return bounds


@dataclass(frozen=True)
class ShardMeta:
    """One shard's slot in the manifest."""

    index: int
    start: int
    stop: int
    z_file: str
    u_file: str
    z_sha256: str
    u_sha256: str
    #: Largest ``||Z[x]||_2`` among the shard's rows (float64): the
    #: shard's Cauchy–Schwarz score bound, kept in the store format.
    #: The top-k kernel (:mod:`repro.core.topk`) takes its bounds from
    #: the rows themselves (``ShardedIndex.z_row_norms``) and does not
    #: read it.  ``-1.0`` marks manifests written before the field
    #: existed.
    z_norm_max: float = -1.0

    @property
    def num_rows(self) -> int:
        return self.stop - self.start


@dataclass(frozen=True)
class ShardManifest:
    """The complete description of a sharded store.

    ``builder`` records provenance: ``"from-index"`` stores are
    byte-identical row slices of a prepared monolithic index (queries
    are bit-exact against it), ``"out-of-core"`` stores were built
    without ever materialising the full factors and carry the
    tolerance-equivalence contract instead (docs/sharding.md), and
    ``"replica"`` stores hold the rank-truncated factors of the
    degraded serving tier, written beside an exact store
    (docs/approx.md).
    """

    version: int
    num_nodes: int
    rank: int
    damping: float
    epsilon: float
    dtype: str
    builder: str
    stein_iterations: int
    #: Build-determinism record: with these plus the fields above and
    #: the graph, a rebuild reproduces every shard byte-for-byte (what
    #: single-shard repair relies on; docs/sharding.md).  ``block_rows``
    #: matters because the streaming builder's blockwise ``H``
    #: accumulation is partition-dependent in floating point; ``0``
    #: means the build did not stream (dense path or from-index).
    svd_seed: int
    solver: str
    dangling: str
    block_rows: int
    shards: List[ShardMeta]
    #: For a replica store (``builder == "replica"``): the published
    #: per-entry error bound against the exact store it was truncated
    #: from (:func:`~repro.core.index.truncation_atol`); ``None`` for
    #: exact stores.
    approx_atol: Optional[float] = None

    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        return len(self.shards)

    @property
    def boundaries(self) -> List[Tuple[int, int]]:
        return [(meta.start, meta.stop) for meta in self.shards]

    @property
    def config(self) -> CSRPlusConfig:
        """The pipeline this store's factors came from, as a config.

        What a rebuild or repair replays, and what a
        :class:`~repro.sharding.ShardedIndex` over the store reports.
        Fields the manifest does not record (``query_mode``,
        ``memory_budget_bytes``) keep their defaults.
        """
        return CSRPlusConfig(
            damping=self.damping,
            rank=self.rank,
            epsilon=self.epsilon,
            solver=self.solver,
            dangling=self.dangling,
            svd_seed=self.svd_seed,
            dtype=self.dtype,
        )

    def validate(self) -> None:
        """Structural sanity: shards tile ``[0, num_nodes)`` in order."""
        if self.num_nodes < 1:
            raise InvalidParameterError(
                f"manifest num_nodes must be >= 1, got {self.num_nodes}"
            )
        if not self.shards:
            raise InvalidParameterError("manifest has no shards")
        expected = 0
        for i, meta in enumerate(self.shards):
            if meta.index != i:
                raise InvalidParameterError(
                    f"shard {i} is labelled {meta.index} in the manifest"
                )
            if meta.start != expected or meta.stop <= meta.start:
                raise InvalidParameterError(
                    f"shard {i} covers [{meta.start}, {meta.stop}), "
                    f"expected a non-empty range starting at {expected}"
                )
            expected = meta.stop
        if expected != self.num_nodes:
            raise InvalidParameterError(
                f"shards cover [0, {expected}) but the manifest declares "
                f"{self.num_nodes} nodes"
            )

    # ------------------------------------------------------------------
    # persistence (sidecar-checked, registry.py pattern)
    # ------------------------------------------------------------------
    def to_json(self) -> str:
        payload = asdict(self)
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def save(self, directory: Union[str, "os.PathLike[str]"]) -> str:
        """Write ``manifest.json`` plus its ``.sha256`` sidecar."""
        path = os.path.join(os.fspath(directory), MANIFEST_NAME)
        text = self.to_json()
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        with open(path + ".sha256", "w", encoding="utf-8") as handle:
            handle.write(digest + "\n")
        return path

    @classmethod
    def load(
        cls, directory: Union[str, "os.PathLike[str]"], *, check_sidecar: bool = True
    ) -> "ShardManifest":
        """Read and validate a manifest, verifying its sidecar digest.

        Raises :class:`~repro.errors.ShardCorrupted` (shard index
        ``-1``: the store as a whole) when the sidecar does not match
        or the JSON cannot be parsed, and
        :class:`~repro.errors.InvalidParameterError` for structurally
        invalid layouts.
        """
        root = os.fspath(directory)
        path = os.path.join(root, MANIFEST_NAME)
        with open(path, "rb") as handle:
            raw = handle.read()
        sidecar = path + ".sha256"
        if check_sidecar and os.path.exists(sidecar):
            with open(sidecar, encoding="utf-8") as handle:
                expected = handle.read().strip()
            actual = hashlib.sha256(raw).hexdigest()
            if actual != expected:
                raise ShardCorrupted(
                    root,
                    -1,
                    f"manifest sha256 mismatch (expected {expected[:12]}..., "
                    f"got {actual[:12]}...)",
                )
        try:
            payload = json.loads(raw.decode("utf-8"))
            shards = [ShardMeta(**meta) for meta in payload.pop("shards")]
            manifest = cls(shards=shards, **payload)
        except (ValueError, TypeError, KeyError) as exc:
            raise ShardCorrupted(
                root, -1, f"unparseable manifest: {type(exc).__name__}: {exc}"
            ) from exc
        if manifest.version != MANIFEST_VERSION:
            raise ShardCorrupted(
                root, -1, f"unsupported manifest version {manifest.version}"
            )
        manifest.validate()
        return manifest
