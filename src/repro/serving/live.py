"""Live-graph serving: a versioned chain of indexes over an evolving graph.

:class:`LiveIndexChain` is the piece that turns the static serving
stack into a zero-downtime live one (docs/dynamic.md).  It composes
three existing mechanisms:

* :class:`~repro.core.dynamic.DynamicCSRPlus` keeps the evolving graph
  and the update log (``csrplus_dynamic_staleness``), routing rebuilds
  through a pluggable ``rebuilder``;
* shard repair (:func:`~repro.sharding.builder.repair_sharded_store`)
  replays the store's build pipeline against the new graph into a
  *new* per-version store directory (old readers keep their mmaps;
  nothing is ever rewritten in place);
* :meth:`~repro.serving.service.CoSimRankService.publish_index` swaps
  the new version in atomically while in-flight batches finish on the
  old one, keeping the caches warm only when no factor byte changed.

Every applied batch produces an immutable :class:`IndexVersion` link
that records which shards' bytes changed.  The chain keeps the last
few links alive so batches pinned to a recent version never lose their
backing index (version stores on disk are likewise never deleted by
the chain — old mmaps may still be reading them).
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import repro.obs as obs
from repro.core.config import CSRPlusConfig
from repro.core.dynamic import DynamicCSRPlus
from repro.core.index import CSRPlusIndex
from repro.errors import InvalidParameterError
from repro.graphs.digraph import DiGraph
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer
from repro.serving.service import factors_changed

__all__ = ["IndexVersion", "LiveIndexChain"]

#: Default number of recent versions whose index objects stay strongly
#: referenced (in-flight batches pinned to them must outlive the swap).
DEFAULT_KEEP_VERSIONS = 3


@dataclass(frozen=True)
class IndexVersion:
    """One immutable link of the live chain.

    Attributes
    ----------
    version:
        Monotone sequence number (0 is the initial build).
    index:
        The prepared backend serving this version (monolithic
        :class:`~repro.core.index.CSRPlusIndex` or a
        :class:`~repro.sharding.ShardedIndex` over ``store_path``).
    store_path:
        This version's shard-store directory (``None`` for monolithic
        chains).  Never deleted by the chain.
    repaired_shards:
        Shard ids whose bytes changed in the repair (empty for a
        byte-no-op update batch and for monolithic chains).
    edges_applied:
        Requested edge changes retired by this version.
    """

    version: int
    index: object
    store_path: Optional[str] = None
    repaired_shards: Tuple[int, ...] = ()
    edges_applied: int = 0


class LiveIndexChain:
    """Versioned zero-downtime index chain over an evolving graph.

    Parameters
    ----------
    graph:
        Initial graph (the node set is fixed for the chain's lifetime —
        edge batches may not add nodes).
    config:
        Index configuration (or keyword ``overrides``).
    store_root:
        Directory for per-version shard stores (``v000000/``,
        ``v000001/``, ...).  Required when ``num_shards`` is set.
    num_shards:
        Shard the backend into this many node ranges and route updates
        through shard repair.  ``None`` (default) keeps a monolithic
        in-memory backend rebuilt per update batch.
    keep_versions:
        How many recent :class:`IndexVersion` links stay strongly
        referenced.  Evicted links are dropped, never ``close()``-d —
        a batch pinned to one may still be running.
    max_workers / query_mode / validate_reads:
        Passed through to each version's :class:`~repro.sharding.
        ShardedIndex` (sharded chains only).  ``validate_reads=True``
        re-hashes every shard read against the manifest, so a corrupted
        block surfaces as a typed error instead of wrong rows — the
        chaos suite's setting.
    metrics / tracer:
        Instrument sinks; default to the process-global registry and
        tracer.

    Examples
    --------
    >>> from repro.graphs import ring
    >>> chain = LiveIndexChain(ring(12), rank=4)
    >>> chain.version
    0
    >>> chain.update_edges(added=[(0, 6)]).version
    1
    """

    def __init__(
        self,
        graph: DiGraph,
        config: Optional[CSRPlusConfig] = None,
        *,
        store_root: Optional[str] = None,
        num_shards: Optional[int] = None,
        keep_versions: int = DEFAULT_KEEP_VERSIONS,
        max_workers: Optional[int] = None,
        query_mode: Optional[str] = None,
        validate_reads: bool = False,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        **overrides,
    ):
        if num_shards is not None and num_shards < 1:
            raise InvalidParameterError(
                f"num_shards must be >= 1 (or None for monolithic), "
                f"got {num_shards}"
            )
        if num_shards is not None and store_root is None:
            raise InvalidParameterError(
                "a sharded live chain needs store_root (one directory "
                "per version is created beneath it)"
            )
        if keep_versions < 1:
            raise InvalidParameterError(
                f"keep_versions must be >= 1, got {keep_versions}"
            )
        self._config = (config or CSRPlusConfig()).with_overrides(**overrides)
        self._store_root = os.fspath(store_root) if store_root else None
        self._num_shards = num_shards
        self._keep_versions = int(keep_versions)
        self._max_workers = max_workers
        self._query_mode = query_mode
        self._validate_reads = bool(validate_reads)
        self._lock = threading.RLock()
        self._services: List[object] = []
        self._last_report = None
        self._seq = 0

        reg = metrics if metrics is not None else obs.get_registry()
        tracer = tracer if tracer is not None else obs.get_tracer()
        self._m_edges = reg.counter(
            "csrplus_update_edges_total",
            "Edge changes (adds + removals) applied to live chains",
        )
        self._m_repaired = reg.counter(
            "csrplus_update_repaired_shards_total",
            "Shards rewritten by targeted repair across live updates",
        )
        self._m_full = reg.counter(
            "csrplus_update_full_rebuilds_total",
            "Live updates that fell back to a full rebuild",
        )

        if num_shards is None:
            initial = CSRPlusIndex(graph, self._config).prepare()
            store_path = None
        else:
            store_path = self._version_path(0)
            from repro.sharding import build_sharded_store

            build_sharded_store(
                graph,
                store_path,
                num_shards=int(num_shards),
                config=self._config,
                overwrite=True,
            )
            initial = self._open_sharded(store_path)
        self._dynamic = DynamicCSRPlus(
            graph,
            self._config,
            policy="manual",
            index=initial,
            rebuilder=self._rebuild,
            metrics=reg,
            tracer=tracer,
        )
        self._versions: List[IndexVersion] = [
            IndexVersion(version=0, index=initial, store_path=store_path)
        ]

    # ------------------------------------------------------------------
    # chain state
    # ------------------------------------------------------------------
    @property
    def graph(self) -> DiGraph:
        """The current (post-updates) graph."""
        return self._dynamic.graph

    @property
    def index(self):
        """The backend serving the newest version."""
        return self._dynamic.index

    @property
    def version(self) -> int:
        """Newest published version number."""
        with self._lock:
            return self._versions[-1].version

    @property
    def current(self) -> IndexVersion:
        """The newest :class:`IndexVersion` link."""
        with self._lock:
            return self._versions[-1]

    def versions(self) -> Tuple[IndexVersion, ...]:
        """The retained recent links, oldest first."""
        with self._lock:
            return tuple(self._versions)

    @property
    def is_sharded(self) -> bool:
        return self._num_shards is not None

    # ------------------------------------------------------------------
    # serving attachment
    # ------------------------------------------------------------------
    def attach(self, service) -> None:
        """Register a service: every future update is published to it.

        The service should already be serving :attr:`index` (construct
        it with ``CoSimRankService(chain.index, ...)``); if it is
        serving an older backend it receives the current one via
        :meth:`~repro.serving.service.CoSimRankService.publish_index`
        immediately.
        """
        with self._lock:
            current = self._versions[-1].index
            if service.index is not current:
                service.publish_index(current)
            self._services.append(service)

    def detach(self, service) -> None:
        """Stop publishing updates to ``service`` (idempotent)."""
        with self._lock:
            try:
                self._services.remove(service)
            except ValueError:
                pass

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def update_edges(
        self,
        added: Sequence[Tuple[int, int]] = (),
        removed: Sequence[Tuple[int, int]] = (),
    ) -> IndexVersion:
        """Apply one edge batch and publish the repaired version.

        Returns the new :class:`IndexVersion` link (or the current one
        unchanged when the batch is empty).  The sequence per batch:

        1. the evolving graph absorbs the changes
           (:class:`~repro.core.dynamic.DynamicCSRPlus` update log);
        2. the backend is rebuilt — for a sharded chain by repair into
           a fresh per-version directory (``dynamic.rebuild`` span);
        3. every attached service swaps atomically
           (``index.swap`` span): in-flight batches finish on the old
           version, caches stay warm only if no factor byte changed.
        """
        added = list(added)
        removed = list(removed)
        if not added and not removed:
            return self.current
        with self._lock:
            edges = len(added) + len(removed)
            old_index = self._dynamic.index
            self._dynamic.update_edges(added, removed)
            self._last_report = None
            self._dynamic.refresh()  # routes through self._rebuild
            report = self._last_report
            new_index = self._dynamic.index
            self._seq += 1
            link = IndexVersion(
                version=self._seq,
                index=new_index,
                store_path=None if report is None else report.path,
                repaired_shards=() if report is None else report.repaired_shards,
                edges_applied=edges,
            )
            self._m_edges.inc(edges)
            self._m_repaired.inc(len(link.repaired_shards))
            if factors_changed(old_index, new_index):
                self._m_full.inc()
            self._versions.append(link)
            del self._versions[: -self._keep_versions]
            for service in self._services:
                service.publish_index(new_index)
            return link

    @property
    def staleness(self) -> int:
        """Edge changes absorbed by the graph but not yet rebuilt (0
        between :meth:`update_edges` calls — the chain always refreshes)."""
        return self._dynamic.staleness

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _version_path(self, seq: int) -> str:
        assert self._store_root is not None
        return os.path.join(self._store_root, f"v{seq:06d}")

    def _open_sharded(self, path: str):
        from repro.sharding import ShardedIndex

        return ShardedIndex(
            path,
            query_mode=self._query_mode,
            max_workers=self._max_workers,
            validate_reads=self._validate_reads,
        )

    def _rebuild(self, graph: DiGraph, config: CSRPlusConfig):
        """The :class:`DynamicCSRPlus` rebuilder seam.

        Monolithic: a fresh prepare.  Sharded: repair of the
        newest version's store into the next version directory; the
        repair report is stashed for :meth:`update_edges` to read.
        """
        if self._num_shards is None:
            return CSRPlusIndex(graph, config).prepare()
        from repro.sharding import repair_sharded_store

        old_path = self._versions[-1].store_path
        assert old_path is not None
        report = repair_sharded_store(
            graph,
            old_path,
            self._version_path(self._seq + 1),
            overwrite=True,
        )
        self._last_report = report
        return self._open_sharded(report.path)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        backend = (
            f"shards={self._num_shards}" if self.is_sharded else "monolithic"
        )
        return (
            f"LiveIndexChain(version={self.version}, {backend}, "
            f"services={len(self._services)})"
        )
