"""On-disk registry of prepared CSR+ indexes, hardened for serving.

A serving deployment rarely wants to pay the offline SVD on every
process start.  :class:`IndexRegistry` maps a *name* to a prepared
:class:`~repro.core.index.CSRPlusIndex`, lazily resolving it in three
tiers: an in-process table, a saved ``<root>/<name>.npz`` file
(via the index's own :meth:`~repro.core.index.CSRPlusIndex.save` /
:meth:`~repro.core.index.CSRPlusIndex.load`), and finally a fresh
build — which is then saved so the next process hits the disk tier.

Persistence is lossless (``savez`` round-trips the float factors
bit-for-bit), so a registry-loaded index answers queries identically
to the in-memory one it was saved from.

Robustness (docs/robustness.md):

* every disk read/write runs under a jittered exponential-backoff
  :class:`~repro.serving.retry.Retrier`, so a flaky filesystem costs
  retries, not an outage;
* saved files carry a ``.sha256`` sidecar that is verified before
  loading — a truncated or bit-flipped index raises the typed
  :class:`~repro.errors.IndexCorrupted` instead of a cold ``numpy``
  error;
* :meth:`get` falls back automatically: a file that stays unreadable
  after retries (or fails validation) is quarantined to
  ``<name>.npz.corrupt`` and the index is re-prepared from the graph,
  degrading corruption to a slow start;
* every failure path counts in ``csrplus_registry_*`` metrics on the
  process-global :func:`repro.obs.get_registry` (or an injected one).

Sharded stores (docs/sharding.md): :meth:`get_sharded` resolves a
``<root>/<name>.shards/`` directory the same three-tier way, but with
*shard-grained* integrity: the manifest's own sha256 sidecar condemns
only the manifest, and each shard is verified against the per-shard
digests recorded inside it — a single corrupt shard is quarantined and
deterministically regenerated in place
(:func:`~repro.sharding.builder.rebuild_shards`, counted in
``csrplus_registry_shard_repairs_total``) while the other shards'
files are never rewritten.  Only an unusable manifest (or a rebuild
that fails to reproduce the recorded digests) condemns the whole
store.

Multi-process safety (docs/frontend.md): the in-process ``threading``
lock serialises threads, but the frontend runs *worker processes* that
may resolve the same name concurrently.  Disk-tier resolution
therefore also holds a per-name advisory
:class:`~repro.serving.locks.FileLock` (``<root>/<name>.lock``), so
when two processes race a corrupt store, exactly one quarantines and
rebuilds while the other blocks and then re-verifies the already
repaired bytes — never a double rebuild, never a quarantine of the
repairer's fresh output.
"""

from __future__ import annotations

import hashlib
import logging
import os
import random
import re
import threading
import time
from typing import Callable, Dict, List, Optional, Union

from repro.core.config import CSRPlusConfig
from repro.core.index import CSRPlusIndex
from repro.errors import (
    IndexCorrupted,
    InvalidParameterError,
    RetryableError,
    ShardCorrupted,
)
from repro.graphs.digraph import DiGraph
from repro.obs.metrics import MetricsRegistry
from repro.serving.locks import FileLock
from repro.serving.retry import Retrier, RetryPolicy
from repro.testing import faults

__all__ = ["IndexRegistry"]

logger = logging.getLogger("repro.serving")

_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")

#: Config fields a saved index records and a disk hit must match.
_SAVED_CONFIG_FIELDS = (
    "damping", "rank", "epsilon", "dtype", "solver", "dangling", "svd_seed",
)


def _config_mismatch(
    saved: CSRPlusConfig, config: Optional[CSRPlusConfig], overrides: dict
) -> str:
    """``field=saved (requested ...)`` for each requested field the
    saved config differs in, or ``""``.  A call without ``config``
    requests only its overrides."""
    requested = (config or CSRPlusConfig()).with_overrides(**overrides)
    fields = _SAVED_CONFIG_FIELDS if config is not None else overrides
    return ", ".join(
        f"{field}={getattr(saved, field)!r} (requested "
        f"{getattr(requested, field)!r})"
        for field in _SAVED_CONFIG_FIELDS
        if field in fields
        and getattr(saved, field) != getattr(requested, field)
    )


def _sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


class IndexRegistry:
    """Lazily build, save, and reload prepared indexes by name.

    Parameters
    ----------
    root:
        Directory holding one ``<name>.npz`` file per registered index
        (created if missing).
    retry_policy:
        Backoff schedule for disk I/O; defaults to
        :class:`~repro.serving.retry.RetryPolicy` (3 attempts,
        50 ms base, x2, 10 % jitter).
    sleep / rng:
        Injectable side effects for the retrier (tests pass fakes).
    metrics:
        Registry for the ``csrplus_registry_*`` counters; defaults to
        the process-global :func:`repro.obs.get_registry`.

    Examples
    --------
    >>> import tempfile
    >>> from repro.graphs import ring
    >>> registry = IndexRegistry(tempfile.mkdtemp())
    >>> index = registry.get("ring8-r4", ring(8), rank=4)   # built + saved
    >>> registry.names()
    ['ring8-r4']
    """

    def __init__(
        self,
        root: Union[str, "os.PathLike[str]"],
        *,
        retry_policy: Optional[RetryPolicy] = None,
        sleep: Callable[[float], None] = time.sleep,
        rng: Optional[random.Random] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.root = os.fspath(root)
        os.makedirs(self.root, exist_ok=True)
        self._lock = threading.RLock()
        self._file_locks: Dict[str, FileLock] = {}
        self._indexes: Dict[str, CSRPlusIndex] = {}
        self._sharded: Dict[str, object] = {}  # name -> ShardedIndex
        self._live: Dict[str, object] = {}  # name -> LiveIndexChain
        if metrics is None:
            import repro.obs as obs

            metrics = obs.get_registry()
        self._m_retries = metrics.counter(
            "csrplus_registry_retries_total",
            "Disk I/O retries performed by the index registry",
        )
        self._m_corrupt = metrics.counter(
            "csrplus_registry_corrupt_total",
            "Saved indexes that failed checksum or structural validation",
        )
        self._m_rebuilds = metrics.counter(
            "csrplus_registry_rebuilds_total",
            "Indexes re-prepared because their saved file was unusable",
        )
        self._m_shard_repairs = metrics.counter(
            "csrplus_registry_shard_repairs_total",
            "Single shards quarantined and regenerated inside a store",
        )
        self.retrier = Retrier(
            retry_policy if retry_policy is not None else RetryPolicy(),
            sleep=sleep,
            rng=rng,
            on_retry=self._count_retry,
        )

    def _process_lock(self, name: str) -> FileLock:
        """The cross-process lock serialising disk-tier work on ``name``.

        One sidecar ``<root>/<name>.lock`` per name (the file is never
        deleted — see :class:`~repro.serving.locks.FileLock`); memoised
        so re-entry from the same process nests instead of deadlocking.
        """
        with self._lock:
            lock = self._file_locks.get(name)
            if lock is None:
                lock = FileLock(os.path.join(self.root, f"{name}.lock"))
                self._file_locks[name] = lock
            return lock

    def _count_retry(
        self, attempt: int, delay: float, exc: BaseException
    ) -> None:
        self._m_retries.inc()
        logger.warning(
            "registry I/O failed (attempt %d, retrying in %.3fs): %s",
            attempt, delay, exc,
        )

    # ------------------------------------------------------------------
    # naming
    # ------------------------------------------------------------------
    def path_for(self, name: str) -> str:
        """The ``.npz`` path backing ``name`` (validates the name)."""
        if not _NAME_RE.match(name):
            raise InvalidParameterError(
                "index names must match [A-Za-z0-9][A-Za-z0-9._-]* "
                f"(got {name!r})"
            )
        return os.path.join(self.root, f"{name}.npz")

    def names(self) -> List[str]:
        """Registered names: in-memory plus on-disk, sorted."""
        with self._lock:
            known = set(self._indexes)
        for entry in os.listdir(self.root):
            if entry.endswith(".npz"):
                known.add(entry[: -len(".npz")])
        return sorted(known)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            if name in self._indexes:
                return True
        return os.path.exists(self.path_for(name))

    # ------------------------------------------------------------------
    # resolution
    # ------------------------------------------------------------------
    def get(
        self,
        name: str,
        graph: DiGraph,
        config: Optional[CSRPlusConfig] = None,
        **overrides,
    ) -> CSRPlusIndex:
        """A prepared index for ``name``, resolved memory -> disk -> build.

        On a disk hit the saved factors are checksum-verified and loaded
        against ``graph`` (node-count mismatches raise
        :class:`~repro.errors.InvalidParameterError`); a file saved with
        another damping, rank, epsilon, dtype, solver, dangling policy
        or SVD seed than requested is rebuilt and re-saved (with no
        ``config``, only the fields named in ``overrides`` are
        requested).  Transient read failures are retried with backoff;
        a file that is corrupt — or still unreadable after the retry
        budget — is quarantined and the index is rebuilt from ``graph``
        as if it had never been saved.
        On a full miss the index is built with ``config``/``overrides``
        and saved for future processes (a failed save is logged, not
        raised: the in-memory index still serves).  Thread-safe;
        concurrent callers of the same name build at most once.
        """
        path = self.path_for(name)
        with self._lock:
            index = self._indexes.get(name)
            if index is not None:
                return index
            # the file lock covers existence-check through rebuild-save:
            # a process racing a corrupt file blocks here, then loads
            # the bytes the winner already repaired
            with self._process_lock(name):
                if os.path.exists(path):
                    try:
                        index = self.retrier.call(
                            self._load_checked, path, graph
                        )
                        stale = _config_mismatch(
                            index.config, config, overrides
                        )
                        if stale:
                            self._m_rebuilds.inc()
                            logger.warning(
                                "index %r was saved with %s; rebuilding "
                                "for the requested config", path, stale,
                            )
                            index = None
                    except IndexCorrupted as exc:
                        self._m_corrupt.inc()
                        self._m_rebuilds.inc()
                        logger.warning(
                            "quarantining corrupt index %r and rebuilding: %s",
                            path, exc,
                        )
                        self._quarantine(path)
                        index = None
                    except OSError as exc:
                        # retry budget exhausted on a read error: fall back
                        # to a rebuild rather than taking the service down
                        self._m_rebuilds.inc()
                        logger.warning(
                            "index %r unreadable after retries, rebuilding: %s",
                            path, exc,
                        )
                        index = None
                if index is None:
                    index = CSRPlusIndex(graph, config, **overrides).prepare()
                    try:
                        self._save_checked(path, index)
                    except (OSError, RetryableError) as exc:
                        logger.warning(
                            "could not persist index %r (serving from memory "
                            "only): %s", path, exc,
                        )
            self._indexes[name] = index
            return index

    # ------------------------------------------------------------------
    # sharded stores (shard-grained integrity + repair)
    # ------------------------------------------------------------------
    def shard_store_path_for(self, name: str) -> str:
        """The ``.shards`` directory backing ``name`` (validates the name)."""
        if not _NAME_RE.match(name):
            raise InvalidParameterError(
                "index names must match [A-Za-z0-9][A-Za-z0-9._-]* "
                f"(got {name!r})"
            )
        return os.path.join(self.root, f"{name}.shards")

    def get_sharded(
        self,
        name: str,
        graph: DiGraph,
        config: Optional[CSRPlusConfig] = None,
        *,
        num_shards: int = 4,
        max_workers: Optional[int] = None,
        query_mode: Optional[str] = None,
        validate_reads: bool = False,
        **overrides,
    ):
        """A ready :class:`~repro.sharding.ShardedIndex` for ``name``.

        Resolution mirrors :meth:`get` — memory, then the on-disk
        ``<root>/<name>.shards/`` store, then an out-of-core build
        (:func:`~repro.sharding.builder.build_sharded_store`) — but the
        disk tier verifies *per shard*: every shard file is re-hashed
        against the manifest digests, and corrupt or missing shards are
        quarantined and deterministically regenerated **individually**
        (``csrplus_registry_shard_repairs_total``), leaving healthy
        shards' files untouched.  Only an unusable manifest, or a
        repair whose bytes no longer reproduce the manifest digests
        (the graph or config changed under the store), quarantines the
        whole directory and triggers a full rebuild
        (``csrplus_registry_rebuilds_total``).
        """
        from repro.sharding import ShardedIndex, ShardStore
        from repro.sharding.builder import build_sharded_store, rebuild_shards

        path = self.shard_store_path_for(name)
        with self._lock:
            sharded = self._sharded.get(name)
            if sharded is not None:
                return sharded
            store: Optional[ShardStore] = None
            # quarantine-and-rebuild must be single-writer across
            # *processes*: the loser of this file lock re-verifies the
            # winner's repaired shards instead of condemning them
            with self._process_lock(name):
                if os.path.exists(os.path.join(path, "manifest.json")):
                    faults.fire("registry.load", path=path)
                    try:
                        store = ShardStore(path)
                    except ShardCorrupted as exc:
                        self._m_corrupt.inc()
                        self._m_rebuilds.inc()
                        logger.warning(
                            "quarantining shard store %r (bad manifest) and "
                            "rebuilding: %s", path, exc,
                        )
                        self._quarantine_store(path)
                        store = None
                    if store is not None:
                        store = self._repair_shards(
                            store, graph, rebuild_shards
                        )
                if store is None:
                    store = build_sharded_store(
                        graph,
                        path,
                        num_shards=num_shards,
                        config=config,
                        overwrite=True,
                        **overrides,
                    )
            sharded = ShardedIndex(
                store,
                query_mode=query_mode,
                max_workers=max_workers,
                validate_reads=validate_reads,
            )
            self._sharded[name] = sharded
            return sharded

    def _repair_shards(self, store, graph: DiGraph, rebuild_shards):
        """Verify every shard; regenerate the bad ones in place.

        Returns the (possibly repaired) store, or ``None`` when repair
        is impossible and the whole store was quarantined.
        """
        bad = []
        for i in range(store.num_shards):
            try:
                store.verify_shard(i)
            except (ShardCorrupted, OSError) as exc:
                self._m_corrupt.inc()
                logger.warning(
                    "shard %d of store %r failed verification: %s",
                    i, store.path, exc,
                )
                bad.append(i)
        if not bad:
            return store
        for i in bad:
            store.quarantine_shard(i)
        try:
            repaired = self.retrier.call(
                rebuild_shards, graph, store.path, bad
            )
        except ShardCorrupted as exc:
            # determinism broken: the graph/config no longer produce the
            # recorded bytes — the store as a whole is stale
            self._m_rebuilds.inc()
            logger.warning(
                "shard repair of %r could not reproduce the manifest "
                "digests; quarantining the whole store: %s",
                store.path, exc,
            )
            self._quarantine_store(store.path)
            return None
        self._m_shard_repairs.inc(len(repaired))
        for i in bad:
            store.verify_shard(i)  # repaired bytes match the manifest
        logger.warning(
            "repaired %d corrupt shard(s) %s of store %r in place",
            len(bad), bad, store.path,
        )
        return store

    def _quarantine_store(self, path: str) -> None:
        """Move a whole bad store directory aside (best effort)."""
        target = path + ".corrupt"
        try:
            if os.path.isdir(target):
                import shutil

                shutil.rmtree(target, ignore_errors=True)
            os.replace(path, target)
        except OSError:  # pragma: no cover - quarantine is best-effort
            import shutil

            shutil.rmtree(path, ignore_errors=True)

    # ------------------------------------------------------------------
    # live chains (versioned zero-downtime updates, docs/dynamic.md)
    # ------------------------------------------------------------------
    def live_store_root_for(self, name: str) -> str:
        """The per-version store root backing a live ``name``."""
        if not _NAME_RE.match(name):
            raise InvalidParameterError(
                "index names must match [A-Za-z0-9][A-Za-z0-9._-]* "
                f"(got {name!r})"
            )
        return os.path.join(self.root, f"{name}.live")

    def get_live(
        self,
        name: str,
        graph: DiGraph,
        config: Optional[CSRPlusConfig] = None,
        *,
        num_shards: Optional[int] = None,
        dirty_threshold: float = 0.5,
        keep_versions: Optional[int] = None,
        max_workers: Optional[int] = None,
        query_mode: Optional[str] = None,
        **overrides,
    ):
        """A :class:`~repro.serving.live.LiveIndexChain` for ``name``.

        The chain owns an evolving copy of ``graph`` and a versioned
        backend: monolithic when ``num_shards`` is ``None``, else
        per-version shard stores under ``<root>/<name>.live/``
        (``v000000/``, ``v000001/``, ...) produced by targeted repair
        (:func:`~repro.sharding.builder.repair_sharded_store`).  Edge
        batches go through :meth:`~repro.serving.live.LiveIndexChain.
        update_edges`, which publishes each new version atomically to
        every attached service.  Memoised per name; thread-safe.
        """
        from repro.serving.live import DEFAULT_KEEP_VERSIONS, LiveIndexChain

        with self._lock:
            chain = self._live.get(name)
            if chain is not None:
                return chain
            chain = LiveIndexChain(
                graph,
                config,
                store_root=(
                    self.live_store_root_for(name)
                    if num_shards is not None
                    else None
                ),
                num_shards=num_shards,
                dirty_threshold=dirty_threshold,
                keep_versions=(
                    keep_versions
                    if keep_versions is not None
                    else DEFAULT_KEEP_VERSIONS
                ),
                max_workers=max_workers,
                query_mode=query_mode,
                **overrides,
            )
            self._live[name] = chain
            return chain

    def put(self, name: str, index: CSRPlusIndex) -> None:
        """Register an already-prepared index and persist it.

        Persistence failures are retried with backoff and, if the
        budget is exhausted, re-raised as
        :class:`~repro.errors.RetryableError` (the caller explicitly
        asked for durability, so a silent in-memory fallback would lie).
        """
        path = self.path_for(name)
        try:
            self._save_checked(path, index)  # save() enforces prepared-ness
        except OSError as exc:
            raise RetryableError(
                f"failed to persist index {name!r} to {path!r}: {exc}"
            ) from exc
        with self._lock:
            self._indexes[name] = index

    def evict(self, name: str, *, delete_file: bool = False) -> None:
        """Drop ``name`` from memory (and optionally from disk).

        Covers the monolithic ``.npz`` and any ``.shards`` store
        registered under the same name (a memory-tier
        :class:`~repro.sharding.ShardedIndex` is closed on eviction).
        """
        path = self.path_for(name)
        with self._lock:
            self._indexes.pop(name, None)
            sharded = self._sharded.pop(name, None)
            self._live.pop(name, None)
        if sharded is not None:
            sharded.close()
        if delete_file:
            for target in (path, path + ".sha256"):
                if os.path.exists(target):
                    os.remove(target)
            for directory in (
                self.shard_store_path_for(name),
                self.live_store_root_for(name),
            ):
                if os.path.isdir(directory):
                    import shutil

                    shutil.rmtree(directory, ignore_errors=True)

    # ------------------------------------------------------------------
    # hardened disk I/O
    # ------------------------------------------------------------------
    def _load_checked(self, path: str, graph: DiGraph) -> CSRPlusIndex:
        """One load attempt: fault seam, checksum, typed structural errors.

        Raises ``OSError`` for (retryable) I/O failures,
        :class:`~repro.errors.IndexCorrupted` for validation failures,
        and :class:`~repro.errors.InvalidParameterError` when the file
        is a healthy index for a *different* graph.
        """
        faults.fire("registry.load", path=path)
        digest_path = path + ".sha256"
        if os.path.exists(digest_path):
            with open(digest_path, encoding="utf-8") as handle:
                expected = handle.read().strip()
            actual = _sha256_file(path)
            if actual != expected:
                raise IndexCorrupted(
                    path,
                    f"sha256 mismatch (expected {expected[:12]}..., "
                    f"got {actual[:12]}...)",
                )
        try:
            return CSRPlusIndex.load(path, graph)
        except (InvalidParameterError, OSError):
            raise
        except Exception as exc:
            # numpy/zipfile raise a zoo of exception types for damaged
            # archives; collapse them all into the typed taxonomy
            raise IndexCorrupted(path, f"{type(exc).__name__}: {exc}") from exc

    def _save_checked(self, path: str, index: CSRPlusIndex) -> None:
        """Persist ``index`` plus its checksum sidecar, with retries."""

        def attempt() -> None:
            faults.fire("registry.save", path=path)
            index.save(path)
            with open(path + ".sha256", "w", encoding="utf-8") as handle:
                handle.write(_sha256_file(path) + "\n")

        self.retrier.call(attempt)

    def _quarantine(self, path: str) -> None:
        """Move a bad file aside (best effort) so the rebuild can save."""
        try:
            os.replace(path, path + ".corrupt")
        except OSError:  # pragma: no cover - quarantine is best-effort
            try:
                os.remove(path)
            except OSError:
                pass
        try:
            os.remove(path + ".sha256")
        except OSError:
            pass

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"IndexRegistry(root={self.root!r}, names={self.names()})"
