"""Thread-safe LRU caches for the serving layer.

Two units of caching live here:

* :class:`ColumnCache` — one full column ``[S]_{*,s}`` per seed, the
  unit behind ``serve_batch``.
* :class:`TopKCache` — one *ranking* per ``(seed, exclude_self)`` pair,
  the unit behind ``serve_topk``.  A ranking is strictly smaller than a
  column (``k`` entries instead of ``n``), and a stored top-``k'``
  answers any request with ``k <= k'`` for free: the prefix of a
  deterministically ordered top-``k'`` *is* the top-``k``
  (docs/topk.md).

For :class:`ColumnCache` the unit is one *column* of the CoSimRank block: the
length-``n`` vector ``[S]_{*,s}`` for a single seed ``s``.  Theorem 3.5
makes every column a pure function of its own seed, and
:meth:`repro.core.index.CSRPlusIndex.query_columns` evaluates columns
with a batch-independent, partition-stable kernel
(:func:`repro.core.index.exact_columns`) — together these
make caching *exact*: a column assembled from cache is bit-identical to
one computed fresh, whatever else is or was in the cache.

All mutation happens under one reentrant lock; the hit/miss/eviction
counters are incremented under the same lock, so ``hits + misses``
always equals the number of seed lookups ever performed (no lost
updates under concurrency).

Robustness (docs/robustness.md): :meth:`insert` validates every
column's shape and dtype against the cache's declared geometry, so a
buggy producer raises :class:`~repro.errors.InvalidParameterError`
instead of poisoning later reads.  With ``validate_checksums=True`` the
cache also fingerprints each column at insert and re-verifies on every
hit — a poisoned entry is evicted and reported as a miss (the service
then recomputes it), never returned.

Live-graph versioning (docs/dynamic.md): every entry carries an index
*version tag*.  ``lookup``/``insert`` accept the version a batch pinned
at entry — a hit requires a matching tag, and an insert from a batch
still finishing on an already-replaced index is silently dropped (a
stale producer must never poison the new version's cache).  On a
version swap, :meth:`ColumnCache.advance` invalidates *per seed*
rather than flushing wholesale: seeds whose own ``U`` row changed are
dropped, surviving columns have just their dirty ``Z`` row ranges
recomputed (the partition-stable exact kernel makes the patched column
bit-identical to a fresh compute), and untouched entries are simply
retagged — staying warm across the swap.  :meth:`TopKCache.advance`
retags on a clean swap and clears otherwise: a ranking is a *global*
ordering, so any changed row can displace cached entries and no local
patch can restore the prefix guarantee.
"""

from __future__ import annotations

import threading
import zlib
from collections import OrderedDict
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.topk import TopKResult
from repro.errors import InvalidParameterError
from repro.testing import faults

__all__ = ["ColumnCache", "TopKCache"]


def _fingerprint(column: np.ndarray) -> int:
    """A cheap integrity fingerprint of a column's exact bytes."""
    return zlib.crc32(np.ascontiguousarray(column).view(np.uint8).data)


#: ``(start, stop)`` node ranges whose ``Z``/``U`` rows changed in a swap.
DirtyRanges = Sequence[Tuple[int, int]]


def _normalize_ranges(dirty_ranges: DirtyRanges) -> List[Tuple[int, int]]:
    ranges = []
    for start, stop in dirty_ranges:
        start, stop = int(start), int(stop)
        if stop > start:
            ranges.append((start, stop))
    return ranges


def _in_ranges(row: int, ranges: List[Tuple[int, int]]) -> bool:
    return any(start <= row < stop for start, stop in ranges)


class ColumnCache:
    """LRU map ``seed id -> [S]_{*,seed}`` with byte accounting.

    Parameters
    ----------
    capacity:
        Maximum number of resident columns.  ``0`` disables caching
        entirely: every lookup misses and :meth:`insert` is a no-op,
        turning the serving layer into an exact pass-through.
    num_rows:
        Expected column length (the graph's node count).  When set,
        :meth:`insert` rejects wrong-shaped columns.
    dtype:
        Expected column dtype.  When set, :meth:`insert` rejects
        mismatches (an implicit cast would silently change bits).
    validate_checksums:
        Re-verify each column's fingerprint on every hit; corrupted
        entries are dropped and surfaced as misses (counted in
        ``integrity_failures``).  Off by default — it costs a CRC pass
        over ``n * itemsize`` bytes per hit.

    Examples
    --------
    >>> import numpy as np
    >>> cache = ColumnCache(capacity=2)
    >>> cache.insert({0: np.zeros(3), 1: np.ones(3)})   # evictions caused
    0
    >>> hits, misses = cache.lookup([0, 2])
    >>> sorted(hits), misses
    ([0], [2])
    """

    def __init__(
        self,
        capacity: int,
        *,
        num_rows: Optional[int] = None,
        dtype: Optional[np.dtype] = None,
        validate_checksums: bool = False,
    ):
        if capacity < 0:
            raise InvalidParameterError(
                f"cache capacity must be >= 0, got {capacity}"
            )
        if num_rows is not None and num_rows < 1:
            raise InvalidParameterError(
                f"num_rows must be >= 1 (or None), got {num_rows}"
            )
        self._capacity = int(capacity)
        self._num_rows = None if num_rows is None else int(num_rows)
        self._dtype = None if dtype is None else np.dtype(dtype)
        self._validate = bool(validate_checksums)
        self._lock = threading.RLock()
        self._columns: "OrderedDict[int, np.ndarray]" = OrderedDict()
        self._checksums: Dict[int, int] = {}
        self._tags: Dict[int, int] = {}
        self._version = 0
        self._bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.integrity_failures = 0

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def version(self) -> int:
        """The index version current entries are tagged for."""
        with self._lock:
            return self._version

    @property
    def bytes_cached(self) -> int:
        with self._lock:
            return self._bytes

    def __len__(self) -> int:
        with self._lock:
            return len(self._columns)

    def __contains__(self, seed: int) -> bool:
        with self._lock:
            return int(seed) in self._columns

    def keys_in_lru_order(self) -> List[int]:
        """Resident seeds, least-recently-used first (for tests)."""
        with self._lock:
            return list(self._columns.keys())

    def counters(self) -> Dict[str, int]:
        """A consistent snapshot of all counters and occupancy."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "integrity_failures": self.integrity_failures,
                "cached_columns": len(self._columns),
                "bytes_cached": self._bytes,
            }

    # ------------------------------------------------------------------
    # the two operations the service uses
    # ------------------------------------------------------------------
    def lookup(
        self, seeds: Iterable[int], version: Optional[int] = None
    ) -> Tuple[Dict[int, np.ndarray], List[int]]:
        """Probe the cache for each seed in one atomic critical section.

        Returns ``(hits, misses)`` where ``hits`` maps seed -> cached
        column (read-only array) and ``misses`` lists the seeds the
        caller must compute, in input order.  Every probed seed
        increments exactly one of the hit/miss counters; a hit whose
        checksum no longer matches (``validate_checksums=True``) is
        evicted and counted as a miss plus an integrity failure.

        ``version`` is the index version the caller pinned at batch
        entry (``None`` means the cache's current version).  An entry
        only hits when its tag matches — a batch still running on an
        already-swapped-out index misses and recomputes against its own
        pinned index, so every answer is exact *for its version*.
        """
        hit_columns: Dict[int, np.ndarray] = {}
        missing: List[int] = []
        with self._lock:
            wanted = self._version if version is None else int(version)
            for seed in seeds:
                seed = int(seed)
                column = self._columns.get(seed)
                if column is not None and self._tags.get(seed, 0) != wanted:
                    # resident, but for a different index version — not
                    # an answer for this batch (and not evicted either:
                    # current-version batches can still use it)
                    column = None
                if column is not None:
                    # chaos seam: a FaultPlan may hand back a corrupted
                    # view of the stored column here
                    column = faults.transform("cache.read", column, seed=seed)
                    if self._validate and _fingerprint(column) != \
                            self._checksums.get(seed):
                        self._drop(seed)
                        self.integrity_failures += 1
                        column = None
                if column is None:
                    self.misses += 1
                    missing.append(seed)
                else:
                    self.hits += 1
                    self._columns.move_to_end(seed)
                    hit_columns[seed] = column
        return hit_columns, missing

    def insert(
        self, columns: Dict[int, np.ndarray], version: Optional[int] = None
    ) -> int:
        """Store freshly computed columns, evicting LRU entries as needed.

        ``version`` tags the entries with the index version they were
        computed against (``None`` = the cache's current version).  An
        insert carrying a version older than the cache's current one is
        silently dropped: a batch that pinned the old index before a
        swap must not overwrite entries that already reflect the new
        version.

        Every column is validated first — 1-D, the declared length, the
        declared dtype — and the whole insertion is rejected with
        :class:`~repro.errors.InvalidParameterError` on any mismatch
        (never partially applied), so a buggy producer cannot poison
        the cache with a block that would later crash or silently
        mis-assemble a response.

        Stored arrays are marked read-only so no caller can corrupt a
        shared column in place.  Re-inserting a resident seed replaces
        its column without double-charging the byte count (two threads
        may race to compute the same miss; both insertions are valid
        because the column is a deterministic function of the seed).

        Returns the number of columns evicted by this insertion, so the
        caller can feed eviction metrics without re-reading counters.
        """
        if self._capacity == 0 or not columns:
            return 0
        validated: Dict[int, np.ndarray] = {}
        for seed, column in columns.items():
            validated[int(seed)] = self._check_column(int(seed), column)
        evicted_count = 0
        with self._lock:
            tag = self._version if version is None else int(version)
            if tag != self._version:
                # stale producer (pinned a replaced index): never poison
                # the current version's entries
                return 0
            for seed, column in validated.items():
                column.flags.writeable = False
                previous = self._columns.pop(seed, None)
                if previous is not None:
                    self._bytes -= previous.nbytes
                self._columns[seed] = column
                self._tags[seed] = tag
                self._bytes += column.nbytes
                if self._validate:
                    self._checksums[seed] = _fingerprint(column)
            while len(self._columns) > self._capacity:
                evicted_seed, evicted = self._columns.popitem(last=False)
                self._checksums.pop(evicted_seed, None)
                self._tags.pop(evicted_seed, None)
                self._bytes -= evicted.nbytes
                self.evictions += 1
                evicted_count += 1
        return evicted_count

    def advance(
        self,
        version: int,
        dirty_ranges: DirtyRanges,
        recompute_rows: Optional[Callable[[int, int, int], np.ndarray]] = None,
    ) -> Dict[str, int]:
        """Publish a new index version with per-seed invalidation.

        ``dirty_ranges`` lists the ``[start, stop)`` node ranges whose
        ``Z``/``U`` rows changed between the old and new index (e.g.
        repaired shard ranges).  Per entry:

        * the seed itself falls in a dirty range — **dropped** (its
          ``U`` row may have changed, so the whole column is suspect);
        * otherwise, dirty ranges exist — the column's rows inside each
          dirty range are **patched** via ``recompute_rows(seed, start,
          stop)`` (which must return the final served values for those
          rows, identity term included).  By Theorem 3.5 row
          independence the patched column is bit-identical to a fresh
          exact compute against the new index.  Without a
          ``recompute_rows`` callback such entries are dropped instead;
        * no dirty ranges at all — the entry is **retained** untouched
          (exact pre-swap bytes) and merely retagged.

        A ``recompute_rows`` failure drops that entry rather than
        failing the publish.  Returns ``{"dropped", "patched",
        "retained"}`` counts.
        """
        ranges = _normalize_ranges(dirty_ranges)
        dropped = patched = retained = 0
        with self._lock:
            if int(version) <= self._version:
                raise InvalidParameterError(
                    f"cache version must advance monotonically: "
                    f"got {version}, current {self._version}"
                )
            for seed in list(self._columns.keys()):
                if self._tags.get(seed, 0) != self._version:
                    # an entry from an even older version (should not
                    # happen — advance retags survivors — but never
                    # carry unknown bytes forward)
                    self._drop(seed)
                    dropped += 1
                elif _in_ranges(seed, ranges):
                    self._drop(seed)
                    dropped += 1
                elif ranges:
                    if recompute_rows is None:
                        self._drop(seed)
                        dropped += 1
                        continue
                    column = self._columns[seed].copy()
                    try:
                        for start, stop in ranges:
                            column[start:stop] = recompute_rows(
                                seed, start, stop
                            )
                    except Exception:
                        self._drop(seed)
                        dropped += 1
                        continue
                    column.flags.writeable = False
                    self._columns[seed] = column
                    self._tags[seed] = int(version)
                    if self._validate:
                        self._checksums[seed] = _fingerprint(column)
                    patched += 1
                else:
                    self._tags[seed] = int(version)
                    retained += 1
            self._version = int(version)
        return {"dropped": dropped, "patched": patched, "retained": retained}

    def clear(self) -> None:
        """Drop every resident column (counters are preserved)."""
        with self._lock:
            self._columns.clear()
            self._checksums.clear()
            self._tags.clear()
            self._bytes = 0

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _check_column(self, seed: int, column: np.ndarray) -> np.ndarray:
        column = np.asarray(column)
        if column.ndim != 1:
            raise InvalidParameterError(
                f"cached column for seed {seed} must be 1-D, "
                f"got shape {column.shape}"
            )
        if self._num_rows is not None and column.shape[0] != self._num_rows:
            raise InvalidParameterError(
                f"cached column for seed {seed} has {column.shape[0]} rows, "
                f"expected {self._num_rows}"
            )
        if self._dtype is not None and column.dtype != self._dtype:
            raise InvalidParameterError(
                f"cached column for seed {seed} has dtype {column.dtype}, "
                f"expected {self._dtype}"
            )
        return column

    def _drop(self, seed: int) -> None:
        """Remove one entry (lock held by caller)."""
        column = self._columns.pop(seed, None)
        self._checksums.pop(seed, None)
        self._tags.pop(seed, None)
        if column is not None:
            self._bytes -= column.nbytes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        with self._lock:
            return (
                f"ColumnCache(capacity={self._capacity}, "
                f"columns={len(self._columns)}, bytes={self._bytes})"
            )


class TopKCache:
    """LRU map ``(seed, exclude_self) -> (k', TopKResult)``.

    The prefix property does the heavy lifting: results are stored in
    the engine's deterministic order (descending score, ties by
    ascending id), so a resident top-``k'`` ranking answers any request
    with ``k <= k'`` by slicing its first ``k`` entries — no
    recomputation, no approximation.  A ranking that already contains
    *every* candidate (``k'`` exceeded the candidate count) answers any
    ``k`` at all.  Requests deeper than the resident entry miss, and
    the fresh, deeper result replaces the shallower one.

    Mutation mirrors :class:`ColumnCache`: one reentrant lock guards
    the map and the hit/miss/eviction counters, stored arrays are
    marked read-only, and ``capacity=0`` disables caching outright.
    """

    def __init__(self, capacity: int):
        if capacity < 0:
            raise InvalidParameterError(
                f"cache capacity must be >= 0, got {capacity}"
            )
        self._capacity = int(capacity)
        self._lock = threading.RLock()
        self._entries: "OrderedDict[Tuple[int, bool], Tuple[int, TopKResult]]" = (
            OrderedDict()
        )
        self._tags: Dict[Tuple[int, bool], int] = {}
        self._version = 0
        self._bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def version(self) -> int:
        """The index version current entries are tagged for."""
        with self._lock:
            return self._version

    @property
    def bytes_cached(self) -> int:
        with self._lock:
            return self._bytes

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def counters(self) -> Dict[str, int]:
        """A consistent snapshot of all counters and occupancy."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "cached_entries": len(self._entries),
                "bytes_cached": self._bytes,
            }

    # ------------------------------------------------------------------
    @staticmethod
    def _nbytes(result: TopKResult) -> int:
        return int(result.nodes.nbytes) + int(result.scores.nbytes)

    @staticmethod
    def _answers(stored_k: int, result: TopKResult, k: int) -> bool:
        # k <= k': slice the prefix.  nodes.size < k': the ranking ran
        # out of candidates before k', i.e. it is complete — any depth
        # is answerable.
        return k <= stored_k or result.nodes.size < stored_k

    @staticmethod
    def _slice(result: TopKResult, k: int) -> TopKResult:
        if result.nodes.size <= k:
            return result
        return TopKResult(
            nodes=result.nodes[:k],
            scores=result.scores[:k],
            candidates_scored=result.candidates_scored,
            blocks_scanned=result.blocks_scanned,
            blocks_skipped=result.blocks_skipped,
        )

    def lookup(
        self,
        seeds: Iterable[int],
        k: int,
        exclude_self: bool,
        version: Optional[int] = None,
    ) -> Tuple[Dict[int, TopKResult], List[int]]:
        """Probe for each seed's ranking at depth ``k`` atomically.

        Returns ``(hits, misses)``: ``hits`` maps seed -> a
        :class:`~repro.core.topk.TopKResult` sliced to depth ``k``
        (scan counters kept from the original computation), ``misses``
        lists seeds needing a fresh scan, in input order.  An entry
        that is resident but too shallow for ``k`` counts as a miss —
        as does one tagged for a different index version than the
        caller pinned (``version=None`` means the current one).
        """
        hit_results: Dict[int, TopKResult] = {}
        missing: List[int] = []
        with self._lock:
            wanted = self._version if version is None else int(version)
            for seed in seeds:
                seed = int(seed)
                key = (seed, bool(exclude_self))
                entry = self._entries.get(key)
                if (
                    entry is not None
                    and self._tags.get(key, 0) == wanted
                    and self._answers(entry[0], entry[1], k)
                ):
                    self.hits += 1
                    self._entries.move_to_end(key)
                    hit_results[seed] = self._slice(entry[1], k)
                else:
                    self.misses += 1
                    missing.append(seed)
        return hit_results, missing

    def insert(
        self,
        results: Dict[int, TopKResult],
        k: int,
        exclude_self: bool,
        version: Optional[int] = None,
    ) -> int:
        """Store fresh depth-``k`` rankings, evicting LRU entries.

        A resident entry is replaced only when the incoming one is at
        least as deep (a shallower insert would *lose* answerable
        depths).  An insert tagged with a version older than the
        cache's current one is silently dropped (stale producer, as for
        :meth:`ColumnCache.insert`).  Returns the number of evictions
        caused.
        """
        if self._capacity == 0 or not results:
            return 0
        evicted_count = 0
        with self._lock:
            tag = self._version if version is None else int(version)
            if tag != self._version:
                return 0
            for seed, result in results.items():
                key = (int(seed), bool(exclude_self))
                previous = self._entries.get(key)
                if previous is not None and previous[0] > k:
                    self._entries.move_to_end(key)
                    continue
                result.nodes.flags.writeable = False
                result.scores.flags.writeable = False
                if previous is not None:
                    self._bytes -= self._nbytes(previous[1])
                    del self._entries[key]
                self._entries[key] = (int(k), result)
                self._tags[key] = tag
                self._bytes += self._nbytes(result)
            while len(self._entries) > self._capacity:
                evicted_key, (_, evicted) = self._entries.popitem(last=False)
                self._tags.pop(evicted_key, None)
                self._bytes -= self._nbytes(evicted)
                self.evictions += 1
                evicted_count += 1
        return evicted_count

    def advance(self, version: int, dirty_ranges: DirtyRanges) -> Dict[str, int]:
        """Publish a new index version over the ranking cache.

        A clean swap (no dirty ranges — e.g. a byte-no-op update batch)
        retags every entry: the rankings' bytes are provably unchanged.
        Any dirty range clears the cache instead: a ranking is a global
        ordering over *all* candidates, so a changed row anywhere can
        displace entries and no per-range patch can restore the prefix
        guarantee.  Returns ``{"dropped", "retained"}`` counts.
        """
        ranges = _normalize_ranges(dirty_ranges)
        with self._lock:
            if int(version) <= self._version:
                raise InvalidParameterError(
                    f"cache version must advance monotonically: "
                    f"got {version}, current {self._version}"
                )
            if ranges:
                dropped = len(self._entries)
                retained = 0
                self._entries.clear()
                self._tags.clear()
                self._bytes = 0
            else:
                dropped = 0
                retained = len(self._entries)
                for key in self._entries:
                    self._tags[key] = int(version)
            self._version = int(version)
        return {"dropped": dropped, "retained": retained}

    def clear(self) -> None:
        """Drop every resident ranking (counters are preserved)."""
        with self._lock:
            self._entries.clear()
            self._tags.clear()
            self._bytes = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        with self._lock:
            return (
                f"TopKCache(capacity={self._capacity}, "
                f"entries={len(self._entries)}, bytes={self._bytes})"
            )
