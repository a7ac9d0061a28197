"""Worker processes and the pool that owns them (docs/frontend.md).

Each worker is a separate Python process that opens the sharded store
*read-only via mmap* (``ShardedIndex(store, mmap=True)``), so every
worker maps the same ``.npy`` shard files and the kernel keeps exactly
one physical copy of ``Z``/``U`` in page cache however many workers
run.  Workers execute the unchanged exact/batched/top-k kernels —
:meth:`~repro.sharding.ShardedIndex.query_columns` and
:func:`~repro.core.topk.top_k_blockwise` — so a column computed in a
worker is bit-identical to one computed in process (Theorem 3.5 plus
the sharding PR's byte-identity contract).

The dispatcher talks to workers over one duplex pipe per worker with a
strict request/response discipline (at most one outstanding task per
worker), which keeps the protocol trivially free of interleaving bugs:
a worker is either idle in ``free`` or owned by exactly one submitting
thread.  A broken pipe mid-task means the worker died; the pool
respawns it before surfacing :class:`~repro.errors.WorkerCrashed`, so
the service's per-seed isolation retries land on a healthy process.

A store directory may carry the degraded tier's rank-truncated replica
at ``<store>/replica`` (:data:`~repro.sharding.store.REPLICA_DIR`,
docs/approx.md).  Workers open it as one more ``ShardedIndex``: the
``columns``/``topk``/``describe`` ops carry a *tier* key (``"exact"`` or
``"approx"``) naming which store of a version they run against.

Control messages ride the same pipe between tasks: ``publish`` swaps
in a new store version for zero-downtime live updates, ``metrics``
snapshots the worker's private :class:`~repro.obs.MetricsRegistry`
for the merged ``/metrics`` scrape, and ``faults`` arms the
:mod:`repro.testing.faults` seams *inside* the worker so the chaos
suites can exercise shard-read failures across the process boundary.
"""

from __future__ import annotations

import logging
import multiprocessing
import multiprocessing.util
import os
import queue
import signal
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import InvalidParameterError, WorkerCrashed
from repro.serving.frontend.protocol import error_to_wire

logger = logging.getLogger("repro.serving.frontend")

__all__ = ["WorkerPool", "worker_main"]

#: Store versions a worker keeps open besides the newest one: pinned
#: batches may still be finishing on the previous version when a
#: publish lands, so the immediately preceding store must stay usable.
KEEP_VERSIONS = 2

#: How often an idle worker checks that its parent is still alive.
#: EOF alone cannot tell it: under fork, a worker inherits the pool's
#: end of its own pipe (and later-forked siblings inherit it too), so a
#: killed parent leaves the pipe open.
PARENT_CHECK_S = 1.0


def _pick_context() -> multiprocessing.context.BaseContext:
    """Fork when the platform has it (fast, shares the warm import
    state copy-on-write); spawn otherwise."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


# ----------------------------------------------------------------------
# worker process
# ----------------------------------------------------------------------
class _WorkerState:
    """Everything a worker process keeps between tasks."""

    def __init__(
        self,
        worker_id: int,
        store_path: str,
        *,
        query_mode: Optional[str],
        validate_reads: bool,
        replica_path: Optional[str],
    ):
        from repro.obs import MetricsRegistry

        self.worker_id = worker_id
        self.query_mode = query_mode
        self.validate_reads = validate_reads
        self.metrics = MetricsRegistry()
        self.indexes: Dict[Tuple[int, str], Any] = {}
        self.versions: Dict[int, Dict[str, str]] = {
            0: _tier_paths(store_path, replica_path)
        }
        self.armed_plans: List[Any] = []
        labels = {"worker": str(worker_id)}
        self.m_tasks = self.metrics.counter(
            "csrplus_worker_tasks_total",
            "Tasks executed by a frontend worker process",
            labels=labels,
        )
        self.m_columns = self.metrics.counter(
            "csrplus_worker_columns_total",
            "Similarity columns computed by a frontend worker process",
            labels=labels,
        )
        self.m_task_seconds = self.metrics.histogram(
            "csrplus_worker_task_seconds",
            "Wall time per frontend worker task",
            labels=labels,
        )
        self.m_versions = self.metrics.gauge(
            "csrplus_worker_store_versions",
            "Store versions a frontend worker currently keeps open",
            labels=labels,
        )
        self.m_versions.set(1)

    def index_for(self, version: int, tier: str = "exact"):
        index = self.indexes.get((version, tier))
        if index is None:
            from repro.sharding import ShardedIndex

            try:
                store_path = self.versions[version][tier]
            except KeyError:
                raise InvalidParameterError(
                    f"worker {self.worker_id} has no {tier} store for "
                    f"version {version} (published: {sorted(self.versions)})"
                )
            index = ShardedIndex(
                store_path,
                query_mode=self.query_mode,
                max_workers=1,  # parallelism comes from processes
                mmap=True,
                validate_reads=self.validate_reads,
                metrics=self.metrics,
            )
            self.indexes[(version, tier)] = index
        return index

    def describe(self, tier: str) -> Dict[str, Any]:
        from repro.linalg.blas import blas_threads

        version = max(self.versions)
        index = self.index_for(version, tier)
        return {
            "num_nodes": int(index.num_nodes),
            "dtype": str(np.dtype(index.dtype)),
            "config": {
                "damping": float(index.config.damping),
                "rank": int(index.config.rank),
                "epsilon": float(index.config.epsilon),
                "query_mode": index.config.query_mode,
            },
            "num_shards": int(index.store.num_shards),
            "versions": sorted(self.versions),
            "pid": os.getpid(),
            "has_approx": "approx" in self.versions[version],
            "approx_atol": index.approx_atol,
            "blas_threads": blas_threads(),
        }

    def publish(
        self, version: int, store_path: str, replica_path: Optional[str]
    ) -> None:
        self.versions[version] = _tier_paths(store_path, replica_path)
        # retire everything older than the KEEP_VERSIONS newest stores
        for old in sorted(self.versions)[:-KEEP_VERSIONS]:
            for tier in self.versions.pop(old):
                retired = self.indexes.pop((old, tier), None)
                if retired is not None:
                    retired.close()
        self.m_versions.set(len(self.versions))

    def arm_faults(self, rules: List[Dict[str, Any]]) -> None:
        from repro.testing.faults import FaultPlan

        plan = FaultPlan()
        for rule in rules:
            kind = rule.get("kind", "fail")
            site = rule["site"]
            times = rule.get("times", 1)
            if kind == "fail":
                exc_name = rule.get("exc", "OSError")
                message = rule.get(
                    "message", f"injected worker fault at {site}"
                )
                exc_cls = {"OSError": OSError, "RuntimeError": RuntimeError}[
                    exc_name
                ]
                plan.fail(site, times=times, exc=lambda c=exc_cls, m=message: c(m))
            elif kind == "delay":
                plan.delay(site, seconds=float(rule["seconds"]), times=times)
            else:
                raise InvalidParameterError(
                    f"unknown fault kind {kind!r} (use fail or delay)"
                )
        plan.__enter__()
        self.armed_plans.append(plan)

    def clear_faults(self) -> None:
        while self.armed_plans:
            self.armed_plans.pop().__exit__(None, None, None)


def _tier_paths(store_path: str, replica_path: Optional[str]) -> Dict[str, str]:
    """One version's stores by tier (a version without a replica has
    no ``"approx"`` entry)."""
    paths = {"exact": store_path}
    if replica_path is not None:
        paths["approx"] = replica_path
    return paths


def worker_main(
    conn,
    worker_id: int,
    store_path: str,
    query_mode: Optional[str] = None,
    validate_reads: bool = False,
    replica_path: Optional[str] = None,
    num_workers: int = 1,
    parent_pid: Optional[int] = None,
) -> None:
    """Entry point of one worker process: serve tasks until shutdown.

    The parent coordinates graceful drain by finishing in-flight tasks
    before sending ``shutdown``, so the worker ignores SIGTERM/SIGINT
    itself — a signal delivered to the whole process group must not
    kill a worker mid-column while the parent is still draining.  It
    exits on EOF, or when its parent is no longer ``parent_pid`` (the
    pool's pid, passed in because the parent may die before the worker
    starts; default: the parent at start), checked every
    :data:`PARENT_CHECK_S` while idle.

    The worker runs every loaded OpenBLAS at ``available_cpus() //
    num_workers`` threads (at least one) for its lifetime, so the
    pool's processes x BLAS threads never exceed the cores: an
    OpenBLAS thread spins on its core for ~0.1 s after each call, and
    one spinning in every worker would starve its siblings.
    """
    parent = os.getppid() if parent_pid is None else parent_pid
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    from repro.core.kernel import available_cpus
    from repro.linalg.blas import set_blas_threads

    set_blas_threads(max(1, available_cpus() // num_workers))
    state = _WorkerState(
        worker_id,
        store_path,
        query_mode=query_mode,
        validate_reads=validate_reads,
        replica_path=replica_path,
    )
    from repro.core.topk import top_k_blockwise

    while True:
        try:
            while not conn.poll(PARENT_CHECK_S):
                if os.getppid() != parent:
                    raise EOFError
            message = conn.recv()
        except (EOFError, OSError):  # parent died: exit quietly
            break
        op = message[0]
        if op == "shutdown":
            break
        if op == "crash":  # test hook: die exactly like a real crash
            os._exit(13)
        started = time.perf_counter()
        try:
            if op == "columns":
                _, version, seeds, mode, tier = message
                block = state.index_for(version, tier).query_columns(
                    seeds, mode=mode
                )
                state.m_columns.inc(len(seeds))
                reply = ("ok", block)
            elif op == "topk":
                _, version, seeds, k, exclude_self, mode, tier = message
                reply = (
                    "ok",
                    top_k_blockwise(
                        state.index_for(version, tier),
                        seeds,
                        k,
                        exclude_self=exclude_self,
                        mode=mode,
                    ),
                )
            elif op == "describe":
                reply = ("ok", state.describe(message[1]))
            elif op == "publish":
                _, version, new_store_path, new_replica_path = message
                state.publish(version, new_store_path, new_replica_path)
                reply = ("ok", sorted(state.versions))
            elif op == "metrics":
                reply = ("ok", state.metrics.as_dict())
            elif op == "faults":
                state.arm_faults(message[1])
                reply = ("ok", None)
            elif op == "faults_clear":
                state.clear_faults()
                reply = ("ok", None)
            elif op == "ping":
                reply = ("ok", "pong")
            else:
                raise InvalidParameterError(f"unknown worker op {op!r}")
        except Exception as exc:  # typed on the other side
            reply = ("error", error_to_wire(exc))
        state.m_tasks.inc()
        state.m_task_seconds.observe(time.perf_counter() - started)
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):  # parent died mid-task
            break
    conn.close()


# ----------------------------------------------------------------------
# the pool
# ----------------------------------------------------------------------
class _WorkerHandle:
    __slots__ = ("process", "conn", "worker_id")

    def __init__(self, process, conn, worker_id: int):
        self.process = process
        self.conn = conn
        self.worker_id = worker_id


def _stop_workers(workers: Dict[int, _WorkerHandle], timeout_s: float) -> None:
    """Send every worker ``shutdown``, join it, and close its pipe.

    Stragglers past the timeout are killed: workers ignore SIGTERM,
    and they hold no state worth saving."""
    deadline = time.monotonic() + timeout_s
    for handle in list(workers.values()):
        try:
            handle.conn.send(("shutdown",))
        except (BrokenPipeError, OSError):
            pass
        handle.process.join(timeout=max(0.1, deadline - time.monotonic()))
        if handle.process.is_alive():  # pragma: no cover - stuck worker
            handle.process.kill()
            handle.process.join(timeout=1.0)
        try:
            handle.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass


class WorkerPool:
    """A fixed-size pool of shard-serving worker processes.

    Thread-safe: any number of dispatcher threads may call
    :meth:`submit` concurrently; each blocks until a worker is free,
    sends exactly one task, and returns the worker on completion.

    Parameters
    ----------
    store_path:
        The ``.shards`` directory every worker opens read-only (mmap);
        its ``replica/`` store, when present, backs the degraded tier.
    num_workers:
        Worker process count — the unit the ``>= 2x at 4 workers``
        benchmark contract scales over.
    query_mode:
        Forwarded to each worker's :class:`~repro.sharding.ShardedIndex`.
    mp_context:
        A ``multiprocessing`` context; defaults to fork where
        available (workers inherit the warm import state) else spawn.
    """

    def __init__(
        self,
        store_path: str,
        num_workers: int = 4,
        *,
        query_mode: Optional[str] = None,
        validate_reads: bool = False,
        mp_context=None,
    ):
        if num_workers < 1:
            raise InvalidParameterError(
                f"num_workers must be >= 1, got {num_workers}"
            )
        from repro.sharding.store import replica_store_path

        self.store_path = os.fspath(store_path)
        self.num_workers = int(num_workers)
        self.query_mode = query_mode
        self.validate_reads = validate_reads
        #: version 0's replica store (``None``: no degraded tier) and the
        #: newest published one
        self._base_replica_path = replica_store_path(self.store_path)
        self._replica_path = self._base_replica_path
        self._ctx = mp_context if mp_context is not None else _pick_context()
        self._lock = threading.Lock()
        self._free: "queue.Queue[int]" = queue.Queue()
        self._workers: Dict[int, _WorkerHandle] = {}
        self._published: List[Tuple[int, str, Optional[str]]] = []
        self._last_metrics: Dict[int, Dict[str, Any]] = {}
        self._respawns = 0
        self._closed = False
        # A pool still open at interpreter exit (or dropped unclosed)
        # stops its workers here.  multiprocessing's own exit handler
        # would SIGTERM and join them, but workers ignore SIGTERM, so
        # that join never returns; exit priority 0 runs this first.
        self._finalizer = multiprocessing.util.Finalize(
            self, _stop_workers, args=(self._workers, 10.0), exitpriority=0
        )
        for worker_id in range(self.num_workers):
            self._workers[worker_id] = self._spawn(worker_id)
            self._free.put(worker_id)

    # -- lifecycle -----------------------------------------------------
    def _spawn(self, worker_id: int) -> _WorkerHandle:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=worker_main,
            args=(
                child_conn,
                worker_id,
                self.store_path,
                self.query_mode,
                self.validate_reads,
                self._base_replica_path,
                self.num_workers,
                os.getpid(),
            ),
            daemon=True,
            name=f"csrplus-worker-{worker_id}",
        )
        process.start()
        child_conn.close()
        handle = _WorkerHandle(process, parent_conn, worker_id)
        # replay published versions so a respawned worker can serve
        # every version its siblings can
        for version, store_path, replica_path in self._published:
            parent_conn.send(("publish", version, store_path, replica_path))
            status, payload = parent_conn.recv()
            if status != "ok":  # pragma: no cover - deterministic replay
                raise InvalidParameterError(
                    f"version replay failed on worker {worker_id}: {payload}"
                )
        return handle

    def _respawn(self, worker_id: int) -> None:
        with self._lock:
            old = self._workers.get(worker_id)
            if old is not None:
                try:
                    old.conn.close()
                except OSError:  # pragma: no cover - already gone
                    pass
                if old.process.is_alive():  # pragma: no cover - racy crash
                    old.process.terminate()
                old.process.join(timeout=5.0)
            self._workers[worker_id] = self._spawn(worker_id)
            self._respawns += 1

    @property
    def respawns(self) -> int:
        return self._respawns

    def worker_pids(self) -> List[int]:
        with self._lock:
            return [
                handle.process.pid
                for handle in self._workers.values()
                if handle.process.pid is not None
            ]

    def alive_workers(self) -> int:
        with self._lock:
            return sum(
                1 for handle in self._workers.values() if handle.process.is_alive()
            )

    def close(self, timeout_s: float = 10.0) -> None:
        """Drain-and-stop: wait for in-flight tasks, then shut workers down.

        Acquires every worker from the free queue (so no task is
        interrupted), sends ``shutdown``, and joins.  Stragglers past
        the timeout are killed — they hold no state worth saving.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        deadline = time.monotonic() + timeout_s
        for _ in range(self.num_workers):
            remaining = max(0.0, deadline - time.monotonic())
            try:
                self._free.get(timeout=remaining or 0.01)
            except queue.Empty:  # pragma: no cover - stuck worker
                break
        self._finalizer.cancel()
        _stop_workers(self._workers, max(0.0, deadline - time.monotonic()))

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- task submission -----------------------------------------------
    def _call(self, worker_id: int, message: tuple):
        handle = self._workers[worker_id]
        try:
            handle.conn.send(message)
            status, payload = handle.conn.recv()
        except (EOFError, BrokenPipeError, ConnectionResetError, OSError) as exc:
            reason = str(exc) or type(exc).__name__
            exit_code = handle.process.exitcode
            if exit_code is not None:
                reason = f"exit code {exit_code}"
            logger.warning(
                "worker %d crashed mid-task (%s); respawning", worker_id, reason
            )
            self._respawn(worker_id)
            raise WorkerCrashed(worker_id, reason) from exc
        if status == "error":
            from repro.serving.frontend.protocol import error_from_wire

            raise error_from_wire(payload)
        return payload

    def submit(self, op: str, *payload):
        """Run one task on the next free worker (blocking)."""
        if self._closed:
            raise InvalidParameterError("WorkerPool is closed")
        worker_id = self._free.get()
        try:
            return self._call(worker_id, (op,) + payload)
        finally:
            self._free.put(worker_id)

    # -- typed helpers -------------------------------------------------
    # ``tier`` picks the version's exact store or its replica
    def columns(
        self, version: int, seeds, mode: Optional[str] = None, tier: str = "exact"
    ):
        seeds = [int(seed) for seed in seeds]
        return self.submit("columns", version, seeds, mode, tier)

    def topk(
        self,
        version: int,
        seeds,
        k: int,
        exclude_self: bool,
        mode: Optional[str] = None,
        tier: str = "exact",
    ):
        seeds = [int(seed) for seed in seeds]
        return self.submit(
            "topk", version, seeds, int(k), bool(exclude_self), mode, tier
        )

    def describe(self, tier: str = "exact") -> Dict[str, Any]:
        """Shape, config and ``approx_atol`` of the newest version's
        ``tier`` store, plus ``has_approx`` (the version has a replica)
        and the answering worker's ``blas_threads``."""
        return self.submit("describe", tier)

    # -- broadcast control ---------------------------------------------
    def _broadcast(self, message: tuple) -> Dict[int, Any]:
        """Send a control message to every worker, one at a time.

        Acquires each worker from the free queue so the message never
        interleaves with a task; busy workers are waited for (control
        traffic is rare and short).
        """
        results: Dict[int, Any] = {}
        acquired: List[int] = []
        try:
            for _ in range(self.num_workers):
                acquired.append(self._free.get())
            for worker_id in sorted(acquired):
                try:
                    results[worker_id] = self._call(worker_id, message)
                except WorkerCrashed:
                    # respawned by _call with versions replayed; a
                    # publish/faults broadcast continues with the rest
                    results[worker_id] = None
        finally:
            for worker_id in acquired:
                self._free.put(worker_id)
        return results

    def publish(
        self, version: int, store_path: str, replica_path: Optional[str] = None
    ) -> None:
        """Swap every worker onto a new store version (live updates).

        ``replica_path`` is the new version's replica store; ``None``
        keeps the current replica, carried to the new version.
        """
        store_path = os.fspath(store_path)
        with self._lock:
            if replica_path is not None:
                self._replica_path = os.fspath(replica_path)
            replica_path = self._replica_path
            self._published.append((int(version), store_path, replica_path))
            # a respawned worker only needs versions that can still be
            # pinned: the newest KEEP_VERSIONS
            self._published = self._published[-KEEP_VERSIONS:]
        self._broadcast(("publish", int(version), store_path, replica_path))

    def arm_faults(self, rules: List[Dict[str, Any]]) -> None:
        self._broadcast(("faults", list(rules)))

    def clear_faults(self) -> None:
        self._broadcast(("faults_clear",))

    def crash_worker(self) -> None:
        """Kill one worker mid-protocol (chaos hook; it will respawn on
        the next task that lands on it)."""
        worker_id = self._free.get()
        handle = self._workers[worker_id]
        try:
            handle.conn.send(("crash",))
            handle.process.join(timeout=5.0)
        except (BrokenPipeError, OSError):  # pragma: no cover - already dead
            pass
        finally:
            self._free.put(worker_id)

    def metrics_snapshots(self, timeout_s: float = 1.0) -> List[Dict[str, Any]]:
        """Per-worker registry dumps for the merged ``/metrics`` scrape.

        Busy workers are skipped after ``timeout_s`` and answered from
        their last snapshot — a scrape must never block behind a long
        chunk, and slightly stale samples are normal Prometheus
        behaviour.
        """
        deadline = time.monotonic() + timeout_s
        acquired: List[int] = []
        while len(acquired) < self.num_workers:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            try:
                acquired.append(self._free.get(timeout=remaining))
            except queue.Empty:
                break
        try:
            for worker_id in acquired:
                try:
                    self._last_metrics[worker_id] = self._call(
                        worker_id, ("metrics",)
                    )
                except WorkerCrashed:  # pragma: no cover - crash during scrape
                    pass
        finally:
            for worker_id in acquired:
                self._free.put(worker_id)
        return [
            snapshot
            for _, snapshot in sorted(self._last_metrics.items())
        ]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"WorkerPool(workers={self.num_workers}, "
            f"store={self.store_path!r}, respawns={self._respawns})"
        )
