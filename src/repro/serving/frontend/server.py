"""The asyncio HTTP/JSON front end (docs/frontend.md).

One :class:`FrontendServer` is the dispatcher process: it owns the
:class:`~repro.serving.frontend.worker.WorkerPool`, a
:class:`~repro.serving.service.CoSimRankService` built over a
:class:`~repro.serving.frontend.pooled.PooledIndex` (so coalescing,
the ``ColumnCache``/``TopKCache``, admission control, deadlines,
per-seed isolation retries, request-id correlation, and the
``quality=`` tiers are the *same code* that serves in process), and a
small hand-rolled HTTP/1.1 layer on asyncio streams — stdlib only, no
framework dependency.

Cross-request coalescing: concurrent HTTP requests with the same
``(quality, deadline)`` signature are merged into **one** service
batch before fan-out, so identical seeds arriving from different
connections are planned, cached, and computed exactly once
(:func:`~repro.serving.scheduler.plan_batch` dedups inside the merged
batch; the dispatcher-side caches dedup against earlier traffic).
A request is dispatched at once: its flush runs on the next loop
tick, and only requests that arrived in the same tick ride along.
Under load, batching happens naturally while a batch is already in
flight.  (A timed 2 ms merge window used to open before every batch;
on an unloaded 2-CPU box it added about 2.4 ms to the median HTTP
top-k request, docs/frontend.md.)

HTTP status mapping (the error taxonomy on the wire):

====================================  =====
condition                             code
====================================  =====
malformed JSON / bad parameters       400
unknown route                         404
admission shed (``ServiceOverloaded``)  503
draining after SIGTERM                503
every outcome ``DeadlineExceeded``    504
anything served (even partly)         200
====================================  =====

Graceful shutdown: SIGTERM (or :meth:`FrontendServer.drain`) stops
admitting new requests (they get 503 + ``Connection: close``), lets
in-flight batches run to completion, then shuts the worker pool down
with a coordinated ``shutdown`` message per worker — no orphaned
processes, no half-answered request.
"""

from __future__ import annotations

import asyncio
import functools
import json
import logging
import signal
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import (
    DeadlineExceeded,
    InvalidParameterError,
    ReproError,
    ServiceOverloaded,
)
from repro.obs import MetricsRegistry
from repro.serving.frontend.metrics import render_merged_prometheus
from repro.serving.frontend.pooled import PooledIndex
from repro.serving.frontend.protocol import (
    WIRE_VERSION,
    encode_batch_result,
    error_to_wire,
)
from repro.serving.frontend.worker import WorkerPool
from repro.serving.service import QUALITY_LEVELS, CoSimRankService
from repro.sharding.store import replica_store_path

logger = logging.getLogger("repro.serving.frontend")

__all__ = ["FrontendConfig", "FrontendServer", "BackgroundFrontend"]


@dataclass(frozen=True)
class FrontendConfig:
    """Knobs of the HTTP front end (see docs/frontend.md)."""

    host: str = "127.0.0.1"
    #: 0 binds an ephemeral port (read it back from ``server.port``).
    port: int = 0
    #: Worker *processes*; also sizes the dispatcher's chunk fan-out
    #: threads so every worker can be busy at once.
    workers: int = 4
    #: Seeds per worker task.  Smaller than the in-process default (64):
    #: a coalesced batch should split across processes, and the per-task
    #: pipe overhead is amortised after a handful of GEMVs.
    chunk_size: int = 16
    query_mode: Optional[str] = None
    cache_columns: int = 1024
    topk_cache_entries: int = 1024
    max_inflight_seeds: Optional[int] = None
    drain_timeout_s: float = 30.0
    max_body_bytes: int = 64 << 20
    #: Expose the ``/admin/*`` surface (publish, fault injection,
    #: worker crash) — operational/chaos hooks, not query traffic.
    admin: bool = True
    validate_reads: bool = False


class _BadRequest(Exception):
    """Parse-level HTTP failure (maps to 400)."""


class FrontendServer:
    """Asyncio HTTP server fanning CoSimRank queries to worker processes."""

    def __init__(
        self,
        store_path: str,
        *,
        config: Optional[FrontendConfig] = None,
        mp_context=None,
    ):
        self.config = config or FrontendConfig()
        self.pool = WorkerPool(
            store_path,
            self.config.workers,
            query_mode=self.config.query_mode,
            validate_reads=self.config.validate_reads,
            mp_context=mp_context,
        )
        try:
            meta = self.pool.describe()
            self._meta = meta
            index = PooledIndex(self.pool, meta, version=0)
            approx = self._replica_proxy(meta, 0)
            self.service = CoSimRankService(
                index,
                cache_columns=self.config.cache_columns,
                topk_cache_entries=self.config.topk_cache_entries,
                max_workers=self.config.workers,
                chunk_size=self.config.chunk_size,
                query_mode=self.config.query_mode,
                max_inflight_seeds=self.config.max_inflight_seeds,
                approx_index=approx,
            )
        except Exception:
            self.pool.close(timeout_s=2.0)
            raise
        self.num_nodes = int(meta["num_nodes"])
        self._version = 0
        self._publish_lock = threading.Lock()
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.workers * 2 + 4,
            thread_name_prefix="csrplus-frontend",
        )
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self.port: Optional[int] = None
        self._draining = False
        self._drained = False
        self._inflight = 0
        self._writers: "set" = set()
        self._pending: Dict[tuple, List[Tuple[list, asyncio.Future]]] = {}
        self._flushers: Dict[tuple, asyncio.Task] = {}
        self._done: Optional[asyncio.Event] = None

        self.metrics = MetricsRegistry()
        self._m_requests = self.metrics.counter(
            "csrplus_frontend_http_requests_total",
            "HTTP requests answered by the frontend, by route and status",
        )
        self._m_by_code: Dict[Tuple[str, int], Any] = {}
        self._m_seconds = self.metrics.histogram(
            "csrplus_frontend_http_request_seconds",
            "Wall time from request parse to response flush",
        )
        self._m_coalesced_batches = self.metrics.counter(
            "csrplus_frontend_coalesced_batches_total",
            "Service batches dispatched by the coalescer",
        )
        self._m_coalesced_requests = self.metrics.counter(
            "csrplus_frontend_coalesced_requests_total",
            "HTTP requests merged into coalesced service batches",
        )
        self._m_inflight = self.metrics.gauge(
            "csrplus_frontend_inflight_requests",
            "HTTP requests currently being served",
        )
        self._m_draining = self.metrics.gauge(
            "csrplus_frontend_draining",
            "1 while the frontend refuses new work pending shutdown",
        )
        self._m_workers_alive = self.metrics.gauge(
            "csrplus_frontend_workers_alive",
            "Worker processes currently alive",
        )
        self._m_respawns = self.metrics.gauge(
            "csrplus_frontend_worker_respawns_total",
            "Worker processes respawned after a crash",
        )
        self._m_index_version = self.metrics.gauge(
            "csrplus_frontend_index_version",
            "Store version the frontend currently serves",
        )
        self._m_workers_alive.set(self.config.workers)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "FrontendServer":
        self._loop = asyncio.get_event_loop()
        self._done = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        logger.info(
            "frontend listening on %s:%d (%d workers, pids %s)",
            self.config.host, self.port, self.config.workers,
            self.pool.worker_pids(),
        )
        return self

    @property
    def url(self) -> str:
        if self.port is None:
            raise InvalidParameterError("server not started")
        return f"http://{self.config.host}:{self.port}"

    def install_signal_handlers(self) -> None:
        loop = asyncio.get_event_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(
                signum, lambda: asyncio.ensure_future(self.drain())
            )

    async def run_until_drained(self) -> None:
        """Block until :meth:`drain` (typically via SIGTERM) completes."""
        assert self._done is not None, "call start() first"
        await self._done.wait()

    async def drain(self) -> None:
        """Graceful shutdown: refuse new work, finish in-flight, stop pool."""
        if self._draining:
            return
        self._draining = True
        self._m_draining.set(1)
        logger.info("frontend draining: waiting for in-flight requests")
        loop = asyncio.get_event_loop()
        deadline = loop.time() + self.config.drain_timeout_s
        while (
            self._inflight > 0 or self._pending or self._flushers
        ) and loop.time() < deadline:
            await asyncio.sleep(0.005)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for writer in list(self._writers):
            try:
                writer.close()
            except Exception:  # pragma: no cover - already closed
                pass
        await loop.run_in_executor(
            None, functools.partial(self.pool.close, self.config.drain_timeout_s)
        )
        self.service.close()
        self._executor.shutdown(wait=False)
        self._drained = True
        if self._done is not None:
            self._done.set()
        logger.info("frontend drained: all workers stopped")

    # ------------------------------------------------------------------
    # live-version plumbing (docs/dynamic.md across processes)
    # ------------------------------------------------------------------
    def publish_store(
        self,
        store_path: str,
        *,
        replica_path: Optional[str] = None,
    ) -> int:
        """Swap every worker (and the dispatcher caches) to a new store.

        The cross-process analogue of
        :meth:`~repro.serving.service.CoSimRankService.publish_index`:
        workers open the new store alongside the old one (pinned
        batches keep finishing on the version they entered with), then
        the service swaps its :class:`PooledIndex` pointer and drops
        every cached answer (a pooled backend never proves its factors
        unchanged).  ``replica_path`` is the new version's replica
        store; ``None`` uses ``<store_path>/replica`` when that exists
        and otherwise keeps the current replica (docs/approx.md).
        """
        if replica_path is None:
            replica_path = replica_store_path(store_path)
        with self._publish_lock:
            version = self._version + 1
            self.pool.publish(version, store_path, replica_path)
            meta = self.pool.describe()
            if int(meta["num_nodes"]) != self.num_nodes:
                raise InvalidParameterError(
                    "published store must cover the same node set: serving "
                    f"{self.num_nodes} nodes, got {meta['num_nodes']}"
                )
            index = PooledIndex(self.pool, meta, version)
            approx = self._replica_proxy(meta, version)
            published = self.service.publish_index(index, approx_index=approx)
            self._version = version
            self._m_index_version.set(version)
            if published != version:  # pragma: no cover - defensive
                logger.warning(
                    "service version %d != frontend version %d",
                    published, version,
                )
            return version

    def _replica_proxy(self, meta, version: int) -> Optional[PooledIndex]:
        """The degraded tier's proxy for ``version``, if it has a replica."""
        if not meta["has_approx"]:
            return None
        return PooledIndex(
            self.pool, self.pool.describe("approx"), version, tier="approx"
        )

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        self._writers.add(writer)
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _BadRequest as exc:
                    await self._respond(
                        writer, 400,
                        {"error": {"type": "InvalidParameterError",
                                   "message": str(exc)}},
                        close=True,
                    )
                    return
                except (
                    asyncio.IncompleteReadError,
                    ConnectionResetError,
                    OSError,
                ):
                    return
                if request is None:
                    return
                method, path, headers, body = request
                if self._draining:
                    await self._respond(
                        writer, 503,
                        {"error": {
                            "type": "ServiceUnavailable",
                            "message": "server is draining",
                        }},
                        close=True,
                    )
                    return
                self._inflight += 1
                self._m_inflight.set(self._inflight)
                started = asyncio.get_event_loop().time()
                try:
                    status, payload, content_type = await self._dispatch(
                        method, path, body
                    )
                finally:
                    self._inflight -= 1
                    self._m_inflight.set(self._inflight)
                route = path.split("?", 1)[0]
                self._count_request(route, status)
                self._m_seconds.observe(
                    asyncio.get_event_loop().time() - started
                )
                keep_alive = (
                    headers.get("connection", "keep-alive").lower() != "close"
                    and not self._draining
                )
                await self._respond(
                    writer, status, payload,
                    content_type=content_type, close=not keep_alive,
                )
                if not keep_alive:
                    return
        finally:
            self._writers.discard(writer)
            try:
                writer.close()
            except Exception:  # pragma: no cover - already closed
                pass

    def _count_request(self, route: str, code: int) -> None:
        key = (route, code)
        counter = self._m_by_code.get(key)
        if counter is None:
            counter = self.metrics.counter(
                "csrplus_frontend_http_requests_total",
                "HTTP requests answered by the frontend, by route and status",
                labels={"route": route, "code": str(code)},
            )
            self._m_by_code[key] = counter
        counter.inc()

    async def _read_request(self, reader):
        line = await reader.readline()
        if not line:
            return None
        parts = line.decode("latin-1").strip().split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            raise _BadRequest(f"malformed request line: {line!r}")
        method, target = parts[0].upper(), parts[1]
        headers: Dict[str, str] = {}
        while True:
            header = await reader.readline()
            if header in (b"\r\n", b"\n"):
                break
            if not header:
                raise _BadRequest("truncated headers")
            name, sep, value = header.decode("latin-1").partition(":")
            if not sep:
                raise _BadRequest(f"malformed header: {header!r}")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            raise _BadRequest("malformed Content-Length")
        if length < 0 or length > self.config.max_body_bytes:
            raise _BadRequest(
                f"body of {length} bytes exceeds the "
                f"{self.config.max_body_bytes}-byte limit"
            )
        body = await reader.readexactly(length) if length else b""
        return method, target, headers, body

    async def _respond(
        self,
        writer,
        status: int,
        payload,
        *,
        content_type: str = "application/json",
        close: bool = False,
    ) -> None:
        reasons = {
            200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 503: "Service Unavailable",
            504: "Gateway Timeout",
        }
        if isinstance(payload, (dict, list)):
            body = json.dumps(payload).encode("utf-8")
        elif isinstance(payload, str):
            body = payload.encode("utf-8")
        else:
            body = payload
        head = [
            f"HTTP/1.1 {status} {reasons.get(status, 'Unknown')}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
            f"Connection: {'close' if close else 'keep-alive'}",
        ]
        if status == 503:
            head.append("Retry-After: 1")
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body)
        try:
            await writer.drain()
        except (ConnectionResetError, OSError):  # pragma: no cover - client gone
            pass

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    async def _dispatch(self, method: str, path: str, body: bytes):
        path = path.split("?", 1)[0]
        try:
            if path == "/healthz" and method == "GET":
                return 200, self._healthz(), "application/json"
            if path == "/metrics" and method == "GET":
                text = await self._run_blocking(self._render_metrics)
                return 200, text, "text/plain; version=0.0.4"
            if path in ("/healthz", "/metrics"):
                return 405, {"error": {"type": "InvalidParameterError",
                                       "message": "use GET"}}, "application/json"
            if path == "/v1/query" and method == "POST":
                return await self._handle_query(body)
            if path == "/v1/topk" and method == "POST":
                return await self._handle_topk(body)
            if path.startswith("/admin/") and self.config.admin:
                return await self._handle_admin(method, path, body)
            return 404, {"error": {"type": "InvalidParameterError",
                                   "message": f"no route {path}"}}, \
                "application/json"
        except InvalidParameterError as exc:
            return 400, {"error": error_to_wire(exc)}, "application/json"
        except ServiceOverloaded as exc:
            return 503, {"error": error_to_wire(exc)}, "application/json"
        except ReproError as exc:
            return 500, {"error": error_to_wire(exc)}, "application/json"

    def _healthz(self) -> Dict[str, Any]:
        alive = self.pool.alive_workers()
        self._m_workers_alive.set(alive)
        self._m_respawns.set(self.pool.respawns)
        return {
            "status": "draining" if self._draining else "ok",
            "protocol": WIRE_VERSION,
            "num_nodes": self.num_nodes,
            "index_version": self._version,
            "workers_alive": alive,
            "workers_total": self.config.workers,
            "worker_pids": self.pool.worker_pids(),
            "query_mode": self.service.query_mode,
        }

    def _render_metrics(self) -> str:
        self._m_workers_alive.set(self.pool.alive_workers())
        self._m_respawns.set(self.pool.respawns)
        dumps = [
            self.service.registry.as_dict(),
            self.metrics.as_dict(),
        ]
        dumps.extend(self.pool.metrics_snapshots())
        return render_merged_prometheus(dumps)

    async def _run_blocking(self, fn, *args, **kwargs):
        loop = asyncio.get_event_loop()
        return await loop.run_in_executor(
            self._executor, functools.partial(fn, *args, **kwargs)
        )

    # ------------------------------------------------------------------
    # query routes
    # ------------------------------------------------------------------
    @staticmethod
    def _parse_json(body: bytes) -> Dict[str, Any]:
        try:
            parsed = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise InvalidParameterError(f"request body is not JSON: {exc}")
        if not isinstance(parsed, dict):
            raise InvalidParameterError("request body must be a JSON object")
        return parsed

    @staticmethod
    def _parse_common(obj: Dict[str, Any]) -> Tuple[str, Optional[float]]:
        quality = obj.get("quality", "exact")
        if quality not in QUALITY_LEVELS:
            raise InvalidParameterError(
                f"quality must be one of {QUALITY_LEVELS}, got {quality!r}"
            )
        deadline_ms = obj.get("deadline_ms")
        if deadline_ms is None:
            return quality, None
        try:
            deadline_s = float(deadline_ms) / 1000.0
        except (TypeError, ValueError):
            raise InvalidParameterError(
                f"deadline_ms must be a number, got {deadline_ms!r}"
            )
        if deadline_s <= 0:
            raise InvalidParameterError(
                f"deadline_ms must be > 0, got {deadline_ms}"
            )
        return quality, deadline_s

    async def _handle_query(self, body: bytes):
        obj = self._parse_json(body)
        if "requests" in obj:
            requests = obj["requests"]
        elif "seeds" in obj:
            requests = [obj["seeds"]]
        else:
            raise InvalidParameterError(
                'query body needs "requests" (list of seed lists) or '
                '"seeds" (one seed list)'
            )
        if not isinstance(requests, list) or not all(
            isinstance(request, list) for request in requests
        ):
            raise InvalidParameterError(
                '"requests" must be a list of seed lists'
            )
        if not requests:
            raise InvalidParameterError("empty batch")
        quality, deadline_s = self._parse_common(obj)
        key = ("query", quality, deadline_s)
        batch, positions = await self._coalesce(key, requests)
        wire = encode_batch_result(batch, positions)
        return self._status_for(batch, positions), wire, "application/json"

    async def _handle_topk(self, body: bytes):
        obj = self._parse_json(body)
        seeds = obj.get("seeds")
        if not isinstance(seeds, list) or not seeds:
            raise InvalidParameterError(
                'top-k body needs a non-empty "seeds" list'
            )
        try:
            k = int(obj.get("k", 10))
        except (TypeError, ValueError):
            raise InvalidParameterError(f"k must be an integer, got {obj.get('k')!r}")
        exclude_self = bool(obj.get("exclude_self", True))
        quality, deadline_s = self._parse_common(obj)
        key = ("topk", quality, deadline_s, k, exclude_self)
        batch, positions = await self._coalesce(key, seeds)
        wire = encode_batch_result(batch, positions)
        return self._status_for(batch, positions), wire, "application/json"

    def _status_for(self, batch, positions) -> int:
        outcomes = [batch.outcomes[i] for i in positions]
        if outcomes and all(
            isinstance(outcome.error, DeadlineExceeded) for outcome in outcomes
        ):
            return 504
        return 200

    # ------------------------------------------------------------------
    # the coalescer
    # ------------------------------------------------------------------
    async def _coalesce(self, key: tuple, items: list):
        """Queue ``items`` under ``key`` and await the merged result.

        Returns ``(BatchResult, positions)`` where ``positions`` index
        this caller's outcomes inside the merged batch.
        """
        loop = asyncio.get_event_loop()
        future: asyncio.Future = loop.create_future()
        self._pending.setdefault(key, []).append((items, future))
        if key not in self._flushers:
            self._flushers[key] = loop.create_task(self._flush(key))
        return await future

    async def _flush(self, key: tuple) -> None:
        try:
            # one loop tick: requests already queued in it join the batch
            await asyncio.sleep(0)
        finally:
            # unregister *before* dispatching: arrivals during the
            # service call open the next merge group
            bucket = self._pending.pop(key, [])
            self._flushers.pop(key, None)
        if not bucket:
            return
        merged: list = []
        slices: List[Tuple[asyncio.Future, List[int]]] = []
        for items, future in bucket:
            positions = list(range(len(merged), len(merged) + len(items)))
            merged.extend(items)
            slices.append((future, positions))
        self._m_coalesced_batches.inc()
        self._m_coalesced_requests.inc(len(bucket))
        kind, quality, deadline_s = key[0], key[1], key[2]
        if kind == "query":
            call = functools.partial(
                self.service.serve_batch_detailed,
                merged, deadline_s=deadline_s, quality=quality,
            )
        else:
            _, _, _, k, exclude_self = key
            call = functools.partial(
                self.service.serve_topk_detailed,
                merged, k, exclude_self=exclude_self,
                deadline_s=deadline_s, quality=quality,
            )
        try:
            batch = await self._run_blocking(call)
        except BaseException as exc:  # typed errors fan back to every waiter
            for future, _ in slices:
                if not future.done():
                    future.set_exception(exc)
            return
        for future, positions in slices:
            if not future.done():
                future.set_result((batch, positions))

    # ------------------------------------------------------------------
    # admin surface
    # ------------------------------------------------------------------
    async def _handle_admin(self, method: str, path: str, body: bytes):
        if method != "POST":
            return 405, {"error": {"type": "InvalidParameterError",
                                   "message": "admin routes are POST"}}, \
                "application/json"
        if path == "/admin/publish":
            obj = self._parse_json(body)
            store_path = obj.get("store_path")
            if not isinstance(store_path, str) or not store_path:
                raise InvalidParameterError('publish needs a "store_path"')
            version = await self._run_blocking(
                self.publish_store,
                store_path,
                replica_path=obj.get("replica_path"),
            )
            return 200, {"index_version": version}, "application/json"
        if path == "/admin/faults":
            obj = self._parse_json(body)
            rules = obj.get("rules")
            if not isinstance(rules, list):
                raise InvalidParameterError('faults needs a "rules" list')
            await self._run_blocking(self.pool.arm_faults, rules)
            return 200, {"armed": len(rules)}, "application/json"
        if path == "/admin/faults/clear":
            await self._run_blocking(self.pool.clear_faults)
            return 200, {"armed": 0}, "application/json"
        if path == "/admin/crash-worker":
            await self._run_blocking(self.pool.crash_worker)
            return 200, {"crashed": 1}, "application/json"
        return 404, {"error": {"type": "InvalidParameterError",
                               "message": f"no admin route {path}"}}, \
            "application/json"


class BackgroundFrontend:
    """A :class:`FrontendServer` on its own event-loop thread.

    The embedding used by tests, ``csrplus bench --frontend``, and any
    caller that wants an HTTP frontend without owning the process'
    main loop.  ``start()`` returns once the socket is bound;
    ``close()`` runs the same graceful drain SIGTERM triggers.
    """

    def __init__(self, store_path: str, **kwargs):
        self._store_path = store_path
        self._kwargs = kwargs
        self.server: Optional[FrontendServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None

    def start(self) -> str:
        self.server = FrontendServer(self._store_path, **self._kwargs)
        self._thread = threading.Thread(
            target=self._run, name="csrplus-frontend-loop", daemon=True
        )
        self._thread.start()
        self._ready.wait(timeout=30.0)
        if self._startup_error is not None:
            raise self._startup_error
        if not self._ready.is_set():  # pragma: no cover - startup hang
            raise InvalidParameterError("frontend failed to start in 30s")
        return self.server.url

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self.server.start())
        except BaseException as exc:  # surfaced to start()
            self._startup_error = exc
            self._ready.set()
            return
        self._ready.set()
        loop.run_forever()
        loop.close()

    @property
    def url(self) -> str:
        assert self.server is not None
        return self.server.url

    def drain(self, timeout_s: float = 60.0) -> None:
        """Run the graceful shutdown from any thread."""
        if self._loop is None or self.server is None:
            return
        future = asyncio.run_coroutine_threadsafe(
            self.server.drain(), self._loop
        )
        future.result(timeout=timeout_s)

    def close(self, timeout_s: float = 60.0) -> None:
        if self._loop is None:
            return
        try:
            self.drain(timeout_s)
        finally:
            self._loop.call_soon_threadsafe(self._loop.stop)
            if self._thread is not None:
                self._thread.join(timeout=timeout_s)
            self._loop = None

    def __enter__(self) -> "BackgroundFrontend":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
