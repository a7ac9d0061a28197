"""Stdlib HTTP client for the frontend (docs/frontend.md).

:class:`FrontendClient` duck-types the slice of the
:class:`~repro.serving.service.CoSimRankService` surface that
:func:`~repro.serving.loadgen.run_load` (and user code) drives —
``serve_batch`` / ``serve_batch_detailed`` / ``serve_topk`` /
``serve_topk_detailed`` plus a ``registry`` attribute — so the same
open-loop load generator and the same SLO verdicts run unchanged
against a server across the network.  Built on
:class:`http.client.HTTPConnection` with keep-alive; no third-party
HTTP dependency.

Error mapping mirrors the server's status codes back into the typed
taxonomy: a 503 carrying a ``ServiceOverloaded`` envelope raises
``ServiceOverloaded`` (so the load generator counts a shed, exactly as
in process); 200/504 bodies decode into per-request
:class:`~repro.serving.results.RequestOutcome` objects with their
typed errors reconstructed; transport failures (connection refused,
reset mid-response) degrade to ``ColumnComputeFailed`` outcomes so a
flaky network reads as failed requests, not a crashed load run.
"""

from __future__ import annotations

import http.client
import json
import socket
from typing import Any, Dict, List, Optional, Sequence, Tuple
from urllib.parse import urlsplit

import numpy as np

from repro.errors import (
    ColumnComputeFailed,
    InvalidParameterError,
    ReproError,
    ServiceOverloaded,
)
from repro.obs import MetricsRegistry
from repro.serving.frontend.protocol import (
    decode_batch_result,
    error_from_wire,
)
from repro.serving.results import BatchResult, RequestOutcome

__all__ = ["FrontendClient"]


class FrontendClient:
    """A keep-alive HTTP client that quacks like ``CoSimRankService``."""

    def __init__(self, url: str, *, timeout_s: float = 60.0):
        parts = urlsplit(url)
        if parts.scheme != "http" or not parts.hostname:
            raise InvalidParameterError(
                f"frontend URL must look like http://host:port, got {url!r}"
            )
        self.url = url.rstrip("/")
        self._host = parts.hostname
        self._port = parts.port or 80
        self._timeout_s = float(timeout_s)
        self._conn: Optional[http.client.HTTPConnection] = None
        #: Client-side instruments; :func:`run_load` adds its own
        #: ``csrplus_loadgen_*`` family on top of this registry.
        self.registry = MetricsRegistry()
        self._m_requests = self.registry.counter(
            "csrplus_client_http_requests_total",
            "HTTP requests issued by this client",
        )
        self._m_transport_errors = self.registry.counter(
            "csrplus_client_transport_errors_total",
            "Requests that died in transport (refused, reset, timeout)",
        )
        self._m_reconnects = self.registry.counter(
            "csrplus_client_reconnects_total",
            "Times the keep-alive connection had to be re-established",
        )

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------
    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self._host, self._port, timeout=self._timeout_s
            )
        return self._conn

    def _drop_connection(self) -> None:
        if self._conn is not None:
            try:
                self._conn.close()
            except Exception:  # pragma: no cover - already dead
                pass
            self._conn = None

    def _request(
        self, method: str, path: str, body: Optional[Dict[str, Any]] = None
    ) -> Tuple[int, bytes]:
        """One round-trip; retries exactly once on a stale keep-alive."""
        payload = json.dumps(body).encode("utf-8") if body is not None else b""
        headers = {"Content-Type": "application/json"}
        self._m_requests.inc()
        for attempt in (0, 1):
            conn = self._connection()
            try:
                conn.request(method, path, body=payload, headers=headers)
                response = conn.getresponse()
                data = response.read()
                if response.getheader("Connection", "").lower() == "close":
                    self._drop_connection()
                return response.status, data
            except (
                http.client.HTTPException,
                ConnectionError,
                socket.timeout,
                OSError,
            ) as exc:
                self._drop_connection()
                if attempt == 0:
                    # a keep-alive connection the server idled out looks
                    # like a reset on first reuse; one clean retry
                    # distinguishes that from a down server
                    self._m_reconnects.inc()
                    continue
                self._m_transport_errors.inc()
                raise ConnectionError(
                    f"frontend at {self.url} unreachable: {exc}"
                ) from exc
        raise AssertionError("unreachable")  # pragma: no cover

    def _call(self, path: str, body: Dict[str, Any]) -> Dict[str, Any]:
        status, data = self._request("POST", path, body)
        try:
            obj = json.loads(data.decode("utf-8")) if data else {}
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ReproError(
                f"frontend returned undecodable body (HTTP {status})"
            ) from exc
        if status in (200, 504):
            # 504 = every outcome deadlined; the body still carries the
            # per-request outcomes, decoded like any served batch
            return obj
        error = obj.get("error")
        if isinstance(error, dict):
            raise error_from_wire(error)
        raise ReproError(f"frontend returned HTTP {status}: {data[:200]!r}")

    # ------------------------------------------------------------------
    # the service surface
    # ------------------------------------------------------------------
    def serve_batch_detailed(
        self,
        requests: Sequence[Sequence[int]],
        *,
        deadline_s: Optional[float] = None,
        quality: str = "exact",
    ) -> BatchResult:
        body: Dict[str, Any] = {
            "requests": [[int(seed) for seed in request] for request in requests],
            "quality": quality,
        }
        if deadline_s is not None:
            body["deadline_ms"] = deadline_s * 1000.0
        try:
            wire = self._call("/v1/query", body)
        except (ConnectionError, ReproError) as exc:
            if isinstance(exc, (ServiceOverloaded, InvalidParameterError)):
                raise
            return self._transport_failure(len(requests), exc)
        return decode_batch_result(wire)

    def serve_batch(
        self,
        requests: Sequence[Sequence[int]],
        *,
        deadline_s: Optional[float] = None,
        quality: str = "exact",
    ) -> List[np.ndarray]:
        batch = self.serve_batch_detailed(
            requests, deadline_s=deadline_s, quality=quality
        )
        return [outcome.unwrap() for outcome in batch.outcomes]

    def serve_topk_detailed(
        self,
        seeds: Sequence[int],
        k: int,
        *,
        exclude_self: bool = True,
        deadline_s: Optional[float] = None,
        quality: str = "exact",
    ) -> BatchResult:
        body: Dict[str, Any] = {
            "seeds": [int(seed) for seed in seeds],
            "k": int(k),
            "exclude_self": bool(exclude_self),
            "quality": quality,
        }
        if deadline_s is not None:
            body["deadline_ms"] = deadline_s * 1000.0
        try:
            wire = self._call("/v1/topk", body)
        except (ConnectionError, ReproError) as exc:
            if isinstance(exc, (ServiceOverloaded, InvalidParameterError)):
                raise
            return self._transport_failure(len(seeds), exc)
        return decode_batch_result(wire)

    def serve_topk(
        self,
        seeds: Sequence[int],
        k: int,
        *,
        exclude_self: bool = True,
        deadline_s: Optional[float] = None,
        quality: str = "exact",
    ):
        batch = self.serve_topk_detailed(
            seeds, k, exclude_self=exclude_self,
            deadline_s=deadline_s, quality=quality,
        )
        return [outcome.unwrap() for outcome in batch.outcomes]

    @staticmethod
    def _transport_failure(count: int, exc: BaseException) -> BatchResult:
        outcomes = [
            RequestOutcome(
                error=ColumnComputeFailed(-1, f"transport: {exc}"),
                tier="exact",
            )
            for _ in range(count)
        ]
        return BatchResult(outcomes=outcomes, failed_seeds={})

    # ------------------------------------------------------------------
    # introspection / admin
    # ------------------------------------------------------------------
    def healthz(self) -> Dict[str, Any]:
        status, data = self._request("GET", "/healthz")
        obj = json.loads(data.decode("utf-8"))
        if status not in (200, 503):
            raise ReproError(f"healthz returned HTTP {status}")
        return obj

    @property
    def num_nodes(self) -> int:
        return int(self.healthz()["num_nodes"])

    def metrics_text(self) -> str:
        status, data = self._request("GET", "/metrics")
        if status != 200:
            raise ReproError(f"/metrics returned HTTP {status}")
        return data.decode("utf-8")

    def publish(
        self,
        store_path: str,
        *,
        replica_path: Optional[str] = None,
    ) -> int:
        body: Dict[str, Any] = {"store_path": str(store_path)}
        if replica_path is not None:
            body["replica_path"] = str(replica_path)
        return int(self._call("/admin/publish", body)["index_version"])

    def arm_faults(self, rules: Sequence[Dict[str, Any]]) -> None:
        self._call("/admin/faults", {"rules": list(rules)})

    def clear_faults(self) -> None:
        self._call("/admin/faults/clear", {})

    def crash_worker(self) -> None:
        self._call("/admin/crash-worker", {})

    def close(self) -> None:
        self._drop_connection()

    def __enter__(self) -> "FrontendClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FrontendClient({self.url!r})"
