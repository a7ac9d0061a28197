"""Multi-process network front end over shared-memory shards.

See docs/frontend.md.  The pieces:

* :mod:`~repro.serving.frontend.protocol` — the JSON wire format
  (bit-exact array envelopes, typed-error round-trips);
* :mod:`~repro.serving.frontend.worker` — worker processes that mmap
  the sharded store read-only and run the unchanged kernels, plus the
  :class:`WorkerPool` that owns and respawns them;
* :mod:`~repro.serving.frontend.pooled` — the proxy index that lets
  :class:`~repro.serving.service.CoSimRankService` *be* the dispatcher;
* :mod:`~repro.serving.frontend.metrics` — the summing merge of
  per-worker metric snapshots into one Prometheus scrape;
* :mod:`~repro.serving.frontend.server` — the asyncio HTTP server with
  cross-request coalescing and graceful drain;
* :mod:`~repro.serving.frontend.client` — the stdlib keep-alive client
  that quacks like the service for ``csrplus loadgen --url``.
"""

from repro._lazy import lazy_exports as _lazy_exports

__getattr__, __dir__ = _lazy_exports(__name__, {
    ".client": ["FrontendClient"],
    ".metrics": ["merge_metric_dicts", "render_merged_prometheus"],
    ".pooled": ["PooledIndex"],
    ".protocol": [
        "WIRE_VERSION",
        "decode_array",
        "decode_batch_result",
        "encode_array",
        "encode_batch_result",
        "error_from_wire",
        "error_to_wire",
    ],
    ".server": ["BackgroundFrontend", "FrontendConfig", "FrontendServer"],
    ".worker": ["WorkerPool"],
})

__all__ = [
    "WIRE_VERSION",
    "BackgroundFrontend",
    "FrontendClient",
    "FrontendConfig",
    "FrontendServer",
    "PooledIndex",
    "WorkerPool",
    "decode_array",
    "decode_batch_result",
    "encode_array",
    "encode_batch_result",
    "error_from_wire",
    "error_to_wire",
    "merge_metric_dicts",
    "render_merged_prometheus",
]
