"""Schema-versioned performance snapshots and regression gating.

A repo that optimises serving paths needs a memory of how fast it used
to be.  ``csrplus bench`` measures the load-bearing numbers — prepare
time, exact/batched column throughput, top-k throughput, and a seeded
loadgen pass (:mod:`repro.serving.loadgen`) — and writes them as a
``BENCH_<date>.json`` snapshot:

* every metric carries a ``direction`` (``"lower"`` or ``"higher"`` is
  better), so the comparator needs no out-of-band knowledge;
* the payload is versioned (``schema: csrplus-bench/v1``) and records
  the workload and environment that produced it, so apples are only
  ever compared to apples;
* ``csrplus bench --compare prior.json`` re-runs the suite, refuses a
  baseline whose workload, CPU count or BLAS thread count differs
  (:func:`check_comparable`), and exits nonzero when any metric
  regresses beyond the tolerance — the CI perf-smoke lane and local
  pre-merge checks both gate on this.

Snapshots committed under ``benchmarks/trajectory/`` form the repo's
perf trajectory; see docs/observability.md for the reading guide.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from datetime import datetime, timezone
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.config import CSRPlusConfig
from repro.core.index import CSRPlusIndex, replica_rank
from repro.core.topk import top_k_blockwise
from repro.errors import GraphFormatError, InvalidParameterError
from repro.graphs.digraph import DiGraph
from repro.obs.metrics import MetricsRegistry
from repro.serving.loadgen import (
    LoadProfile,
    LoadReport,
    SimulatedClock,
    build_schedule,
    loadgen_slos,
    run_load,
)
from repro.serving.service import CoSimRankService

__all__ = [
    "SCHEMA",
    "DEFAULT_TOLERANCE",
    "run_bench",
    "write_snapshot",
    "load_snapshot",
    "check_comparable",
    "compare_snapshots",
    "render_comparison",
]

#: Bump on any incompatible payload change; the loader refuses other
#: schemas instead of comparing mismatched shapes.
SCHEMA = "csrplus-bench/v1"

#: Relative slack a metric may move in its bad direction before the
#: comparator calls it a regression (timings are noisy; 25% is roughly
#: the CI-runner jitter floor for sub-second kernels).
DEFAULT_TOLERANCE = 0.25

#: Snapshot keys that must be present and equal on both sides of a
#: comparison: the workload block, and the environment entries that
#: move the timings.
COMPARABLE_KEYS = ("workload", "cpus", "blas_threads")


def _environment() -> Dict[str, str]:
    import scipy

    from repro.core.index import available_cpus
    from repro.linalg.blas import blas_threads

    cpus = available_cpus()
    threads = blas_threads()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpus": str(cpus),
        # threads a large exact query_columns call fans out to
        "kernel_workers": str(cpus),
        # threads of the loaded OpenBLAS outside single-threaded blocks
        "blas_threads": "unknown" if threads is None else str(threads),
    }


def _metric(value: float, unit: str, direction: str) -> Dict[str, object]:
    assert direction in ("lower", "higher")
    return {"value": float(value), "unit": unit, "direction": direction}


def _throughput(fn, amount: int, repeats: int = 3) -> float:
    """Best-of-``repeats`` items/second for one kernel invocation."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return amount / max(best, 1e-12)


def _frontend_metrics(
    graph: DiGraph,
    config: CSRPlusConfig,
    workers: int,
    profile: LoadProfile,
    *,
    slo_p99_ms: float,
    slo_availability: float,
) -> Dict[str, Dict[str, object]]:
    """Measure the multi-process frontend (docs/frontend.md).

    Builds a throwaway sharded store, boots a
    :class:`~repro.serving.frontend.BackgroundFrontend` with ``workers``
    worker processes, and measures the per-seed GEMV path end to end
    over HTTP: ``frontend_columns_per_second`` repeats one 64-seed
    batch with the dispatcher cache disabled (every repeat recomputes),
    and ``frontend_p99_ms`` replays the loadgen schedule through
    :class:`~repro.serving.frontend.FrontendClient` on the real clock
    (latency across a process boundary cannot be simulated).
    """
    import os
    import tempfile

    from repro.serving.frontend import (
        BackgroundFrontend,
        FrontendClient,
        FrontendConfig,
    )
    from repro.sharding import build_sharded_store

    metrics: Dict[str, Dict[str, object]] = {}
    with tempfile.TemporaryDirectory(prefix="csrplus-bench-frontend-") as tmp:
        store = build_sharded_store(
            graph,
            os.path.join(tmp, "bench.shards"),
            num_shards=max(4, workers),
            config=config,
        )
        frontend = BackgroundFrontend(
            store.path,
            config=FrontendConfig(
                workers=workers, cache_columns=0, topk_cache_entries=0
            ),
        )
        with frontend, FrontendClient(frontend.url) as client:
            rng = np.random.default_rng(profile.seed)
            seeds = rng.integers(0, graph.num_nodes, size=64).tolist()
            client.serve_batch([seeds])  # warm-up: fault shards in
            metrics["frontend_columns_per_second"] = _metric(
                _throughput(lambda: client.serve_batch([seeds]), len(seeds)),
                "columns/s",
                "higher",
            )
            schedule = build_schedule(profile, graph.num_nodes)
            report = run_load(
                client,
                schedule,
                registry=MetricsRegistry(),
                slos=loadgen_slos(
                    p99_ms=slo_p99_ms, availability=slo_availability
                ),
            )
            metrics["frontend_p99_ms"] = _metric(
                report.latency_s["p99"] * 1e3, "ms", "lower"
            )
    return metrics


def run_bench(
    graph: DiGraph,
    *,
    rank: int = 16,
    damping: float = 0.6,
    profile: Optional[LoadProfile] = None,
    topk: int = 10,
    simulate: bool = False,
    slo_p99_ms: float = 250.0,
    slo_availability: float = 0.99,
    frontend_workers: int = 0,
    workload: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """Measure the bench suite on ``graph`` and return the payload.

    ``simulate`` runs the loadgen pass on a
    :class:`~repro.serving.loadgen.SimulatedClock`, making its metrics
    deterministic (CI uses this; kernel timings stay real either way).
    ``frontend_workers > 0`` additionally boots the multi-process HTTP
    frontend and records ``frontend_columns_per_second`` /
    ``frontend_p99_ms`` (a schema-compatible addition: the comparator
    skips metrics present on only one side).  The ``workload`` dict is
    recorded verbatim so the comparator can refuse cross-workload
    comparisons.
    """
    profile = profile or LoadProfile(requests=200, qps=500.0, seed=0)
    config = CSRPlusConfig(damping=damping, rank=min(rank, graph.num_nodes))

    prepare_started = time.perf_counter()
    index = CSRPlusIndex(graph, config).prepare()
    prepare_seconds = time.perf_counter() - prepare_started

    rng = np.random.default_rng(profile.seed)
    seeds = rng.integers(0, graph.num_nodes, size=64)
    metrics: Dict[str, Dict[str, object]] = {
        "prepare_seconds": _metric(prepare_seconds, "s", "lower"),
        "exact_columns_per_second": _metric(
            _throughput(
                lambda: index.query_columns(seeds, mode="exact"), seeds.size
            ),
            "columns/s",
            "higher",
        ),
        "batched_columns_per_second": _metric(
            _throughput(
                lambda: index.query_columns(seeds, mode="batched"), seeds.size
            ),
            "columns/s",
            "higher",
        ),
        "topk_seeds_per_second": _metric(
            _throughput(
                lambda: top_k_blockwise(index, seeds[:16], topk), 16
            ),
            "seeds/s",
            "higher",
        ),
    }

    schedule = build_schedule(profile, graph.num_nodes)
    registry = MetricsRegistry()
    service = CoSimRankService(index, max_workers=1)
    try:
        if simulate:
            sim = SimulatedClock()
            clock, sleep = sim.now, sim.sleep
        else:
            clock, sleep = time.monotonic, time.sleep
        report: LoadReport = run_load(
            service,
            schedule,
            registry=registry,
            clock=clock,
            sleep=sleep,
            slos=loadgen_slos(
                p99_ms=slo_p99_ms, availability=slo_availability
            ),
        )
    finally:
        service.close()

    metrics["loadgen_p50_seconds"] = _metric(
        report.latency_s["p50"], "s", "lower"
    )
    metrics["loadgen_p95_seconds"] = _metric(
        report.latency_s["p95"], "s", "lower"
    )
    metrics["loadgen_p99_seconds"] = _metric(
        report.latency_s["p99"], "s", "lower"
    )
    metrics["loadgen_qps_achieved"] = _metric(
        report.qps_achieved, "req/s", "higher"
    )
    metrics["loadgen_ok_rate"] = _metric(report.ok_rate, "fraction", "higher")

    # Approximate tier (docs/approx.md): rank-truncated replica column
    # throughput, plus a deterministic overload A/B — the same
    # over-budget traffic served exact-only (sheds) and quality="auto"
    # (degrades onto the replica).  The coverage metric is the headline:
    # the fraction of requests the exact-only baseline shed that the
    # auto policy turned into served (approx) answers.
    approx = index.truncate_to_rank(replica_rank(index.rank))
    metrics["approx_columns_per_second"] = _metric(
        _throughput(lambda: approx.query_columns(seeds), seeds.size),
        "columns/s",
        "higher",
    )

    overload_profile = LoadProfile(
        requests=60,
        qps=500.0,
        seeds_per_request=8,
        zipf_s=0.0,
        seed=profile.seed,
    )
    overload_schedule = build_schedule(overload_profile, graph.num_nodes)
    overload_reports: Dict[str, LoadReport] = {}
    for label, quality, replica in (
        ("exact", "exact", None),
        ("auto", "auto", approx),
    ):
        overload_service = CoSimRankService(
            index,
            max_workers=1,
            max_inflight_seeds=4,
            cache_columns=0,
            approx_index=replica,
        )
        try:
            sim = SimulatedClock()
            overload_reports[label] = run_load(
                overload_service,
                overload_schedule,
                quality=quality,
                registry=MetricsRegistry(),
                clock=sim.now,
                sleep=sim.sleep,
            )
        finally:
            overload_service.close()
    shed_exact = overload_reports["exact"].outcomes.get("shed", 0)
    approx_served = overload_reports["auto"].outcomes.get("approx", 0)
    metrics["overload_exact_served_rate"] = _metric(
        overload_reports["exact"].served_rate, "fraction", "higher"
    )
    metrics["overload_auto_served_rate"] = _metric(
        overload_reports["auto"].served_rate, "fraction", "higher"
    )
    metrics["overload_degrade_coverage"] = _metric(
        min(1.0, approx_served / max(1, shed_exact)), "fraction", "higher"
    )

    if frontend_workers > 0:
        metrics.update(
            _frontend_metrics(
                graph,
                config,
                frontend_workers,
                profile,
                slo_p99_ms=slo_p99_ms,
                slo_availability=slo_availability,
            )
        )

    return {
        "schema": SCHEMA,
        "created": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "workload": dict(workload or {}) or {
            "num_nodes": graph.num_nodes,
            "num_edges": graph.num_edges,
            "rank": config.rank,
            "damping": config.damping,
            "topk": topk,
            "simulate": simulate,
            "frontend_workers": frontend_workers,
            "profile": profile.as_dict(),
        },
        "environment": _environment(),
        "metrics": metrics,
        "loadgen": report.as_dict(),
        "overload": {
            "profile": overload_profile.as_dict(),
            "max_inflight_seeds": 4,
            "replica_rank": approx.rank,
            "approx_atol": approx.approx_atol,
            "exact_outcomes": dict(overload_reports["exact"].outcomes),
            "auto_outcomes": dict(overload_reports["auto"].outcomes),
        },
        "slo": report.slo,
    }


def write_snapshot(payload: Dict[str, object], path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=False)
        handle.write("\n")


def load_snapshot(path: str) -> Dict[str, object]:
    """Read and validate a snapshot written by :func:`write_snapshot`."""
    try:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
    except OSError as exc:
        raise GraphFormatError(
            f"cannot read bench snapshot {path!r}: {exc}"
        ) from exc
    except ValueError as exc:
        raise GraphFormatError(f"{path!r} is not JSON: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("schema") != SCHEMA:
        raise GraphFormatError(
            f"{path!r} is not a {SCHEMA} snapshot "
            f"(schema={payload.get('schema')!r})"
            if isinstance(payload, dict)
            else f"{path!r} is not a bench snapshot"
        )
    if not isinstance(payload.get("metrics"), dict):
        raise GraphFormatError(f"{path!r} has no metrics section")
    return payload


def check_comparable(old: Dict[str, object], new: Dict[str, object]) -> None:
    """Refuse to compare snapshots of different workloads or machines.

    Raises :class:`~repro.errors.InvalidParameterError` naming every key
    of :data:`COMPARABLE_KEYS` (``workload``, and ``cpus`` /
    ``blas_threads`` from the ``environment`` block) that differs
    between ``old`` and ``new`` or is missing from either.
    """

    def value(payload: Dict[str, object], key: str):
        source = payload if key == "workload" else payload.get("environment")
        if not isinstance(source, dict) or source.get(key) is None:
            return None
        # JSON round trip: a fresh payload holds tuples where a loaded
        # one holds lists
        return json.loads(json.dumps(source[key]))

    differing = [
        key for key in COMPARABLE_KEYS
        if value(old, key) is None or value(old, key) != value(new, key)
    ]
    if differing:
        raise InvalidParameterError(
            "baseline snapshot is not comparable with this run; "
            f"differing or missing: {', '.join(differing)}"
        )


def compare_snapshots(
    old: Dict[str, object],
    new: Dict[str, object],
    tolerance: float = DEFAULT_TOLERANCE,
) -> List[Dict[str, object]]:
    """Regressions of ``new`` against ``old`` beyond ``tolerance``.

    A lower-is-better metric regresses when
    ``new > old * (1 + tolerance)``; a higher-is-better one when
    ``new < old / (1 + tolerance)``.  Metrics present in only one
    snapshot are skipped (the trajectory may grow new metrics).
    Returns one record per regressed metric, empty when clean.
    """
    if tolerance < 0:
        raise InvalidParameterError(
            f"tolerance must be >= 0, got {tolerance}"
        )
    regressions: List[Dict[str, object]] = []
    old_metrics: Dict[str, Dict[str, object]] = old["metrics"]  # type: ignore[assignment]
    new_metrics: Dict[str, Dict[str, object]] = new["metrics"]  # type: ignore[assignment]
    for name in sorted(set(old_metrics) & set(new_metrics)):
        old_value = float(old_metrics[name]["value"])
        new_value = float(new_metrics[name]["value"])
        direction = new_metrics[name].get(
            "direction", old_metrics[name].get("direction", "lower")
        )
        if direction == "lower":
            regressed = new_value > old_value * (1.0 + tolerance)
            ratio = new_value / max(old_value, 1e-12)
        else:
            regressed = new_value < old_value / (1.0 + tolerance)
            ratio = old_value / max(new_value, 1e-12)
        if regressed:
            regressions.append({
                "metric": name,
                "direction": direction,
                "old": old_value,
                "new": new_value,
                "ratio": ratio,
                "unit": new_metrics[name].get("unit", ""),
                "tolerance": tolerance,
            })
    return regressions


def render_comparison(
    old: Dict[str, object],
    new: Dict[str, object],
    regressions: List[Dict[str, object]],
    tolerance: float,
) -> str:
    """Human-readable delta of every shared metric, worst first."""
    regressed = {entry["metric"] for entry in regressions}
    old_metrics: Dict[str, Dict[str, object]] = old["metrics"]  # type: ignore[assignment]
    new_metrics: Dict[str, Dict[str, object]] = new["metrics"]  # type: ignore[assignment]
    lines = [
        f"bench comparison (tolerance {tolerance:.0%}, "
        f"baseline {old.get('created', '?')}):"
    ]
    for name in sorted(set(old_metrics) & set(new_metrics)):
        old_value = float(old_metrics[name]["value"])
        new_value = float(new_metrics[name]["value"])
        unit = new_metrics[name].get("unit", "")
        direction = new_metrics[name].get("direction", "lower")
        arrow = "↑" if new_value > old_value else "↓"
        change = (
            (new_value - old_value) / max(abs(old_value), 1e-12)
        )
        verdict = "REGRESSED" if name in regressed else "ok"
        lines.append(
            f"  {name:<32} {old_value:>12.4g} -> {new_value:>12.4g} {unit:<10}"
            f" {arrow}{abs(change):>6.1%}  ({direction} is better)  {verdict}"
        )
    if regressions:
        lines.append(
            f"{len(regressions)} metric(s) regressed beyond "
            f"{tolerance:.0%} tolerance"
        )
    else:
        lines.append("no regressions")
    return "\n".join(lines)
