"""Workload ``lib-offline``: the paper's scenario, in process.

Set-up is ``CSRPlusIndex(g, rank=16).prepare()``.  One closed-loop
caller then answers a seeded series of multi-source sets with
``CSRPlusIndex.query``; every block is checked against the batched
GEMM (``query_columns(mode="batched")``) within
``batched_query_atol(rank, dtype)``, outside the timer.  Updates go
through the library's own path, ``DynamicCSRPlus.update_edges`` +
``refresh``.  The run is ``ROUNDS`` rounds of one set-up, a query
slice of ``--seconds / ROUNDS`` and one update of the fresh index.
"""

from __future__ import annotations

import gc
import itertools
import time
from typing import Dict

import numpy as np

from common import StealGate, Tally, log, median, quantile, self_peak_rss_mb
from inputs import OFFLINE_SET_SIZES, digest_arrays, edge_batches, offline_sets

#: Rounds of prepare, query slice and update.  Interleaving spreads the
#: samples of every timing over the whole run, so a slow spell of the
#: shared host lands in all three figures a little instead of in one
#: of them whole.
ROUNDS = 5
UPDATE_BATCH_EDGES = 64


def _check(index, query_set, block, atol: float) -> bool:
    """``block`` lies within ``atol`` of the batched GEMM for the set."""
    expected = index.query_columns(query_set, mode="batched")
    return block.shape == expected.shape and bool(
        np.all(np.abs(block - expected) <= atol)
    )


def _query_loop(index, sets, seconds, atol, tally, phase, corrupt=False):
    """Closed loop over whole size cycles until ``seconds`` are measured.

    Returns the per-call latencies and the busy time of each cycle.
    """
    cycle = len(OFFLINE_SET_SIZES)
    latencies, cycles = [], []
    for position, query_set in enumerate(sets):
        if position % cycle == 0:
            if sum(cycles) >= seconds:
                break
            cycles.append(0.0)
        start = time.perf_counter()
        block = index.query(query_set)
        elapsed = time.perf_counter() - start
        latencies.append(elapsed)
        cycles[-1] += elapsed
        if corrupt and position == 3:
            block[0, 0] += 1.0
        ok = _check(index, query_set, block, atol)
        tally.add(phase, ok=int(ok), failed=int(not ok))
        del block
    return latencies, cycles


def run(args, graph, env: Dict[str, object]) -> Dict[str, object]:
    from repro import CSRPlusIndex
    from repro.core.config import CSRPlusConfig
    from repro.core.dynamic import DynamicCSRPlus
    from repro.core.index import batched_query_atol

    tally, gate = Tally(), StealGate()
    config = CSRPlusConfig(rank=16, damping=0.6, dtype="float64")
    sets = offline_sets(args.seed, graph.num_nodes, cycles=400)
    batches = edge_batches(args.seed, graph, ROUNDS, UPDATE_BATCH_EDGES)
    env["inputs"] = {
        "query_sets": digest_arrays(sets),
        "edge_batches": digest_arrays([np.asarray(b) for b in batches]),
    }
    atol = batched_query_atol(config.rank, config.dtype)

    state: Dict[str, object] = {}

    def prepare(_attempt):
        # one index alive at a time, whatever the attempt, so the
        # process's peak memory does not depend on repeats
        state.pop("index", None)
        gc.collect()
        start = time.perf_counter()
        state["index"] = CSRPlusIndex(graph, config).prepare()
        return time.perf_counter() - start

    def update(_attempt, batch):
        base = state["index"]
        dynamic = DynamicCSRPlus(base.graph, config, policy="manual", index=base)
        gc.collect()
        start = time.perf_counter()
        dynamic.update_edges(added=batch)
        dynamic.refresh()
        seconds = time.perf_counter() - start
        # the refreshed index covers the batch and still answers right
        fresh = dynamic.index
        ok = fresh.graph.num_edges == graph.num_edges + len(batch) and (
            _check(fresh, sets[0], fresh.query(sets[0]), atol)
        )
        tally.add("updates", ok=int(ok), failed=int(not ok))
        return seconds

    setup, updates, latencies, cycles = [], [], [], []
    # query sets consumed so far: each round asks fresh ones, and a fast
    # (tiny-tier) run wraps round to the first
    used = 0
    for round_, batch in enumerate(batches):
        setup.append(gate.measure(prepare))
        index = state["index"]
        slice_latencies, slice_cycles = gate.measure(
            lambda _attempt: _query_loop(
                index, itertools.islice(itertools.cycle(sets), used, None),
                args.seconds / ROUNDS, atol, tally, "queries",
                args.corrupt and round_ == 0,
            )
        )
        used += len(slice_latencies)
        latencies += slice_latencies
        cycles += slice_cycles
        if not args.trace:
            updates.append(gate.measure(lambda attempt: update(attempt, batch)))
        del index
    log(f"lib-offline: prepare {['%.3f' % s for s in setup]} s")
    log(f"lib-offline: {len(cycles)} cycles of {len(OFFLINE_SET_SIZES)} calls"
        f" in {sum(cycles):.2f} s")

    result: Dict[str, object] = {"tally": tally}
    if args.trace:
        result["layers"] = _layers(
            args, graph, config, state["index"], sets, latencies, atol, tally
        )
        return result
    log(f"lib-offline: updates {['%.3f' % s for s in updates]} s")
    state.clear()

    result["metrics"] = {
        "setup_s": median(setup),
        "p50_ms": quantile(latencies, 0.50) * 1e3,
        "p95_ms": quantile(latencies, 0.95) * 1e3,
        # per-cycle rates, medianed: robust to a burst of interference
        "capacity_rps": len(OFFLINE_SET_SIZES) / median(cycles),
        "cols_per_s": sum(OFFLINE_SET_SIZES) / median(cycles),
        "update_s": median(updates),
        "peak_rss_mb": self_peak_rss_mb(),
    }
    result["samples"] = len(latencies)
    return result


def prepare_layers(graph, config):
    """Prepare-stage times from the program's own ``prepare.*`` spans.

    ``graphs.transition_s`` has no span of its own (prepare builds ``Q``
    inline), so it is timed by a direct call to ``transition_matrix``.
    Returns the layer figures and the traced index.
    """
    import repro.obs as obs
    from repro import CSRPlusIndex
    from repro.graphs import transition_matrix

    transition = []
    for _ in range(3):
        start = time.perf_counter()
        transition_matrix(graph)
        transition.append(time.perf_counter() - start)
    tracer = obs.get_tracer()
    with obs.instrumentation(True):
        tracer.reset()
        index = CSRPlusIndex(graph, config).prepare()
        roots = tracer.as_dict()["spans"]
        tracer.reset()
    root = next(span for span in roots if span["name"] == "prepare")
    stages = {child["name"]: child for child in root.get("children", [])}
    stein = stages["prepare.stein"]
    return {
        "graphs.transition_s": median(transition),
        "linalg.svd_s": stages["prepare.svd"]["wall_seconds"],
        "linalg.stein_s": stein["wall_seconds"],
        "linalg.stein_iterations": float(
            stein.get("attributes", {}).get("iterations", 0)
        ),
        "core.assemble_s": stages["prepare.assemble"]["wall_seconds"],
        "traced_prepare_s": root["wall_seconds"],
    }, index


def exact_kernel_layers(index, sets) -> Dict[str, float]:
    """``query_columns(mode="exact")`` replayed on the given sets."""
    columns, busy = 0, 0.0
    for query_set in sets:
        start = time.perf_counter()
        index.query_columns(query_set, mode="exact")
        busy += time.perf_counter() - start
        columns += len(query_set)
    cols_per_s = columns / busy
    z_bytes = index.num_nodes * index.rank * np.dtype(index.dtype).itemsize
    return {
        "core.exact_cols_per_s": cols_per_s,
        "core.exact_gb_per_s": z_bytes * cols_per_s / 1e9,
    }


def _layers(args, graph, config, index, sets, latencies, atol, tally):
    """Prepare stages, the exact kernel, reconciliation and overhead."""
    import repro.obs as obs

    layers, _ = prepare_layers(graph, config)
    layers.update(exact_kernel_layers(index, sets[: 2 * len(OFFLINE_SET_SIZES)]))
    # the same query loop again, with the program's instrumentation on
    with obs.instrumentation(True):
        traced, _ = _query_loop(
            index, sets, min(args.seconds, 3.0), atol, tally, "traced-queries"
        )
        obs.get_tracer().reset()
    stage_sum = sum(
        layers[name]
        for name in (
            "graphs.transition_s", "linalg.svd_s", "linalg.stein_s",
            "core.assemble_s",
        )
    )
    layers["trace.e2e_ms"] = layers["traced_prepare_s"] * 1e3
    layers["trace.reconcile_ratio"] = stage_sum / layers.pop("traced_prepare_s")
    layers["trace.overhead_ms"] = (
        quantile(traced, 0.5) - quantile(latencies, 0.5)
    ) * 1e3
    return layers
