"""CSR+ benchmark: one command, two workloads, every metric with its unit.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload lib-offline --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones (a separate run, see GLOSSARY.md).  Human-readable lines go first:
the environment record, the input digests, the metrics and the
per-phase request counts.  The last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  Any wrong answer
makes ``correct`` false and the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import SRC, log  # noqa: E402

WORKLOADS = ("lib-offline", "http-topk-uniform")

#: End-to-end metrics (``--trace 0``): every workload prints all of them,
#: and they are the bounded ones in BENCHMARK.json.
END_TO_END = {
    "setup_s": "s",
    "p50_ms": "ms",
    "cols_per_s": "col/s",
    "update_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "fraction",
}

#: End-to-end figures printed on the human-readable lines of every plain
#: run but not bounded: on the 2-CPU reference box their spread across
#: runs exceeds any usable bound (GLOSSARY.md gives the numbers).
REPORTED = {
    "p95_ms": "ms",
    "capacity_rps": "req/s",
    "failed_frac": "fraction",
}

#: Per-layer metrics (``--trace 1``).  A workload reports 0 for a layer
#: its operations never reach (GLOSSARY.md lists which).
PER_LAYER = {
    "graphs.transition_s": "s",
    "linalg.svd_s": "s",
    "linalg.stein_s": "s",
    "linalg.stein_iterations": "count",
    "core.assemble_s": "s",
    "core.exact_cols_per_s": "col/s",
    "core.exact_gb_per_s": "GB/s",
    "core.topk_seeds_per_s": "seed/s",
    "core.topk_blocks_skipped_frac": "fraction",
    "sharding.build_s": "s",
    "sharding.repair_s": "s",
    "sharding.repaired_shards_frac": "fraction",
    "sharding.exact_cols_per_s": "col/s",
    "service.coalesce_ms": "ms",
    "service.lookup_ms": "ms",
    "service.compute_ms": "ms",
    "service.assemble_ms": "ms",
    "service.cache_hit_ratio": "fraction",
    "service.topk_cache_hit_ratio": "fraction",
    "service.requests_per_batch": "count",
    "service.shed_frac": "fraction",
    "frontend.server_ms": "ms",
    "frontend.wire_ms": "ms",
    "frontend.encode_ms": "ms",
    "frontend.decode_ms": "ms",
    "frontend.response_kb": "KB",
    "frontend.rpc_ms": "ms",
    "frontend.boot_s": "s",
    "frontend.worker_respawns": "count",
    "live.publish_ms": "ms",
    "live.cache_invalidated": "count",
    "loadgen.late_ms": "ms",
    "loadgen.late_frac": "fraction",
    "trace.e2e_ms": "ms",
    "trace.reconcile_ratio": "ratio",
    "trace.overhead_ms": "ms",
}

#: The traced run fails when the layer sum misses the end-to-end figure
#: by more than this share.
RECONCILE_TOLERANCE = 0.10


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tier", choices=("tiny", "small", "bench"), default="bench",
        help="TW stand-in size; the self-test uses tiny",
    )
    parser.add_argument(
        "--corrupt", action="store_true",
        help="alter one received answer before it is checked (self-test)",
    )
    return parser.parse_args(argv)


def _import_program() -> None:
    """Put the checkout's ``src`` on the path; exit 2 if it is missing."""
    if not (SRC / "repro" / "__init__.py").is_file():
        log(f"error: program sources not found under {SRC}")
        sys.exit(2)
    sys.path.insert(0, str(SRC))


def main(argv=None) -> int:
    args = parse_args(argv)
    _import_program()
    import common
    import inputs

    started = time.perf_counter()
    ticks = common.cpu_ticks()
    graph, graph_digest = inputs.load_graph(args.tier)
    # frontend workers and generator connections: nproc, capped at the
    # reference box's 2 so the traffic shape is the same on larger boxes
    workers = min(2, os.cpu_count() or 1)
    env = common.environment(workers)
    env["graph"] = {
        "dataset": f"TW/{args.tier}",
        "num_nodes": graph.num_nodes,
        "num_edges": graph.num_edges,
        "sha256": graph_digest,
    }
    if args.workload == "lib-offline":
        import offline

        result = offline.run(args, graph, env)
    else:
        import served

        result = served.run(args, graph, env, workers)

    tally = result["tally"]
    if args.trace:
        layers = result["layers"]
        metrics = {
            name: (float(layers.get(name, 0.0)), unit)
            for name, unit in PER_LAYER.items()
        }
        ratio = metrics["trace.reconcile_ratio"][0]
        if abs(ratio - 1.0) > RECONCILE_TOLERANCE:
            tally.add("reconciliation", failed=1)
            log(f"reconciliation failed: layer sum / end-to-end = {ratio:.3f}")
        else:
            tally.add("reconciliation", ok=1)
    else:
        values = dict(result["metrics"])
        values["failed_frac"] = tally.failed / max(tally.attempted, 1)
        values["ok_frac"] = 1.0 - values["failed_frac"]
        metrics = {
            name: (float(values[name]), unit)
            for name, unit in END_TO_END.items()
        }
        reported = {
            name: (float(values[name]), unit)
            for name, unit in REPORTED.items()
        }
    correct = tally.failed == 0

    print("environment: " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"({time.perf_counter() - started:.1f} s wall, CPU steal "
          f"{common.steal_share(ticks, common.cpu_ticks()):.1%})")
    if "samples" in result:
        print(f"  latency samples: {result['samples']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<32} {value:>14.6g} {unit}")
    if not args.trace:
        for name, (value, unit) in reported.items():
            print(f"  {name:<32} {value:>14.6g} {unit}  (reported, not bounded)")
    print("\n".join(tally.render()))
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
