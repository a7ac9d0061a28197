"""Command-line interface.

::

    csrplus experiments list
    csrplus experiments run fig2 [--tier bench]
    csrplus datasets
    csrplus query --dataset FB --tier small --queries 3,14,15 --rank 5 --top 10
    csrplus query --edge-list graph.txt --queries 0,1 --rank 8
    csrplus shard-build --dataset FB --tier small --rank 5 --out fb.shards \
        --num-shards 4
    csrplus query --shards fb.shards --queries 3,14,15 --top 10
    csrplus serve-batch --dataset FB --tier small --queries-file q.txt --json
    csrplus serve-batch --shards fb.shards --queries-file q.txt --json
    csrplus serve-batch --dataset FB --queries-file q.txt \
        --metrics-out metrics.prom --trace-out trace.json
    csrplus stats --metrics-file metrics.prom --trace-file trace.json
    csrplus update --store fb.shards --out fb.shards.v1 --dataset FB \
        --tier small --add 3:14,7:2 --remove 5:6
    csrplus serve-batch --dataset FB --tier small --queries-file q.txt \
        --live --mutate-per-pass 2
    csrplus loadgen --dataset FB --tier small --requests 500 --qps 200 \
        --zipf 1.1 --slo-p99-ms 250 --fail-on-slo
    csrplus loadgen --dataset FB --tier small --requests 500 \
        --mutate-every 50 --mutate-edges 2
    csrplus loadgen --dataset FB --tier small --requests 500 \
        --max-inflight-seeds 4 --quality auto --slo-availability 0.99
    csrplus serve --shards fb.shards --port 8350 --workers 4
    csrplus serve --dataset FB --tier small --store fb.shards --workers 4
    csrplus loadgen --url http://127.0.0.1:8350 --requests 500 --qps 200 \
        --slo-p99-ms 250 --fail-on-slo
    csrplus bench --dataset FB --tier tiny --out BENCH_today.json
    csrplus bench --dataset FB --tier tiny --compare BENCH_prior.json

(Also reachable as ``python -m repro``.)
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from contextlib import contextmanager
from typing import List, Optional

from repro.core.config import CSRPlusConfig
from repro.datasets.registry import dataset_keys
from repro.errors import InvalidParameterError, ReproError

__all__ = ["main", "build_parser"]


TIERS = ("tiny", "small", "bench")


# Flag families shared by several subcommands, each declared once.


def _add_tier(
    parser: argparse.ArgumentParser, default: Optional[str] = "small"
) -> None:
    parser.add_argument(
        "--tier", choices=TIERS, default=default, help="dataset size tier"
    )


def _add_graph_source(
    parser: argparse.ArgumentParser, *, required: bool = True, shards: bool = False
):
    """The ``--dataset``/``--edge-list`` group (with ``--shards`` as a
    third source when ``shards``) plus ``--tier``; returns the group so
    a subcommand can add its own source option."""
    source = parser.add_mutually_exclusive_group(required=required)
    source.add_argument("--dataset", choices=dataset_keys(), help="built-in stand-in")
    source.add_argument("--edge-list", help="path to a SNAP-style edge list")
    if shards:
        source.add_argument(
            "--shards", metavar="DIR",
            help="serve from a sharded store built by 'csrplus shard-build' "
            "(rank/damping come from its manifest; --rank/--damping are "
            "ignored)",
        )
    _add_tier(parser)
    return source


def _add_damping(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--damping", type=float, default=0.6, help="CoSimRank damping factor c"
    )


def _add_index_shape(parser: argparse.ArgumentParser, rank: int = 5) -> None:
    parser.add_argument("--rank", type=int, default=rank, help="SVD rank r")
    _add_damping(parser)


def _add_json(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )


def _add_dumps(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write metrics here after the run (Prometheus text format, "
        "or JSON when PATH ends with .json)",
    )
    parser.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="write the span trace here as JSON",
    )


def _add_query_mode(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--query-mode", choices=("exact", "batched"), default="exact",
        help="column evaluation: 'exact' = einsum kernel (bit-exact, "
        "default), 'batched' = one GEMM per batch (faster at large |Q|, "
        "tolerance-equal; docs/serving.md)",
    )


def _add_service_knobs(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache-columns", type=int, default=1024,
        help="LRU capacity in result columns (0 disables the cache)",
    )
    parser.add_argument(
        "--max-inflight-seeds", type=int, default=None, metavar="N",
        help="admission-control budget: shed batches once this many "
        "distinct seed columns are in flight (ServiceOverloaded)",
    )


def _add_request_knobs(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--topk", type=int, default=None, metavar="K",
        help="serve top-K rankings instead of full columns, answered by "
        "the blockwise pruned kernel (docs/topk.md)",
    )
    parser.add_argument(
        "--deadline-ms", type=float, default=None, metavar="MS",
        help="deadline of each serve call (a serve-batch pass, a loadgen "
        "request); chunks not started in time are cancelled (typed "
        "DeadlineExceeded)",
    )
    parser.add_argument(
        "--quality", choices=("exact", "approx", "auto"), default="exact",
        help="serving tier: 'exact' (default), 'approx' = answer from "
        "the rank-truncated replica within its published atol, 'auto' = "
        "exact but downgrade would-be sheds to the replica "
        "(docs/approx.md; needs a graph source, not --shards)",
    )


def _add_mutate_seed(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--mutate-seed", type=int, default=0,
        help="RNG seed for the live edge batches",
    )


def _add_load_profile(parser: argparse.ArgumentParser, qps: float) -> None:
    parser.add_argument(
        "--requests", type=int, default=200, help="loadgen requests"
    )
    parser.add_argument(
        "--qps", type=float, default=qps, help="loadgen base offered rate"
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="loadgen RNG seed; the schedule is a pure function of the "
        "profile",
    )
    parser.add_argument(
        "--simulate", action="store_true",
        help="run loadgen on a virtual clock: no real waiting, "
        "byte-identical loadgen reports across runs",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csrplus",
        description="CSR+: scalable multi-source CoSimRank search (EDBT 2024 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    exp = sub.add_parser("experiments", help="list or run the paper's experiments")
    exp_sub = exp.add_subparsers(dest="subcommand", required=True)
    exp_sub.add_parser("list", help="list experiment ids")
    exp_run = exp_sub.add_parser("run", help="run one experiment (or all)")
    exp_run.add_argument(
        "exp_id", help="experiment id (e.g. fig2, tab3) or 'all'"
    )
    _add_tier(exp_run, default=None)
    exp_run.add_argument(
        "--output",
        default=None,
        help="also append the rendered result(s) to this file",
    )

    sub.add_parser("datasets", help="show the paper's dataset table")

    query = sub.add_parser("query", help="run a multi-source CoSimRank query")
    _add_graph_source(query, shards=True)
    query.add_argument(
        "--queries", required=True, help="comma-separated node ids, e.g. 3,14,15"
    )
    _add_index_shape(query)
    _add_query_mode(query)
    query.add_argument("--top", type=int, default=10, help="rows to print per query")

    shard = sub.add_parser(
        "shard-build",
        help="build a sharded on-disk index (out-of-core by default)",
    )
    _add_graph_source(shard)
    shard.add_argument(
        "--out", required=True, metavar="DIR",
        help="shard-store directory to create (manifest + .npy shards)",
    )
    _add_index_shape(shard)
    shard.add_argument(
        "--num-shards", type=int, default=4, metavar="K",
        help="node-range shards to cut the factors into (clamped to n)",
    )
    shard.add_argument(
        "--dtype", choices=("float64", "float32"), default="float64",
        help="stored factor precision (compute is always float64)",
    )
    shard.add_argument(
        "--block-rows", type=int, default=None, metavar="ROWS",
        help="streaming block height for the out-of-core builder "
        "(default: adaptive, <= 1/8 of n capped at 4096)",
    )
    shard.add_argument(
        "--from-index", action="store_true",
        help="prepare a monolithic index in RAM and slice it "
        "(byte-identical shards) instead of the out-of-core build",
    )
    shard.add_argument(
        "--overwrite", action="store_true",
        help="replace an existing store at --out",
    )
    _add_json(shard)

    update = sub.add_parser(
        "update",
        help="apply an edge batch to a sharded store, writing the next "
        "version into a new directory (docs/dynamic.md)",
    )
    _add_graph_source(update)
    update.add_argument(
        "--store", required=True, metavar="DIR",
        help="existing shard store (csrplus shard-build); never modified",
    )
    update.add_argument(
        "--out", required=True, metavar="DIR",
        help="directory for the repaired next-version store",
    )
    update.add_argument(
        "--add", default="", metavar="SRC:DST,...",
        help="edges to add, e.g. 3:14,7:2",
    )
    update.add_argument(
        "--remove", default="", metavar="SRC:DST,...",
        help="edges to remove (missing edges are ignored)",
    )
    update.add_argument(
        "--overwrite", action="store_true",
        help="replace an existing store at --out",
    )
    _add_json(update)

    serve = sub.add_parser(
        "serve-batch",
        help="serve a file of multi-source requests through CoSimRankService",
    )
    _add_graph_source(serve, shards=True)
    serve.add_argument(
        "--queries-file",
        required=True,
        help="one request per line: comma/space-separated node ids "
        "('#' starts a comment)",
    )
    _add_index_shape(serve)
    _add_service_knobs(serve)
    serve.add_argument(
        "--workers", type=int, default=0,
        help="threads for miss computation (0 = one per CPU, 1 = serial)",
    )
    serve.add_argument(
        "--chunk-size", type=int, default=64,
        help="cache misses handed to one worker task at a time",
    )
    _add_query_mode(serve)
    _add_request_knobs(serve)
    serve.add_argument(
        "--repeat", type=int, default=2,
        help="serve the batch this many times (pass 1 is cold, later "
        "passes measure the warm cache)",
    )
    serve.add_argument(
        "--partial", action="store_true",
        help="graceful degradation: report failed requests instead of "
        "aborting the pass (successful blocks stay bit-exact)",
    )
    serve.add_argument(
        "--cache-validate", action="store_true",
        help="checksum cached columns on every hit; poisoned entries "
        "are evicted and recomputed instead of served",
    )
    serve.add_argument(
        "--index-dir", default=None,
        help="registry directory: load the prepared index from here if "
        "present, else build once and save",
    )
    serve.add_argument(
        "--index-name", default=None,
        help="registry key under --index-dir (default: derived from the "
        "source and rank)",
    )
    _add_json(serve)
    _add_dumps(serve)
    serve.add_argument(
        "--slow-query-ms", type=float, default=None, metavar="MS",
        help="log batches slower than this many milliseconds and count "
        "them in csrplus_serve_slow_batches_total",
    )
    serve.add_argument(
        "--live", action="store_true",
        help="serve through a LiveIndexChain: a random edge batch is "
        "applied between passes and each new version is swapped in "
        "with zero downtime (docs/dynamic.md; needs a graph source, "
        "not --shards)",
    )
    serve.add_argument(
        "--live-shards", type=int, default=None, metavar="K",
        help="shard the live backend into K node ranges and route "
        "updates through shard repair (requires --live-store)",
    )
    serve.add_argument(
        "--live-store", default=None, metavar="DIR",
        help="root directory for the per-version shard stores of a "
        "sharded live chain",
    )
    serve.add_argument(
        "--mutate-per-pass", type=int, default=1, metavar="N",
        help="random edges added per between-pass update batch "
        "(with --live)",
    )
    _add_mutate_seed(serve)

    stats = sub.add_parser(
        "stats",
        help="structural statistics of a graph, or pretty-print a "
        "metrics/trace dump",
    )
    _add_graph_source(stats, required=False)
    stats.add_argument(
        "--metrics-file", default=None, metavar="PATH",
        help="pretty-print a metrics dump written by serve-batch "
        "--metrics-out (.prom text or .json)",
    )
    stats.add_argument(
        "--trace-file", default=None, metavar="PATH",
        help="render a span tree from a trace written by serve-batch "
        "--trace-out",
    )

    loadgen = sub.add_parser(
        "loadgen",
        help="drive the service with deterministic Zipf/burst traffic "
        "and report QPS, latency percentiles, and SLO verdicts",
    )
    _add_graph_source(loadgen).add_argument(
        "--url", metavar="http://HOST:PORT",
        help="drive a running 'csrplus serve' frontend over HTTP with "
        "keep-alive connections instead of an in-process service "
        "(seed range comes from /healthz; service-side knobs like "
        "--cache-columns/--query-mode/--max-inflight-seeds are the "
        "server's and are ignored here)",
    )
    _add_index_shape(loadgen)
    _add_load_profile(loadgen, qps=200.0)
    loadgen.add_argument(
        "--seeds-per-request", type=int, default=4, metavar="N",
        help="distinct seed ids per multi-source request",
    )
    loadgen.add_argument(
        "--zipf", type=float, default=1.1, metavar="S",
        help="seed-popularity skew exponent (0 = uniform)",
    )
    loadgen.add_argument(
        "--burst-factor", type=float, default=1.0, metavar="X",
        help="arrival-rate multiplier during burst windows (1 = steady)",
    )
    loadgen.add_argument(
        "--burst-period-s", type=float, default=1.0, metavar="S",
        help="length of one burst cycle",
    )
    loadgen.add_argument(
        "--burst-duty", type=float, default=0.5, metavar="F",
        help="fraction of each cycle at the burst rate",
    )
    _add_request_knobs(loadgen)
    _add_service_knobs(loadgen)
    _add_query_mode(loadgen)
    loadgen.add_argument(
        "--mutate-every", type=int, default=0, metavar="N",
        help="apply a live edge batch after every N dispatched requests "
        "(0 disables; the service serves across version swaps, "
        "docs/dynamic.md)",
    )
    loadgen.add_argument(
        "--mutate-edges", type=int, default=1, metavar="M",
        help="random edges added per mutation batch (with --mutate-every)",
    )
    _add_mutate_seed(loadgen)
    loadgen.add_argument(
        "--slo-p99-ms", type=float, default=None, metavar="MS",
        help="evaluate a p99-latency SLO at this threshold",
    )
    loadgen.add_argument(
        "--slo-p50-ms", type=float, default=None, metavar="MS",
        help="evaluate a p50-latency SLO at this threshold",
    )
    loadgen.add_argument(
        "--slo-availability", type=float, default=None, metavar="F",
        help="evaluate an availability SLO at this target, e.g. 0.999",
    )
    loadgen.add_argument(
        "--fail-on-slo", action="store_true",
        help="exit 4 when any evaluated SLO fails",
    )
    _add_json(loadgen)
    _add_dumps(loadgen)

    serve = sub.add_parser(
        "serve",
        help="run the multi-process HTTP frontend: an asyncio server "
        "fanning queries to worker processes that mmap a sharded store "
        "read-only (docs/frontend.md)",
    )
    _add_graph_source(serve, shards=True)
    serve.add_argument(
        "--store", metavar="DIR", default=None,
        help="store directory to build/reuse with a graph source",
    )
    _add_index_shape(serve)
    serve.add_argument(
        "--num-shards", type=int, default=4, metavar="K",
        help="shards when the store has to be built",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8350,
        help="listen port (0 = ephemeral, printed in the ready line)",
    )
    serve.add_argument(
        "--workers", type=int, default=4, metavar="N",
        help="worker processes; each opens the store via mmap, so all "
        "share one physical copy of Z in page cache",
    )
    serve.add_argument(
        "--chunk-size", type=int, default=16,
        help="seeds per worker task (smaller = more cross-process "
        "parallelism per batch, more pipe overhead)",
    )
    _add_query_mode(serve)
    _add_service_knobs(serve)
    serve.add_argument(
        "--no-admin", action="store_true",
        help="disable the /admin/* surface (publish, fault injection)",
    )
    serve.add_argument(
        "--validate-reads", action="store_true",
        help="workers re-verify shard digests on every read",
    )

    bench = sub.add_parser(
        "bench",
        help="measure the perf-trajectory suite; write/compare "
        "schema-versioned BENCH snapshots",
    )
    _add_graph_source(bench)
    _add_index_shape(bench, rank=16)
    _add_load_profile(bench, qps=500.0)
    bench.add_argument(
        "--topk", type=int, default=10, help="k for the top-k kernel lap"
    )
    bench.add_argument(
        "--frontend-workers", type=int, default=0, metavar="N",
        help="also boot the multi-process HTTP frontend with N workers "
        "and record frontend_columns_per_second / frontend_p99_ms "
        "(0 skips; docs/frontend.md)",
    )
    bench.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the snapshot here (default: BENCH_<utc-date>.json)",
    )
    bench.add_argument(
        "--compare", default=None, metavar="PATH",
        help="baseline snapshot of the same workload and environment; "
        "exit 5 when any metric regresses beyond --tolerance",
    )
    bench.add_argument(
        "--tolerance", type=float, default=None, metavar="F",
        help="relative slack before a metric counts as regressed "
        "(default 0.25)",
    )
    _add_json(bench)

    tune = sub.add_parser("tune", help="suggest an SVD rank for an error target")
    _add_graph_source(tune)
    tune.add_argument("--target-error", type=float, required=True)
    tune.add_argument(
        "--candidates", default="5,10,25,50,100",
        help="comma-separated candidate ranks",
    )
    _add_damping(tune)
    return parser


def _parse_ints(text: str, flag: str) -> List[int]:
    """Parse a comma-separated integer list such as ``--queries 3,14,15``."""
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise InvalidParameterError(
            f"{flag} expects comma-separated integers, got {text!r}"
        ) from None


def _seconds(ms: Optional[float]) -> Optional[float]:
    return ms / 1000.0 if ms is not None else None


def _load_graph(args: argparse.Namespace):
    from repro.datasets.registry import load_dataset
    from repro.graphs.io import read_edge_list

    if args.dataset:
        return load_dataset(args.dataset, args.tier)
    graph, _ = read_edge_list(args.edge_list)
    return graph


def _index_config(args: argparse.Namespace, graph, **extra) -> CSRPlusConfig:
    """``--rank``/``--damping`` as a config, the rank clamped to ``n``."""
    return CSRPlusConfig(
        damping=args.damping, rank=min(args.rank, graph.num_nodes), **extra
    )


def _cmd_experiments(args: argparse.Namespace) -> int:
    from repro.experiments.runner import list_experiments, run_experiment

    if args.subcommand == "list":
        for exp_id in list_experiments():
            print(exp_id)
        return 0
    exp_ids = list_experiments() if args.exp_id == "all" else [args.exp_id]
    rendered = []
    for exp_id in exp_ids:
        kwargs = {}
        # only forward --tier to runners that accept it
        if args.tier is not None and exp_id in (
            "fig2", "fig3", "fig6", "fig7", "ablation-stages"
        ):
            kwargs["tier"] = args.tier
        result = run_experiment(exp_id, **kwargs)
        text = result.render()
        print(text)
        print()
        rendered.append(text)
    if args.output:
        with open(args.output, "a", encoding="utf-8") as handle:
            for text in rendered:
                handle.write(text + "\n\n")
    return 0


def _cmd_datasets(args: argparse.Namespace) -> int:
    from repro.datasets.registry import paper_table
    from repro.experiments.report import render_table

    rows = paper_table()
    print(render_table(["Data", "m", "n", "m/n", "Description"], rows))
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    queries = _parse_ints(args.queries, "--queries")
    if args.top < 1:
        raise InvalidParameterError(f"--top must be >= 1, got {args.top}")
    if args.shards:
        from repro.sharding import ShardedIndex

        with ShardedIndex(args.shards, query_mode=args.query_mode) as index:
            started = time.perf_counter()
            block = index.query(queries)
            elapsed = time.perf_counter() - started
            print(
                f"store: n={index.num_nodes} shards={index.num_shards}  "
                f"rank={index.rank} c={index.damping} "
                f"dtype={index.dtype.name}  query={elapsed:.4f}s"
            )
    else:
        from repro.core.index import CSRPlusIndex

        graph = _load_graph(args)
        config = _index_config(args, graph, query_mode=args.query_mode)
        index = CSRPlusIndex(graph, config).prepare()
        block = index.query(queries)
        print(
            f"graph: n={graph.num_nodes} m={graph.num_edges}  "
            f"rank={config.rank} c={config.damping}  "
            f"prepare={index.prepare_seconds:.3f}s "
            f"query={index.last_query_seconds:.4f}s"
        )
    for col, q in enumerate(queries):
        order = block[:, col].argsort()[::-1][: args.top]
        print(f"\ntop-{args.top} most similar to node {q}:")
        for node in order:
            print(f"  {int(node):>10d}  {block[int(node), col]:.6f}")
    return 0


def _cmd_shard_build(args: argparse.Namespace) -> int:
    from repro.core.index import CSRPlusIndex
    from repro.core.memory import MemoryMeter
    from repro.sharding import build_sharded_store, shard_index

    graph = _load_graph(args)
    config = _index_config(args, graph, dtype=args.dtype)
    started = time.perf_counter()
    if args.from_index:
        index = CSRPlusIndex(graph, config).prepare()
        store = shard_index(
            index, args.out, num_shards=args.num_shards, overwrite=args.overwrite
        )
        peak_bytes = None
    else:
        meter = MemoryMeter()
        store = build_sharded_store(
            graph,
            args.out,
            num_shards=args.num_shards,
            config=config,
            block_rows=args.block_rows,
            overwrite=args.overwrite,
            memory=meter,
        )
        peak_bytes = meter.peak_bytes
    elapsed = time.perf_counter() - started

    manifest = store.manifest
    shard_bytes = sum(
        os.path.getsize(os.path.join(store.path, name))
        for meta in manifest.shards
        for name in (meta.z_file, meta.u_file)
    )
    payload = {
        "path": store.path,
        "builder": manifest.builder,
        "num_nodes": manifest.num_nodes,
        "num_edges": graph.num_edges,
        "rank": manifest.rank,
        "damping": manifest.damping,
        "dtype": manifest.dtype,
        "num_shards": manifest.num_shards,
        "shard_rows": [meta.num_rows for meta in manifest.shards],
        "store_bytes": shard_bytes,
        "build_seconds": elapsed,
        "peak_resident_bytes": peak_bytes,
    }
    if args.json:
        print(json.dumps(payload, indent=2))
        return 0
    print(
        f"sharded store written to {store.path} ({manifest.builder}): "
        f"n={manifest.num_nodes} rank={manifest.rank} c={manifest.damping} "
        f"dtype={manifest.dtype}"
    )
    print(
        f"shards: {manifest.num_shards} x ~{manifest.shards[0].num_rows} rows, "
        f"{shard_bytes / 1e6:.2f} MB on disk, built in {elapsed:.3f}s"
    )
    if peak_bytes is not None:
        print(f"peak resident (ledger): {peak_bytes / 1e6:.2f} MB")
    return 0


def _parse_edge_pairs(text: str, flag: str) -> List[tuple]:
    """Parse ``SRC:DST,SRC:DST,...`` edge batches from the CLI."""
    edges = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        src, sep, dst = token.partition(":")
        try:
            if not sep:
                raise ValueError
            edges.append((int(src), int(dst)))
        except ValueError:
            raise InvalidParameterError(
                f"{flag} expects comma-separated SRC:DST pairs, got {token!r}"
            ) from None
    return edges


def _cmd_update(args: argparse.Namespace) -> int:
    from repro.sharding import repair_sharded_store

    added = _parse_edge_pairs(args.add, "--add")
    removed = _parse_edge_pairs(args.remove, "--remove")
    if not added and not removed:
        raise InvalidParameterError(
            "update needs at least one edge via --add or --remove"
        )
    graph = _load_graph(args)
    graph = graph.with_edges_added(added).with_edges_removed(removed)
    started = time.perf_counter()
    report = repair_sharded_store(
        graph, args.store, args.out, overwrite=args.overwrite
    )
    elapsed = time.perf_counter() - started
    payload = {
        "store": args.store,
        "out": report.path,
        "edges_added": len(added),
        "edges_removed": len(removed),
        "repaired_shards": list(report.repaired_shards),
        "total_shards": report.total_shards,
        "repair_seconds": elapsed,
    }
    if args.json:
        print(json.dumps(payload, indent=2))
        return 0
    print(
        f"repair: {len(report.repaired_shards)}/{report.total_shards} "
        f"shard(s) changed in {elapsed:.3f}s"
    )
    print(
        f"next-version store written to {report.path} "
        f"(+{len(added)}/-{len(removed)} edges)"
    )
    return 0


def _read_requests_file(path: str) -> List[List[int]]:
    """Parse a serve-batch query file: one request per non-empty line."""
    from repro.errors import GraphFormatError, QueryError

    requests: List[List[int]] = []
    try:
        handle = open(path, encoding="utf-8")
    except OSError as exc:
        raise QueryError(f"cannot read queries file {path!r}: {exc}") from exc
    with handle:
        for lineno, line in enumerate(handle, start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            try:
                ids = [int(tok) for tok in body.replace(",", " ").split()]
            except ValueError as exc:
                raise GraphFormatError(
                    f"{path}:{lineno}: expected integer node ids, got {body!r}"
                ) from exc
            requests.append(ids)
    if not requests:
        raise QueryError(f"no requests found in {path!r}")
    return requests


def _cmd_serve_batch(args: argparse.Namespace) -> int:
    import repro.obs as obs
    from repro.serving import CoSimRankService

    if args.metrics_out or args.trace_out:
        # The dumps are the point of these flags; make sure the
        # instrumented paths actually record.
        obs.enable()
    if args.slow_query_ms is not None:
        # The library ships a NullHandler; the CLI is an application, so
        # wire WARNING output up when the user asked for slow-query logs.
        import logging

        logging.basicConfig(level=logging.WARNING)
    if args.index_name and not args.index_dir:
        raise InvalidParameterError(
            "--index-name needs --index-dir (it names an entry of that "
            "registry)"
        )

    requests = _read_requests_file(args.queries_file)
    if args.shards:
        from repro.sharding import ShardedIndex

        if args.index_dir:
            raise InvalidParameterError(
                "--index-dir does not apply with --shards (the store "
                "directory already is the on-disk index)"
            )
        if args.live:
            raise InvalidParameterError(
                "--live needs a graph source (--dataset/--edge-list) so "
                "edge batches can be applied; --shards is read-only"
            )
        if args.quality != "exact":
            raise InvalidParameterError(
                "--quality approx/auto needs a graph source "
                "(--dataset/--edge-list) to build the replica from; "
                "--shards carries only the exact factors"
            )
        index = ShardedIndex(args.shards)
        num_nodes, num_edges = index.num_nodes, None
        config, chain, approx_index = index.config, None, None
    else:
        if args.live and args.live_shards is not None and not args.live_store:
            raise InvalidParameterError(
                "--live-shards needs --live-store (one directory per "
                "version is created beneath it)"
            )
        graph, config, index, chain, approx_index = _build_served_index(
            args,
            live=args.live,
            store_root=args.live_store,
            num_shards=args.live_shards,
            index_dir=args.index_dir,
        )
        num_nodes, num_edges = graph.num_nodes, graph.num_edges

    passes = []
    slow_query_seconds = _seconds(args.slow_query_ms)
    with CoSimRankService(
        index,
        cache_columns=args.cache_columns,
        max_workers=args.workers or None,
        chunk_size=args.chunk_size,
        query_mode=args.query_mode,
        max_inflight_seeds=args.max_inflight_seeds,
        cache_validate=args.cache_validate,
        slow_query_seconds=slow_query_seconds,
        approx_index=approx_index,
    ) as service:
        if chain is not None:
            mutate = _edge_mutator(
                chain, service, args.mutate_seed, num_nodes,
                args.mutate_per_pass,
            )
        options = dict(
            deadline_s=_seconds(args.deadline_ms), partial=args.partial,
            quality=args.quality,
        )
        if args.topk is not None:
            # every seed in the file becomes one top-k query
            seeds = [seed for request in requests for seed in request]
            unit = "seeds"
            serve = functools.partial(
                service.serve_topk, seeds, args.topk, **options
            )
        else:
            unit = "columns"
            serve = functools.partial(service.serve_batch, requests, **options)
        for pass_num in range(1, max(1, args.repeat) + 1):
            link = None
            if chain is not None and pass_num > 1:
                # live scenario: an edge batch lands between passes and
                # the repaired version is swapped in before this pass
                link = mutate()
            started = time.perf_counter()
            results = serve()
            elapsed = time.perf_counter() - started
            served = [result for result in results if result is not None]
            amount = (
                len(served) if args.topk is not None
                else sum(block.shape[1] for block in served)
            )
            entry = {
                "pass": pass_num,
                "seconds": elapsed,
                unit: amount,
                f"{unit}_per_second": amount / max(elapsed, 1e-12),
            }
            if args.partial:
                entry["failed_requests"] = len(results) - len(served)
            if chain is not None:
                entry["index_version"] = service.index_version
                if link is not None and chain.is_sharded:
                    entry["repaired_shards"] = len(link.repaired_shards)
            passes.append(entry)
        stats = service.stats()
        topk_stats = service.topk_stats() if args.topk is not None else None
    if args.shards:
        index.close()
    _write_dumps(args, service)

    # --partial trades typed errors for None holes; a non-zero exit is
    # the only signal scripted callers have that the batch came back
    # incomplete (deadline hit, shed, poisoned shard, ...).
    failed_requests = sum(entry.get("failed_requests", 0) for entry in passes)
    exit_code = 3 if args.partial and failed_requests else 0

    payload = {
        "num_nodes": num_nodes,
        "num_edges": num_edges,
        "rank": config.rank,
        "damping": config.damping,
        "requests": len(requests),
        "cache_columns": args.cache_columns,
        "workers": service.max_workers,
        "query_mode": service.query_mode,
        "quality": args.quality,
        "passes": passes,
        "stats": stats.as_dict(),
    }
    if approx_index is not None:
        payload["approx"] = {
            "rank": approx_index.rank,
            "atol": approx_index.approx_atol,
        }
    if topk_stats is not None:
        payload["topk"] = args.topk
        payload["topk_stats"] = topk_stats
    if chain is not None:
        payload["live"] = {
            "final_version": chain.version,
            "sharded": chain.is_sharded,
            "mutate_per_pass": args.mutate_per_pass,
            "mutate_seed": args.mutate_seed,
        }
    if slow_query_seconds is not None:
        payload["slow_batches"] = len(service.slow_queries())
    if args.json:
        print(json.dumps(payload, indent=2))
        return exit_code
    edges = "?" if num_edges is None else num_edges
    print(
        f"graph: n={num_nodes} m={edges}  "
        f"rank={config.rank} c={config.damping}  "
        f"requests={len(requests)} workers={service.max_workers} "
        f"mode={service.query_mode}"
    )
    what = f"top-{args.topk} rankings" if args.topk is not None else "columns"
    for entry in passes:
        live_note = ""
        if "index_version" in entry:
            live_note = f"  [v{entry['index_version']}"
            if "repaired_shards" in entry:
                live_note += (
                    f", {entry['repaired_shards']} shard(s) repaired"
                )
            live_note += "]"
        print(
            f"pass {entry['pass']}: {entry['seconds']:.4f}s  "
            f"{entry[unit]} {what}  "
            f"{entry[unit + '_per_second']:,.0f} {unit}/s{live_note}"
        )
    if chain is not None:
        print(
            f"live: final version v{chain.version} "
            f"({'sharded' if chain.is_sharded else 'monolithic'} chain, "
            f"{args.mutate_per_pass} edge(s) per between-pass batch)"
        )
    if topk_stats is not None:
        print(
            f"topk cache: {topk_stats['hits']} hits / "
            f"{topk_stats['misses']} misses, "
            f"{topk_stats['cached_entries']} rankings resident; "
            f"pruning: {topk_stats['candidates_scored']} candidates "
            f"scored, {topk_stats['blocks_scanned']} blocks scanned / "
            f"{topk_stats['blocks_skipped']} skipped"
        )
    print(
        f"cache: {stats.hits} hits / {stats.misses} misses "
        f"(rate {stats.hit_rate:.1%}), {stats.evictions} evictions, "
        f"{stats.bytes_cached / 1e6:.2f} MB resident"
    )
    print(
        f"phases: lookup {stats.lookup_seconds:.4f}s  "
        f"compute {stats.compute_seconds:.4f}s  "
        f"assemble {stats.assemble_seconds:.4f}s"
    )
    print(
        f"robustness: retries={stats.retries} shed={stats.shed} "
        f"deadline_exceeded={stats.deadline_exceeded} "
        f"degraded={stats.degraded_requests} "
        f"cache_integrity_failures={stats.cache_integrity_failures}"
    )
    if approx_index is not None:
        print(
            f"tiers: exact={stats.tier_exact} approx={stats.tier_approx} "
            f"downgrades={stats.approx_downgrades} "
            f"(replica rank={approx_index.rank}, "
            f"atol {approx_index.approx_atol:.3g})"
        )
    if slow_query_seconds is not None:
        print(
            f"slow batches: {len(service.slow_queries())} "
            f"(threshold {args.slow_query_ms:g} ms)"
        )
    _print_dump_paths(args)
    if exit_code:
        print(
            f"warning: {failed_requests} request(s) failed across "
            f"{len(passes)} pass(es); exiting {exit_code}",
            file=sys.stderr,
        )
    return exit_code


def _write_dumps(args: argparse.Namespace, target, *extra_registries) -> None:
    """Write ``--metrics-out`` and ``--trace-out`` when given.

    The metrics are the global (prepare) registry, ``target``'s (a
    service or frontend client) and ``extra_registries``: Prometheus
    text format by default, a structured JSON dump when the path ends
    with ``.json``.  The registries have disjoint metric names
    (``csrplus_prepare_*`` / ``csrplus_serve_*`` / ``csrplus_loadgen_*``),
    so merging their expositions is always valid.
    """
    import repro.obs as obs

    path = args.metrics_out
    if path:
        registries = (obs.get_registry(), target.registry, *extra_registries)
        with open(path, "w", encoding="utf-8") as handle:
            if path.endswith(".json"):
                json.dump(obs.registries_as_dict(*registries), handle, indent=2)
                handle.write("\n")
            else:
                handle.write(obs.render_prometheus(*registries))
    if args.trace_out:
        obs.get_tracer().write_json(args.trace_out)


def _print_dump_paths(args: argparse.Namespace) -> None:
    if args.metrics_out:
        print(f"metrics written to {args.metrics_out}")
    if args.trace_out:
        print(f"trace written to {args.trace_out}")


def _build_served_index(
    args: argparse.Namespace,
    *,
    live: bool,
    store_root: Optional[str] = None,
    num_shards: Optional[int] = None,
    index_dir: Optional[str] = None,
):
    """``(graph, config, index, chain, replica)`` for ``serve-batch`` and
    ``loadgen``.  The index is a live chain's head when ``live`` (else
    ``chain`` is ``None``), a registry entry under ``index_dir``, or a
    fresh build; ``replica`` is the degraded tier's (docs/approx.md)
    when ``args.quality`` is not ``"exact"``."""
    from repro.core.index import CSRPlusIndex, replica_rank

    graph = _load_graph(args)
    config = _index_config(args, graph)
    chain = None
    if live:
        from repro.serving import LiveIndexChain

        chain = LiveIndexChain(
            graph, config, store_root=store_root, num_shards=num_shards
        )
        index = chain.index
    elif index_dir:
        from repro.serving import IndexRegistry

        source = args.dataset or "edgelist"
        name = args.index_name or (
            f"{source}-{args.tier}-r{config.rank}-c{config.damping}"
        )
        index = IndexRegistry(index_dir).get(name, graph, config)
    else:
        index = CSRPlusIndex(graph, config).prepare()
    replica = None
    if args.quality != "exact":
        # truncate a monolithic index; prepare one first when serving
        # a sharded chain head
        base = index
        if not isinstance(base, CSRPlusIndex):
            base = CSRPlusIndex(graph, config).prepare()
        replica = base.truncate_to_rank(replica_rank(base.rank))
    return graph, config, index, chain, replica


def _edge_mutator(chain, service, seed: int, num_nodes: int, count: int):
    """Attach ``chain`` to ``service`` and return ``mutate()``: each call
    adds ``count`` seeded random non-self-loop edges through the chain,
    which swaps the repaired version into ``service`` live."""
    import numpy as np

    chain.attach(service)
    rng = np.random.default_rng(seed)

    def mutate(*_ignored):
        edges = []
        for _ in range(max(0, count)):
            src = int(rng.integers(num_nodes))
            dst = int((src + 1 + rng.integers(max(1, num_nodes - 1))) % num_nodes)
            edges.append((src, dst))
        return chain.update_edges(added=edges)

    return mutate


@contextmanager
def _loadgen_target(args: argparse.Namespace):
    """Yield ``(target, num_nodes, mutator, server)`` for ``loadgen``.

    With ``--url`` the target is a keep-alive
    :class:`~repro.serving.frontend.FrontendClient` that reconstructs
    the server's typed errors from the wire, so shed/deadline/degraded
    counts mean what they mean in process; ``server`` is its
    ``/healthz`` payload.  Otherwise it is an in-process
    :class:`~repro.serving.CoSimRankService` over
    :func:`_build_served_index`, with a live-edge ``mutator`` when
    ``--mutate-every`` is set, and ``server`` is ``None``.
    """
    if args.url:
        from repro.serving.frontend import FrontendClient

        if args.mutate_every:
            raise InvalidParameterError(
                "--mutate-every needs an in-process service "
                "(--dataset/--edge-list); mutate a frontend through its "
                "POST /admin/publish endpoint instead"
            )
        with FrontendClient(args.url) as client:
            health = client.healthz()
            yield client, int(health["num_nodes"]), None, health
        return
    from repro.serving import CoSimRankService

    graph, _, index, chain, approx_index = _build_served_index(
        args, live=bool(args.mutate_every)
    )
    with CoSimRankService(
        index,
        cache_columns=args.cache_columns,
        max_workers=1,
        query_mode=args.query_mode,
        max_inflight_seeds=args.max_inflight_seeds,
        approx_index=approx_index,
    ) as service:
        mutator = None
        if chain is not None:
            mutator = _edge_mutator(
                chain, service, args.mutate_seed, graph.num_nodes,
                args.mutate_edges,
            )
        yield service, graph.num_nodes, mutator, None


def _cmd_loadgen(args: argparse.Namespace) -> int:
    """``csrplus loadgen``: one open-loop driver for both targets.

    The schedule, SLO verdicts and outcome classification are the same
    in process and over HTTP; only the dispatch target differs
    (:func:`_loadgen_target`).
    """
    import repro.obs as obs
    from repro.obs.metrics import MetricsRegistry
    from repro.serving import (
        LoadProfile,
        SimulatedClock,
        build_schedule,
        loadgen_slos,
        run_load,
    )

    if args.metrics_out or args.trace_out:
        obs.enable()
    profile = LoadProfile(
        requests=args.requests,
        qps=args.qps,
        seeds_per_request=args.seeds_per_request,
        zipf_s=args.zipf,
        burst_factor=args.burst_factor,
        burst_period_s=args.burst_period_s,
        burst_duty=args.burst_duty,
        seed=args.seed,
    )
    slos = loadgen_slos(
        p99_ms=args.slo_p99_ms,
        p50_ms=args.slo_p50_ms,
        availability=args.slo_availability,
    )
    registry = MetricsRegistry()
    if args.simulate:
        sim = SimulatedClock()
        clock, sleep = sim.now, sim.sleep
    else:
        clock, sleep = time.monotonic, time.sleep
    with _loadgen_target(args) as (target, num_nodes, mutator, server):
        report = run_load(
            target,
            build_schedule(profile, num_nodes),
            topk=args.topk,
            deadline_s=_seconds(args.deadline_ms),
            quality=args.quality,
            slos=slos,
            registry=registry,
            clock=clock,
            sleep=sleep,
            mutator=mutator,
            mutate_every=args.mutate_every,
        )
    _write_dumps(args, target, registry)

    exit_code = 4 if args.fail_on_slo and not report.slo_ok else 0
    if args.json:
        payload = report.as_dict()
        if server is not None:
            payload["url"] = args.url
            payload["server"] = server
        print(json.dumps(payload, indent=2))
        return exit_code
    if server is not None:
        print(
            f"frontend: {args.url}  n={server['num_nodes']} "
            f"workers={server['workers_alive']}/{server['workers_total']} "
            f"mode={server['query_mode']} v{server['index_version']}"
        )
    print(report.render())
    if report.slo is not None:
        from repro.obs.slo import SLOReport, SLOResult

        table = SLOReport(
            results=[
                SLOResult(**{
                    key: value
                    for key, value in entry.items()
                    if key not in ("burn_rate", "budget_remaining")
                })
                for entry in report.slo["slos"]
            ]
        ).render()
        print(table)
    _print_dump_paths(args)
    if exit_code:
        print(
            "error: SLO verdicts failed; exiting 4 (--fail-on-slo)",
            file=sys.stderr,
        )
    return exit_code


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serving.frontend import FrontendConfig, FrontendServer
    from repro.serving.frontend.protocol import WIRE_VERSION
    from repro.sharding import REPLICA_DIR, replica_store_path

    if args.shards:
        if args.store:
            raise InvalidParameterError(
                "--store applies only with a graph source "
                "(--dataset/--edge-list); --shards already names the "
                "store to serve"
            )
        store_path = args.shards
        if not os.path.exists(os.path.join(store_path, "manifest.json")):
            raise InvalidParameterError(
                f"{store_path!r} is not a sharded store (no manifest.json); "
                "build one with 'csrplus shard-build'"
            )
    else:
        if not args.store:
            raise InvalidParameterError(
                "--store DIR is required with a graph source (the built "
                "store persists there for the next start)"
            )
        graph = _load_graph(args)
        store_path = args.store
        if not os.path.exists(os.path.join(store_path, "manifest.json")):
            from repro.sharding import build_sharded_store

            build_sharded_store(
                graph,
                store_path,
                num_shards=args.num_shards,
                config=_index_config(args, graph, query_mode=args.query_mode),
                replica_path=os.path.join(store_path, REPLICA_DIR),
            )
            print(
                f"built sharded store and its replica at {store_path}",
                file=sys.stderr,
            )

    config = FrontendConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        chunk_size=args.chunk_size,
        query_mode=args.query_mode,
        cache_columns=args.cache_columns,
        max_inflight_seeds=args.max_inflight_seeds,
        admin=not args.no_admin,
        validate_reads=args.validate_reads,
    )
    server = FrontendServer(store_path, config=config)

    async def _run() -> None:
        await server.start()
        server.install_signal_handlers()
        # one machine-readable ready line so wrappers can scrape the
        # bound port and worker pids, then block until SIGTERM/SIGINT
        # completes the graceful drain
        print(
            json.dumps({
                "ready": True,
                "url": server.url,
                "protocol": WIRE_VERSION,
                "num_nodes": server.num_nodes,
                "workers": server.pool.worker_pids(),
                "store": store_path,
                "quality_tiers": replica_store_path(store_path) is not None,
            }),
            flush=True,
        )
        await server.run_until_drained()

    asyncio.run(_run())
    print("frontend drained, exiting", file=sys.stderr)
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from datetime import datetime, timezone

    from repro.bench import (
        DEFAULT_TOLERANCE,
        check_comparable,
        compare_snapshots,
        load_snapshot,
        render_comparison,
        run_bench,
        write_snapshot,
    )
    from repro.serving import LoadProfile

    graph = _load_graph(args)
    profile = LoadProfile(
        requests=args.requests, qps=args.qps, seed=args.seed
    )
    payload = run_bench(
        graph,
        rank=args.rank,
        damping=args.damping,
        profile=profile,
        topk=args.topk,
        simulate=args.simulate,
        frontend_workers=args.frontend_workers,
    )
    out = args.out or (
        f"BENCH_{datetime.now(timezone.utc).strftime('%Y-%m-%d')}.json"
    )
    write_snapshot(payload, out)

    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(f"bench snapshot written to {out}")
        for name, metric in payload["metrics"].items():
            print(
                f"  {name:<32} {metric['value']:>12.4g} {metric['unit']:<10}"
                f" ({metric['direction']} is better)"
            )
        if payload.get("slo"):
            print("slo ok:", payload["slo"]["ok"])

    if args.compare:
        tolerance = (
            args.tolerance if args.tolerance is not None else DEFAULT_TOLERANCE
        )
        baseline = load_snapshot(args.compare)
        check_comparable(baseline, payload)
        regressions = compare_snapshots(baseline, payload, tolerance)
        print(render_comparison(baseline, payload, regressions, tolerance))
        if regressions:
            print(
                f"error: {len(regressions)} metric(s) regressed vs "
                f"{args.compare}; exiting 5",
                file=sys.stderr,
            )
            return 5
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    if not (args.dataset or args.edge_list or args.metrics_file or args.trace_file):
        raise InvalidParameterError(
            "stats needs a graph source (--dataset/--edge-list) or a dump "
            "to pretty-print (--metrics-file/--trace-file)"
        )
    if args.metrics_file:
        _print_metrics_dump(args.metrics_file)
    if args.trace_file:
        _print_trace_dump(args.trace_file)
    if not (args.dataset or args.edge_list):
        return 0

    from repro.graphs.components import (
        largest_component_fraction,
        num_weakly_connected_components,
    )
    from repro.graphs.validation import graph_stats

    graph = _load_graph(args)
    row = graph_stats(graph).as_row()
    row["weak components"] = num_weakly_connected_components(graph)
    row["largest component"] = f"{100 * largest_component_fraction(graph):.1f}%"
    for key, value in row.items():
        print(f"{key:>18}: {value}")
    return 0


def _print_metrics_dump(path: str) -> None:
    """Pretty-print a serve-batch metrics dump (.prom text or .json)."""
    from repro.errors import GraphFormatError

    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise GraphFormatError(f"cannot read metrics file {path!r}: {exc}") from exc

    samples = []
    if path.endswith(".json"):
        try:
            dump = json.loads(text)
            for family in dump["metrics"]:
                for sample in family["samples"]:
                    labels = sample.get("labels", {})
                    label_text = (
                        "{" + ",".join(
                            f'{k}="{v}"' for k, v in sorted(labels.items())
                        ) + "}" if labels else ""
                    )
                    name = f"{family['name']}{label_text}"
                    if family["type"] == "histogram":
                        samples.append((f"{name} count", sample["count"]))
                        samples.append((f"{name} sum", sample["sum"]))
                    else:
                        samples.append((name, sample["value"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise GraphFormatError(
                f"{path!r} is not a metrics JSON dump: {exc}"
            ) from exc
    else:
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            name, _, value = line.rpartition(" ")
            samples.append((name, value))
    if not samples:
        print(f"(no metrics in {path})")
        return
    width = max(len(name) for name, _ in samples)
    print(f"metrics from {path}:")
    for name, value in samples:
        print(f"  {name:<{width}}  {value}")


def _print_trace_dump(path: str) -> None:
    """Render a serve-batch --trace-out JSON file as a span tree."""
    from repro.errors import GraphFormatError
    from repro.obs import render_tree_from_dict

    try:
        with open(path, encoding="utf-8") as handle:
            trace = json.load(handle)
    except OSError as exc:
        raise GraphFormatError(f"cannot read trace file {path!r}: {exc}") from exc
    except ValueError as exc:
        raise GraphFormatError(f"{path!r} is not JSON: {exc}") from exc
    print(f"trace from {path}:")
    rendered = render_tree_from_dict(trace)
    print(rendered if rendered else "(no spans recorded)")


def _cmd_tune(args: argparse.Namespace) -> int:
    from repro.core.tuning import estimate_rank_error, suggest_rank

    graph = _load_graph(args)
    candidates = _parse_ints(args.candidates, "--candidates")
    rank = suggest_rank(
        graph, args.target_error, candidates=candidates, damping=args.damping
    )
    achieved = estimate_rank_error(graph, rank, damping=args.damping)
    print(
        f"suggested rank: {rank} (estimated AvgDiff {achieved:.3e}, "
        f"target {args.target_error:.3e})"
    )
    return 0


_COMMANDS = {
    "experiments": _cmd_experiments,
    "datasets": _cmd_datasets,
    "query": _cmd_query,
    "shard-build": _cmd_shard_build,
    "update": _cmd_update,
    "serve-batch": _cmd_serve_batch,
    "stats": _cmd_stats,
    "loadgen": _cmd_loadgen,
    "serve": _cmd_serve,
    "bench": _cmd_bench,
    "tune": _cmd_tune,
}


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
