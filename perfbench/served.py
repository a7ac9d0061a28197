"""Workload ``http-topk-uniform``: top-k over HTTP, with live publishes.

A ``csrplus serve`` subprocess serves a sharded TW store.  This one
process drives it through ``FrontendClient`` with ``nproc`` keep-alive
connections.  Each request asks for the top-10 rankings of 4 uniform
seeds.  Requests arrive open-loop on a Poisson schedule, and each
latency is timed from the request's due time; a failed request counts
as missing the limit.

Phases, in order:

1. set-up, three times: ``build_sharded_store`` + server boot;
2. three edge batches, each repaired into a new store version with
   ``repair_sharded_store``;
3. warm-up, then the fixed-rate phase (``--seconds`` long);
4. a closed-loop phase and capacity probes (plain runs), or a traced
   second fixed-rate phase bracketed by ``/metrics`` scrapes (traced
   runs);
5. each version published through ``/admin/publish``, followed by
   checked requests;
6. SIGTERM teardown, then the answers are checked against
   ``top_k_blockwise`` on the store version that served them.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from common import (
    LATENCY_LIMIT_MS,
    ROOT,
    SRC,
    WORK,
    StealGate,
    Tally,
    child_pids,
    log,
    median,
    peak_rss_mb,
    process_alive,
    quantile,
)
from inputs import digest_arrays, edge_batches, unit_schedule

SETUP_REPEATS = 3
NUM_SHARDS = 8
UPDATE_BATCHES = 3
UPDATE_BATCH_EDGES = 64
SEEDS_PER_REQUEST = 4
TOPK = 10
#: Fixed offered rate of the measured phase, req/s (about a third of
#: capacity on the reference box).
RATE = 14.0
WARMUP_S = 1.5
#: Capacity probe rates as multiples of ``RATE``, climbed until one
#: misses the limit, and the length of each probe.
LADDER = (2.6, 3.1, 3.7, 4.4)
PROBE_S = 3.0
#: Requests of the closed-loop phase, sent back to back on every
#: connection; their rate is the workload's ``cols_per_s``.
CLOSED_LOOP_REQUESTS = 160
#: Checked requests after each publish.
POST_PUBLISH_READS = 8
#: Phases whose every answer is checked against ``top_k_blockwise``; a
#: seeded sample of this many answers from the other phases is checked
#: on top.
CHECKED_PHASES = ("fixed-rate", "traced", "post-publish")
SAMPLE_CHECKS = 32
#: A send later than this after its due time (or after its connection
#: came free) counts as late ...
LATE_MS = 5.0
#: ... and a fixed-rate phase whose p95 lateness exceeds this is
#: invalid: the generator, not the program, shaped its latencies.
LATE_P95_LIMIT_MS = 25.0


@dataclass
class Op:
    due: float
    seeds: Tuple[int, ...] = ()
    #: index into the store versions for a publish, else None
    publish: Optional[int] = None


@dataclass
class Record:
    op: Op
    phase: str
    due_abs: float = 0.0
    picked: float = 0.0
    sent: float = 0.0
    done: float = 0.0
    ok: bool = False
    answer: object = None

    @property
    def latency_ms(self) -> float:
        """From due time to completion; a failure misses every limit."""
        return (self.done - self.due_abs) * 1e3 if self.ok else math.inf

    @property
    def late_ms(self) -> float:
        """How late the generator itself sent: past the due time and
        past the moment this op's connection came free."""
        return max(0.0, self.sent - max(self.due_abs, self.picked)) * 1e3


# ----------------------------------------------------------------------
# server lifecycle
# ----------------------------------------------------------------------
class Server:
    """One ``csrplus serve`` subprocess in the default environment."""

    def __init__(self, store: str, workers: int, log_path: str):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        self._log = open(log_path, "ab")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", "--shards", store,
                "--port", "0", "--workers", str(workers),
            ],
            stdout=subprocess.PIPE,
            stderr=self._log,
            env=env,
            cwd=ROOT,
        )
        watchdog = threading.Timer(120.0, self.proc.kill)
        watchdog.start()
        try:
            line = self.proc.stdout.readline()
        finally:
            watchdog.cancel()
        self.boot_s = time.perf_counter() - start
        self.worker_pids: List[int] = []
        try:
            ready = json.loads(line)
        except ValueError:
            self.kill()
            raise RuntimeError(f"csrplus serve did not start: {line!r}")
        self.url = ready["url"]
        self.worker_pids = list(ready["workers"])

    def pids(self) -> List[int]:
        return [self.proc.pid] + child_pids(self.proc.pid)

    def stop(self) -> bool:
        """SIGTERM, wait; True when it exits 0 and leaves no worker."""
        workers = set(self.worker_pids) | set(child_pids(self.proc.pid))
        self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.kill()
            code = None
        deadline = time.monotonic() + 10
        while any(map(process_alive, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        orphans = [pid for pid in workers if process_alive(pid)]
        for pid in orphans:
            os.kill(pid, signal.SIGKILL)
        self.proc.stdout.close()
        self._log.close()
        if code != 0 or orphans:
            log(f"server teardown: exit {code}, orphaned workers {orphans}")
        return code == 0 and not orphans

    def kill(self) -> None:
        """SIGKILL the server and its workers, and wait until all are gone."""
        workers = set(self.worker_pids) | set(child_pids(self.proc.pid))
        for pid in workers:
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        self.proc.kill()
        self.proc.wait()
        deadline = time.monotonic() + 10
        while any(map(process_alive, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        self._log.close()


# ----------------------------------------------------------------------
# the open-loop generator
# ----------------------------------------------------------------------
class Generator:
    """Sends scheduled ops over ``conns`` keep-alive connections.

    Each connection's thread takes the next op in due order, sleeps
    until it is due and sends it; an op whose connection is still busy
    at its due time goes out late, and that wait counts in its latency.
    """

    def __init__(self, url: str, conns: int, stores: List[str], corrupt: bool):
        from repro.serving.frontend import FrontendClient

        self.clients = [FrontendClient(url) for _ in range(conns)]
        self.stores = stores
        self.corrupt = corrupt
        #: every op sent so far, in every phase
        self.records: List[Record] = []

    def close(self) -> None:
        for client in self.clients:
            client.close()

    def _send(self, client, record: Record) -> None:
        if record.op.publish is not None:
            client.publish(self.stores[record.op.publish])
            record.ok = True
            return
        seeds = list(record.op.seeds)
        batch = client.serve_topk_detailed(seeds, TOPK)
        record.ok = len(batch.outcomes) == len(seeds) and all(
            o.ok for o in batch.outcomes
        )
        if record.ok:
            record.answer = [
                (o.result.nodes, o.result.scores) for o in batch.outcomes
            ]
            if self.corrupt and record.phase == "fixed-rate":
                self.corrupt = False
                nodes, scores = record.answer[0]
                record.answer[0] = (nodes, scores + 1.0)

    def run(self, ops: List[Op], phase: str, tally: Tally) -> List[Record]:
        """Send ``ops`` as phase ``phase``, count them, return the records."""
        records = [Record(op=op, phase=phase) for op in ops]
        lock = threading.Lock()
        queue = iter(records)
        start = time.perf_counter() + 0.01
        for record in records:
            record.due_abs = start + record.op.due

        def worker(client) -> None:
            while True:
                with lock:
                    record = next(queue, None)
                if record is None:
                    return
                record.picked = time.perf_counter()
                delay = record.due_abs - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                record.sent = time.perf_counter()
                try:
                    self._send(client, record)
                except Exception as exc:
                    log(f"{phase}: request failed: {exc!r}")
                    record.ok = False
                record.done = time.perf_counter()

        threads = [
            threading.Thread(target=worker, args=(client,), daemon=True)
            for client in self.clients
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        self.records.extend(records)
        for kind, group in (("publishes", publishes_of(records)),
                            (phase, reads_of(records))):
            if group:
                ok = sum(r.ok for r in group)
                tally.add(kind, ok=ok, failed=len(group) - ok)
        return records


def read_ops(template, rate: float, duration: float) -> List[Op]:
    """The unit-rate template scaled to ``rate``, cut at ``duration``."""
    return [
        Op(due=req.at_s / rate, seeds=req.seeds)
        for req in template.requests
        if req.at_s / rate < duration
    ]


def reads_of(records: List[Record]) -> List[Record]:
    return [r for r in records if r.op.publish is None]


def publishes_of(records: List[Record]) -> List[Record]:
    return [r for r in records if r.op.publish is not None]


# ----------------------------------------------------------------------
# capacity
# ----------------------------------------------------------------------
def probe_verdict(records: List[Record]) -> Tuple[bool, float]:
    """(meets the limit with no failure and no growing backlog, p95 ms).

    The backlog grew when the median latency of the last quarter of the
    probe exceeds the limit.
    """
    latencies = [r.latency_ms for r in records]
    p95 = quantile(latencies, 0.95)
    tail = latencies[-max(1, len(latencies) // 4):]
    passed = (
        p95 <= LATENCY_LIMIT_MS
        and median(tail) <= LATENCY_LIMIT_MS
        and all(math.isfinite(x) for x in latencies)
    )
    return passed, p95


def measure_capacity(gen, tally, templates, fixed) -> float:
    """Highest offered rate meeting the p95 limit.

    Probes climb ``LADDER`` until one fails.  Between the last passing
    rate (the fixed-rate phase counts as the first) and the failing
    one, 1/p95 is interpolated linearly in the rate to where it crosses
    1/limit: for an M/M/1 queue p95 = ln 20 / (mu - lambda), so 1/p95 is
    linear in the rate, and a failing probe whose backlog ran away
    (p95 -> inf) still gives a finite, well-placed crossing.
    """
    last_rate = RATE
    last_p95 = quantile([r.latency_ms for r in fixed], 0.95)
    for template, share in zip(templates, LADDER):
        rate = share * RATE
        records = gen.run(read_ops(template, rate, PROBE_S), "capacity", tally)
        passed, p95 = probe_verdict(records)
        log(f"  probe {rate:7.2f} req/s: p95 {p95:8.2f} ms "
            f"{'pass' if passed else 'FAIL'}")
        if not passed:
            if last_p95 > LATENCY_LIMIT_MS or p95 <= LATENCY_LIMIT_MS:
                return last_rate  # the fixed rate missed, or a backlog grew
            weight = (1 / last_p95 - 1 / LATENCY_LIMIT_MS) / (
                1 / last_p95 - 1 / p95
            )
            return last_rate + (rate - last_rate) * weight
        last_rate, last_p95 = rate, p95
    return last_rate


# ----------------------------------------------------------------------
# correctness
# ----------------------------------------------------------------------
def served_versions(read: Record, publishes: List[Record]) -> List[int]:
    """Store versions that may have answered ``read``.

    The version live when it was sent, plus any version whose publish
    overlapped the read (a batch pins the version it entered with).
    """
    live = [p for p in publishes if p.ok and p.done <= read.sent]
    current = max(live, key=lambda p: p.done).op.publish if live else 0
    overlapping = [
        p.op.publish for p in publishes
        if p.ok and p.sent < read.done and p.done > read.sent
    ]
    return sorted({current, *overlapping})


def check_topk(reads, publishes, stores, tally) -> None:
    """Top-k answers equal ``top_k_blockwise`` on the serving store."""
    from repro.core.topk import top_k_blockwise
    from repro.sharding import ShardedIndex

    by_version: Dict[int, List[Record]] = {}
    for read in reads:
        if read.ok:
            for version in served_versions(read, publishes):
                by_version.setdefault(version, []).append(read)
    matches: Dict[int, bool] = {}
    for version, group in by_version.items():
        seeds = [seed for read in group for seed in read.op.seeds]
        with ShardedIndex(stores[version]) as index:
            results = top_k_blockwise(index, seeds, TOPK)
        for i, read in enumerate(group):
            expected = results[i * SEEDS_PER_REQUEST:(i + 1) * SEEDS_PER_REQUEST]
            same = all(
                np.array_equal(nodes, want.nodes)
                and np.array_equal(scores, want.scores)
                for (nodes, scores), want in zip(read.answer, expected)
            )
            matches[id(read)] = matches.get(id(read), False) or same
    for read in reads:
        if read.ok and not matches[id(read)]:
            tally.wrong(read.phase)
    log(f"  checked {len(reads)} top-k answers")


def _check_sample(seed: int, reads: List[Record]) -> List[Record]:
    """Every read of ``CHECKED_PHASES`` plus a seeded sample of the rest."""
    rng = np.random.default_rng([seed, 5])
    others = [r for r in reads if r.phase not in CHECKED_PHASES]
    picked = rng.choice(
        len(others), size=min(SAMPLE_CHECKS, len(others)), replace=False
    )
    return [r for r in reads if r.phase in CHECKED_PHASES] + [
        others[i] for i in sorted(picked)
    ]


# ----------------------------------------------------------------------
# the workload
# ----------------------------------------------------------------------
def run(args, graph, env, workers: int) -> Dict[str, object]:
    from repro.core.config import CSRPlusConfig
    from repro.sharding import build_sharded_store, repair_sharded_store

    tally, gate = Tally(), StealGate()
    config = CSRPlusConfig(rank=16, damping=0.6, dtype="float64")
    batches = edge_batches(args.seed, graph, UPDATE_BATCHES, UPDATE_BATCH_EDGES)

    def template(stream: int, requests: int, arrivals: Optional[int] = None):
        return unit_schedule(
            args.seed, stream, graph.num_nodes, requests, SEEDS_PER_REQUEST,
            0.0, arrivals,
        )

    fixed_requests = int(RATE * args.seconds * 1.3) + 20
    templates = {
        "warm-up": template(1, int(RATE * WARMUP_S * 1.5) + 10),
        "fixed-rate": template(2, fixed_requests),
        "traced": template(3, fixed_requests),
        "post-publish": template(4, POST_PUBLISH_READS * UPDATE_BATCHES),
        "closed-loop": template(5, CLOSED_LOOP_REQUESTS),
        # one arrival trace for every probe, so p95 rises smoothly with
        # the rate; fresh nodes per probe, so no probe replays a cached one
        "capacity": [
            template(10 + i, int(max(LADDER) * RATE * PROBE_S * 1.3) + 20,
                     arrivals=10)
            for i in range(len(LADDER))
        ],
    }
    env["inputs"] = {
        "edge_batches": digest_arrays([np.asarray(b) for b in batches]),
        "schedules": {
            name: ([t.digest() for t in value] if isinstance(value, list)
                   else value.digest())
            for name, value in templates.items()
        },
    }

    root = WORK / f"run-{os.getpid()}"
    shutil.rmtree(root, ignore_errors=True)
    root.mkdir(parents=True)
    server: Optional[Server] = None
    gen: Optional[Generator] = None
    layers: Dict[str, float] = {}
    try:
        base = str(root / "v0")
        builds, boots = [], []
        for _ in range(SETUP_REPEATS):
            if server is not None:
                tally.add("teardown", **_verdict(server.stop()))
                server = None
            start = time.perf_counter()
            build_sharded_store(
                graph, base, num_shards=NUM_SHARDS, config=config,
                overwrite=True,
            )
            builds.append(time.perf_counter() - start)
            server = Server(base, workers, str(root / "serve.log"))
            boots.append(server.boot_s)
        log(f"{args.workload}: build {['%.3f' % b for b in builds]} s, "
            f"boot {['%.3f' % b for b in boots]} s")

        stores, repairs, repaired = [base], [], []
        current = graph
        for i, batch in enumerate(batches, start=1):
            current = current.with_edges_added(batch)

            def repair(_attempt, graph=current, old=stores[-1], new=root / f"v{i}"):
                start = time.perf_counter()
                report = repair_sharded_store(graph, old, new, overwrite=True)
                return time.perf_counter() - start, report

            seconds, report = gate.measure(repair)
            repairs.append(seconds)
            repaired.append(len(report.repaired_shards) / report.total_shards)
            stores.append(report.path)
        log(f"{args.workload}: repairs {['%.3f' % r for r in repairs]} s")

        gen = Generator(server.url, workers, stores, args.corrupt)
        gen.run(read_ops(templates["warm-up"], RATE, WARMUP_S), "warm-up", tally)
        # a repeated attempt asks for fresh nodes on the same arrivals,
        # so it never replays answers the TopKCache already holds
        fixed = gate.measure(lambda attempt: gen.run(
            read_ops(
                templates["fixed-rate"] if attempt == 0
                else template(2 + 100 * attempt, fixed_requests, arrivals=2),
                RATE, args.seconds,
            ),
            "fixed-rate", tally,
        ))
        peak = peak_rss_mb(server.pids())
        if args.trace:
            before = scrape(gen.clients[0])
            traced = gen.run(
                read_ops(templates["traced"], RATE, args.seconds),
                "traced", tally,
            )
            after = scrape(gen.clients[0])
        else:
            closed = gate.measure(lambda attempt: gen.run(
                [Op(due=0.0, seeds=req.seeds) for req in (
                    templates["closed-loop"] if attempt == 0
                    else template(5 + 100 * attempt, CLOSED_LOOP_REQUESTS)
                ).requests],
                "closed-loop", tally,
            ))
            closed_s = max(r.done for r in closed) - min(r.sent for r in closed)
            capacity = measure_capacity(gen, tally, templates["capacity"], fixed)

        # publish each repaired version, then read from it
        ops = []
        requests = iter(templates["post-publish"].requests)
        for version in range(1, UPDATE_BATCHES + 1):
            due = 0.5 * (version - 1)
            ops.append(Op(due=due, publish=version))
            ops.extend(
                Op(due=due + 0.1 + 0.02 * j, seeds=next(requests).seeds)
                for j in range(POST_PUBLISH_READS)
            )
        gen.run(ops, "post-publish", tally)
        final = scrape(gen.clients[0])
        gen.close()
        every, gen = gen.records, None
        publishes = publishes_of(every)
        if args.trace:
            layers.update(_traced_layers(
                graph, config, server.url, fixed, traced, before, after,
                final, len(publishes), stores,
            ))
        tally.add("teardown", **_verdict(server.stop()))
        server = None
        check_topk(_check_sample(args.seed, reads_of(every)), publishes,
                   stores, tally)
    finally:
        if gen is not None:
            gen.close()
        if server is not None:
            server.kill()
        shutil.rmtree(root, ignore_errors=True)

    late = [r.late_ms for r in fixed]
    tally.add("generator", **_verdict(quantile(late, 0.95) <= LATE_P95_LIMIT_MS))
    publish_s = {p.op.publish: p.done - p.sent for p in publishes if p.ok}
    layers.update({
        "sharding.build_s": median(builds),
        "sharding.repair_s": median(repairs),
        "sharding.repaired_shards_frac": median(repaired),
        "frontend.boot_s": median(boots),
        "live.publish_ms": median(publish_s.values()) * 1e3,
        "loadgen.late_ms": quantile(late, 0.95),
        "loadgen.late_frac": sum(x > LATE_MS for x in late) / len(late),
    })
    log(f"{args.workload}: generator late p95 {layers['loadgen.late_ms']:.2f}"
        f" ms, late share {layers['loadgen.late_frac']:.3f}")
    result: Dict[str, object] = {"tally": tally, "samples": len(fixed)}
    if args.trace:
        result["layers"] = layers
        return result
    latencies = [r.latency_ms for r in fixed]
    result["metrics"] = {
        "setup_s": median(b + s for b, s in zip(builds, boots)),
        "p50_ms": quantile(latencies, 0.50),
        "p95_ms": quantile(latencies, 0.95),
        "capacity_rps": capacity,
        "cols_per_s": len(closed) * SEEDS_PER_REQUEST / closed_s,
        "update_s": median(
            repairs[v - 1] + publish_s[v] for v in sorted(publish_s)
        ),
        "peak_rss_mb": peak,
    }
    return result


def _verdict(ok: bool) -> Dict[str, int]:
    return {"ok": int(ok), "failed": int(not ok)}


# ----------------------------------------------------------------------
# per-layer figures of the traced run
# ----------------------------------------------------------------------
def scrape(client) -> Dict[str, float]:
    """``/metrics`` as ``{"name{labels}": value}``."""
    values: Dict[str, float] = {}
    for line in client.metrics_text().splitlines():
        if line and not line.startswith("#"):
            key, _, value = line.rpartition(" ")
            values[key] = float(value)
    return values


def metric(values: Dict[str, float], name: str, **labels: str) -> float:
    """Sum of the series of ``name`` whose labels include ``labels``."""
    wanted = [f'{k}="{v}"' for k, v in labels.items()]
    return sum(
        value for key, value in values.items()
        if key.split("{", 1)[0] == name and all(w in key for w in wanted)
    )


def _codec_replay(url: str, reads: List[Record]):
    """Encode and decode times (ms) and size (KB) of recorded responses.

    The responses are fetched again over one plain HTTP connection, in
    the documented wire format, while no other request is in flight.
    """
    from urllib.parse import urlsplit

    from repro.serving.frontend import decode_batch_result, encode_batch_result

    parts = urlsplit(url)
    conn = http.client.HTTPConnection(parts.hostname, parts.port, timeout=60)
    encode, decode, size = [], [], []
    try:
        for read in reads:
            body = {"seeds": [int(s) for s in read.op.seeds], "k": TOPK,
                    "exclude_self": True}
            conn.request("POST", "/v1/topk", body=json.dumps(body),
                         headers={"Content-Type": "application/json"})
            raw = conn.getresponse().read()
            start = time.perf_counter()
            batch = decode_batch_result(json.loads(raw))
            decode.append(time.perf_counter() - start)
            start = time.perf_counter()
            json.dumps(encode_batch_result(batch)).encode("utf-8")
            encode.append(time.perf_counter() - start)
            size.append(len(raw))
    finally:
        conn.close()
    return median(encode) * 1e3, median(decode) * 1e3, median(size) / 1024.0


def _traced_layers(graph, config, url, fixed, traced, before, after, final,
                   publish_count, stores) -> Dict[str, float]:
    """Per-layer figures of the traced phase, measured from outside."""
    from offline import exact_kernel_layers, prepare_layers
    from repro.core.topk import top_k_blockwise
    from repro.serving.service import PHASES
    from repro.sharding import ShardedIndex

    def delta(name: str, **labels: str) -> float:
        return metric(after, name, **labels) - metric(before, name, **labels)

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    layers, index = prepare_layers(graph, config)
    layers.pop("traced_prepare_s")
    reads = [r for r in traced if r.ok]
    layers.update(exact_kernel_layers(
        index, [np.asarray(r.op.seeds) for r in reads[:32]]
    ))
    del index

    batches = delta("csrplus_frontend_coalesced_batches_total")
    requests = delta("csrplus_frontend_coalesced_requests_total")
    for name in PHASES:
        layers[f"service.{name}_ms"] = ratio(
            delta("csrplus_serve_phase_seconds_total", phase=name), batches
        ) * 1e3
    hits = delta("csrplus_serve_cache_hits_total")
    misses = delta("csrplus_serve_cache_misses_total")
    topk_hits = delta("csrplus_topk_cache_hits_total")
    topk_misses = delta("csrplus_topk_cache_misses_total")
    scanned = delta("csrplus_topk_blocks_scanned_total")
    skipped = delta("csrplus_topk_blocks_skipped_total")
    layers.update({
        "service.cache_hit_ratio": ratio(hits, hits + misses),
        "service.topk_cache_hit_ratio": ratio(
            topk_hits, topk_hits + topk_misses
        ),
        "service.requests_per_batch": ratio(requests, batches),
        "service.shed_frac": ratio(delta("csrplus_serve_shed_total"), requests),
        "core.topk_blocks_skipped_frac": ratio(skipped, scanned + skipped),
        "frontend.worker_respawns": metric(
            final, "csrplus_frontend_worker_respawns_total"
        ),
        "live.cache_invalidated": ratio(
            metric(final, "csrplus_serve_cache_invalidated_total")
            + metric(final, "csrplus_topk_cache_invalidated_total"),
            publish_count,
        ),
    })

    # kernel replays on the served store: what the workers compute
    seeds = [seed for r in reads[:32] for seed in r.op.seeds]
    with ShardedIndex(stores[0]) as sharded:
        start = time.perf_counter()
        for seed in seeds:
            sharded.query_columns([seed], mode="exact")
        layers["sharding.exact_cols_per_s"] = len(seeds) / (
            time.perf_counter() - start
        )
        start = time.perf_counter()
        top_k_blockwise(sharded, seeds, TOPK)
        seed_s = (time.perf_counter() - start) / len(seeds)
    layers["core.topk_seeds_per_s"] = 1.0 / seed_s

    # the client's view of one request, split across the layers
    server_ms = ratio(
        delta("csrplus_frontend_http_request_seconds_sum"),
        delta("csrplus_frontend_http_request_seconds_count"),
    ) * 1e3
    # top-k batches feed no phase timer: all dispatch time is compute
    layers["service.compute_ms"] = server_ms
    layers["frontend.rpc_ms"] = server_ms - ratio(
        topk_misses, batches
    ) * seed_s * 1e3
    client_ms = sum(r.done - r.sent for r in reads) / len(reads) * 1e3
    encode_ms, decode_ms, response_kb = _codec_replay(url, reads[:16])
    wire_ms = client_ms - server_ms - decode_ms
    layer_sum = (
        sum(layers[f"service.{name}_ms"] for name in PHASES)
        + encode_ms + wire_ms + decode_ms
    )
    layers.update({
        "frontend.server_ms": server_ms,
        "frontend.wire_ms": wire_ms,
        "frontend.encode_ms": encode_ms,
        "frontend.decode_ms": decode_ms,
        "frontend.response_kb": response_kb,
        "trace.e2e_ms": client_ms,
        "trace.reconcile_ratio": layer_sum / client_ms,
        "trace.overhead_ms": quantile([r.latency_ms for r in reads], 0.5)
        - quantile([r.latency_ms for r in fixed], 0.5),
    })
    return layers
