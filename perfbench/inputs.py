"""Seeded inputs of the benchmark, all made outside every timer.

The graph is the TW stand-in (``load_dataset("TW", tier)``: R-MAT,
n = 131,072 and m = 2.3M at the ``bench`` tier).  Generating it takes
seconds, so it is made once per checkout in a child process and cached
as ``.npz`` under the work directory; the benchmark process only ever
loads it, which keeps its own peak memory the same on every run.
Query sets, edge batches and load schedules are pure functions of the
workload seed.
"""

from __future__ import annotations

import hashlib
import subprocess
import sys
from typing import List, Optional, Sequence, Tuple

import numpy as np

from common import ROOT, SRC, WORK

#: Multi-source set sizes of the offline workload, one cycle.  They
#: span the paper's Fig. 5 |Q| range up to 64, where an n x |Q| float64
#: block at n = 131,072 is 64 MB.
OFFLINE_SET_SIZES = (1, 2, 4, 8, 16, 32, 64)


def _graph_path(tier: str):
    return WORK / f"graph-TW-{tier}.npz"


def _make_graph(tier: str) -> None:
    """Child-process entry: generate the stand-in and save it."""
    from repro.datasets import load_dataset

    graph = load_dataset("TW", tier)
    path = _graph_path(tier)
    tmp = path.with_suffix(".tmp.npz")
    np.savez(
        tmp,
        num_nodes=np.int64(graph.num_nodes),
        sources=graph.edge_sources,
        targets=graph.edge_targets,
    )
    tmp.replace(path)


def load_graph(tier: str):
    """The TW stand-in and its digest (sha256 over n and the COO arrays)."""
    from repro.graphs import DiGraph

    path = _graph_path(tier)
    if not path.exists():
        WORK.mkdir(parents=True, exist_ok=True)
        subprocess.run(
            [sys.executable, __file__, "--make-graph", tier],
            check=True,
            cwd=ROOT,
        )
    with np.load(path) as data:
        num_nodes = int(data["num_nodes"])
        sources, targets = data["sources"], data["targets"]
        digest = hashlib.sha256()
        digest.update(str(num_nodes).encode())
        digest.update(np.ascontiguousarray(sources).tobytes())
        digest.update(np.ascontiguousarray(targets).tobytes())
        graph = DiGraph.from_arrays(num_nodes, sources, targets)
    return graph, digest.hexdigest()


def offline_sets(seed: int, num_nodes: int, cycles: int) -> List[np.ndarray]:
    """``cycles`` repetitions of the size cycle, with seeded node ids."""
    rng = np.random.default_rng([seed, 1])
    sizes = [min(s, num_nodes) for s in OFFLINE_SET_SIZES] * cycles
    return [rng.choice(num_nodes, size=s, replace=False) for s in sizes]


def edge_batches(
    seed: int, graph, count: int, size: int
) -> List[List[Tuple[int, int]]]:
    """``count`` batches of ``size`` new edges absent from ``graph``."""
    rng = np.random.default_rng([seed, 2])
    batches: List[List[Tuple[int, int]]] = []
    taken = set()
    n = graph.num_nodes
    for _ in range(count):
        batch: List[Tuple[int, int]] = []
        while len(batch) < size:
            s, t = (int(v) for v in rng.integers(0, n, 2))
            if s == t or (s, t) in taken or graph.has_edge(s, t):
                continue
            taken.add((s, t))
            batch.append((s, t))
        batches.append(batch)
    return batches


#: Arrival gaps do not depend on the workload seed: every seed replays
#: the same Poisson arrival trace per phase, so the burst pattern that
#: drives queueing at the fixed rate is identical from run to run and
#: only the requested nodes vary with the seed.
ARRIVAL_SEED = 20240325


def unit_schedule(
    seed: int,
    stream: int,
    num_nodes: int,
    requests: int,
    seeds_per_request: int,
    zipf_s: float,
    arrival_stream: Optional[int] = None,
):
    """A Poisson schedule at 1 req/s, for ``read_ops`` to rescale to a rate.

    The arrival trace is fixed by ``arrival_stream`` (default
    ``stream``), see ``ARRIVAL_SEED``; the requested nodes come from
    ``seed`` and ``stream``.  Seeds are
    Zipf(``zipf_s``) over a seeded permutation of the nodes
    (``zipf_s = 0`` is uniform), distinct within a request.  The draw is
    vectorised, unlike ``build_schedule``'s per-request one, so a
    template of hundreds of requests costs milliseconds; the result is
    a ``LoadSchedule`` and carries its digest.
    """
    from repro.serving.loadgen import (
        LoadProfile,
        LoadSchedule,
        ScheduledRequest,
        zipf_probabilities,
    )

    profile = LoadProfile(
        requests=requests,
        qps=1.0,
        seeds_per_request=seeds_per_request,
        zipf_s=zipf_s,
        seed=int(seed) * 1000 + stream,
    )
    rng = np.random.default_rng(profile.seed)
    probabilities = zipf_probabilities(num_nodes, zipf_s, rng)
    if arrival_stream is None:
        arrival_stream = stream
    arrival_rng = np.random.default_rng([ARRIVAL_SEED, arrival_stream])
    arrivals = np.cumsum(arrival_rng.exponential(1.0, size=requests))
    draws = iter(rng.choice(num_nodes, size=8 * requests * seeds_per_request,
                            p=probabilities))
    scheduled = []
    for at_s in arrivals:
        seeds: List[int] = []
        while len(seeds) < seeds_per_request:
            node = int(next(draws))
            if node not in seeds:
                seeds.append(node)
        scheduled.append(ScheduledRequest(at_s=float(at_s), seeds=tuple(seeds)))
    return LoadSchedule(
        profile=profile, num_nodes=num_nodes, requests=tuple(scheduled)
    )


def digest_arrays(arrays: Sequence[np.ndarray]) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "--make-graph":
        sys.path.insert(0, str(SRC))
        _make_graph(sys.argv[2])
    else:
        sys.exit("usage: inputs.py --make-graph TIER")
