"""Live-graph serving: zero-downtime version swaps under real traffic.

Earlier revisions of this example poked the dynamic engine directly;
it is now a served scenario (docs/dynamic.md): a
:class:`~repro.serving.LiveIndexChain` absorbs edge batches *while* a
:class:`~repro.serving.CoSimRankService` answers a deterministic
loadgen schedule — the same mutation harness behind
``csrplus loadgen --mutate-every``.  Every applied batch repairs the
index and publishes a new version atomically (in-flight batches finish
on the old one).  The caches advance all-or-nothing: a real edge batch
perturbs the global SVD factors, so every row that is not zero moves
and its swap drops every cached answer; a batch that coalesces to a
byte-no-op (re-adding an edge that already exists) publishes a new
version whose cached columns replay their exact pre-swap bytes — the
cache stays warm across the version bump.

Run with:  python examples/dynamic_updates.py
"""

import numpy as np

from repro.core.index import CSRPlusIndex
from repro.graphs import DiGraph, chung_lu
from repro.serving import (
    CoSimRankService,
    LiveIndexChain,
    LoadProfile,
    SimulatedClock,
    build_schedule,
    run_load,
)


def two_communities(size: int, edges_each: int, seed: int) -> DiGraph:
    """Two disjoint Chung–Lu communities: ids [0, size) and [size, 2*size)."""
    left = chung_lu(size, edges_each, seed=seed)
    right = chung_lu(size, edges_each, seed=seed + 1)
    sources = np.concatenate([left.edge_sources, right.edge_sources + size])
    targets = np.concatenate([left.edge_targets, right.edge_targets + size])
    return DiGraph.from_arrays(2 * size, sources, targets)


def main() -> None:
    size = 200
    graph = two_communities(size, 600, seed=13)
    chain = LiveIndexChain(graph, rank=8)

    profile = LoadProfile(
        requests=120, qps=400.0, seeds_per_request=3, zipf_s=1.1, seed=7
    )
    schedule = build_schedule(profile, num_nodes=graph.num_nodes)
    clock = SimulatedClock()
    rng = np.random.default_rng(7)

    with CoSimRankService(chain.index, max_workers=2) as service:
        chain.attach(service)

        def mutate(_index: int) -> None:
            # every edge batch lands inside the LEFT community
            src = int(rng.integers(size))
            dst = int((src + 1 + rng.integers(size - 1)) % size)
            chain.update_edges(added=[(src, dst)])

        report = run_load(
            service,
            schedule,
            mutator=mutate,
            mutate_every=30,
            clock=clock.now,
            sleep=clock.sleep,
        )
        print(report.render())
        print(
            f"live: {service.index_version} version swaps completed with "
            "zero downtime"
        )

        # A batch that coalesces to a byte-no-op still publishes a new
        # version — and the caches stay warm across that swap.
        right_seed = size + 7
        warm = service.serve_batch([[right_seed]])[0]
        hits_before = service.stats().hits
        chain.update_edges(added=[next(iter(chain.graph.edges()))])
        replay = service.serve_batch([[right_seed]])[0]
        hit = service.stats().hits - hits_before > 0
        print(
            f"byte-no-op batch published v{service.index_version}; "
            f"seed {right_seed} stayed warm and replayed exact bytes: "
            f"{bool(hit and np.array_equal(replay, warm))}"
        )

    # the served answers after all those swaps match a fresh build
    scratch = CSRPlusIndex(chain.graph, rank=8).prepare()
    drift = np.abs(
        chain.index.query([5, right_seed]) - scratch.query([5, right_seed])
    ).max()
    print(f"post-update results match a fresh index to {drift:.2e}")


if __name__ == "__main__":
    main()
