"""``POST /admin/publish`` end to end: a repaired store goes live over HTTP.

A private frontend boots on ``v0`` (with its replica) and warms a top-k
answer.  A real edge batch is repaired into ``v1`` and published with
:meth:`~repro.serving.frontend.FrontendClient.publish`.  From then on
every answer must come from ``v1``, bit-identical to an in-process
:class:`~repro.sharding.ShardedIndex` over it: the warmed ``v0`` ranking
is never served again, and the degraded tier answers from ``v1``'s own
replica.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import CSRPlusConfig
from repro.core.topk import top_k_blockwise
from repro.serving.frontend import BackgroundFrontend, FrontendClient, FrontendConfig
from repro.sharding import (
    REPLICA_DIR,
    ShardedIndex,
    build_sharded_store,
    repair_sharded_store,
    replica_store_path,
)

from .conftest import RANK

pytestmark = [pytest.mark.timeout(120)]

SEEDS = [0, 3, 75]
K = 5


@pytest.fixture
def versions(tmp_path, frontend_graph):
    """``(v0 path, v1 repair report)`` for a real three-edge batch."""
    v0 = tmp_path / "v0"
    build_sharded_store(
        frontend_graph, v0, num_shards=3, config=CSRPlusConfig(rank=RANK),
        replica_path=v0 / REPLICA_DIR,
    )
    mutated = frontend_graph.with_edges_added([(0, 75), (75, 0), (3, 120)])
    report = repair_sharded_store(mutated, v0, tmp_path / "v1")
    assert report.repaired_shards  # the factors really changed
    return str(v0), report


def _in_process(path):
    with ShardedIndex(path, max_workers=1) as index:
        return (
            top_k_blockwise(index, SEEDS, K, mode="exact"),
            index.query_columns(SEEDS, mode="exact"),
        )


def test_publish_serves_the_repaired_version(versions):
    v0, report = versions
    want_topk, want_columns = _in_process(report.path)
    _, want_approx = _in_process(replica_store_path(report.path))
    background = BackgroundFrontend(v0, config=FrontendConfig(workers=1))
    with background, FrontendClient(background.url) as client:
        warm = client.serve_topk(SEEDS, K)  # cached for v0
        assert client.healthz()["index_version"] == 0
        assert client.publish(report.path) == 1
        assert client.healthz()["index_version"] == 1
        got_topk = client.serve_topk(SEEDS, K)
        got_columns = client.serve_batch([SEEDS])[0]
        got_approx = client.serve_batch([SEEDS], quality="approx")[0]
    for got, want, old in zip(got_topk, want_topk, warm):
        assert np.array_equal(got.nodes, want.nodes)
        assert np.array_equal(got.scores, want.scores)
        assert not np.array_equal(got.scores, old.scores)  # not v0's
    assert np.array_equal(got_columns, want_columns)
    # no replica_path in the publish: <v1>/replica is picked up
    assert np.array_equal(got_approx, want_approx)
