"""The online stack runs on numpy alone (docs/frontend.md, "Boot and memory").

Serving needs only the dense factors ``Z`` and ``U``; scipy belongs to
the offline phase (SVD, Stein solve, store build and repair).  Each test
runs a fresh interpreter whose ``sys.meta_path`` makes every ``scipy``
import raise, so a stray import anywhere on the serving path (server,
forked workers, request or publish handling) fails the run instead of
silently costing boot time and memory.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import CSRPlusConfig
from repro.core.topk import top_k_blockwise
from repro.sharding import ShardedIndex, build_sharded_store

from .conftest import RANK

pytestmark = [pytest.mark.timeout(180)]

SRC = Path(__file__).resolve().parents[2] / "src"
SEEDS = [0, 3, 75, 149]
K = 6

#: Prepended to every child script: a finder that refuses scipy and
#: remembers each refused name.
_BLOCK_SCIPY = """
import sys

BLOCKED = []


class _NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            BLOCKED.append(name)
            raise ImportError(f"scipy is blocked in this process: {name}")
        return None


sys.meta_path.insert(0, _NoScipy())
"""

_SERVE = _BLOCK_SCIPY + """
import json
import os

import numpy as np

from repro.serving.frontend import (
    BackgroundFrontend,
    FrontendClient,
    FrontendConfig,
)

v0, v1, out, seeds, k = sys.argv[1:6]
seeds = [int(s) for s in seeds.split(",")]
k = int(k)
answers = {}
background = BackgroundFrontend(v0, config=FrontendConfig(workers=2))
with background, FrontendClient(background.url) as client:
    worker_pids = background.server.pool.worker_pids()
    for version, path in enumerate((v0, v1)):
        if version:
            assert client.publish(path) == version
        assert client.healthz()["index_version"] == version
        for j, result in enumerate(client.serve_topk(seeds, k)):
            answers[f"v{version}_nodes_{j}"] = result.nodes
            answers[f"v{version}_scores_{j}"] = result.scores
        answers[f"v{version}_columns"] = client.serve_batch([seeds])[0]
alive = []
for pid in worker_pids:
    try:
        os.kill(pid, 0)
        alive.append(pid)
    except ProcessLookupError:
        pass
np.savez(out, **answers)
print(json.dumps({
    "blocked": BLOCKED,
    "scipy_modules": sorted(m for m in sys.modules if m.startswith("scipy")),
    "workers": worker_pids,
    "alive_after_drain": alive,
}))
"""

_IMPORT_REPRO = _BLOCK_SCIPY + """
import json

import repro
import repro.cli

print(json.dumps(sorted(m for m in sys.modules if m.startswith(("repro", "scipy")))))
"""


def _run(script: str, *args: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    done = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True, text=True, env=env, timeout=150,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip().splitlines()[-1]


@pytest.fixture
def versions(tmp_path, frontend_graph):
    """Two store versions: ``v0`` and a rebuild after an edge batch."""
    config = CSRPlusConfig(rank=RANK)
    v0 = build_sharded_store(
        frontend_graph, tmp_path / "v0", num_shards=3, config=config
    )
    mutated = frontend_graph.with_edges_added([(0, 75), (75, 0), (3, 120)])
    v1 = build_sharded_store(mutated, tmp_path / "v1", num_shards=3, config=config)
    return str(v0.path), str(v1.path)


def test_frontend_serves_and_publishes_without_scipy(versions, tmp_path):
    out = tmp_path / "answers.npz"
    report = json.loads(
        _run(_SERVE, *versions, str(out), ",".join(map(str, SEEDS)), str(K))
    )
    assert report["blocked"] == []
    assert report["scipy_modules"] == []
    assert len(report["workers"]) == 2
    assert report["alive_after_drain"] == []
    with np.load(out) as got:
        for version, path in enumerate(versions):
            with ShardedIndex(path, max_workers=1) as index:
                want_topk = top_k_blockwise(index, SEEDS, K, mode="exact")
                want_columns = index.query_columns(SEEDS, mode="exact")
            for j, want in enumerate(want_topk):
                nodes = got[f"v{version}_nodes_{j}"]
                scores = got[f"v{version}_scores_{j}"]
                assert np.array_equal(nodes, want.nodes)
                assert scores.dtype == want.scores.dtype
                assert np.array_equal(scores, want.scores)
            columns = got[f"v{version}_columns"]
            assert columns.dtype == want_columns.dtype
            assert np.array_equal(columns, want_columns)
        # the publish really changed the answers
        assert not np.array_equal(got["v0_columns"], got["v1_columns"])


def test_import_repro_loads_no_offline_packages():
    loaded = json.loads(_run(_IMPORT_REPRO))
    for prefix in (
        "scipy",
        "repro.experiments",
        "repro.baselines",
        "repro.metrics",
        "repro.applications",
        "repro.graphs",
        "repro.linalg.svd",
        "repro.core.index",
    ):
        offenders = [m for m in loaded if m == prefix or m.startswith(prefix + ".")]
        assert offenders == [], offenders
