"""Boot time of ``csrplus serve --shards``: the online stack is numpy-only.

Not a paper artefact.  The serve processes import only numpy and the
standard library (docs/frontend.md, "Boot and memory"), so starting a
frontend should cost little more than starting Python with numpy.  This
times ``python -m repro serve --shards <tiny store> --workers 2`` from
spawn to its JSON ready line, five times, against five bare ``python -c
"import numpy"`` runs on the same machine, and requires the median boot
to stay within 3x the median numpy start.  With scipy, the experiments
and the baselines imported at boot, as they were before the online
stack was split from the offline one, the ratio was about 9x; without
them it is about 1.3x (2-CPU container, numpy 2.4, scipy 1.17).

Wall-clock, so it lives here and not in tier-1.
"""

from __future__ import annotations

import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.graphs.generators import chung_lu
from repro.sharding import build_sharded_store

SRC = Path(__file__).resolve().parents[1] / "src"
RUNS = 5
MAX_RATIO = 3.0


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


@pytest.fixture(scope="module")
def store_path(tmp_path_factory):
    store = build_sharded_store(
        chung_lu(400, 2_000, seed=3),
        tmp_path_factory.mktemp("boot") / "tiny.shards",
        num_shards=2,
        rank=8,
    )
    return str(store.path)


def _numpy_start_s() -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True)
    return time.perf_counter() - start


def _serve_boot_s(store: str) -> float:
    start = time.perf_counter()
    server = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve", "--shards", store,
            "--port", "0", "--workers", "2",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        env=_env(),
    )
    try:
        line = server.stdout.readline()
        elapsed = time.perf_counter() - start
        assert json.loads(line)["ready"] is True
        server.send_signal(signal.SIGTERM)
        assert server.wait(timeout=60) == 0
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()
        server.stdout.close()
    return elapsed


def test_serve_boots_within_3x_a_bare_numpy_start(store_path):
    # alternate the two so drift on a shared machine hits both alike
    numpy_s, boot_s = [], []
    for _ in range(RUNS):
        numpy_s.append(_numpy_start_s())
        boot_s.append(_serve_boot_s(store_path))
    ratio = statistics.median(boot_s) / statistics.median(numpy_s)
    print(
        f"\nserve boot median {statistics.median(boot_s):.3f}s, "
        f"numpy start median {statistics.median(numpy_s):.3f}s, "
        f"ratio {ratio:.2f}x (limit {MAX_RATIO}x)"
    )
    assert ratio <= MAX_RATIO
