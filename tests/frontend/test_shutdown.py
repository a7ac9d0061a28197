"""Graceful shutdown: drain semantics, SIGTERM, no orphaned workers.

The drain contract (docs/frontend.md): on SIGTERM (or an explicit
``drain()``) the server immediately starts answering *new* requests
with 503 while every request already in flight runs to completion; only
then does it close the listener and shut the worker pool down, so a
drained server leaves no worker processes behind.  Each test carries a
``timeout`` marker so a hung drain fails fast under pytest-timeout in
CI instead of wedging the lane.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.serving.frontend import (
    BackgroundFrontend,
    FrontendClient,
    FrontendConfig,
)


def _pid_alive(pid: int) -> bool:
    """True while ``pid`` is a live (non-zombie) process."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def _wait_pids_gone(pids, timeout_s: float = 10.0) -> bool:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if not any(_pid_alive(pid) for pid in pids):
            return True
        time.sleep(0.05)
    return False


@pytest.mark.timeout(120)
class TestBackgroundDrain:
    def test_drain_finishes_inflight_rejects_new_kills_workers(
        self, store_path
    ):
        background = BackgroundFrontend(
            store_path,
            config=FrontendConfig(workers=1),
        )
        url = background.start()
        try:
            with FrontendClient(url) as client:
                pids = client.healthz()["worker_pids"]
                assert pids and all(_pid_alive(pid) for pid in pids)
                # make the first (cold) query slow: each of the 3 shard
                # loads sleeps, holding the request in flight while we
                # drain around it
                client.arm_faults([
                    {"site": "shard.read", "kind": "delay",
                     "seconds": 0.8, "times": 3},
                ])

                slow_result = {}

                def slow_query():
                    with FrontendClient(url) as slow_client:
                        batch = slow_client.serve_batch_detailed([[0, 1]])
                    slow_result["ok"] = all(
                        outcome.ok for outcome in batch.outcomes
                    )

                query_thread = threading.Thread(target=slow_query)
                query_thread.start()
                time.sleep(0.4)  # let the slow request reach a worker

                drain_thread = threading.Thread(
                    target=background.drain, kwargs={"timeout_s": 60.0}
                )
                drain_thread.start()
                time.sleep(0.3)  # let the draining flag flip

                # new requests during the drain are shed with 503
                host = url.split("://", 1)[1]
                conn = http.client.HTTPConnection(host, timeout=10)
                try:
                    conn.request(
                        "POST", "/v1/query",
                        body=json.dumps({"seeds": [5]}).encode(),
                    )
                    response = conn.getresponse()
                    assert response.status == 503
                    assert (
                        json.loads(response.read())["error"]["type"]
                        == "ServiceUnavailable"
                    )
                finally:
                    conn.close()

                query_thread.join(timeout=60)
                drain_thread.join(timeout=60)
                assert not query_thread.is_alive()
                assert not drain_thread.is_alive()
                # the in-flight request was answered, not dropped
                assert slow_result.get("ok") is True

            # the listener is gone: fresh connections are refused
            with pytest.raises(OSError):
                probe = http.client.HTTPConnection(host, timeout=5)
                try:
                    probe.request("GET", "/healthz")
                    probe.getresponse()
                finally:
                    probe.close()

            # and no worker process survives the drain
            assert _wait_pids_gone(pids), f"orphaned workers: {pids}"
        finally:
            background.close()

    def test_drain_is_idempotent_and_close_safe(self, store_path):
        background = BackgroundFrontend(
            store_path,
            config=FrontendConfig(workers=1),
        )
        url = background.start()
        with FrontendClient(url) as client:
            pids = client.healthz()["worker_pids"]
        background.drain(timeout_s=30.0)
        background.drain(timeout_s=30.0)  # second drain is a no-op
        background.close()
        background.close()  # close after drain is safe too
        assert _wait_pids_gone(pids)


@pytest.mark.timeout(180)
class TestSigtermEndToEnd:
    def test_cli_server_drains_on_sigterm(self, store_path, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.abspath("src")
        env["PYTHONUNBUFFERED"] = "1"
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--shards", str(store_path),
                "--workers", "2", "--port", "0",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
        )
        try:
            ready_line = process.stdout.readline()
            ready = json.loads(ready_line)
            assert ready["ready"] is True
            assert len(ready["workers"]) == 2

            with FrontendClient(ready["url"]) as client:
                health = client.healthz()
                pids = health["worker_pids"]
                assert len(pids) == 2
                assert all(_pid_alive(pid) for pid in pids)
                block = client.serve_batch([[0, 1, 2]])[0]
                assert block.shape == (ready["num_nodes"], 3)

            process.send_signal(signal.SIGTERM)
            code = process.wait(timeout=60)
            assert code == 0, process.stderr.read()
            assert "drained" in process.stderr.read()
            # the whole tree is gone: server and both workers
            assert _wait_pids_gone(pids + [process.pid]), (
                "worker processes survived SIGTERM drain"
            )
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=30)


#: Owns a two-worker pool, prints the worker pids, then blocks until killed.
_POOL_OWNER = """
import sys
from repro.serving.frontend import WorkerPool

pool = WorkerPool(sys.argv[1], num_workers=2)
print(" ".join(str(pid) for pid in pool.worker_pids()), flush=True)
sys.stdin.read()
"""


@pytest.mark.timeout(120)
class TestParentDeath:
    def test_workers_exit_when_their_pool_owner_is_killed(self, store_path):
        """SIGKILL leaves no chance to send ``shutdown``, and under
        fork each worker holds the pool's end of its own pipe, so no
        EOF arrives: the workers must notice the dead parent
        themselves.  The owner is killed as soon as the pool exists,
        possibly before a worker has started."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.abspath("src")
        owner = subprocess.Popen(
            [sys.executable, "-c", _POOL_OWNER, str(store_path)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
            text=True,
        )
        pids = []
        try:
            pids = [int(pid) for pid in owner.stdout.readline().split()]
            assert len(pids) == 2 and all(_pid_alive(pid) for pid in pids)
            owner.kill()
            owner.wait(timeout=30)
            assert _wait_pids_gone(pids, timeout_s=30.0), (
                f"workers outlived their killed parent: {pids}"
            )
        finally:
            if owner.poll() is None:
                owner.kill()
                owner.wait(timeout=30)
            for pid in pids:
                if _pid_alive(pid):
                    os.kill(pid, signal.SIGKILL)


#: Opens a one-worker pool, uses it once, prints the worker pid, and
#: falls off its end without closing the pool.
_POOL_LEFT_OPEN = """
import sys
from repro.serving.frontend import WorkerPool

pool = WorkerPool(sys.argv[1], 1)
assert pool.submit("ping") == "pong"
print(" ".join(str(pid) for pid in pool.worker_pids()), flush=True)
"""


@pytest.mark.timeout(120)
class TestExitWithOpenPool:
    def test_process_exits_and_stops_its_workers(self, store_path):
        """multiprocessing's exit handler SIGTERMs daemonic children and
        joins them; workers ignore SIGTERM, so without the pool's own
        exit hook the join never returns and the process hangs."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.abspath("src")
        owner = subprocess.Popen(
            [sys.executable, "-c", _POOL_LEFT_OPEN, str(store_path)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
        )
        pids = []
        try:
            pids = [int(pid) for pid in owner.stdout.readline().split()]
            assert len(pids) == 1
            code = owner.wait(timeout=20)
            assert code == 0, owner.stderr.read()
            assert _wait_pids_gone(pids, timeout_s=5.0), (
                f"workers outlived their exited parent: {pids}"
            )
        finally:
            if owner.poll() is None:
                owner.kill()
                owner.wait(timeout=30)
            for pid in pids:
                if _pid_alive(pid):
                    os.kill(pid, signal.SIGKILL)
