"""Fault injection over HTTP: the frontend degrades, never dies.

``POST /admin/faults`` arms a :class:`repro.testing.faults.FaultPlan`
inside every worker process, so the same chaos seams the in-process
suite drives (``shard.read``) can be exercised across the process
boundary.  The contract under fire: errors come back as *typed wire
outcomes* on a 200/504, the server process stays healthy, and a crashed
worker is respawned before the next request needs it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.serving.frontend import BackgroundFrontend, FrontendClient, FrontendConfig

pytestmark = [pytest.mark.chaos, pytest.mark.timeout(120)]


@pytest.fixture()
def chaos_client(store_path):
    """A private frontend per test: faults and crashes must not leak
    into the shared session server."""
    background = BackgroundFrontend(
        store_path,
        config=FrontendConfig(workers=1),
    )
    with background:
        with FrontendClient(background.url) as client:
            yield client


class TestShardReadFaults:
    def test_single_fault_is_absorbed_by_retry(self, chaos_client):
        # ShardedIndex retries a failed shard read once internally, so
        # one injected failure must be invisible to the caller
        chaos_client.arm_faults([
            {"site": "shard.read", "kind": "fail", "times": 1,
             "exc": "OSError", "message": "injected EIO"},
        ])
        block = chaos_client.serve_batch([[0, 1]])[0]
        assert block.shape[1] == 2
        assert np.all(np.isfinite(block))

    def test_persistent_fault_yields_typed_outcomes_not_500(
        self, chaos_client
    ):
        chaos_client.arm_faults([
            {"site": "shard.read", "kind": "fail", "times": 1_000_000,
             "exc": "OSError", "message": "injected EIO"},
        ])
        batch = chaos_client.serve_batch_detailed([[3, 4], [5]])
        assert all(not outcome.ok for outcome in batch.outcomes)
        for outcome in batch.outcomes:
            assert outcome.error is not None
            assert type(outcome.error).__name__ in (
                "ColumnComputeFailed", "ShardCorrupted",
            )
        # the server itself is unharmed and says so
        assert chaos_client.healthz()["status"] == "ok"

    def test_clearing_faults_restores_service(self, chaos_client):
        chaos_client.arm_faults([
            {"site": "shard.read", "kind": "fail", "times": 1_000_000,
             "exc": "OSError", "message": "injected EIO"},
        ])
        broken = chaos_client.serve_batch_detailed([[7]])
        assert not broken.outcomes[0].ok
        chaos_client.clear_faults()
        healed = chaos_client.serve_batch_detailed([[7]])
        assert healed.outcomes[0].ok
        assert healed.outcomes[0].result.shape[1] == 1


class TestWorkerCrash:
    def test_crash_respawns_and_next_request_succeeds(self, chaos_client):
        before = chaos_client.healthz()
        assert before["workers_alive"] == 1
        chaos_client.crash_worker()
        # the very next query lands on the respawned worker
        block = chaos_client.serve_batch([[2, 9]])[0]
        assert block.shape[1] == 2
        after = chaos_client.healthz()
        assert after["workers_alive"] == 1
        assert after["worker_pids"] != before["worker_pids"]

    def test_crash_respawn_is_visible_in_metrics(self, chaos_client):
        chaos_client.crash_worker()
        chaos_client.serve_batch([[1]])  # force the respawn to be used
        text = chaos_client.metrics_text()
        for line in text.splitlines():
            if line.startswith("csrplus_frontend_worker_respawns_total "):
                assert float(line.split()[-1]) >= 1.0
                break
        else:
            pytest.fail("respawn counter missing from /metrics")
