"""End-to-end HTTP behaviour of the frontend server."""

from __future__ import annotations

import http.client
import json

import numpy as np
import pytest

from repro.errors import DeadlineExceeded, InvalidParameterError
from repro.serving import CoSimRankService, loadgen_slos, run_load
from repro.serving import LoadProfile, build_schedule
from repro.serving.frontend import FrontendClient
from repro.sharding import ShardedIndex


def _raw(url: str, method: str, path: str, body: bytes = b"",
         headers=None) -> "tuple[int, dict, bytes]":
    host = url.split("://", 1)[1]
    conn = http.client.HTTPConnection(host, timeout=30)
    try:
        conn.request(method, path, body=body, headers=headers or {})
        response = conn.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        conn.close()


@pytest.fixture(scope="module")
def client(frontend_url):
    with FrontendClient(frontend_url) as frontend_client:
        yield frontend_client


@pytest.fixture(scope="module")
def cold_frontend(store_path):
    """A private frontend whose dispatcher cache is never warmed.

    Deadline tests need cache misses: the shared session frontend has
    been hammered by the property suite, and a fully-cached request
    completes before the deadline check can fire (by design).
    """
    from repro.serving.frontend import BackgroundFrontend, FrontendConfig

    background = BackgroundFrontend(
        store_path, config=FrontendConfig(workers=1)
    )
    with background:
        yield background


@pytest.fixture(scope="module")
def in_process(store_path):
    """The in-process service over the SAME store the workers mmap.

    That is the bit-identity contract: same bytes, same kernels, so
    moving the computation into worker processes and the answer across
    HTTP must change nothing.  (A monolithic in-RAM prepare is only
    atol-equal to the out-of-core store build — different float
    accumulation order — so it is deliberately not the reference here.)
    """
    index = ShardedIndex(store_path)
    with CoSimRankService(index, max_workers=1) as service:
        yield service
    index.close()


class TestQueryRoutes:
    def test_single_request_matches_in_process_bit_exactly(
        self, client, in_process
    ):
        seeds = [2, 71, 149]
        got = client.serve_batch([seeds])[0]
        want = in_process.serve_batch([seeds])[0]
        assert got.dtype == want.dtype
        assert np.array_equal(got, want), (
            "the HTTP round-trip must not perturb a single bit"
        )

    def test_multi_request_batch_and_request_ids(self, client):
        batch = client.serve_batch_detailed([[1, 2], [2, 3], [1]])
        assert len(batch.outcomes) == 3
        assert all(outcome.ok for outcome in batch.outcomes)
        assert batch.batch_id is not None
        ids = [outcome.request_id for outcome in batch.outcomes]
        assert len(set(ids)) == 3
        assert all(
            request_id.startswith(batch.batch_id) for request_id in ids
        )

    def test_topk_matches_in_process(self, client, in_process):
        got = client.serve_topk([5, 9], 4)
        want = in_process.serve_topk([5, 9], 4)
        for got_one, want_one in zip(got, want):
            assert np.array_equal(got_one.nodes, want_one.nodes)
            assert np.array_equal(got_one.scores, want_one.scores)

    def test_tiny_deadline_maps_to_504(self, cold_frontend):
        status, _, body = _raw(
            cold_frontend.url, "POST", "/v1/query",
            json.dumps({
                "requests": [[0, 1, 2, 3]], "deadline_ms": 0.001,
            }).encode(),
        )
        assert status == 504
        decoded = json.loads(body)
        assert all(
            outcome["error"]["type"] == "DeadlineExceeded"
            for outcome in decoded["outcomes"]
        )

    def test_client_surfaces_deadline_as_typed_outcome(self, cold_frontend):
        with FrontendClient(cold_frontend.url) as cold_client:
            batch = cold_client.serve_batch_detailed(
                [[4, 5, 6]], deadline_s=1e-6
            )
        assert isinstance(batch.outcomes[0].error, DeadlineExceeded)


class TestStatusMapping:
    def test_bad_json_is_400(self, frontend_url):
        status, _, body = _raw(frontend_url, "POST", "/v1/query", b"{nope")
        assert status == 400
        assert json.loads(body)["error"]["type"] == "InvalidParameterError"

    def test_missing_seeds_is_400(self, frontend_url):
        status, _, _ = _raw(frontend_url, "POST", "/v1/query", b"{}")
        assert status == 400

    def test_bad_quality_is_400(self, frontend_url):
        status, _, _ = _raw(
            frontend_url, "POST", "/v1/query",
            json.dumps({"seeds": [0], "quality": "psychic"}).encode(),
        )
        assert status == 400

    def test_unknown_route_is_404(self, frontend_url):
        status, _, _ = _raw(frontend_url, "GET", "/v2/query")
        assert status == 404

    def test_wrong_method_is_405(self, frontend_url):
        status, _, _ = _raw(frontend_url, "POST", "/metrics")
        assert status == 405

    def test_client_raises_invalid_parameter(self, client):
        with pytest.raises(InvalidParameterError):
            client.serve_topk([0], 0)


class TestIntrospection:
    def test_healthz_shape(self, client):
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["num_nodes"] == 150
        assert health["workers_alive"] == 2
        assert health["protocol"].startswith("csrplus-frontend/")

    def test_metrics_scrape_merges_all_processes(self, client):
        client.serve_batch([[0, 1]])  # ensure some traffic
        text = client.metrics_text()
        # dispatcher-side families
        assert "csrplus_frontend_http_requests_total" in text
        assert "csrplus_serve_requests_total" in text
        # worker-side families, one series per worker label
        assert 'csrplus_worker_tasks_total{worker="0"}' in text
        # a family must appear exactly once however many registries
        # carried samples for it
        assert text.count("# TYPE csrplus_worker_tasks_total counter") == 1

    def test_coalescer_counts_merged_requests(self, client):
        before = client.metrics_text()
        client.serve_batch([[10], [11]])
        after = client.metrics_text()

        def value(text, name):
            for line in text.splitlines():
                if line.startswith(name + " "):
                    return float(line.split()[-1])
            return 0.0

        assert (
            value(after, "csrplus_frontend_coalesced_batches_total")
            > value(before, "csrplus_frontend_coalesced_batches_total")
        )


class TestLoadgenOverHttp:
    def test_run_load_drives_the_frontend_unchanged(self, client):
        profile = LoadProfile(requests=20, qps=500.0, seeds_per_request=2,
                              seed=3)
        schedule = build_schedule(profile, 150)
        report = run_load(
            client,
            schedule,
            slos=loadgen_slos(availability=0.9),
        )
        assert report.outcomes["ok"] == 20
        assert report.slo_ok is True

    def test_cli_loadgen_url(self, frontend_url, capsys):
        from repro.cli import main

        code = main([
            "loadgen", "--url", frontend_url, "--requests", "10",
            "--qps", "500", "--slo-availability", "0.5", "--fail-on-slo",
            "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["outcomes"]["ok"] == 10
        assert payload["url"] == frontend_url

    def test_cli_loadgen_url_human_output(self, frontend_url, tmp_path,
                                          capsys):
        from repro.cli import main

        metrics = tmp_path / "loadgen.prom"
        trace = tmp_path / "trace.json"
        code = main([
            "loadgen", "--url", frontend_url, "--requests", "5",
            "--qps", "500", "--slo-availability", "0.5",
            "--metrics-out", str(metrics), "--trace-out", str(trace),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert f"frontend: {frontend_url}" in out
        assert "loadgen:" in out
        assert "loadgen-availability" in out
        assert f"metrics written to {metrics}" in out
        assert f"trace written to {trace}" in out
        assert "csrplus_loadgen_requests_total 5" in metrics.read_text()
        json.loads(trace.read_text())

    def test_cli_loadgen_url_rejects_mutate_every(self, frontend_url):
        from repro.cli import main

        assert main([
            "loadgen", "--url", frontend_url, "--requests", "5",
            "--mutate-every", "2",
        ]) == 1  # typed InvalidParameterError -> exit 1
