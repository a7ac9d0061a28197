"""Integration tests for the csrplus CLI."""

import pytest

from repro.cli import build_parser, main


class TestExperimentsCommand:
    def test_list(self, capsys):
        assert main(["experiments", "list"]) == 0
        out = capsys.readouterr().out
        assert "fig2" in out
        assert "tab3" in out

    def test_run_ablation(self, capsys):
        assert main(["experiments", "run", "ablation-stages"]) == 0
        out = capsys.readouterr().out
        assert "stage4" in out

    def test_run_with_output_file(self, tmp_path, capsys):
        target = tmp_path / "report.txt"
        code = main(
            [
                "experiments", "run", "ablation-stages",
                "--tier", "tiny", "--output", str(target),
            ]
        )
        assert code == 0
        assert "stage4" in target.read_text()

    def test_unknown_experiment(self, capsys):
        assert main(["experiments", "run", "fig42"]) == 1
        assert "error" in capsys.readouterr().err


class TestDatasetsCommand:
    def test_table(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "FB" in out
        assert "Webbase" in out


class TestQueryCommand:
    def test_builtin_dataset(self, capsys):
        code = main(
            [
                "query",
                "--dataset", "P2P",
                "--tier", "tiny",
                "--queries", "1,2",
                "--rank", "4",
                "--top", "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "top-3 most similar to node 1" in out

    def test_edge_list_file(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n1 2\n2 0\n")
        code = main(
            ["query", "--edge-list", str(path), "--queries", "0", "--rank", "2"]
        )
        assert code == 0
        assert "graph: n=3 m=3" in capsys.readouterr().out

    def test_bad_query_node(self, capsys):
        code = main(
            ["query", "--dataset", "P2P", "--tier", "tiny", "--queries", "99999"]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_batched_query_mode(self, capsys):
        code = main(
            [
                "query",
                "--dataset", "P2P",
                "--tier", "tiny",
                "--queries", "1,2",
                "--rank", "4",
                "--top", "3",
                "--query-mode", "batched",
            ]
        )
        assert code == 0
        assert "top-3 most similar to node 1" in capsys.readouterr().out


class TestServeBatchCommand:
    @staticmethod
    def _write_queries(tmp_path):
        path = tmp_path / "queries.txt"
        path.write_text("1,2,3\n4 5\n# a comment line\n1,2\n")
        return str(path)

    def test_human_output(self, tmp_path, capsys):
        code = main(
            [
                "serve-batch",
                "--dataset", "P2P",
                "--tier", "tiny",
                "--queries-file", self._write_queries(tmp_path),
                "--rank", "4",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "pass 1:" in out
        assert "cache:" in out
        assert "columns/s" in out

    def test_json_output_shape(self, tmp_path, capsys):
        import json

        code = main(
            [
                "serve-batch",
                "--dataset", "P2P",
                "--tier", "tiny",
                "--queries-file", self._write_queries(tmp_path),
                "--rank", "4",
                "--repeat", "2",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        for key in (
            "num_nodes", "num_edges", "rank", "damping",
            "requests", "passes", "stats",
        ):
            assert key in payload
        assert payload["requests"] == 3
        assert len(payload["passes"]) == 2
        for entry in payload["passes"]:
            assert entry["columns"] == 7
            assert entry["columns_per_second"] > 0
        stats = payload["stats"]
        for key in (
            "hits", "misses", "evictions", "bytes_cached",
            "hit_rate", "lookup_seconds", "compute_seconds",
            "assemble_seconds",
        ):
            assert key in stats
        # pass 1 misses seeds {1..5}; pass 2 is fully warm
        assert stats["misses"] == 5
        assert stats["hits"] == 5
        assert payload["query_mode"] == "exact"

    def test_batched_mode_reported_and_serves(self, tmp_path, capsys):
        import json

        code = main(
            [
                "serve-batch",
                "--dataset", "P2P",
                "--tier", "tiny",
                "--queries-file", self._write_queries(tmp_path),
                "--rank", "4",
                "--query-mode", "batched",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["query_mode"] == "batched"
        assert payload["passes"][0]["columns"] == 7

    def test_human_output_prints_mode(self, tmp_path, capsys):
        code = main(
            [
                "serve-batch",
                "--dataset", "P2P",
                "--tier", "tiny",
                "--queries-file", self._write_queries(tmp_path),
                "--rank", "4",
                "--query-mode", "batched",
            ]
        )
        assert code == 0
        assert "mode=batched" in capsys.readouterr().out

    def test_registry_round_trip_answers_identically(self, tmp_path, capsys):
        """A registry-loaded index serves the same answers as in-memory."""
        import numpy as np

        from repro.core.config import CSRPlusConfig
        from repro.core.index import CSRPlusIndex
        from repro.datasets.registry import load_dataset
        from repro.serving import IndexRegistry

        queries = self._write_queries(tmp_path)
        index_dir = tmp_path / "registry"
        argv = [
            "serve-batch",
            "--dataset", "P2P",
            "--tier", "tiny",
            "--queries-file", queries,
            "--rank", "4",
            "--index-dir", str(index_dir),
        ]
        assert main(argv) == 0
        capsys.readouterr()
        saved = list(index_dir.glob("*.npz"))
        assert len(saved) == 1
        # second invocation resolves the saved index instead of rebuilding
        assert main(argv) == 0
        capsys.readouterr()
        assert list(index_dir.glob("*.npz")) == saved

        graph = load_dataset("P2P", "tiny")
        in_memory = CSRPlusIndex(graph, CSRPlusConfig(rank=4)).prepare()
        loaded = IndexRegistry(index_dir).get(saved[0].stem, graph)
        request = [1, 2, 3, 4, 5]
        assert np.array_equal(loaded.query(request), in_memory.query(request))

    def test_missing_queries_file(self, tmp_path, capsys):
        code = main(
            [
                "serve-batch",
                "--dataset", "P2P",
                "--tier", "tiny",
                "--queries-file", str(tmp_path / "absent.txt"),
            ]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_malformed_queries_file(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("1,two,3\n")
        code = main(
            [
                "serve-batch",
                "--dataset", "P2P",
                "--tier", "tiny",
                "--queries-file", str(path),
            ]
        )
        assert code == 1
        assert "integer node ids" in capsys.readouterr().err

    def test_out_of_range_seed(self, tmp_path, capsys):
        path = tmp_path / "oor.txt"
        path.write_text("999999\n")
        code = main(
            [
                "serve-batch",
                "--dataset", "P2P",
                "--tier", "tiny",
                "--queries-file", str(path),
            ]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestQualityFlag:
    """--quality plumbs the serving tier through serve-batch/loadgen."""

    @staticmethod
    def _write_queries(tmp_path):
        path = tmp_path / "queries.txt"
        path.write_text("1,2,3\n4 5\n1,2\n")
        return str(path)

    def test_serve_batch_approx_reports_tiers(self, tmp_path, capsys):
        import json

        code = main(
            [
                "serve-batch",
                "--dataset", "P2P",
                "--tier", "tiny",
                "--queries-file", self._write_queries(tmp_path),
                "--rank", "4",
                "--quality", "approx",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["quality"] == "approx"
        assert payload["approx"]["rank"] == 1  # replica_rank(4)
        assert payload["approx"]["atol"] > 0

    def test_serve_batch_human_output_prints_tiers_line(self, tmp_path, capsys):
        code = main(
            [
                "serve-batch",
                "--dataset", "P2P",
                "--tier", "tiny",
                "--queries-file", self._write_queries(tmp_path),
                "--rank", "4",
                "--quality", "auto",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "tiers: exact=" in out
        assert "replica rank=1" in out

    def test_shards_reject_quality(self, tmp_path, capsys):
        code = main(
            [
                "serve-batch",
                "--shards", str(tmp_path / "store"),
                "--queries-file", self._write_queries(tmp_path),
                "--quality", "auto",
            ]
        )
        assert code == 1
        assert "exact factors" in capsys.readouterr().err

    def test_loadgen_auto_serves_overload_as_approx(self, capsys):
        import json

        code = main(
            [
                "loadgen",
                "--dataset", "P2P",
                "--tier", "tiny",
                "--rank", "4",
                "--requests", "10",
                "--qps", "500",
                "--seeds-per-request", "8",
                "--max-inflight-seeds", "4",
                "--cache-columns", "0",
                "--quality", "auto",
                "--seed", "3",
                "--simulate",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["outcomes"]["shed"] == 0
        assert payload["outcomes"]["approx"] == 10


class TestPartialExitCode:
    """serve-batch --partial exits 3 when the batch came back incomplete,
    so scripted callers can detect truncation (deadline hit, shed, ...)."""

    @staticmethod
    def _argv(tmp_path, *extra):
        queries = tmp_path / "queries.txt"
        queries.write_text("1,2,3\n4 5\n")
        return [
            "serve-batch",
            "--dataset", "P2P",
            "--tier", "tiny",
            "--queries-file", str(queries),
            "--rank", "4",
            "--repeat", "1",
            *extra,
        ]

    def test_truncated_partial_batch_exits_3(self, tmp_path, capsys):
        import json

        code = main(
            self._argv(
                tmp_path, "--partial", "--deadline-ms", "1e-9", "--json"
            )
        )
        assert code == 3
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["passes"][0]["failed_requests"] > 0
        # the JSON payload stays clean; the warning goes to stderr only
        assert "warning" not in captured.out

    def test_truncated_partial_batch_warns_on_stderr(self, tmp_path, capsys):
        code = main(
            self._argv(tmp_path, "--partial", "--deadline-ms", "1e-9")
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "request(s) failed" in err

    def test_complete_partial_batch_exits_0(self, tmp_path, capsys):
        assert main(self._argv(tmp_path, "--partial")) == 0

    def test_without_partial_deadline_is_a_typed_error(self, tmp_path, capsys):
        """No --partial: the deadline aborts with the usual exit 1."""
        code = main(self._argv(tmp_path, "--deadline-ms", "1e-9"))
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestShardCLI:
    """shard-build produces a store that query/serve-batch --shards can
    serve with answers equal to the monolithic paths."""

    @staticmethod
    def _build(tmp_path, *extra):
        out = tmp_path / "store.shards"
        code = main(
            [
                "shard-build",
                "--dataset", "P2P",
                "--tier", "tiny",
                "--rank", "4",
                "--out", str(out),
                "--num-shards", "3",
                *extra,
            ]
        )
        assert code == 0
        return out

    def test_build_then_query_matches_monolithic(self, tmp_path, capsys):
        store = self._build(tmp_path, "--from-index")
        capsys.readouterr()
        argv = ["--queries", "1,2", "--rank", "4", "--top", "3"]
        assert main(["query", "--shards", str(store), *argv]) == 0
        sharded_out = capsys.readouterr().out
        assert main(["query", "--dataset", "P2P", "--tier", "tiny", *argv]) == 0
        mono_out = capsys.readouterr().out
        # identical ranking lines (headers differ: store vs graph)
        sharded_tail = sharded_out.split("top-3", 1)[1]
        mono_tail = mono_out.split("top-3", 1)[1]
        assert sharded_tail == mono_tail

    def test_build_json_reports_layout(self, tmp_path, capsys):
        import json

        out = tmp_path / "store.shards"
        code = main(
            [
                "shard-build",
                "--dataset", "P2P",
                "--tier", "tiny",
                "--rank", "4",
                "--out", str(out),
                "--num-shards", "3",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["builder"] == "out-of-core"
        assert payload["num_shards"] == 3
        assert sum(payload["shard_rows"]) == payload["num_nodes"]
        assert payload["peak_resident_bytes"] > 0
        assert (out / "manifest.json").exists()

    def test_existing_store_needs_overwrite(self, tmp_path, capsys):
        store = self._build(tmp_path)
        code = main(
            [
                "shard-build",
                "--dataset", "P2P",
                "--tier", "tiny",
                "--rank", "4",
                "--out", str(store),
                "--num-shards", "3",
            ]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_serve_batch_from_shards(self, tmp_path, capsys):
        import json

        store = self._build(tmp_path)
        capsys.readouterr()
        queries = tmp_path / "queries.txt"
        queries.write_text("1,2,3\n4 5\n")
        code = main(
            [
                "serve-batch",
                "--shards", str(store),
                "--queries-file", str(queries),
                "--repeat", "2",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["num_edges"] is None  # store carries no edge count
        assert payload["rank"] == 4  # from the manifest, not --rank
        assert payload["passes"][0]["columns"] == 5
        assert payload["stats"]["misses"] == 5
        assert payload["stats"]["hits"] == 5  # pass 2 fully warm

    def test_serve_batch_shards_rejects_index_dir(self, tmp_path, capsys):
        store = self._build(tmp_path)
        capsys.readouterr()
        queries = tmp_path / "queries.txt"
        queries.write_text("1\n")
        code = main(
            [
                "serve-batch",
                "--shards", str(store),
                "--queries-file", str(queries),
                "--index-dir", str(tmp_path / "registry"),
            ]
        )
        assert code == 1
        assert "--index-dir" in capsys.readouterr().err

    def test_shards_source_exclusive_with_dataset(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["query", "--dataset", "FB", "--shards", "x", "--queries", "0"]
            )


class TestStatsCommand:
    def test_dataset_stats(self, capsys):
        assert main(["stats", "--dataset", "FB", "--tier", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "m/n" in out
        assert "weak components" in out

    def test_edge_list_stats(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n1 2\n")
        assert main(["stats", "--edge-list", str(path)]) == 0
        assert "n: 3" in capsys.readouterr().out


class TestTuneCommand:
    def test_tune_loose_target(self, capsys):
        code = main(
            [
                "tune",
                "--dataset", "P2P",
                "--tier", "tiny",
                "--target-error", "1.0",
                "--candidates", "5,10",
            ]
        )
        assert code == 0
        assert "suggested rank: 5" in capsys.readouterr().out

    def test_tune_bad_target(self, capsys):
        code = main(
            [
                "tune",
                "--dataset", "P2P",
                "--tier", "tiny",
                "--target-error", "-1",
            ]
        )
        assert code == 1


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_query_source_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["query", "--dataset", "FB", "--edge-list", "x", "--queries", "0"]
            )


class TestObservabilityCLI:
    """Acceptance criterion: serve-batch dumps a valid Prometheus file and
    a JSON trace whose spans cover the serve phases and prepare stages."""

    @pytest.fixture(autouse=True)
    def _clean_obs_state(self):
        import repro.obs as obs

        previous = obs.set_enabled(True)
        obs.get_tracer().reset()
        yield
        obs.set_enabled(previous)
        obs.get_tracer().reset()

    @staticmethod
    def _serve(tmp_path, capsys, *extra):
        queries = tmp_path / "queries.txt"
        queries.write_text("0,1,2\n3 4\n")
        code = main(
            [
                "serve-batch",
                "--dataset", "P2P",
                "--tier", "tiny",
                "--queries-file", str(queries),
                "--rank", "4",
                *extra,
            ]
        )
        assert code == 0
        return capsys.readouterr().out

    @staticmethod
    def _span_names(trace):
        names = set()

        def visit(span):
            names.add(span["name"])
            for child in span["children"]:
                visit(child)

        for root in trace["spans"]:
            visit(root)
        return names

    def test_metrics_and_trace_dumps(self, tmp_path, capsys):
        import json

        from tests.obs.test_metrics import assert_valid_prometheus

        metrics_path = tmp_path / "metrics.prom"
        trace_path = tmp_path / "trace.json"
        out = self._serve(
            tmp_path, capsys,
            "--metrics-out", str(metrics_path),
            "--trace-out", str(trace_path),
        )
        assert "metrics written to" in out
        assert "trace written to" in out

        text = metrics_path.read_text()
        assert assert_valid_prometheus(text) > 0
        assert "csrplus_serve_requests_total" in text
        assert "csrplus_serve_batch_seconds_bucket" in text
        assert "csrplus_prepare_seconds" in text

        names = self._span_names(json.loads(trace_path.read_text()))
        assert {
            "serve.batch", "serve.coalesce", "serve.lookup",
            "serve.compute", "serve.assemble",
        } <= names
        assert {
            "prepare", "prepare.svd", "prepare.stein", "prepare.assemble",
        } <= names

    def test_metrics_out_json_variant(self, tmp_path, capsys):
        import json

        metrics_path = tmp_path / "metrics.json"
        self._serve(tmp_path, capsys, "--metrics-out", str(metrics_path))
        dump = json.loads(metrics_path.read_text())
        names = {family["name"] for family in dump["metrics"]}
        assert "csrplus_serve_requests_total" in names
        assert "csrplus_serve_batch_seconds" in names

    def test_stats_pretty_prints_dumps(self, tmp_path, capsys):
        metrics_path = tmp_path / "metrics.prom"
        trace_path = tmp_path / "trace.json"
        self._serve(
            tmp_path, capsys,
            "--metrics-out", str(metrics_path),
            "--trace-out", str(trace_path),
        )
        assert main(["stats", "--metrics-file", str(metrics_path)]) == 0
        out = capsys.readouterr().out
        assert "csrplus_serve_requests_total" in out

        assert main(["stats", "--trace-file", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "serve.batch" in out
        assert "wall" in out

    def test_slow_query_ms_populates_log(self, tmp_path, capsys):
        out = self._serve(tmp_path, capsys, "--slow-query-ms", "0.000001")
        assert "slow batches:" in out

    def test_stats_without_any_source_fails(self, capsys):
        assert main(["stats"]) != 0
        err = capsys.readouterr().err
        assert "stats" in err or "source" in err.lower()


def _edge_list(tmp_path, nodes=32):
    """A ring edge list on disk — small, connected, deterministic."""
    path = tmp_path / "ring.txt"
    path.write_text(
        "\n".join(f"{i} {(i + 1) % nodes}" for i in range(nodes)) + "\n"
    )
    return str(path)


class TestLoadgenCommand:
    """Acceptance criterion: `csrplus loadgen` drives the service with a
    seeded Zipf workload and reports latency percentiles + SLO verdicts."""

    @staticmethod
    def _run(tmp_path, *extra):
        return main([
            "loadgen",
            "--edge-list", _edge_list(tmp_path),
            "--rank", "4",
            "--requests", "20",
            "--qps", "500",
            "--seed", "3",
            "--simulate",
            *extra,
        ])

    def test_renders_report_and_slo_table(self, tmp_path, capsys):
        assert self._run(tmp_path, "--slo-p99-ms", "250") == 0
        out = capsys.readouterr().out
        assert "loadgen:" in out
        assert "p99" in out
        assert "loadgen-p99" in out
        assert "PASS" in out

    def test_json_report_is_deterministic(self, tmp_path, capsys):
        import json

        assert self._run(tmp_path, "--json") == 0
        first = json.loads(capsys.readouterr().out)
        assert self._run(tmp_path, "--json") == 0
        second = json.loads(capsys.readouterr().out)
        assert first["requests"] == 20
        assert first["outcomes"]["ok"] == 20
        assert first["schedule_digest"] == second["schedule_digest"]
        assert first == second

    def test_fail_on_slo_exits_4(self, tmp_path, capsys):
        # an unmeetable p99 bound (far below the simulated clock tick
        # floor) must flip the verdict and the exit code
        code = self._run(
            tmp_path, "--fail-on-slo", "--slo-p99-ms", "0.0000001"
        )
        assert code == 4
        captured = capsys.readouterr()
        assert "FAIL" in captured.out
        assert "exiting 4" in captured.err

    def test_metrics_out_covers_loadgen_families(self, tmp_path, capsys):
        from tests.obs.prom import assert_known_families

        metrics_path = tmp_path / "loadgen.prom"
        code = self._run(
            tmp_path, "--metrics-out", str(metrics_path),
            "--slo-p99-ms", "250",
        )
        assert code == 0
        text = metrics_path.read_text()
        assert_known_families(text)
        assert "csrplus_loadgen_requests_total 20" in text
        assert 'csrplus_loadgen_outcomes_total{outcome="ok"} 20' in text
        assert 'csrplus_slo_ok{slo="loadgen-p99"} 1' in text

    def test_topk_mode(self, tmp_path, capsys):
        assert self._run(tmp_path, "--topk", "5") == 0
        out = capsys.readouterr().out
        assert "top-5" in out or "topk" in out

    def test_parser_rejects_bad_profile(self, tmp_path, capsys):
        assert self._run(tmp_path, "--qps", "0") == 1
        assert "error:" in capsys.readouterr().err


class TestBenchCommand:
    """Acceptance criterion: `csrplus bench --compare prior.json` exits
    nonzero when a tracked metric regresses beyond tolerance."""

    @staticmethod
    def _bench(tmp_path, out_name, *extra):
        return main([
            "bench",
            "--edge-list", _edge_list(tmp_path),
            "--rank", "4",
            "--requests", "15",
            "--qps", "500",
            "--seed", "3",
            "--simulate",
            "--out", str(tmp_path / out_name),
            *extra,
        ])

    def test_writes_schema_versioned_snapshot(self, tmp_path, capsys):
        import json

        assert self._bench(tmp_path, "BENCH_a.json") == 0
        out = capsys.readouterr().out
        assert "bench snapshot written to" in out
        payload = json.loads((tmp_path / "BENCH_a.json").read_text())
        assert payload["schema"] == "csrplus-bench/v1"
        assert "loadgen_p99_seconds" in payload["metrics"]
        assert payload["slo"]["ok"] is True

    def test_compare_clean_against_self(self, tmp_path, capsys):
        assert self._bench(tmp_path, "BENCH_base.json") == 0
        capsys.readouterr()
        # identical simulated loadgen metrics; wall-clock metrics get
        # the 25% default tolerance but can still jitter on a tiny
        # graph, so gate only on the deterministic ones
        code = self._bench(
            tmp_path, "BENCH_next.json",
            "--compare", str(tmp_path / "BENCH_base.json"),
            "--tolerance", "1000",
        )
        assert code == 0
        assert "bench comparison" in capsys.readouterr().out

    def test_compare_exits_5_on_injected_p99_regression(
        self, tmp_path, capsys
    ):
        import json

        assert self._bench(tmp_path, "BENCH_base.json") == 0
        capsys.readouterr()
        # inject the regression by making the baseline 10x better than
        # the (deterministic) rerun can ever be — editing a copy, not
        # re-measuring, keeps the test immune to timing jitter
        baseline = json.loads((tmp_path / "BENCH_base.json").read_text())
        baseline["metrics"]["loadgen_p99_seconds"]["value"] /= 10.0
        for name in list(baseline["metrics"]):
            if not name.startswith("loadgen_"):
                del baseline["metrics"][name]  # mute wall-clock noise
        (tmp_path / "BENCH_prior.json").write_text(json.dumps(baseline))

        code = self._bench(
            tmp_path, "BENCH_next.json",
            "--compare", str(tmp_path / "BENCH_prior.json"),
        )
        assert code == 5
        captured = capsys.readouterr()
        assert "REGRESSED" in captured.out
        assert "loadgen_p99_seconds" in captured.out
        assert "exiting 5" in captured.err

    def test_compare_missing_baseline_fails(self, tmp_path, capsys):
        code = self._bench(
            tmp_path, "BENCH_x.json",
            "--compare", str(tmp_path / "nope.json"),
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestLoadgenBenchParser:
    def test_loadgen_source_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["loadgen", "--dataset", "FB", "--edge-list", "x"]
            )

    def test_bench_defaults(self):
        args = build_parser().parse_args(["bench", "--dataset", "FB"])
        assert args.command == "bench"
        assert args.out is None
        assert args.compare is None
        assert args.tolerance is None


class TestUpdateCommand:
    """`csrplus update`: edge batches repaired into a next-version store,
    rewriting only digest-changed shards (docs/dynamic.md)."""

    @staticmethod
    def _build(tmp_path):
        store = tmp_path / "store.shards"
        assert main([
            "shard-build",
            "--edge-list", _edge_list(tmp_path),
            "--rank", "4",
            "--out", str(store),
            "--num-shards", "3",
        ]) == 0
        return store

    def test_noop_batch_repairs_zero_shards(self, tmp_path, capsys):
        """Re-adding an existing edge leaves the graph's bytes unchanged:
        the repair must report strictly fewer changed shards than the
        total — here, none — and still produce a serviceable store."""
        import json

        store = self._build(tmp_path)
        capsys.readouterr()
        code = main([
            "update",
            "--edge-list", _edge_list(tmp_path),
            "--store", str(store),
            "--out", str(tmp_path / "v1.shards"),
            "--add", "0:1",  # the ring already has this edge
            "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["repaired_shards"] == []
        assert payload["total_shards"] == 3

    def test_real_batch_reports_repair_and_serves(self, tmp_path, capsys):
        store = self._build(tmp_path)
        capsys.readouterr()
        code = main([
            "update",
            "--edge-list", _edge_list(tmp_path),
            "--store", str(store),
            "--out", str(tmp_path / "v1.shards"),
            "--add", "0:16,5:20",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "/3 shard(s) changed" in out
        assert "next-version store written" in out
        # the repaired store serves queries like any other
        assert main([
            "query", "--shards", str(tmp_path / "v1.shards"),
            "--queries", "0", "--top", "3",
        ]) == 0

    def test_requires_an_edge(self, tmp_path, capsys):
        store = self._build(tmp_path)
        code = main([
            "update",
            "--edge-list", _edge_list(tmp_path),
            "--store", str(store),
            "--out", str(tmp_path / "v1.shards"),
        ])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_bad_edge_spec_is_typed(self, tmp_path, capsys):
        store = self._build(tmp_path)
        code = main([
            "update",
            "--edge-list", _edge_list(tmp_path),
            "--store", str(store),
            "--out", str(tmp_path / "v1.shards"),
            "--add", "0-1",
        ])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestServeBatchLive:
    """serve-batch --live: between-pass edge batches through a
    LiveIndexChain, each new version swapped in with zero downtime."""

    @staticmethod
    def _queries(tmp_path):
        path = tmp_path / "queries.txt"
        path.write_text("1,2\n3 4\n")
        return str(path)

    def test_monolithic_live_passes_report_versions(self, tmp_path, capsys):
        code = main([
            "serve-batch",
            "--edge-list", _edge_list(tmp_path),
            "--queries-file", self._queries(tmp_path),
            "--rank", "4",
            "--repeat", "3",
            "--live",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "[v1]" in out or "[v1," in out
        assert "[v2]" in out or "[v2," in out
        assert "live:" in out

    def test_sharded_live_reports_repairs(self, tmp_path, capsys):
        import json

        code = main([
            "serve-batch",
            "--edge-list", _edge_list(tmp_path),
            "--queries-file", self._queries(tmp_path),
            "--rank", "4",
            "--repeat", "3",
            "--live",
            "--live-shards", "3",
            "--live-store", str(tmp_path / "live"),
            "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["live"]["final_version"] == 2
        assert payload["live"]["sharded"] is True
        versions = [entry["index_version"] for entry in payload["passes"]]
        assert versions == [0, 1, 2]
        for entry in payload["passes"][1:]:
            assert "repaired_shards" in entry

    def test_live_conflicts_with_shards_source(self, tmp_path, capsys):
        store = tmp_path / "store.shards"
        assert main([
            "shard-build",
            "--edge-list", _edge_list(tmp_path),
            "--rank", "4",
            "--out", str(store),
            "--num-shards", "2",
        ]) == 0
        code = main([
            "serve-batch",
            "--shards", str(store),
            "--queries-file", self._queries(tmp_path),
            "--live",
        ])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_live_shards_require_store(self, tmp_path, capsys):
        code = main([
            "serve-batch",
            "--edge-list", _edge_list(tmp_path),
            "--queries-file", self._queries(tmp_path),
            "--live",
            "--live-shards", "2",
        ])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestLoadgenMutate:
    def test_mutation_schedule_reports_and_serves(self, tmp_path, capsys):
        code = main([
            "loadgen",
            "--edge-list", _edge_list(tmp_path),
            "--rank", "4",
            "--requests", "30",
            "--qps", "500",
            "--seed", "3",
            "--simulate",
            "--mutate-every", "10",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "mutations: 2 live edge batches" in out
        assert "ok=30" in out  # sustained mutation never broke serving

    def test_mutate_every_requires_positive(self, tmp_path, capsys):
        code = main([
            "loadgen",
            "--edge-list", _edge_list(tmp_path),
            "--requests", "10",
            "--simulate",
            "--mutate-every", "-1",
        ])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestUnparsableArguments:
    """Malformed comma lists and a non-positive ``--top`` are typed
    errors: exit 1 with ``error:``, never a traceback or odd output."""

    @pytest.mark.parametrize("argv", [
        ["query", "--dataset", "FB", "--tier", "tiny", "--queries", "3,x"],
        ["tune", "--dataset", "FB", "--tier", "tiny",
         "--target-error", "0.5", "--candidates", "5,y"],
        ["query", "--dataset", "FB", "--tier", "tiny", "--queries", "3",
         "--top", "-2"],
        ["query", "--dataset", "FB", "--tier", "tiny", "--queries", "3",
         "--top", "0"],
    ])
    def test_exits_1_with_error(self, argv, capsys):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert "Traceback" not in captured.out + captured.err
        assert "most similar" not in captured.out


class TestIgnoredFlagsRejected:
    def test_index_name_needs_index_dir(self, tmp_path, capsys):
        queries = tmp_path / "queries.txt"
        queries.write_text("1\n")
        code = main([
            "serve-batch", "--dataset", "FB", "--tier", "tiny",
            "--queries-file", str(queries), "--index-name", "fb",
        ])
        assert code == 1
        assert "--index-name" in capsys.readouterr().err

    def test_serve_shards_rejects_store(self, tmp_path, capsys):
        code = main([
            "serve", "--shards", str(tmp_path / "shards"),
            "--store", str(tmp_path / "other"), "--port", "0",
        ])
        assert code == 1
        assert "--store" in capsys.readouterr().err


class TestBenchCompareRefusesMismatch:
    """``bench --compare`` refuses a baseline whose workload or
    environment differs from the fresh run's, or lacks those keys."""

    @pytest.mark.parametrize("section,key,value,named", [
        ("workload", "rank", 8, "workload"),
        ("workload", "num_nodes", 300, "workload"),
        ("environment", "cpus", "999", "cpus"),
        ("environment", "blas_threads", "999", "blas_threads"),
        ("environment", "blas_threads", None, "blas_threads"),
    ])
    def test_mismatch_exits_1(self, tmp_path, capsys, section, key, value,
                              named):
        import json

        assert TestBenchCommand._bench(tmp_path, "BENCH_base.json") == 0
        baseline = json.loads((tmp_path / "BENCH_base.json").read_text())
        if value is None:
            del baseline[section][key]  # a snapshot from before the key
        else:
            baseline[section][key] = value
        (tmp_path / "BENCH_prior.json").write_text(json.dumps(baseline))
        capsys.readouterr()

        code = TestBenchCommand._bench(
            tmp_path, "BENCH_next.json",
            "--compare", str(tmp_path / "BENCH_prior.json"),
            "--tolerance", "1000",
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert named in captured.err
        assert "bench comparison" not in captured.out
