"""Tests for perf-trajectory snapshots and regression gating."""

import copy
import json

import pytest

from repro.bench import (
    DEFAULT_TOLERANCE,
    SCHEMA,
    check_comparable,
    compare_snapshots,
    load_snapshot,
    render_comparison,
    run_bench,
    write_snapshot,
)
from repro.errors import GraphFormatError, InvalidParameterError
from repro.graphs import ring
from repro.serving import LoadProfile


@pytest.fixture(scope="module")
def payload():
    return run_bench(
        ring(32),
        rank=6,
        profile=LoadProfile(requests=30, qps=500.0, seed=1),
        simulate=True,
    )


class TestRunBench:
    def test_payload_shape(self, payload):
        assert payload["schema"] == SCHEMA
        assert payload["workload"]["num_nodes"] == 32
        assert set(payload["environment"]) >= {"python", "numpy", "scipy"}
        for name, metric in payload["metrics"].items():
            assert metric["direction"] in ("lower", "higher"), name
            assert metric["value"] >= 0.0
            assert metric["unit"]
        assert {
            "prepare_seconds",
            "exact_columns_per_second",
            "batched_columns_per_second",
            "topk_seeds_per_second",
            "loadgen_p99_seconds",
            "loadgen_qps_achieved",
            "loadgen_ok_rate",
        } <= set(payload["metrics"])

    def test_embeds_loadgen_report_and_slo(self, payload):
        assert payload["loadgen"]["requests"] == 30
        assert payload["slo"]["ok"] is True

    def test_simulated_loadgen_metrics_are_deterministic(self, payload):
        again = run_bench(
            ring(32),
            rank=6,
            profile=LoadProfile(requests=30, qps=500.0, seed=1),
            simulate=True,
        )
        for name in ("loadgen_p50_seconds", "loadgen_p99_seconds",
                     "loadgen_qps_achieved", "loadgen_ok_rate"):
            assert (
                again["metrics"][name]["value"]
                == payload["metrics"][name]["value"]
            ), name
        assert (
            again["loadgen"]["schedule_digest"]
            == payload["loadgen"]["schedule_digest"]
        )


class TestSnapshotIO:
    def test_round_trip(self, payload, tmp_path):
        path = tmp_path / "BENCH_test.json"
        write_snapshot(payload, str(path))
        loaded = load_snapshot(str(path))
        assert loaded == json.loads(json.dumps(payload))

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(GraphFormatError):
            load_snapshot(str(tmp_path / "nope.json"))

    def test_non_json_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json")
        with pytest.raises(GraphFormatError):
            load_snapshot(str(path))

    def test_wrong_schema_raises(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"schema": "csrplus-bench/v0", "metrics": {}}))
        with pytest.raises(GraphFormatError):
            load_snapshot(str(path))

    def test_missing_metrics_raises(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"schema": SCHEMA}))
        with pytest.raises(GraphFormatError):
            load_snapshot(str(path))


class TestCompare:
    def test_identical_snapshots_are_clean(self, payload):
        assert compare_snapshots(payload, payload) == []

    def test_negative_tolerance_rejected(self, payload):
        with pytest.raises(InvalidParameterError):
            compare_snapshots(payload, payload, tolerance=-0.1)

    def test_lower_direction_regression(self, payload):
        worse = copy.deepcopy(payload)
        worse["metrics"]["prepare_seconds"]["value"] *= 2.0
        regressions = compare_snapshots(payload, worse, tolerance=0.25)
        assert [entry["metric"] for entry in regressions] == [
            "prepare_seconds"
        ]
        assert regressions[0]["ratio"] == pytest.approx(2.0)
        # the reverse direction (getting faster) is never a regression
        assert compare_snapshots(worse, payload, tolerance=0.25) == []

    def test_higher_direction_regression(self, payload):
        worse = copy.deepcopy(payload)
        worse["metrics"]["loadgen_qps_achieved"]["value"] /= 3.0
        regressions = compare_snapshots(payload, worse, tolerance=0.25)
        assert [entry["metric"] for entry in regressions] == [
            "loadgen_qps_achieved"
        ]
        assert regressions[0]["ratio"] == pytest.approx(3.0)

    def test_within_tolerance_is_clean(self, payload):
        slightly = copy.deepcopy(payload)
        slightly["metrics"]["prepare_seconds"]["value"] *= 1.0 + (
            DEFAULT_TOLERANCE * 0.9
        )
        assert compare_snapshots(payload, slightly) == []

    def test_new_metrics_are_skipped(self, payload):
        newer = copy.deepcopy(payload)
        newer["metrics"]["brand_new_metric"] = {
            "value": 1.0, "unit": "x", "direction": "lower",
        }
        assert compare_snapshots(payload, newer) == []

    def test_render_flags_regressions(self, payload):
        worse = copy.deepcopy(payload)
        worse["metrics"]["prepare_seconds"]["value"] *= 10.0
        regressions = compare_snapshots(payload, worse, tolerance=0.25)
        text = render_comparison(payload, worse, regressions, 0.25)
        assert "REGRESSED" in text
        assert "prepare_seconds" in text
        assert "1 metric(s) regressed" in text

    def test_render_clean_comparison(self, payload):
        text = render_comparison(payload, payload, [], 0.25)
        assert "no regressions" in text


class TestComparable:
    def test_environment_records_blas_threads(self, payload):
        threads = payload["environment"]["blas_threads"]
        assert threads == "unknown" or int(threads) >= 1

    def test_same_run_is_comparable(self, payload):
        check_comparable(payload, json.loads(json.dumps(payload)))
