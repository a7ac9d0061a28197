"""Tests for the deterministic open-loop load generator."""

import numpy as np
import pytest

from repro.core.index import CSRPlusIndex
from repro.errors import InvalidParameterError
from repro.graphs import ring
from repro.obs.metrics import MetricsRegistry
from repro.serving import (
    CoSimRankService,
    LoadProfile,
    SimulatedClock,
    build_schedule,
    loadgen_slos,
    run_load,
    zipf_probabilities,
)
from tests.obs.prom import assert_known_families


@pytest.fixture(scope="module")
def index():
    return CSRPlusIndex(ring(48), rank=6).prepare()


def _service(index, **kwargs):
    kwargs.setdefault("max_workers", 1)
    return CoSimRankService(index, **kwargs)


class TestProfileValidation:
    @pytest.mark.parametrize("kwargs", [
        {"requests": 0},
        {"qps": 0.0},
        {"seeds_per_request": 0},
        {"zipf_s": -0.1},
        {"burst_factor": 0.5},
        {"burst_period_s": 0.0},
        {"burst_duty": 1.5},
    ])
    def test_bad_profiles_rejected(self, kwargs):
        with pytest.raises(InvalidParameterError):
            LoadProfile(**kwargs)


class TestZipf:
    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(0)
        probs = zipf_probabilities(100, 1.1, rng)
        assert probs.shape == (100,)
        assert probs.sum() == pytest.approx(1.0)

    def test_zero_skew_is_uniform(self):
        rng = np.random.default_rng(0)
        probs = zipf_probabilities(10, 0.0, rng)
        assert np.allclose(probs, 0.1)

    def test_skew_concentrates_mass(self):
        rng = np.random.default_rng(0)
        probs = zipf_probabilities(1000, 1.2, rng)
        top = np.sort(probs)[::-1][:10].sum()
        assert top > 0.3  # a 1% hot set carries >30% of the traffic


class TestSchedule:
    def test_deterministic_for_equal_profiles(self):
        profile = LoadProfile(requests=40, qps=100.0, seed=5)
        a = build_schedule(profile, 48)
        b = build_schedule(profile, 48)
        assert a.requests == b.requests
        assert a.digest() == b.digest()

    def test_seed_changes_schedule(self):
        a = build_schedule(LoadProfile(requests=40, seed=1), 48)
        b = build_schedule(LoadProfile(requests=40, seed=2), 48)
        assert a.digest() != b.digest()

    def test_arrivals_are_strictly_ordered(self):
        schedule = build_schedule(LoadProfile(requests=100, qps=1000.0), 48)
        times = [req.at_s for req in schedule.requests]
        assert times == sorted(times)
        assert schedule.duration_s == times[-1]

    def test_bursts_raise_arrival_density(self):
        base = LoadProfile(requests=400, qps=100.0, seed=3)
        bursty = LoadProfile(
            requests=400, qps=100.0, seed=3,
            burst_factor=10.0, burst_period_s=10.0, burst_duty=0.5,
        )
        plain = build_schedule(base, 48)
        burst = build_schedule(bursty, 48)
        # same request count arrives much faster when half of every
        # cycle runs at 10x the base rate
        assert burst.duration_s < plain.duration_s

    def test_seeds_within_range_and_count(self):
        profile = LoadProfile(requests=30, seeds_per_request=5)
        schedule = build_schedule(profile, 48)
        for request in schedule.requests:
            assert len(request.seeds) == 5
            assert all(0 <= seed < 48 for seed in request.seeds)


class TestSimulatedClock:
    def test_sleep_advances_and_now_ticks(self):
        clock = SimulatedClock(start=0.0, tick=0.5)
        first = clock.now()
        clock.sleep(10.0)
        second = clock.now()
        assert second == pytest.approx(first + 10.0 + 0.5)

    def test_negative_sleep_is_noop(self):
        clock = SimulatedClock(tick=0.0)
        clock.sleep(-1.0)
        assert clock.now() == 0.0

    def test_negative_tick_rejected(self):
        with pytest.raises(InvalidParameterError):
            SimulatedClock(tick=-0.1)


class TestRunLoad:
    def _run(self, index, profile=None, **kwargs):
        profile = profile or LoadProfile(requests=40, qps=500.0, seed=2)
        schedule = build_schedule(profile, index.num_nodes)
        clock = SimulatedClock()
        service = _service(index, **kwargs.pop("service_kwargs", {}))
        try:
            return run_load(
                service, schedule,
                clock=clock.now, sleep=clock.sleep, **kwargs,
            ), service
        finally:
            service.close()

    def test_identical_runs_produce_identical_reports(self):
        # the PR's acceptance criterion: same profile, same seed, two
        # fresh services -> byte-identical schedule AND report
        index = CSRPlusIndex(ring(48), rank=6).prepare()
        first, _ = self._run(index, slos=loadgen_slos(p99_ms=250))
        second, _ = self._run(index, slos=loadgen_slos(p99_ms=250))
        assert first.schedule_digest == second.schedule_digest
        assert first.as_dict() == second.as_dict()

    def test_all_ok_on_healthy_service(self, index):
        report, service = self._run(index)
        assert report.outcomes["ok"] == 40
        assert report.ok_rate == 1.0
        assert report.requests == 40
        assert report.qps_achieved > 0
        assert report.latency_s["p50"] <= report.latency_s["p99"]

    def test_shed_outcomes_under_admission_pressure(self, index):
        profile = LoadProfile(
            requests=30, qps=500.0, seeds_per_request=8, zipf_s=0.0, seed=4
        )
        report, _ = self._run(
            index, profile=profile,
            service_kwargs={
                "max_inflight_seeds": 4, "cache_columns": 0,
            },
        )
        assert report.outcomes["shed"] == 30  # every request needs 8 > 4 seeds
        assert report.ok_rate == 0.0

    def test_topk_mode(self, index):
        report, service = self._run(index, topk=5)
        assert report.topk == 5
        assert report.outcomes["ok"] == 40
        assert service.topk_stats()["batches"] == 40

    def test_metrics_and_slo_export(self, index):
        registry = MetricsRegistry()
        report, service = self._run(
            index,
            registry=registry,
            slos=loadgen_slos(p99_ms=250.0, p50_ms=100.0, availability=0.9),
        )
        assert report.slo is not None and report.slo_ok
        assert {entry["name"] for entry in report.slo["slos"]} == {
            "loadgen-p99", "loadgen-p50", "loadgen-availability",
        }
        text = registry.render_prometheus()
        assert_known_families(text)
        assert "csrplus_loadgen_requests_total 40" in text
        assert 'csrplus_loadgen_outcomes_total{outcome="ok"} 40' in text
        assert "csrplus_loadgen_request_seconds_count 40" in text
        assert 'csrplus_slo_ok{slo="loadgen-p99"} 1' in text

    def test_slo_failure_detected(self, index):
        # 1 ms p99 bound is unmeetable even on the simulated clock tick
        report, _ = self._run(index, slos=loadgen_slos(availability=0.999))
        assert report.slo_ok
        profile = LoadProfile(
            requests=30, qps=500.0, seeds_per_request=8, zipf_s=0.0, seed=4
        )
        shed_report, _ = self._run(
            index, profile=profile,
            service_kwargs={"max_inflight_seeds": 4, "cache_columns": 0},
            slos=loadgen_slos(availability=0.999),
        )
        assert not shed_report.slo_ok

    def test_render_mentions_the_workload(self, index):
        report, _ = self._run(index)
        text = report.render()
        assert "loadgen:" in text
        assert "p99" in text
        assert report.schedule_digest[:16] in text

    def test_invalid_topk_rejected(self, index):
        schedule = build_schedule(LoadProfile(requests=2), index.num_nodes)
        service = _service(index)
        try:
            with pytest.raises(InvalidParameterError):
                run_load(service, schedule, topk=0)
        finally:
            service.close()


class TestFailedOutcome:
    """Hard failures are ``failed``, never ``degraded`` (the satellite
    bugfix): chaos-induced compute faults must not read as graceful
    degradation in availability verdicts."""

    _OVERLOAD = dict(
        requests=10, qps=500.0, seeds_per_request=4, zipf_s=0.0, seed=9
    )

    def test_compute_faults_classify_as_failed(self, index):
        from repro.testing.faults import FaultPlan

        profile = LoadProfile(**self._OVERLOAD)
        schedule = build_schedule(profile, index.num_nodes)
        registry = MetricsRegistry()
        clock = SimulatedClock()
        # every chunk AND every isolation retry fails -> each request
        # ends in ColumnComputeFailed, a hard failure
        service = _service(index, cache_columns=0)
        try:
            with FaultPlan(sleep=lambda s: None).fail(
                "compute.chunk", times=None
            ):
                report = run_load(
                    service, schedule,
                    registry=registry,
                    slos=loadgen_slos(availability=0.9),
                    clock=clock.now, sleep=clock.sleep,
                )
        finally:
            service.close()
        assert report.outcomes["failed"] == 10
        assert report.outcomes["degraded"] == 0
        assert report.ok_rate == 0.0
        # the new family feeds the availability SLO's bad set
        text = registry.render_prometheus()
        assert_known_families(text)
        assert "csrplus_loadgen_failed_total 10" in text
        assert not report.slo_ok

    def test_classifier_keeps_failures_out_of_degraded(self):
        from repro.errors import (
            ColumnComputeFailed,
            DeadlineExceeded,
            IndexCorrupted,
            ServiceOverloaded,
            ShardCorrupted,
        )
        from repro.serving.loadgen import _classify

        assert _classify(None) == "ok"
        assert _classify(None, tier="approx") == "approx"
        assert _classify(ServiceOverloaded(8, 4, 4)) == "shed"
        assert _classify(DeadlineExceeded(0.1, 0.2)) == "deadline"
        assert _classify(IndexCorrupted("x.npz", "bad digest")) == "failed"
        assert _classify(ShardCorrupted("y", 0, "bad shard")) == "failed"
        assert _classify(ColumnComputeFailed(3, "boom")) == "failed"


class TestQualityForwarding:
    """``run_load(quality="auto")`` turns overload sheds into served
    ``approx`` outcomes, and the availability SLO counts them good."""

    _OVERLOAD = dict(
        requests=30, qps=500.0, seeds_per_request=8, zipf_s=0.0, seed=4
    )

    def _auto_run(self, index, **kwargs):
        from repro.core.index import replica_rank

        profile = LoadProfile(**self._OVERLOAD)
        schedule = build_schedule(profile, index.num_nodes)
        clock = SimulatedClock()
        replica = index.truncate_to_rank(replica_rank(index.rank))
        service = _service(
            index,
            max_inflight_seeds=4,
            cache_columns=0,
            approx_index=replica,
        )
        try:
            return run_load(
                service, schedule, quality="auto",
                clock=clock.now, sleep=clock.sleep, **kwargs,
            ), service
        finally:
            service.close()

    def test_auto_serves_what_exact_only_sheds(self, index):
        report, service = self._auto_run(index)
        # the exact-only baseline sheds all 30 (see
        # test_shed_outcomes_under_admission_pressure); auto serves them
        assert report.outcomes["shed"] == 0
        assert report.outcomes["approx"] == 30
        assert report.served_rate == 1.0
        assert report.ok_rate == 0.0  # approx is served, but not "ok"
        stats = service.stats()
        assert stats.tier_approx == 30
        assert stats.approx_downgrades == 30
        assert stats.shed == 0

    def test_availability_slo_counts_approx_as_good(self, index):
        registry = MetricsRegistry()
        report, _ = self._auto_run(
            index,
            registry=registry,
            slos=loadgen_slos(availability=0.999),
        )
        assert report.slo_ok
        text = registry.render_prometheus()
        assert_known_families(text)
        assert 'csrplus_loadgen_outcomes_total{outcome="approx"} 30' in text

    def test_auto_report_stays_deterministic(self, index):
        first, _ = self._auto_run(index)
        second, _ = self._auto_run(index)
        assert first.as_dict() == second.as_dict()
