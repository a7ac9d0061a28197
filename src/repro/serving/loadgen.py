"""Deterministic open-loop load generation for the serving stack.

The serving experiments in the paper report throughput under synthetic
multi-source traffic; this module makes that traffic reproducible and
gives it realistic shape:

* **Open loop** — arrivals follow a schedule fixed *before* the run, so
  a slow service cannot slow the offered load down.  Each request's
  latency is measured from its *scheduled* arrival time, which charges
  queueing delay to the service instead of silently dropping it
  (coordinated-omission-free accounting).
* **Zipf popularity** — seed ids are drawn from a rank-``s`` Zipf
  distribution over a seeded random permutation of the node ids, so a
  small hot set dominates (exercising the column cache) without the
  hot set being the low node ids.
* **Bursts** — the arrival rate alternates between the base QPS and
  ``burst_factor``× it with a fixed period and duty cycle, stressing
  admission control and deadlines the way diurnal or thundering-herd
  traffic does.
* **Determinism** — the schedule is a pure function of the
  :class:`LoadProfile` (``numpy.random.default_rng(seed)``), carries a
  SHA-256 digest, and :func:`run_load` takes an injectable clock/sleep
  pair.  With :class:`SimulatedClock` two runs of the same profile
  produce byte-identical reports (the determinism test and the CI
  perf-smoke lane rely on this).

Results land in three places: a :class:`LoadReport` (QPS, p50/p95/p99,
per-outcome rates, SLO verdicts), ``csrplus_loadgen_*`` instruments in
a metrics registry (scrapeable next to the service's own), and —
through the service — the ordinary ``csrplus_serve_*`` metrics and
spans.  ``csrplus loadgen`` is the CLI front-end and ``csrplus bench``
snapshots the report into the perf trajectory (docs/observability.md).
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import (
    ColumnComputeFailed,
    InvalidParameterError,
    ReproError,
    DeadlineExceeded,
    IndexCorrupted,
    ServiceOverloaded,
    ShardCorrupted,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import AvailabilitySLO, LatencySLO, SLOReport, evaluate_slos

__all__ = [
    "LoadProfile",
    "ScheduledRequest",
    "LoadSchedule",
    "LoadReport",
    "SimulatedClock",
    "build_schedule",
    "run_load",
    "zipf_probabilities",
    "loadgen_slos",
    "OUTCOMES",
]

#: Terminal states a generated request can end in.  ``ok`` (exact
#: answer) and ``approx`` (answered by the rank-truncated replica, within
#: its published atol — the ``quality="auto"`` degrade policy turning
#: would-be sheds into served requests, docs/approx.md) are the good
#: ones; ``shed`` / ``deadline`` / ``degraded`` / ``failed`` are the
#: availability SLO's bad outcomes.  ``failed`` is the hard-failure
#: bucket (corruption, compute errors) — distinct from ``degraded``
#: (soft, retryable degradation), so chaos-induced corruption can
#: never masquerade as graceful degradation in a report.
OUTCOMES = ("ok", "approx", "shed", "deadline", "degraded", "failed")

#: Error types classified as ``failed``: the request did not get an
#: answer *and* the cause was data loss or a compute fault, not an
#: explicit serving policy (admission, deadline).
_HARD_FAILURES = (IndexCorrupted, ShardCorrupted, ColumnComputeFailed)


@dataclass(frozen=True)
class LoadProfile:
    """Everything that determines a workload, and nothing else.

    Two equal profiles always produce the same schedule; the digest of
    that schedule is recorded in reports so drift is detectable.

    Parameters
    ----------
    requests:
        Number of requests to generate.
    qps:
        Base offered rate (arrivals are Poisson at this rate outside
        bursts).
    seeds_per_request:
        Distinct seed ids per multi-source request.
    zipf_s:
        Popularity skew exponent; ``0`` is uniform, ``~1`` is web-like.
    burst_factor:
        Rate multiplier during burst windows (``1`` disables bursts).
    burst_period_s:
        Length of one burst cycle in seconds.
    burst_duty:
        Fraction of each cycle spent at the burst rate, in ``[0, 1]``.
    seed:
        RNG seed; the sole source of randomness.
    """

    requests: int = 100
    qps: float = 100.0
    seeds_per_request: int = 4
    zipf_s: float = 1.1
    burst_factor: float = 1.0
    burst_period_s: float = 1.0
    burst_duty: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.requests < 1:
            raise InvalidParameterError(
                f"requests must be >= 1, got {self.requests}"
            )
        if self.qps <= 0:
            raise InvalidParameterError(f"qps must be > 0, got {self.qps}")
        if self.seeds_per_request < 1:
            raise InvalidParameterError(
                f"seeds_per_request must be >= 1, got {self.seeds_per_request}"
            )
        if self.zipf_s < 0:
            raise InvalidParameterError(
                f"zipf_s must be >= 0, got {self.zipf_s}"
            )
        if self.burst_factor < 1.0:
            raise InvalidParameterError(
                f"burst_factor must be >= 1, got {self.burst_factor}"
            )
        if self.burst_period_s <= 0:
            raise InvalidParameterError(
                f"burst_period_s must be > 0, got {self.burst_period_s}"
            )
        if not 0.0 <= self.burst_duty <= 1.0:
            raise InvalidParameterError(
                f"burst_duty must be in [0, 1], got {self.burst_duty}"
            )

    def as_dict(self) -> Dict[str, object]:
        return {
            "requests": self.requests,
            "qps": self.qps,
            "seeds_per_request": self.seeds_per_request,
            "zipf_s": self.zipf_s,
            "burst_factor": self.burst_factor,
            "burst_period_s": self.burst_period_s,
            "burst_duty": self.burst_duty,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class ScheduledRequest:
    """One planned arrival: when, and which seeds to ask for."""

    at_s: float
    seeds: Tuple[int, ...]


@dataclass(frozen=True)
class LoadSchedule:
    """An immutable arrival plan produced by :func:`build_schedule`."""

    profile: LoadProfile
    num_nodes: int
    requests: Tuple[ScheduledRequest, ...]

    @property
    def duration_s(self) -> float:
        """Time of the last scheduled arrival."""
        return self.requests[-1].at_s if self.requests else 0.0

    def digest(self) -> str:
        """SHA-256 over the canonical schedule (arrival times + seeds).

        Identical profiles yield identical digests; any change to the
        generator, the profile, or numpy's bit-stream shows up here
        before it silently shifts benchmark numbers.
        """
        canonical = json.dumps(
            [[round(req.at_s, 9), list(req.seeds)] for req in self.requests],
            separators=(",", ":"),
        )
        return hashlib.sha256(canonical.encode("ascii")).hexdigest()


def zipf_probabilities(
    num_nodes: int, s: float, rng: np.random.Generator
) -> np.ndarray:
    """Zipf(``s``) popularity over a random permutation of the nodes.

    Rank ``r`` (1-based) gets weight ``r**-s``; the permutation
    decouples popularity from node id so locality in the id space never
    masquerades as cache friendliness.  ``s = 0`` degenerates to
    uniform.
    """
    if num_nodes < 1:
        raise InvalidParameterError(f"num_nodes must be >= 1, got {num_nodes}")
    weights = np.arange(1, num_nodes + 1, dtype=np.float64) ** (-float(s))
    probabilities = np.empty(num_nodes, dtype=np.float64)
    probabilities[rng.permutation(num_nodes)] = weights / weights.sum()
    return probabilities


def build_schedule(profile: LoadProfile, num_nodes: int) -> LoadSchedule:
    """Materialise the arrival plan for a profile (pure, deterministic).

    Inter-arrival gaps are exponential with the rate the burst wave
    dictates at the *current* arrival time: inside a burst window
    (the first ``burst_duty`` fraction of each ``burst_period_s``
    cycle) the rate is ``qps * burst_factor``, outside it is ``qps``.
    """
    rng = np.random.default_rng(profile.seed)
    probabilities = zipf_probabilities(num_nodes, profile.zipf_s, rng)
    replace = profile.seeds_per_request > num_nodes
    scheduled: List[ScheduledRequest] = []
    now = 0.0
    for _ in range(profile.requests):
        phase = (now % profile.burst_period_s) / profile.burst_period_s
        rate = profile.qps * (
            profile.burst_factor if phase < profile.burst_duty else 1.0
        )
        now += float(rng.exponential(1.0 / rate))
        seeds = rng.choice(
            num_nodes,
            size=profile.seeds_per_request,
            replace=replace,
            p=probabilities,
        )
        scheduled.append(
            ScheduledRequest(at_s=now, seeds=tuple(int(s) for s in seeds))
        )
    return LoadSchedule(
        profile=profile, num_nodes=num_nodes, requests=tuple(scheduled)
    )


class SimulatedClock:
    """Virtual monotonic time for fully deterministic load runs.

    ``sleep`` advances the clock instead of waiting, and every ``now``
    reading advances it by ``tick`` — so "work" takes a deterministic
    nonzero amount of virtual time proportional to how often the run
    consults the clock.  Inject as ``run_load(..., clock=sim.now,
    sleep=sim.sleep)`` to make two identical runs produce identical
    reports, latencies included.
    """

    def __init__(self, start: float = 0.0, tick: float = 1e-4):
        if tick < 0:
            raise InvalidParameterError(f"tick must be >= 0, got {tick}")
        self._now = float(start)
        self.tick = float(tick)

    def now(self) -> float:
        self._now += self.tick
        return self._now

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            self._now += seconds


@dataclass
class LoadReport:
    """Everything one :func:`run_load` pass measured."""

    profile: Dict[str, object]
    schedule_digest: str
    num_nodes: int
    requests: int
    duration_s: float
    qps_offered: float
    qps_achieved: float
    latency_s: Dict[str, float]          # p50 / p95 / p99 / mean / max
    outcomes: Dict[str, int]             # per-OUTCOMES counts
    slo: Optional[Dict[str, object]] = None
    topk: Optional[int] = None
    mutations: int = 0
    latencies: List[float] = field(default_factory=list, repr=False)

    @property
    def ok_rate(self) -> float:
        return self.outcomes.get("ok", 0) / max(1, self.requests)

    @property
    def served_rate(self) -> float:
        """Fraction of requests that got an answer (exact or approx)."""
        served = self.outcomes.get("ok", 0) + self.outcomes.get("approx", 0)
        return served / max(1, self.requests)

    @property
    def slo_ok(self) -> bool:
        """True when no evaluated objective failed (vacuously true)."""
        return bool(self.slo["ok"]) if self.slo else True

    def as_dict(self) -> Dict[str, object]:
        payload = {
            "profile": dict(self.profile),
            "schedule_digest": self.schedule_digest,
            "num_nodes": self.num_nodes,
            "requests": self.requests,
            "duration_s": self.duration_s,
            "qps_offered": self.qps_offered,
            "qps_achieved": self.qps_achieved,
            "latency_s": dict(self.latency_s),
            "outcomes": dict(self.outcomes),
            "ok_rate": self.ok_rate,
            "served_rate": self.served_rate,
        }
        if self.topk is not None:
            payload["topk"] = self.topk
        if self.mutations:
            payload["mutations"] = self.mutations
        if self.slo is not None:
            payload["slo"] = self.slo
        return payload

    def render(self) -> str:
        """Human-readable run summary (plus the SLO table if evaluated)."""
        kind = f"top-{self.topk}" if self.topk is not None else "column"
        lines = [
            f"loadgen: {self.requests} {kind} requests over "
            f"{self.duration_s:.3f}s  "
            f"(offered {self.qps_offered:.1f} qps, achieved "
            f"{self.qps_achieved:.1f} qps)",
            f"schedule: digest {self.schedule_digest[:16]}…  "
            f"zipf_s={self.profile['zipf_s']:g} "
            f"burst_factor={self.profile['burst_factor']:g} "
            f"seed={self.profile['seed']}",
            "latency: "
            + "  ".join(
                f"{key} {self.latency_s[key] * 1000:.2f}ms"
                for key in ("p50", "p95", "p99", "max")
            ),
            "outcomes: "
            + "  ".join(
                f"{outcome}={self.outcomes.get(outcome, 0)}"
                for outcome in OUTCOMES
            )
            + f"  (ok rate {self.ok_rate:.2%}, "
            f"served rate {self.served_rate:.2%})",
        ]
        if self.mutations:
            lines.append(
                f"mutations: {self.mutations} live edge batches applied "
                "mid-run (docs/dynamic.md)"
            )
        return "\n".join(lines)


def loadgen_slos(
    *,
    p99_ms: Optional[float] = None,
    p50_ms: Optional[float] = None,
    availability: Optional[float] = None,
) -> Tuple[object, ...]:
    """Objectives wired to the ``csrplus_loadgen_*`` metric names.

    The defaults in :data:`~repro.obs.slo.DEFAULT_SERVE_SLOS` read the
    service's own instruments; a load run instead judges what *it*
    observed — scheduled-arrival latency and per-request outcomes —
    which is the client's view of the service.
    """
    slos: List[object] = []
    if p99_ms is not None:
        slos.append(LatencySLO(
            name="loadgen-p99",
            threshold_s=p99_ms / 1000.0,
            percentile=99.0,
            metric="csrplus_loadgen_request_seconds",
        ))
    if p50_ms is not None:
        slos.append(LatencySLO(
            name="loadgen-p50",
            threshold_s=p50_ms / 1000.0,
            percentile=50.0,
            metric="csrplus_loadgen_request_seconds",
        ))
    if availability is not None:
        slos.append(AvailabilitySLO(
            name="loadgen-availability",
            target=availability,
            total_metric="csrplus_loadgen_requests_total",
            bad_metrics=(
                "csrplus_loadgen_shed_total",
                "csrplus_loadgen_deadline_total",
                "csrplus_loadgen_degraded_total",
                "csrplus_loadgen_failed_total",
            ),
        ))
    return tuple(slos)


def _classify(error: Optional[ReproError], tier: str = "exact") -> str:
    """Map one request's (error, tier) pair to its terminal outcome.

    Hard failures (:data:`_HARD_FAILURES` — corruption, compute faults)
    are ``"failed"``, never ``"degraded"``: lumping them together let
    chaos-induced corruption read as graceful degradation in
    availability verdicts.  An errorless answer from the rank-truncated
    replica is ``"approx"`` — served, within its atol contract, but
    worth telling apart from ``"ok"``.
    """
    if error is None:
        return "approx" if tier == "approx" else "ok"
    if isinstance(error, ServiceOverloaded):
        return "shed"
    if isinstance(error, DeadlineExceeded):
        return "deadline"
    if isinstance(error, _HARD_FAILURES):
        return "failed"
    return "degraded"


def run_load(
    service,
    schedule: LoadSchedule,
    *,
    topk: Optional[int] = None,
    deadline_s: Optional[float] = None,
    quality: Optional[str] = None,
    slos: Sequence[object] = (),
    registry: Optional[MetricsRegistry] = None,
    clock: Callable[[], float] = time.monotonic,
    sleep: Callable[[float], None] = time.sleep,
    mutator: Optional[Callable[[int], None]] = None,
    mutate_every: int = 0,
) -> LoadReport:
    """Drive a service through a schedule and report what happened.

    Requests are dispatched serially on the calling thread in schedule
    order; a request whose arrival time has already passed (because an
    earlier one ran long) is dispatched immediately and its queueing
    delay counts against its latency — open-loop accounting, per the
    module docstring.  ``topk`` switches each request from
    ``serve_batch`` to ``serve_topk``; shed / deadline / per-request
    failures are recorded as outcomes, never raised.

    ``quality`` is forwarded to the service's ``quality=`` knob
    (docs/approx.md): with ``"auto"`` and an attached rank-truncated
    replica, overload shows up as ``approx`` outcomes (served, counted
    good by the availability SLO) instead of ``shed``.  ``None``
    (default) leaves the service's default, so reports from services
    without the knob stay comparable.

    ``mutator`` / ``mutate_every`` interleave live-graph updates with
    the traffic (docs/dynamic.md): after every ``mutate_every``-th
    dispatched request, ``mutator(mutation_index)`` is called — the
    hook typically routes an edge batch through a
    :class:`~repro.serving.live.LiveIndexChain` attached to the
    service, so the run measures serving behaviour *across* version
    swaps.  A mutator that raises aborts the run (mutations are part of
    the scenario, not traffic, so their failures are not outcomes).

    ``registry`` (default: a fresh private one) receives the
    ``csrplus_loadgen_*`` instruments; pass ``slos`` (for example from
    :func:`loadgen_slos`) to have the verdicts evaluated over that
    registry, exported as ``csrplus_slo_*`` gauges, and embedded in the
    returned :class:`LoadReport`.
    """
    if topk is not None and topk < 1:
        raise InvalidParameterError(f"topk must be >= 1, got {topk}")
    if mutate_every < 0:
        raise InvalidParameterError(
            f"mutate_every must be >= 0, got {mutate_every}"
        )
    if mutate_every and mutator is None:
        raise InvalidParameterError(
            "mutate_every > 0 requires a mutator callable"
        )
    reg = registry if registry is not None else MetricsRegistry()
    m_requests = reg.counter(
        "csrplus_loadgen_requests_total", "Requests dispatched by the generator"
    )
    m_outcomes = {
        outcome: reg.counter(
            "csrplus_loadgen_outcomes_total",
            "Generated requests by terminal outcome",
            labels={"outcome": outcome},
        )
        for outcome in OUTCOMES
    }
    # unlabelled aliases: AvailabilitySLO sums whole families by name,
    # so each bad outcome also gets its own family (cf. the serve-side
    # csrplus_serve_{shed,deadline_exceeded,degraded_requests}_* trio)
    m_bad = {
        "shed": reg.counter(
            "csrplus_loadgen_shed_total", "Generated requests shed by admission"
        ),
        "deadline": reg.counter(
            "csrplus_loadgen_deadline_total",
            "Generated requests that exceeded their deadline",
        ),
        "degraded": reg.counter(
            "csrplus_loadgen_degraded_total",
            "Generated requests that degraded for soft, non-deadline reasons",
        ),
        "failed": reg.counter(
            "csrplus_loadgen_failed_total",
            "Generated requests lost to hard failures (corruption, "
            "compute faults)",
        ),
    }
    m_latency = reg.histogram(
        "csrplus_loadgen_request_seconds",
        "Per-request latency from scheduled arrival to completion",
    )

    m_mutations = reg.counter(
        "csrplus_loadgen_mutations_total",
        "Live edge batches applied by the mutation schedule",
    )

    outcomes = {outcome: 0 for outcome in OUTCOMES}
    latencies: List[float] = []
    mutations = 0
    start = clock()
    for position, request in enumerate(schedule.requests):
        if (
            mutator is not None
            and mutate_every
            and position
            and position % mutate_every == 0
        ):
            mutator(mutations)
            mutations += 1
            m_mutations.inc()
        arrival = start + request.at_s
        delay = arrival - clock()
        if delay > 0:
            sleep(delay)
        # only forward quality when asked for, so services without the
        # knob keep working under the generator
        extra = {} if quality is None else {"quality": quality}
        try:
            if topk is not None:
                detailed = service.serve_topk_detailed(
                    list(request.seeds), topk, deadline_s=deadline_s, **extra
                )
                first_bad = next(
                    (o for o in detailed.outcomes if not o.ok), None
                )
                judged = first_bad if first_bad is not None else (
                    detailed.outcomes[0] if detailed.outcomes else None
                )
                outcome = _classify(
                    judged.error if judged is not None else None,
                    getattr(judged, "tier", "exact"),
                )
            else:
                detailed = service.serve_batch_detailed(
                    [list(request.seeds)], deadline_s=deadline_s, **extra
                )
                judged = detailed.outcomes[0]
                outcome = _classify(
                    judged.error, getattr(judged, "tier", "exact")
                )
        except ServiceOverloaded:
            outcome = "shed"
        except DeadlineExceeded:  # pragma: no cover - detailed never raises it
            outcome = "deadline"
        latency = max(0.0, clock() - arrival)
        latencies.append(latency)
        outcomes[outcome] += 1
        m_requests.inc()
        m_outcomes[outcome].inc()
        if outcome in m_bad:
            m_bad[outcome].inc()
        m_latency.observe(latency)
    elapsed = max(clock() - start, 1e-12)

    samples = np.asarray(latencies, dtype=np.float64)
    p50, p95, p99 = np.percentile(samples, (50.0, 95.0, 99.0))
    report = LoadReport(
        profile=schedule.profile.as_dict(),
        schedule_digest=schedule.digest(),
        num_nodes=schedule.num_nodes,
        requests=len(schedule.requests),
        duration_s=elapsed,
        qps_offered=len(schedule.requests) / max(schedule.duration_s, 1e-12),
        qps_achieved=len(schedule.requests) / elapsed,
        latency_s={
            "p50": float(p50),
            "p95": float(p95),
            "p99": float(p99),
            "mean": float(samples.mean()),
            "max": float(samples.max()),
        },
        outcomes=outcomes,
        topk=topk,
        mutations=mutations,
        latencies=latencies,
    )
    if slos:
        slo_report: SLOReport = evaluate_slos(slos, reg, service.registry)
        slo_report.export(reg)
        report.slo = slo_report.as_dict()
    return report
