"""The approximate serving tier: quality knob, downgrade, accounting.

docs/approx.md's contracts, end to end:

* ``quality="approx"`` answers from the rank-truncated replica within
  its published ``approx_atol`` (:func:`~repro.core.index.
  truncation_atol`), tagged ``tier="approx"``;
* ``quality="auto"`` turns would-be sheds into approximate answers
  instead of raising :class:`~repro.errors.ServiceOverloaded` — the
  acceptance bar is >= 90% of the requests an exact-only service sheds;
* approximate answers never enter the exact ``ColumnCache`` /
  ``TopKCache``;
* every answered request lands in exactly one of
  ``csrplus_serve_tier_{exact,approx}_total``;
* ``publish_index`` version-tags the replica.
"""

import numpy as np
import pytest

from repro.core.index import (
    CSRPlusIndex,
    replica_rank,
    truncation_atol,
    truncation_residual_norms,
)
from repro.errors import InvalidParameterError, ServiceOverloaded
from repro.graphs.generators import ring
from repro.metrics.accuracy import avg_diff
from repro.serving import CoSimRankService, QUALITY_LEVELS
from tests.obs.prom import assert_known_families

RANK = 6
N = 48


@pytest.fixture(scope="module")
def graph():
    return ring(N)


@pytest.fixture(scope="module")
def index(graph):
    return CSRPlusIndex(graph, rank=RANK).prepare()


def _replica_of(index):
    return index.truncate_to_rank(replica_rank(index.rank))


@pytest.fixture(scope="module")
def replica(index):
    return _replica_of(index)


class TestQualityKnob:
    def test_quality_levels_constant(self):
        assert QUALITY_LEVELS == ("exact", "approx", "auto")

    def test_invalid_quality_rejected(self, index):
        with CoSimRankService(index) as service:
            with pytest.raises(InvalidParameterError, match="quality"):
                service.serve_batch([[0, 1]], quality="best-effort")
            with pytest.raises(InvalidParameterError, match="quality"):
                service.serve_topk([0], 3, quality="fast")

    def test_approx_without_replica_rejected(self, index):
        with CoSimRankService(index) as service:
            with pytest.raises(InvalidParameterError, match="approx_index"):
                service.serve_batch([[0, 1]], quality="approx")
            with pytest.raises(InvalidParameterError, match="approx_index"):
                service.serve_topk([0], 3, quality="approx")

    def test_auto_without_replica_is_plain_exact(self, index):
        # no replica: "auto" degrades to today's exact-or-shed policy
        with CoSimRankService(index, max_inflight_seeds=2) as service:
            blocks = service.serve_batch([[0, 1]], quality="auto")
            assert np.array_equal(blocks[0], index.query([0, 1]))
            with pytest.raises(ServiceOverloaded):
                service.serve_batch([[0, 1, 2, 3]], quality="auto")

    def test_replica_must_match_node_count(self, index):
        wrong = _replica_of(CSRPlusIndex(ring(N + 1), rank=RANK).prepare())
        with pytest.raises(InvalidParameterError, match="node set"):
            CoSimRankService(index, approx_index=wrong)


class TestApproxAnswers:
    def test_within_published_atol_of_exact(self, index, replica):
        with CoSimRankService(index, approx_index=replica) as service:
            request = [0, 3, 7, 3]
            result = service.serve_batch_detailed(
                [request], quality="approx"
            )
            (outcome,) = result.outcomes
            assert outcome.ok
            assert outcome.tier == "approx"
            exact = index.query(request)
            assert outcome.result.shape == exact.shape
            assert avg_diff(outcome.result, exact) <= replica.approx_atol
            assert outcome.result.flags["F_CONTIGUOUS"]

    def test_exact_outcomes_tagged_exact(self, index, replica):
        with CoSimRankService(index, approx_index=replica) as service:
            result = service.serve_batch_detailed([[0, 1]], quality="exact")
            assert [o.tier for o in result.outcomes] == ["exact"]
            assert np.array_equal(result.outcomes[0].result, index.query([0, 1]))

    def test_approx_never_enters_exact_cache(self, index, replica):
        with CoSimRankService(
            index, approx_index=replica, cache_columns=64
        ) as service:
            service.serve_batch([[0, 1, 2]], quality="approx")
            stats = service.stats()
            assert stats.cached_columns == 0
            assert stats.hits == 0 and stats.misses == 0
            # the exact tier then computes fresh, bit-exact columns
            blocks = service.serve_batch([[0, 1, 2]], quality="exact")
            assert np.array_equal(blocks[0], index.query([0, 1, 2]))
            assert service.stats().misses == 3

    def test_topk_approx_ranks_estimated_columns(self, index, replica):
        with CoSimRankService(index, approx_index=replica) as service:
            result = service.serve_topk_detailed([0, 5], 4, quality="approx")
            assert [o.tier for o in result.outcomes] == ["approx", "approx"]
            for seed, outcome in zip((0, 5), result.outcomes):
                ranking = outcome.result
                assert ranking.nodes.size == 4
                assert seed not in ranking.nodes
                # descending scores, ties by ascending id (canonical order)
                assert np.all(np.diff(ranking.scores) <= 1e-12)
            # nothing approximate was cached as an exact ranking
            assert service.topk_stats()["cached_entries"] == 0


class TestAutoDowngrade:
    def _overloaded(self, index, replica):
        # budget of 4 with 8-seed requests: exact-only sheds every batch
        return CoSimRankService(
            index,
            approx_index=replica,
            max_inflight_seeds=4,
            cache_columns=0,
        )

    def test_overload_downgrades_instead_of_shedding(self, index, replica):
        request = list(range(8))
        with self._overloaded(index, replica) as service:
            with pytest.raises(ServiceOverloaded):
                service.serve_batch([request], quality="exact")
            result = service.serve_batch_detailed([request], quality="auto")
            (outcome,) = result.outcomes
            assert outcome.ok
            assert outcome.tier == "approx"
            assert avg_diff(outcome.result, index.query(request)) <= (
                replica.approx_atol
            )
            stats = service.stats()
            assert stats.shed == 1  # only the quality="exact" call shed
            assert stats.approx_downgrades == 1

    def test_under_budget_auto_stays_exact(self, index, replica):
        with self._overloaded(index, replica) as service:
            result = service.serve_batch_detailed([[0, 1]], quality="auto")
            assert [o.tier for o in result.outcomes] == ["exact"]
            assert service.stats().approx_downgrades == 0

    def test_topk_auto_downgrades(self, index, replica):
        seeds = list(range(8))
        with self._overloaded(index, replica) as service:
            with pytest.raises(ServiceOverloaded):
                service.serve_topk(seeds, 3, quality="exact")
            result = service.serve_topk_detailed(seeds, 3, quality="auto")
            assert all(o.ok and o.tier == "approx" for o in result.outcomes)
            assert service.stats().approx_downgrades == 1

    def test_acceptance_serves_90pct_of_what_exact_sheds(self, index, replica):
        """>= 90% of the requests the exact-only baseline sheds are
        served (within atol) by the same traffic under quality="auto"."""
        requests = [[(3 * i + j) % N for j in range(8)] for i in range(20)]
        with CoSimRankService(
            index, max_inflight_seeds=4, cache_columns=0
        ) as baseline:
            shed = 0
            for request in requests:
                try:
                    baseline.serve_batch([request], quality="exact")
                except ServiceOverloaded:
                    shed += 1
        assert shed == len(requests)  # the scenario genuinely overloads
        with self._overloaded(index, replica) as service:
            served = 0
            for request in requests:
                result = service.serve_batch_detailed(
                    [request], quality="auto"
                )
                (outcome,) = result.outcomes
                if outcome.ok and outcome.tier == "approx":
                    assert avg_diff(
                        outcome.result, index.query(request)
                    ) <= replica.approx_atol
                    served += 1
            assert served / shed >= 0.90
            assert service.stats().shed == 0


class TestTierAccounting:
    def test_every_request_counted_exactly_once(self, index, replica):
        with CoSimRankService(
            index, approx_index=replica, max_inflight_seeds=4, cache_columns=0
        ) as service:
            service.serve_batch([[0, 1], [2]], quality="exact")  # 2 exact reqs
            service.serve_batch([[3, 4]], quality="approx")      # 1 approx req
            service.serve_batch([list(range(8))], quality="auto")  # 1 approx
            with pytest.raises(ServiceOverloaded):
                service.serve_batch([list(range(8))], quality="exact")
            service.serve_topk([0, 1], 3, quality="exact")       # 2 exact seeds
            service.serve_topk([2, 3, 4], 3, quality="approx")   # 3 approx seeds
            stats = service.stats()
            assert stats.tier_exact == 2 + 2
            assert stats.tier_approx == 1 + 1 + 3
            # the invariant: tiers partition answered requests; shed
            # batches count in neither
            topk_seeds = 2 + 3
            assert stats.tier_exact + stats.tier_approx == (
                stats.requests + topk_seeds
            )
            assert stats.shed == 1
            assert stats.approx_batches == 3
            assert stats.approx_downgrades == 1

    def test_metrics_families_are_registered(self, index, replica):
        with CoSimRankService(
            index, approx_index=replica, max_inflight_seeds=4, cache_columns=0
        ) as service:
            service.serve_batch([[0, 1]], quality="approx")
            service.serve_batch([list(range(8))], quality="auto")
            service.serve_topk([0], 3, quality="approx")
            service._budget.release(1)  # surface the underflow family too
            text = service.registry.render_prometheus()
        assert_known_families(text)
        assert "csrplus_serve_tier_exact_total" in text
        assert "csrplus_serve_tier_approx_total" in text
        assert "csrplus_approx_batches_total 3" in text
        assert "csrplus_approx_downgrades_total 1" in text
        assert "csrplus_serve_budget_underflow_total 1" in text
        assert "csrplus_approx_atol" in text

    def test_stats_snapshot_carries_tier_fields(self, index, replica):
        with CoSimRankService(index, approx_index=replica) as service:
            service.serve_batch([[0]], quality="approx")
            payload = service.stats().as_dict()
        for key in (
            "tier_exact", "tier_approx", "approx_batches",
            "approx_downgrades", "budget_underflows",
        ):
            assert key in payload
        assert payload["tier_approx"] == 1


class TestPublishReplica:
    def test_publish_swaps_and_version_tags_replica(self, graph, replica):
        index = CSRPlusIndex(graph, rank=RANK).prepare()
        with CoSimRankService(index, approx_index=replica) as service:
            assert service.approx_version == 0
            new_graph = graph.with_edges_added([(0, 24)])
            new_index = CSRPlusIndex(new_graph, rank=RANK).prepare()
            new_replica = _replica_of(new_index)
            version = service.publish_index(
                new_index, approx_index=new_replica
            )
            assert service.approx_index is new_replica
            assert service.approx_version == version
            text = service.registry.render_prometheus()
            assert f"csrplus_approx_index_version {version}" in text
            result = service.serve_batch_detailed([[0, 1]], quality="approx")
            assert result.outcomes[0].tier == "approx"

    def test_publish_without_replica_keeps_stale_one(self, graph, replica):
        index = CSRPlusIndex(graph, rank=RANK).prepare()
        with CoSimRankService(index, approx_index=replica) as service:
            new_graph = graph.with_edges_added([(1, 30)])
            new_index = CSRPlusIndex(new_graph, rank=RANK).prepare()
            version = service.publish_index(new_index)
            assert service.approx_index is replica
            assert service.approx_version == 0  # visibly stale vs version
            assert version == 1

    def test_published_replica_must_match_node_count(self, graph, replica):
        index = CSRPlusIndex(graph, rank=RANK).prepare()
        with CoSimRankService(index, approx_index=replica) as service:
            new_index = CSRPlusIndex(graph, rank=RANK).prepare()
            wrong = _replica_of(CSRPlusIndex(ring(N + 2), rank=RANK).prepare())
            with pytest.raises(InvalidParameterError, match="node set"):
                service.publish_index(new_index, approx_index=wrong)


class TestAtolContract:
    def test_atol_shrinks_with_rank(self, index):
        # at full rank the replica is the index itself: only the
        # rounding term of the bound is left
        full = index.truncate_to_rank(index.rank)
        assert full.approx_atol < index.truncate_to_rank(1).approx_atol
        np.testing.assert_allclose(
            full.query([0, 5]), index.query([0, 5]), rtol=0, atol=full.approx_atol
        )

    def test_replica_exposes_its_contract(self, index, replica):
        u, _, _, z = index.factors
        assert replica.approx_atol == truncation_atol(
            index.damping,
            truncation_residual_norms(z, replica.factors[3]).max(),
            np.linalg.norm(u, axis=1).max(),
            index.rank,
            index.dtype,
        )
        assert index.approx_atol is None  # not a replica of anything
