"""Property: the HTTP frontend is bit-identical to in-process serving.

The frontend's whole correctness story (docs/frontend.md) is that a
worker process mmaps the same store bytes and runs the same kernels,
and the wire protocol ships raw array bytes — so for any batch shape,
seed multiset, or k, the answer served over HTTP must equal the answer
from a :class:`~repro.serving.CoSimRankService` over the same
:class:`~repro.sharding.ShardedIndex`, down to the last bit.
Hypothesis searches for a counter-example; both sides are shared
session/module fixtures so the search stays cheap.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.serving import CoSimRankService
from repro.serving.frontend import FrontendClient
from repro.sharding import REPLICA_DIR, ShardedIndex

from .conftest import NUM_NODES

SETTINGS = dict(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

seed_ids = st.integers(min_value=0, max_value=NUM_NODES - 1)
seed_lists = st.lists(seed_ids, min_size=1, max_size=6)  # dups allowed


def _bits(array):
    """Byte view that tolerates non-contiguous blocks (duplicate seeds
    are served as strided views into the deduplicated computation)."""
    return np.ascontiguousarray(array).view(np.uint8)


@pytest.fixture(scope="module")
def client(frontend_url):
    with FrontendClient(frontend_url) as frontend_client:
        yield frontend_client


@pytest.fixture(scope="module")
def in_process(tiered_store_path):
    index = ShardedIndex(tiered_store_path)
    approx = ShardedIndex(os.path.join(tiered_store_path, REPLICA_DIR))
    with CoSimRankService(
        index, approx_index=approx, max_workers=1
    ) as service:
        yield service
    index.close()
    approx.close()


@settings(**SETTINGS)
@given(requests=st.lists(seed_lists, min_size=1, max_size=4))
def test_query_round_trip_is_bit_identical(requests, client, in_process):
    got = client.serve_batch(requests)
    want = in_process.serve_batch(requests)
    assert len(got) == len(want)
    for got_block, want_block in zip(got, want):
        assert got_block.dtype == want_block.dtype
        assert got_block.shape == want_block.shape
        assert np.array_equal(
            _bits(got_block), _bits(want_block)
        ), "HTTP round-trip perturbed column bytes"


@settings(**SETTINGS)
@given(
    seeds=seed_lists,
    k=st.integers(min_value=1, max_value=NUM_NODES),
    exclude_self=st.booleans(),
)
def test_topk_round_trip_is_bit_identical(
    seeds, k, exclude_self, client, in_process
):
    got = client.serve_topk(seeds, k, exclude_self=exclude_self)
    want = in_process.serve_topk(seeds, k, exclude_self=exclude_self)
    for got_one, want_one in zip(got, want):
        np.testing.assert_array_equal(got_one.nodes, want_one.nodes)
        assert got_one.scores.dtype == want_one.scores.dtype
        assert np.array_equal(
            _bits(np.asarray(got_one.scores)),
            _bits(np.asarray(want_one.scores)),
        )


@settings(**SETTINGS)
@given(seeds=seed_lists)
def test_approx_tier_round_trips_outcome_metadata(seeds, client, in_process):
    """Approx answers (the replica's, not exact) must still match in-process
    bit-for-bit, and the tier label must survive the wire."""
    got = client.serve_batch_detailed([seeds], quality="approx")
    want = in_process.serve_batch_detailed([seeds], quality="approx")
    for got_outcome, want_outcome in zip(got.outcomes, want.outcomes):
        assert got_outcome.tier == want_outcome.tier
        assert got_outcome.ok and want_outcome.ok
        assert np.array_equal(
            _bits(got_outcome.result),
            _bits(want_outcome.result),
        )
