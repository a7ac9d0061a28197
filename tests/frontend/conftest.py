"""Shared fixtures for the frontend suite.

One sharded store and one running HTTP frontend per test session:
worker processes cost real startup time, so the suite shares a single
:class:`~repro.serving.frontend.BackgroundFrontend` and keeps every
test read-only against it (tests that mutate state — faults, crashes,
publishes — clean up after themselves or build their own).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import CSRPlusConfig
from repro.graphs.generators import chung_lu
from repro.serving.frontend import BackgroundFrontend, FrontendConfig
from repro.sharding import REPLICA_DIR, build_sharded_store

NUM_NODES = 150
RANK = 5


@pytest.fixture(scope="session")
def frontend_graph():
    return chung_lu(NUM_NODES, 700, seed=11)


@pytest.fixture(scope="session")
def store_path(tmp_path_factory, frontend_graph):
    root = tmp_path_factory.mktemp("frontend-store")
    store = build_sharded_store(
        frontend_graph,
        root / "graph.shards",
        num_shards=3,
        config=CSRPlusConfig(rank=RANK),
    )
    return store.path


@pytest.fixture(scope="session")
def tiered_store_path(tmp_path_factory, frontend_graph):
    """The same store plus its rank-truncated replica at
    ``<store>/replica``, so the approx tier is live over HTTP."""
    root = tmp_path_factory.mktemp("frontend-tiered") / "graph.shards"
    store = build_sharded_store(
        frontend_graph,
        root,
        num_shards=3,
        config=CSRPlusConfig(rank=RANK),
        replica_path=root / REPLICA_DIR,
    )
    return store.path


@pytest.fixture(scope="session")
def frontend(tiered_store_path):
    """A live HTTP frontend with 2 workers, shared across the session."""
    background = BackgroundFrontend(
        tiered_store_path,
        config=FrontendConfig(workers=2),
    )
    with background:
        yield background


@pytest.fixture(scope="session")
def frontend_url(frontend):
    return frontend.url


@pytest.fixture
def rng():
    return np.random.default_rng(4242)
