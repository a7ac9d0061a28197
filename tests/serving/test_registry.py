"""IndexRegistry: lazy build/save/load of prepared indexes."""

import os

import numpy as np
import pytest

from repro.core.config import CSRPlusConfig
from repro.core.index import CSRPlusIndex
from repro.errors import InvalidParameterError
from repro.graphs.generators import erdos_renyi
from repro.obs.metrics import MetricsRegistry
from repro.serving import IndexRegistry


@pytest.fixture
def graph():
    return erdos_renyi(40, 160, seed=11)


class TestResolution:
    def test_build_saves_to_disk(self, tmp_path, graph):
        registry = IndexRegistry(tmp_path)
        index = registry.get("er40", graph, rank=4)
        assert index.is_prepared
        assert os.path.exists(registry.path_for("er40"))
        assert "er40" in registry
        assert registry.names() == ["er40"]

    def test_memory_tier_returns_same_object(self, tmp_path, graph):
        registry = IndexRegistry(tmp_path)
        first = registry.get("er40", graph, rank=4)
        second = registry.get("er40", graph, rank=4)
        assert first is second

    def test_loaded_index_answers_identically(self, tmp_path, graph):
        built = IndexRegistry(tmp_path).get("er40", graph, rank=4)
        # a fresh registry (fresh process, conceptually) loads from disk
        loaded = IndexRegistry(tmp_path).get("er40", graph, rank=4)
        assert loaded is not built
        request = [0, 7, 13, 7]
        assert np.array_equal(loaded.query(request), built.query(request))
        assert np.array_equal(
            loaded.query_columns([3, 9]), built.query_columns([3, 9])
        )

    def test_put_then_get_round_trip(self, tmp_path, graph):
        registry = IndexRegistry(tmp_path)
        index = CSRPlusIndex(graph, CSRPlusConfig(rank=3)).prepare()
        registry.put("mine", index)
        assert registry.get("mine", graph) is index
        registry.evict("mine")
        reloaded = IndexRegistry(tmp_path).get("mine", graph)
        assert np.array_equal(reloaded.query([1, 2]), index.query([1, 2]))

    def test_evict_with_delete_forces_rebuild(self, tmp_path, graph):
        registry = IndexRegistry(tmp_path)
        registry.get("er40", graph, rank=4)
        registry.evict("er40", delete_file=True)
        assert "er40" not in registry
        assert registry.names() == []


def _rebuilds(metrics: MetricsRegistry) -> str:
    return next(
        line
        for line in metrics.render_prometheus().splitlines()
        if line.startswith("csrplus_registry_rebuilds_total ")
    )


class TestSavedConfig:
    def test_disk_hit_with_another_config_rebuilds(self, tmp_path, graph):
        IndexRegistry(tmp_path, metrics=MetricsRegistry()).get(
            "x", graph, rank=6
        )
        metrics = MetricsRegistry()
        index = IndexRegistry(tmp_path, metrics=metrics).get(
            "x", graph, rank=8, damping=0.8
        )
        assert (index.config.rank, index.config.damping) == (8, 0.8)
        fresh = CSRPlusIndex(graph, rank=8, damping=0.8).prepare()
        assert np.array_equal(index.query([0, 5]), fresh.query([0, 5]))
        assert _rebuilds(metrics) == "csrplus_registry_rebuilds_total 1"
        # the rebuilt index was re-saved: the next process loads it as is
        metrics = MetricsRegistry()
        reloaded = IndexRegistry(tmp_path, metrics=metrics).get(
            "x", graph, CSRPlusConfig(rank=8, damping=0.8)
        )
        assert np.array_equal(reloaded.query([0, 5]), fresh.query([0, 5]))
        assert _rebuilds(metrics) == "csrplus_registry_rebuilds_total 0"

    @pytest.mark.parametrize(
        "field, value",
        [("epsilon", 1e-3), ("dtype", "float32"), ("solver", "direct"),
         ("svd_seed", 7)],
    )
    def test_every_saved_field_is_compared(
        self, tmp_path, graph, field, value
    ):
        IndexRegistry(tmp_path).get("x", graph, rank=4)
        index = IndexRegistry(tmp_path).get(
            "x", graph, rank=4, **{field: value}
        )
        assert getattr(index.config, field) == value

    def test_request_without_config_accepts_the_saved_one(
        self, tmp_path, graph
    ):
        IndexRegistry(tmp_path, metrics=MetricsRegistry()).get(
            "x", graph, rank=6, damping=0.7
        )
        metrics = MetricsRegistry()
        index = IndexRegistry(tmp_path, metrics=metrics).get(
            "x", graph, rank=6
        )
        assert (index.config.rank, index.config.damping) == (6, 0.7)
        assert _rebuilds(metrics) == "csrplus_registry_rebuilds_total 0"


class TestValidation:
    def test_bad_names_rejected(self, tmp_path):
        registry = IndexRegistry(tmp_path)
        for name in ("", "../escape", "a/b", ".hidden", "sp ace"):
            with pytest.raises(InvalidParameterError):
                registry.path_for(name)

    def test_wrong_graph_rejected_on_load(self, tmp_path, graph):
        IndexRegistry(tmp_path).get("er40", graph, rank=4)
        other = erdos_renyi(41, 160, seed=11)
        with pytest.raises(InvalidParameterError):
            IndexRegistry(tmp_path).get("er40", other, rank=4)
