"""IndexRegistry resolution of sharded stores: tiers, repair, eviction.

Satellite acceptance: the sha256 sidecar-integrity pattern extends to
shard manifests, and a corrupt *single shard* is quarantined and
rebuilt without touching its healthy neighbours.
"""

import os

import numpy as np
import pytest

from repro.graphs.generators import chung_lu
from repro.obs.metrics import MetricsRegistry
from repro.serving import IndexRegistry

SEEDS = [0, 7, 99]


@pytest.fixture
def graph():
    return chung_lu(100, 500, seed=5)


@pytest.fixture
def metrics():
    return MetricsRegistry()


@pytest.fixture
def registry(tmp_path, metrics):
    return IndexRegistry(tmp_path / "registry", metrics=metrics)


def _get(registry, graph, **kwargs):
    return registry.get_sharded(
        "cl100", graph, rank=6, num_shards=4, max_workers=1, **kwargs
    )


def _flip_byte(path):
    data = bytearray(open(path, "rb").read())
    data[-9] ^= 0xFF
    with open(path, "wb") as handle:
        handle.write(bytes(data))


class TestTiers:
    def test_build_then_memory_then_disk(self, registry, graph):
        built = _get(registry, graph)
        want = built.query_columns(SEEDS)
        path = registry.shard_store_path_for("cl100")
        assert os.path.exists(os.path.join(path, "manifest.json"))

        assert _get(registry, graph) is built  # memory tier

        built.close()
        registry.evict("cl100")
        reloaded = _get(registry, graph)  # disk tier
        assert reloaded is not built
        assert np.array_equal(reloaded.query_columns(SEEDS), want)
        reloaded.close()

    def test_evict_delete_file_removes_store(self, registry, graph):
        sharded = _get(registry, graph)
        sharded.close()
        path = registry.shard_store_path_for("cl100")
        registry.evict("cl100", delete_file=True)
        assert not os.path.exists(path)


class TestSingleShardRepair:
    def test_corrupt_shard_is_quarantined_and_rebuilt(
        self, registry, graph, metrics
    ):
        built = _get(registry, graph)
        want = built.query_columns(SEEDS)
        built.close()
        registry.evict("cl100")

        path = registry.shard_store_path_for("cl100")
        _flip_byte(os.path.join(path, "shard-00002.z.npy"))
        # record every file that is NOT part of the damaged shard
        healthy = {
            name: os.path.getmtime(os.path.join(path, name))
            for name in sorted(os.listdir(path))
            if not name.startswith("shard-00002")
        }

        repaired = _get(registry, graph)
        assert np.array_equal(repaired.query_columns(SEEDS), want)
        repaired.close()

        # the repair unit is the shard (both of its files), nothing else
        after = {
            name: os.path.getmtime(os.path.join(path, name))
            for name in sorted(os.listdir(path))
        }
        assert all(after[name] == stamp for name, stamp in healthy.items())
        assert metrics.counter(
            "csrplus_registry_shard_repairs_total", "x"
        ).value == 1
        assert metrics.counter("csrplus_registry_corrupt_total", "x").value == 1
        # single-shard repair is NOT a full rebuild
        assert metrics.counter("csrplus_registry_rebuilds_total", "x").value == 0

    def test_multiple_corrupt_shards_repaired_together(
        self, registry, graph, metrics
    ):
        built = _get(registry, graph)
        want = built.query_columns(SEEDS)
        built.close()
        registry.evict("cl100")

        path = registry.shard_store_path_for("cl100")
        _flip_byte(os.path.join(path, "shard-00000.u.npy"))
        _flip_byte(os.path.join(path, "shard-00003.z.npy"))
        repaired = _get(registry, graph)
        assert np.array_equal(repaired.query_columns(SEEDS), want)
        repaired.close()
        assert metrics.counter(
            "csrplus_registry_shard_repairs_total", "x"
        ).value == 2

    def test_missing_shard_file_repaired(self, registry, graph):
        built = _get(registry, graph)
        want = built.query_columns(SEEDS)
        built.close()
        registry.evict("cl100")

        path = registry.shard_store_path_for("cl100")
        os.remove(os.path.join(path, "shard-00001.z.npy"))
        repaired = _get(registry, graph)
        assert np.array_equal(repaired.query_columns(SEEDS), want)
        repaired.close()


class TestStoreLevelCorruption:
    def test_manifest_corruption_triggers_full_rebuild(
        self, registry, graph, metrics
    ):
        built = _get(registry, graph)
        want = built.query_columns(SEEDS)
        built.close()
        registry.evict("cl100")

        path = registry.shard_store_path_for("cl100")
        manifest = os.path.join(path, "manifest.json")
        with open(manifest, "a", encoding="utf-8") as handle:
            handle.write(" ")
        rebuilt = _get(registry, graph)
        assert np.array_equal(rebuilt.query_columns(SEEDS), want)
        rebuilt.close()
        assert metrics.counter("csrplus_registry_rebuilds_total", "x").value == 1
        # the damaged store was moved aside, not silently deleted
        assert os.path.exists(path + ".corrupt")


class TestSavedConfig:
    def test_disk_hit_with_another_config_rebuilds(
        self, registry, graph, metrics
    ):
        def get(name, **config):
            return registry.get_sharded(
                name, graph, num_shards=4, max_workers=1, **config
            )

        get("cl100", rank=6).close()
        registry.evict("cl100")
        sharded = get("cl100", rank=8, damping=0.8)
        assert (sharded.config.rank, sharded.config.damping) == (8, 0.8)
        assert metrics.counter("csrplus_registry_rebuilds_total", "x").value == 1
        fresh = get("fresh", rank=8, damping=0.8)
        assert np.array_equal(
            sharded.query_columns(SEEDS), fresh.query_columns(SEEDS)
        )
        sharded.close()
        fresh.close()
        registry.evict("cl100")
        # the rebuilt store replaced the old one: the next request for
        # the same config loads it as is
        get("cl100", rank=8, damping=0.8).close()
        assert metrics.counter("csrplus_registry_rebuilds_total", "x").value == 1

    def test_request_without_config_accepts_the_saved_one(
        self, registry, graph, metrics
    ):
        _get(registry, graph, damping=0.7).close()
        registry.evict("cl100")
        sharded = registry.get_sharded(
            "cl100", graph, num_shards=4, max_workers=1, rank=6
        )
        assert (sharded.config.rank, sharded.config.damping) == (6, 0.7)
        sharded.close()
        assert metrics.counter("csrplus_registry_rebuilds_total", "x").value == 0
