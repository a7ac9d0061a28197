"""Unit tests for re-damping an index without recomputing the SVD."""

import numpy as np
import pytest

from repro.core.index import CSRPlusIndex
from repro.errors import InvalidParameterError
from repro.graphs.generators import chung_lu, erdos_renyi
from repro.linalg.stein import sigma_p_sigma


def _z_gap(sibling, fresh) -> float:
    """Largest entry gap between two indexes' ``Z`` factors."""
    z_sibling, z_fresh = sibling.factors[3], fresh.factors[3]
    return float(
        np.abs(z_sibling.astype(np.float64) - z_fresh.astype(np.float64)).max()
    )


def _float32_sibling_bound(index) -> float:
    """``1.5 * eps32 * max ||U_x|| * ||Sigma P Sigma||_2`` (times
    ``1 + eps32``): the documented gap between a float32 re-damped
    ``Z`` and a fresh one (``CSRPlusIndex._derived``)."""
    u_factor, sigma, p_matrix, _ = index.factors
    eps = float(np.finfo(np.float32).eps)
    row_norm = np.linalg.norm(u_factor.astype(np.float64), axis=1).max()
    spectral = np.linalg.norm(sigma_p_sigma(sigma, p_matrix), 2)
    return 1.5 * eps * (1.0 + eps) * row_norm * spectral


@pytest.fixture(scope="module")
def base_index():
    graph = chung_lu(150, 750, seed=91)
    return CSRPlusIndex(graph, rank=10, damping=0.6).prepare()


class TestRebuildForDamping:
    def test_matches_fresh_index(self, base_index):
        rebuilt = base_index.rebuild_for_damping(0.8)
        fresh = CSRPlusIndex(base_index.graph, rank=10, damping=0.8).prepare()
        np.testing.assert_allclose(
            rebuilt.query([0, 5, 9]), fresh.query([0, 5, 9]), atol=1e-10
        )

    def test_shares_u_factor(self, base_index):
        rebuilt = base_index.rebuild_for_damping(0.4)
        assert rebuilt.factors[0] is base_index.factors[0]

    def test_original_unchanged(self, base_index):
        before = base_index.query([3]).copy()
        base_index.rebuild_for_damping(0.9)
        np.testing.assert_array_equal(base_index.query([3]), before)
        assert base_index.damping == 0.6

    def test_new_config_recorded(self, base_index):
        rebuilt = base_index.rebuild_for_damping(0.3)
        assert rebuilt.damping == 0.3
        assert rebuilt.config.rank == 10
        assert rebuilt.is_prepared

    def test_validates_damping(self, base_index):
        with pytest.raises(InvalidParameterError):
            base_index.rebuild_for_damping(1.0)

    def test_requires_prepared(self):
        graph = chung_lu(50, 200, seed=92)
        index = CSRPlusIndex(graph, rank=5)
        from repro.errors import NotPreparedError

        with pytest.raises(NotPreparedError):
            index.rebuild_for_damping(0.5)

    def test_chain_of_redampings(self, base_index):
        """Re-damping a re-damped index still matches a fresh build."""
        chained = base_index.rebuild_for_damping(0.8).rebuild_for_damping(0.5)
        fresh = CSRPlusIndex(base_index.graph, rank=10, damping=0.5).prepare()
        np.testing.assert_allclose(
            chained.query([1]), fresh.query([1]), atol=1e-10
        )

    def test_float32_rebuild_matches_fresh(self):
        """Regression: a float32 sibling must apply prepare()'s dtype
        policy — Z computed in float64 from the stored U, then cast —
        not inherit a float64 Z built from the degraded float32 U."""
        graph = chung_lu(120, 600, seed=93)
        base = CSRPlusIndex(graph, rank=8, damping=0.6, dtype="float32").prepare()
        rebuilt = base.rebuild_for_damping(0.8)
        fresh = CSRPlusIndex(
            graph, rank=8, damping=0.8, dtype="float32"
        ).prepare()
        assert rebuilt.factors[3].dtype == np.float32
        assert rebuilt.query([0]).dtype == np.float32
        assert _z_gap(rebuilt, fresh) <= _float32_sibling_bound(fresh)
        live_rebuilt = rebuilt.memory.live_breakdown()
        live_fresh = fresh.memory.live_breakdown()
        assert live_rebuilt["precompute/Z"] == live_fresh["precompute/Z"]

    def test_float32_sibling_bound_is_tight(self):
        """The documented bound sits within 8x of a gap that occurs."""
        graph = erdos_renyi(40, 160, seed=3)
        base = CSRPlusIndex(graph, rank=4, damping=0.6, dtype="float32").prepare()
        rebuilt = base.rebuild_for_damping(0.8)
        fresh = CSRPlusIndex(
            graph, rank=4, damping=0.8, dtype="float32"
        ).prepare()
        gap, bound = _z_gap(rebuilt, fresh), _float32_sibling_bound(fresh)
        assert gap > 0.0  # the sibling really is not byte-identical
        assert bound / 8 <= gap <= bound

    def test_save_load_preserves_redamping_ability(self, base_index, tmp_path):
        path = tmp_path / "index.npz"
        base_index.save(path)
        loaded = CSRPlusIndex.load(path, base_index.graph)
        rebuilt = loaded.rebuild_for_damping(0.7)
        fresh = CSRPlusIndex(base_index.graph, rank=10, damping=0.7).prepare()
        np.testing.assert_allclose(
            rebuilt.query([2]), fresh.query([2]), atol=1e-10
        )
