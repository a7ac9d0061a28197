"""Unit tests for the CSR+ index (Algorithm 1)."""

import numpy as np
import pytest

from repro.baselines.exact import ExactCoSimRank
from repro.core.config import CSRPlusConfig
from repro.core.index import CSRPlusIndex
from repro.errors import InvalidParameterError, MemoryBudgetExceeded, NotPreparedError
from repro.graphs.digraph import DiGraph
from repro.graphs.generators import chung_lu, erdos_renyi, ring
from repro.graphs.transition import transition_matrix


class TestExactnessAtFullRank:
    """With r = rank(Q), the low-rank pipeline is exact."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_exact_solver(self, seed):
        graph = erdos_renyi(40, 160, seed=seed)
        exact = ExactCoSimRank(graph, damping=0.6).all_pairs()
        index = CSRPlusIndex(graph, rank=40, epsilon=1e-12).prepare()
        np.testing.assert_allclose(index.all_pairs(), exact, atol=1e-8)

    def test_solution_satisfies_fixed_point(self, small_er):
        """S = c Q^T S Q + I, checked directly on the output."""
        n = small_er.num_nodes
        q_dense = transition_matrix(small_er).toarray()
        index = CSRPlusIndex(small_er, rank=n, epsilon=1e-13).prepare()
        s_matrix = index.all_pairs()
        residual = s_matrix - (0.6 * q_dense.T @ s_matrix @ q_dense + np.eye(n))
        assert np.max(np.abs(residual)) < 1e-7

    def test_damping_parameter_respected(self, small_er):
        exact_08 = ExactCoSimRank(small_er, damping=0.8).all_pairs()
        index = CSRPlusIndex(
            small_er, rank=small_er.num_nodes, damping=0.8, epsilon=1e-12
        ).prepare()
        np.testing.assert_allclose(index.all_pairs(), exact_08, atol=1e-7)


class TestLowRankBehaviour:
    def test_error_decreases_with_rank(self):
        graph = chung_lu(150, 700, seed=5)
        exact = ExactCoSimRank(graph).query([3, 14, 15])
        errors = []
        for rank in (5, 20, 80, 149):
            block = CSRPlusIndex(graph, rank=rank).query([3, 14, 15])
            errors.append(np.abs(block - exact).mean())
        # monotone within tolerance: each jump in rank may not strictly
        # shrink the error, but the trend over the sweep must.
        assert errors[-1] < errors[0]
        assert errors[-1] < 1e-6 or errors[-1] < errors[1]

    def test_rank_larger_than_n_rejected(self):
        with pytest.raises(InvalidParameterError):
            CSRPlusIndex(ring(4), rank=5)

    def test_solver_variants_agree(self, small_powerlaw):
        blocks = {}
        for solver in ("squaring", "fixed_point", "direct"):
            config = CSRPlusConfig(rank=8, solver=solver, epsilon=1e-12)
            blocks[solver] = CSRPlusIndex(small_powerlaw, config).query([0, 7])
        np.testing.assert_allclose(
            blocks["squaring"], blocks["direct"], atol=1e-9
        )
        np.testing.assert_allclose(
            blocks["fixed_point"], blocks["direct"], atol=1e-9
        )

    def test_deterministic_across_instances(self, small_powerlaw):
        a = CSRPlusIndex(small_powerlaw, rank=6).query([1, 2])
        b = CSRPlusIndex(small_powerlaw, rank=6).query([1, 2])
        np.testing.assert_array_equal(a, b)


class TestQuerySemantics:
    def test_identity_part_added_at_query_rows(self, small_er):
        index = CSRPlusIndex(small_er, rank=10).prepare()
        queries = [4, 9]
        with_id = index.query(queries)
        # recompute by hand: c * Z U[q]^T + I columns
        u, _, _, z = index.factors
        raw = 0.6 * (z @ u[queries, :].T)
        raw[4, 0] += 1.0
        raw[9, 1] += 1.0
        np.testing.assert_allclose(with_id, raw)

    def test_duplicate_queries_give_identical_columns(self, small_er):
        block = CSRPlusIndex(small_er, rank=5).query([3, 3])
        np.testing.assert_array_equal(block[:, 0], block[:, 1])

    def test_single_source_column_matches_multi(self, small_er):
        # gemv vs gemm can differ in the last float bit, hence allclose
        index = CSRPlusIndex(small_er, rank=5).prepare()
        block = index.query([2, 7])
        np.testing.assert_allclose(index.single_source(2), block[:, 0], atol=1e-14)
        np.testing.assert_allclose(index.single_source(7), block[:, 1], atol=1e-14)

    def test_all_pairs_is_query_of_everything(self, small_er):
        index = CSRPlusIndex(small_er, rank=5).prepare()
        np.testing.assert_array_equal(
            index.all_pairs(),
            index.query(np.arange(small_er.num_nodes)),
        )


class TestFactorsAndMemory:
    def test_factor_shapes(self, small_powerlaw):
        n = small_powerlaw.num_nodes
        index = CSRPlusIndex(small_powerlaw, rank=7).prepare()
        u, sigma, p, z = index.factors
        assert u.shape == (n, 7)
        assert sigma.shape == (7,)
        assert p.shape == (7, 7)
        assert z.shape == (n, 7)

    def test_factors_require_prepare(self, small_er):
        index = CSRPlusIndex(small_er, rank=5)
        with pytest.raises(NotPreparedError):
            _ = index.factors

    def test_v_released_after_prepare(self, small_er):
        index = CSRPlusIndex(small_er, rank=5).prepare()
        assert "precompute/V" not in index.memory.live_breakdown()

    def test_memory_linear_in_n(self):
        """Peak accounted memory follows O(rn), not O(n^2)."""
        peaks = []
        for n in (200, 400, 800):
            graph = erdos_renyi(n, 4 * n, seed=9)
            index = CSRPlusIndex(graph, rank=5).prepare()
            index.query(list(range(10)))
            peaks.append(index.memory.peak_bytes)
        growth = peaks[-1] / peaks[0]
        assert growth < 8  # quadratic would give ~16x

    def test_budget_enforced_on_query_result(self, small_er):
        config = CSRPlusConfig(rank=5, memory_budget_bytes=30_000)
        index = CSRPlusIndex(small_er, config).prepare()
        with pytest.raises(MemoryBudgetExceeded):
            index.all_pairs()  # n x n result breaks the small budget

    def test_stein_iterations_recorded(self, small_er):
        index = CSRPlusIndex(small_er, rank=5).prepare()
        assert index.stein_iterations == 6  # paper bound 5, loop runs k=0..5


class TestPersistence:
    def test_save_load_roundtrip(self, tmp_path, small_powerlaw):
        index = CSRPlusIndex(small_powerlaw, rank=6).prepare()
        path = tmp_path / "index.npz"
        index.save(path)
        loaded = CSRPlusIndex.load(path, small_powerlaw)
        np.testing.assert_array_equal(
            index.query([1, 5, 9]), loaded.query([1, 5, 9])
        )
        assert loaded.config.rank == 6
        assert loaded.is_prepared

    def test_save_load_keeps_the_factor_pipeline(self, tmp_path, small_er):
        """solver, dangling and svd_seed survive a round trip, so a loaded
        index re-damps to the same bytes as the index it was saved from."""
        index = CSRPlusIndex(
            small_er, rank=6, solver="direct", dangling="uniform", svd_seed=3
        ).prepare()
        path = tmp_path / "index.npz"
        index.save(path)
        loaded = CSRPlusIndex.load(path, small_er)
        assert (loaded.config.solver, loaded.config.dangling) == ("direct", "uniform")
        assert loaded.config.svd_seed == 3
        want = index.rebuild_for_damping(0.8).factors[3]
        got = loaded.rebuild_for_damping(0.8).factors[3]
        assert got.tobytes() == want.tobytes()

    def test_load_files_without_the_pipeline_keys(self, tmp_path, small_er):
        index = CSRPlusIndex(small_er, rank=5).prepare()
        path = tmp_path / "index.npz"
        index.save(path)
        with np.load(path) as data:
            arrays = {
                key: data[key]
                for key in data.files
                if key not in ("solver", "dangling", "svd_seed")
            }
        np.savez_compressed(path, **arrays)
        loaded = CSRPlusIndex.load(path, small_er)
        assert loaded.config == index.config

    def test_save_requires_prepare(self, tmp_path, small_er):
        index = CSRPlusIndex(small_er, rank=5)
        with pytest.raises(NotPreparedError):
            index.save(tmp_path / "x.npz")

    def test_load_rejects_wrong_graph(self, tmp_path, small_er):
        index = CSRPlusIndex(small_er, rank=5).prepare()
        path = tmp_path / "index.npz"
        index.save(path)
        with pytest.raises(InvalidParameterError):
            CSRPlusIndex.load(path, ring(3))


class TestEdgeCaseGraphs:
    def test_graph_without_edges(self):
        index = CSRPlusIndex(DiGraph(5), rank=2).prepare()
        np.testing.assert_allclose(index.all_pairs(), np.eye(5), atol=1e-12)

    def test_single_node(self):
        index = CSRPlusIndex(DiGraph(1), rank=1).prepare()
        assert index.single_pair(0, 0) == pytest.approx(1.0)

    def test_self_loop_graph(self):
        graph = DiGraph(2, [(0, 0), (0, 1)])
        exact = ExactCoSimRank(graph).all_pairs()
        index = CSRPlusIndex(graph, rank=2, epsilon=1e-12).prepare()
        np.testing.assert_allclose(index.all_pairs(), exact, atol=1e-8)

    def test_ring_similarity_structure(self):
        """On a directed ring every node is similar only to itself."""
        index = CSRPlusIndex(ring(6), rank=6, epsilon=1e-12).prepare()
        s_matrix = index.all_pairs()
        off_diag = s_matrix - np.diag(np.diag(s_matrix))
        assert np.max(np.abs(off_diag)) < 1e-8
        np.testing.assert_allclose(np.diag(s_matrix), 1.0 / (1.0 - 0.6), atol=1e-6)
