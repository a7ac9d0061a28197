"""Unit tests for the norm-bound pruned top-k searches.

Two kernels share the Cauchy–Schwarz prune: the scalar
:func:`~repro.core.topk.top_k_pruned` (the reference oracle) and the
blockwise :func:`~repro.core.topk.top_k_blockwise` (the production
path).  The regression classes at the bottom pin the pruning
*behaviour*, not just correctness: skewed graphs must skip blocks and
bound the scored fraction, flat-norm graphs must degrade to a clean
full scan, and the scalar oracle must agree with the blockwise kernel
candidate for candidate.
"""

import numpy as np
import pytest

import repro.core.topk as topk
from repro.core.index import CSRPlusIndex
from repro.core.topk import top_k_blockwise, top_k_pruned
from repro.errors import InvalidParameterError
from repro.graphs.generators import chung_lu, preferential_attachment, ring


@pytest.fixture(scope="module")
def skewed_index():
    graph = preferential_attachment(2_000, 4, seed=41)
    return CSRPlusIndex(graph, rank=8).prepare()


class TestExactness:
    @pytest.mark.parametrize("query", [0, 17, 1999])
    @pytest.mark.parametrize("k", [1, 5, 20])
    def test_matches_flat_top_k_scores(self, skewed_index, query, k):
        result = top_k_pruned(skewed_index, query, k)
        flat = skewed_index.top_k(query, k)
        flat_scores = skewed_index.single_source(query)[flat]
        # identical score multisets (ordering of fp-ties may differ)
        np.testing.assert_allclose(
            np.sort(result.scores), np.sort(flat_scores), atol=1e-10
        )

    def test_scores_match_engine_values(self, skewed_index):
        result = top_k_pruned(skewed_index, 5, 10)
        column = skewed_index.single_source(5)
        np.testing.assert_allclose(
            result.scores, column[result.nodes], atol=1e-10
        )

    def test_descending_order(self, skewed_index):
        result = top_k_pruned(skewed_index, 3, 15)
        assert np.all(np.diff(result.scores) <= 1e-12)

    def test_self_excluded_by_default(self, skewed_index):
        result = top_k_pruned(skewed_index, 7, 10)
        assert 7 not in result.nodes

    def test_self_included_ranks_first(self, skewed_index):
        result = top_k_pruned(skewed_index, 7, 3, exclude_self=False)
        assert result.nodes[0] == 7  # diagonal +1 dominates


class TestPruningEffectiveness:
    def test_skewed_graph_scores_fewer_than_n(self, skewed_index):
        n = skewed_index.num_nodes
        result = top_k_pruned(skewed_index, 11, 10)
        assert result.candidates_scored < n

    def test_uniform_graph_still_correct(self):
        """On a ring (all norms equal) pruning cannot help, but the
        result must still be exact."""
        index = CSRPlusIndex(ring(50), rank=10).prepare()
        result = top_k_pruned(index, 4, 5)
        flat = index.top_k(4, 5)
        np.testing.assert_allclose(
            np.sort(result.scores),
            np.sort(index.single_source(4)[flat]),
            atol=1e-10,
        )


class TestValidation:
    def test_bad_k(self, skewed_index):
        with pytest.raises(InvalidParameterError):
            top_k_pruned(skewed_index, 0, 0)

    def test_bad_query(self, skewed_index):
        with pytest.raises(InvalidParameterError):
            top_k_pruned(skewed_index, 10**6, 3)

    def test_auto_prepares(self):
        index = CSRPlusIndex(chung_lu(100, 500, seed=42), rank=5)
        result = top_k_pruned(index, 0, 3)
        assert result.nodes.size == 3


SEEDS = [0, 11, 500, 1999]


class TestBlockwisePruning:
    """Regression pins on the blockwise kernel's pruning behaviour."""

    def test_skewed_graph_skips_blocks(self, skewed_index):
        """Norm-ordered blocks + a skewed norm profile must actually
        prune: blocks skipped, scored fraction bounded."""
        n = skewed_index.num_nodes
        results = top_k_blockwise(skewed_index, SEEDS, 10, block_rows=128)
        for seed, result in zip(SEEDS, results):
            assert result.blocks_skipped > 0, f"seed {seed} skipped nothing"
            assert result.candidates_scored < 0.5 * n, (
                f"seed {seed} scored {result.candidates_scored}/{n}"
            )
            assert (
                result.blocks_scanned + result.blocks_skipped
                == -(-n // 128)  # ceil: every block is either scanned or skipped
            )

    def test_exact_mode_rescores_only_filter_survivors(
        self, skewed_index, monkeypatch
    ):
        """Exact mode filters each block with one GEMM: the exact
        kernel sees a small fraction of the rows the GEMM scored."""
        rescored = []
        kernel = topk.exact_columns

        def counting(z_rows, *args):
            rescored.append(z_rows.shape[0])
            return kernel(z_rows, *args)

        monkeypatch.setattr(topk, "exact_columns", counting)
        results = top_k_blockwise(
            skewed_index, SEEDS, 10, block_rows=128, mode="exact"
        )
        scored = sum(result.candidates_scored for result in results)
        assert 0 < sum(rescored) < 0.1 * scored

    def test_flat_norm_graph_degrades_to_full_scan(self):
        """On a ring every ||Z[x]|| is equal: no block's bound can drop
        below the floor, so the kernel scans everything — gracefully,
        once per block, not with pathological re-sorting."""
        index = CSRPlusIndex(ring(60), rank=10).prepare()
        # both seeds have a nonzero U row (rows 10.. of U are zero at
        # rank 10; such seeds take the closed form tested below)
        results = top_k_blockwise(index, [4, 7], 5, block_rows=16)
        for seed, result in zip([4, 7], results):
            assert result.blocks_skipped == 0
            assert result.blocks_scanned == -(-60 // 16)
            assert result.candidates_scored == 59  # all but self
            np.testing.assert_array_equal(
                result.nodes, index.top_k(seed, 5)
            )

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("exclude_self", [True, False])
    def test_zero_u_seed_takes_closed_form(self, dtype, exclude_self):
        """A seed whose U row is all zero scores +-0 against every other
        node, so its ranking is the smallest other ids: the kernel
        writes it down and scans no block."""
        index = CSRPlusIndex(ring(60), rank=10, dtype=dtype).prepare()
        u_matrix = index.factors[0]
        seeds = [30, 2, 59]  # rows 30 and 59 of U are exactly zero
        assert not u_matrix[30].any() and not u_matrix[59].any()
        assert u_matrix[2].any()
        plan_blocks = -(-60 // 16)
        results = top_k_blockwise(
            index, seeds, 5, exclude_self=exclude_self, block_rows=16,
            mode="exact",
        )
        for seed, result in zip(seeds, results):
            nodes = index.top_k(seed, 5, exclude_self=exclude_self)
            np.testing.assert_array_equal(result.nodes, nodes)
            assert result.scores.dtype == np.dtype(dtype)
            assert (
                result.scores.tobytes()
                == index.single_source(seed)[nodes].tobytes()
            )
            if seed != 2:
                assert result.blocks_skipped == plan_blocks
                assert result.blocks_scanned == 0
                assert result.candidates_scored == 0
        expected = [0, 1, 2, 3] if exclude_self else [30, 0, 1, 2, 3]
        np.testing.assert_array_equal(results[0].nodes[:4], expected[:4])

    def test_scalar_oracle_agrees_with_blockwise(self, skewed_index):
        """top_k_pruned stays the reference: same nodes, same scores
        (up to fp noise of the different accumulation), and the same
        visit order means comparable work."""
        for seed in SEEDS:
            oracle = top_k_pruned(skewed_index, seed, 10)
            block = top_k_blockwise(
                skewed_index, [seed], 10, block_rows=128
            )[0]
            np.testing.assert_array_equal(block.nodes, oracle.nodes)
            np.testing.assert_allclose(
                block.scores, oracle.scores, atol=1e-10
            )

    def test_blockwise_never_scores_more_than_oracle_plus_block_slack(
        self, skewed_index
    ):
        """Block granularity is the only extra work: the blockwise scan
        stops within one block of where the scalar oracle stopped."""
        block_rows = 128
        for seed in SEEDS:
            oracle = top_k_pruned(skewed_index, seed, 10)
            block = top_k_blockwise(
                skewed_index, [seed], 10, block_rows=block_rows
            )[0]
            assert (
                block.candidates_scored
                <= oracle.candidates_scored + block_rows
            )

    def test_deeper_k_scans_more(self, skewed_index):
        """A deeper ranking has a lower floor, so pruning starts later."""
        shallow = top_k_blockwise(skewed_index, [11], 5, block_rows=128)[0]
        deep = top_k_blockwise(skewed_index, [11], 200, block_rows=128)[0]
        assert deep.candidates_scored >= shallow.candidates_scored
        assert deep.blocks_skipped <= shallow.blocks_skipped
