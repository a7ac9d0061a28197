"""Unit tests for the deterministic truncated SVD."""

import numpy as np
import pytest
from scipy import sparse

from repro.errors import InvalidParameterError
from repro.graphs.transition import transition_matrix
from repro.linalg.svd import TruncatedSVD, truncated_svd


def _random_sparse(n, density, seed):
    rng = np.random.default_rng(seed)
    matrix = sparse.random(
        n, n, density=density, random_state=np.random.RandomState(seed)
    )
    return matrix.tocsr()


class TestCorrectness:
    def test_full_rank_reconstructs(self):
        rng = np.random.default_rng(0)
        matrix = rng.standard_normal((12, 12))
        svd = truncated_svd(matrix, 12)
        np.testing.assert_allclose(svd.reconstruct(), matrix, atol=1e-10)

    def test_singular_values_match_lapack(self):
        rng = np.random.default_rng(1)
        matrix = rng.standard_normal((20, 20))
        svd = truncated_svd(matrix, 5)
        reference = np.linalg.svd(matrix, compute_uv=False)[:5]
        np.testing.assert_allclose(svd.sigma, reference, rtol=1e-10)

    def test_descending_order(self):
        matrix = _random_sparse(200, 0.05, 3)
        svd = truncated_svd(matrix, 6)
        assert np.all(np.diff(svd.sigma) <= 1e-12)

    def test_orthonormal_factors(self):
        matrix = _random_sparse(150, 0.05, 4)
        svd = truncated_svd(matrix, 8)
        np.testing.assert_allclose(svd.u.T @ svd.u, np.eye(8), atol=1e-8)
        np.testing.assert_allclose(svd.v.T @ svd.v, np.eye(8), atol=1e-8)

    def test_sparse_path_matches_dense_path(self):
        matrix = _random_sparse(150, 0.05, 5)
        via_arpack = truncated_svd(matrix, 4)
        via_dense = truncated_svd(matrix.toarray(), 4)
        # both paths pick the same subspace; compare the projection
        np.testing.assert_allclose(via_arpack.sigma, via_dense.sigma, rtol=1e-8)
        np.testing.assert_allclose(
            via_arpack.reconstruct(), via_dense.reconstruct(), atol=1e-8
        )

    def test_best_rank_r_error_bound(self):
        """Eckart-Young: the rank-r SVD residual equals sigma_{r+1}."""
        rng = np.random.default_rng(6)
        matrix = rng.standard_normal((30, 30))
        svd = truncated_svd(matrix, 10)
        residual = np.linalg.norm(matrix - svd.reconstruct(), ord=2)
        all_sigma = np.linalg.svd(matrix, compute_uv=False)
        assert residual == pytest.approx(all_sigma[10], rel=1e-8)


class TestDeterminism:
    def test_repeated_calls_identical(self):
        matrix = _random_sparse(300, 0.02, 7)
        first = truncated_svd(matrix, 5, seed=1)
        second = truncated_svd(matrix, 5, seed=1)
        np.testing.assert_array_equal(first.u, second.u)
        np.testing.assert_array_equal(first.v, second.v)

    def test_repeated_calls_identical_when_arpack_restarts(self):
        """ring(70)'s transition matrix has every singular value equal
        to 1, so rank 16 cuts through the cluster and ARPACK asks for
        random restart vectors; they come from a seeded generator."""
        from repro.graphs.generators import ring
        from repro.linalg.svd import uses_dense_fallback

        matrix = transition_matrix(ring(70))
        assert not uses_dense_fallback(matrix.shape, 16)
        first = truncated_svd(matrix, 16)
        for _ in range(3):
            again = truncated_svd(matrix, 16)
            assert again.sigma.tobytes() == first.sigma.tobytes()
            assert again.u.tobytes() == first.u.tobytes()
            assert again.v.tobytes() == first.v.tobytes()

    def test_sign_canonicalisation(self):
        matrix = _random_sparse(100, 0.05, 8)
        svd = truncated_svd(matrix, 4)
        pivots = np.abs(svd.u).argmax(axis=0)
        signs = svd.u[pivots, np.arange(4)]
        assert np.all(signs > 0)


class TestValidation:
    def test_rank_zero_rejected(self):
        with pytest.raises(InvalidParameterError):
            truncated_svd(np.eye(4), 0)

    def test_rank_too_large_rejected(self):
        with pytest.raises(InvalidParameterError):
            truncated_svd(np.eye(4), 5)

    def test_non_2d_rejected(self):
        with pytest.raises(InvalidParameterError):
            truncated_svd(np.zeros(5), 1)

    def test_nbytes(self):
        svd = truncated_svd(np.eye(10), 3)
        assert svd.nbytes() == svd.u.nbytes + svd.sigma.nbytes + svd.v.nbytes
        assert svd.rank == 3


class TestOnTransitionMatrices:
    def test_spectral_norm_at_most_sqrt_max_indegree_bound(self, small_powerlaw):
        """For a column-substochastic Q, sigma_1 is bounded and finite."""
        q_matrix = transition_matrix(small_powerlaw)
        svd = truncated_svd(q_matrix, 3)
        # sigma_1^2 <= ||Q||_1 * ||Q||_inf  (Schur bound)
        norm_1 = abs(q_matrix).sum(axis=0).max()
        norm_inf = abs(q_matrix).sum(axis=1).max()
        assert svd.sigma[0] ** 2 <= norm_1 * norm_inf + 1e-9
