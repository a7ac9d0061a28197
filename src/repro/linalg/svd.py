"""Deterministic truncated SVD.

CSR+ (Algorithm 1, line 2) decomposes the sparse transition matrix as
``Q ~= U diag(sigma) V^T`` with a low target rank ``r``.  The paper uses
MATLAB's sparse SVD; here :func:`truncated_svd` wraps ARPACK
(``scipy.sparse.linalg.svds``) with

* a deterministic start vector, so repeated runs agree bit-for-bit;
* a dense-LAPACK fallback for the small matrices where ARPACK cannot be
  used (``r >= min(shape) - 1``);
* sign canonicalisation (largest-|entry| component of each left singular
  vector made positive), removing the per-column sign ambiguity so that
  CSR+ and the CSR-NI baseline see identical factors;
* one BLAS thread for small solves (:func:`arpack_svds`), where
  handing ARPACK's many small BLAS calls to worker threads costs more
  than it saves.

Singular values are returned in non-increasing order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import svds

from repro.errors import DecompositionError, InvalidParameterError
from repro.linalg.blas import single_threaded_blas

__all__ = [
    "ARPACK_THREADED_MIN_ENTRIES",
    "TruncatedSVD",
    "arpack_svds",
    "truncated_svd",
    "uses_dense_fallback",
]

#: Solves whose Lanczos basis (``n x ncv`` entries, ``ncv =
#: max(2r + 1, 20)`` as in ``eigsh``) is smaller than this run with one
#: BLAS thread.  Measured on 2 CPUs (R-MAT TW stand-in, ``r = 16``): at
#: ``n = 16,384`` one thread prepares in ~140 ms against 190-330 ms
#: threaded; at ``n = 131,072`` threads win, ~1.35 s against ~1.7 s.
ARPACK_THREADED_MIN_ENTRIES = 1 << 20

Matrix = Union[np.ndarray, sparse.spmatrix]


@dataclass(frozen=True)
class TruncatedSVD:
    """Rank-``r`` factors ``U (n x r)``, ``sigma (r,)``, ``V (n x r)``."""

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray

    @property
    def rank(self) -> int:
        return int(self.sigma.size)

    def reconstruct(self) -> np.ndarray:
        """Dense rank-``r`` approximation ``U diag(sigma) V^T``."""
        return (self.u * self.sigma) @ self.v.T

    def nbytes(self) -> int:
        """Bytes held by the three factors."""
        return int(self.u.nbytes + self.sigma.nbytes + self.v.nbytes)


def _canonicalize_signs(u: np.ndarray, v: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Flip column pairs so each U column's largest-|entry| is positive."""
    if u.size == 0:
        return u, v
    pivot = np.abs(u).argmax(axis=0)
    signs = np.sign(u[pivot, np.arange(u.shape[1])])
    signs[signs == 0] = 1.0
    return u * signs, v * signs


def uses_dense_fallback(shape: Tuple[int, int], rank: int) -> bool:
    """Whether :func:`truncated_svd` would take the dense-LAPACK path.

    Exposed so callers that must *mirror* this function's branch — the
    out-of-core shard builder re-derives the same factors with
    ``return_singular_vectors="vh"`` to avoid materialising ``U`` — can
    stay in lockstep with it instead of duplicating the condition.
    """
    min_dim = min(shape)
    return (rank >= min_dim - 1) or (min_dim <= 64)


def arpack_svds(matrix: Matrix, rank: int, v0: np.ndarray, **kwargs):
    """``svds(matrix, k=rank, v0=v0, **kwargs)`` under the thread rule.

    Solves below :data:`ARPACK_THREADED_MIN_ENTRIES` run with every
    loaded OpenBLAS at one thread (:func:`~repro.linalg.blas.
    single_threaded_blas`); larger ones keep the process's setting.
    Both SVD paths (:func:`truncated_svd` and the shard builder's
    vh-only solve) go through here, so they stay in lockstep.
    """
    n = min(matrix.shape)
    if n * max(2 * rank + 1, 20) >= ARPACK_THREADED_MIN_ENTRIES:
        return svds(matrix, k=rank, v0=v0, **kwargs)
    with single_threaded_blas():
        return svds(matrix, k=rank, v0=v0, **kwargs)


def truncated_svd(matrix: Matrix, rank: int, seed: int = 0) -> TruncatedSVD:
    """Rank-``rank`` truncated SVD of a (sparse or dense) square matrix.

    Parameters
    ----------
    matrix:
        The matrix to decompose (any scipy-sparse format or ndarray).
    rank:
        Target rank ``r``; must satisfy ``1 <= r <= min(matrix.shape)``.
        When ARPACK's constraint ``r < min(shape)`` is not met, or the
        matrix is small, a dense LAPACK SVD is used and truncated.
    seed:
        Seed for the deterministic ARPACK start vector.

    Raises
    ------
    InvalidParameterError
        If ``rank`` is out of range.
    DecompositionError
        If the underlying solver fails to converge.
    """
    if sparse.issparse(matrix):
        shape = matrix.shape
    else:
        matrix = np.asarray(matrix, dtype=np.float64)
        shape = matrix.shape
    if len(shape) != 2:
        raise InvalidParameterError(f"matrix must be 2-D, got shape {shape}")
    min_dim = min(shape)
    if not (1 <= rank <= min_dim):
        raise InvalidParameterError(
            f"rank must be in [1, {min_dim}] for shape {shape}, got {rank}"
        )

    use_dense = uses_dense_fallback(shape, rank)
    if use_dense:
        dense = matrix.toarray() if sparse.issparse(matrix) else matrix
        try:
            u_full, s_full, vt_full = np.linalg.svd(dense, full_matrices=False)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails
            raise DecompositionError(f"dense SVD failed: {exc}") from exc
        u = np.ascontiguousarray(u_full[:, :rank])
        s = np.ascontiguousarray(s_full[:rank])
        v = np.ascontiguousarray(vt_full[:rank].T)
    else:
        rng = np.random.default_rng(seed)
        v0 = rng.standard_normal(shape[0])
        try:
            u, s, vt = arpack_svds(matrix.astype(np.float64), rank, v0)
        except Exception as exc:
            raise DecompositionError(f"sparse SVD (ARPACK) failed: {exc}") from exc
        # svds returns ascending singular values; flip to non-increasing.
        order = np.argsort(s)[::-1]
        u = np.ascontiguousarray(u[:, order])
        s = np.ascontiguousarray(s[order])
        v = np.ascontiguousarray(vt[order].T)

    u, v = _canonicalize_signs(u, v)
    return TruncatedSVD(u=u, sigma=s, v=v)
