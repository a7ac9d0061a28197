"""The sparse Gram operator keeps every factor's bytes.

``_svds`` evaluates ARPACK's Gram product for sparse input as
``Qt @ (Q @ x)`` with a CSR transpose.  The previous operator ran the
adjoint through ``aslinearoperator(Q).rmatvec`` (a CSC scatter).  A
``LinearOperator`` argument still takes that path, so each case below
solves once per operator and compares the bytes.
"""

import os

import numpy as np
import pytest
from scipy.sparse.linalg import aslinearoperator

import repro.linalg.svd as svd_module
import repro.sharding.builder as builder_module
from repro.graphs.generators import chung_lu, ring, rmat
from repro.graphs.transition import transition_matrix
from repro.linalg.svd import arpack_svds, truncated_svd, uses_dense_fallback
from repro.sharding.builder import build_sharded_store


def _through_adjoint(matrix, rank, v0, return_singular_vectors=True):
    """``arpack_svds`` on the operator path the Gram product used to take."""
    return arpack_svds(
        aslinearoperator(matrix), rank, v0, return_singular_vectors
    )


def _assert_same_bytes(new, old):
    for got, want in zip(new, old):
        if want is None:
            assert got is None
        else:
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


CASES = [
    pytest.param(lambda: transition_matrix(ring(70)), 16, id="ring70-restart"),
    pytest.param(
        lambda: transition_matrix(chung_lu(400, 2400, seed=5)), 8, id="chung-lu"
    ),
    pytest.param(lambda: transition_matrix(rmat(9, 4000, seed=2)), 6, id="rmat"),
]


@pytest.mark.parametrize("make, rank", CASES)
@pytest.mark.parametrize("vectors", [True, "vh"])
def test_gram_operator_matches_the_adjoint_path(make, rank, vectors):
    matrix = make()
    assert not uses_dense_fallback(matrix.shape, rank)
    v0 = np.random.default_rng(0).standard_normal(matrix.shape[0])
    new = arpack_svds(matrix, rank, v0, return_singular_vectors=vectors)
    old = _through_adjoint(matrix, rank, v0, return_singular_vectors=vectors)
    _assert_same_bytes(new, old)


@pytest.mark.parametrize("make, rank", CASES)
def test_truncated_svd_bytes_unchanged(make, rank, monkeypatch):
    matrix = make()
    new = truncated_svd(matrix, rank, seed=3)
    monkeypatch.setattr(svd_module, "arpack_svds", _through_adjoint)
    old = truncated_svd(matrix, rank, seed=3)
    _assert_same_bytes((new.u, new.sigma, new.v), (old.u, old.sigma, old.v))


def _store_files(root):
    files = {}
    for folder, _, names in os.walk(root):
        for name in names:
            path = os.path.join(folder, name)
            with open(path, "rb") as handle:
                files[os.path.relpath(path, root)] = handle.read()
    return files


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_store_artefacts_unchanged(dtype, tmp_path, monkeypatch):
    """The builder's vh-only solve, and the replica beside it: every
    file of the store, digests and manifest included, keeps its bytes."""
    graph = chung_lu(600, 3600, seed=11)

    def build(path):
        build_sharded_store(
            graph, path, num_shards=3, rank=12, dtype=dtype,
            replica_path=os.path.join(path, "replica"),
        )
        return _store_files(path)

    new = build(str(tmp_path / "new"))
    monkeypatch.setattr(builder_module, "arpack_svds", _through_adjoint)
    monkeypatch.setattr(svd_module, "arpack_svds", _through_adjoint)
    old = build(str(tmp_path / "old"))
    assert sorted(new) == sorted(old)
    assert any(name.startswith("replica") for name in new)
    for name in new:
        assert new[name] == old[name], name
