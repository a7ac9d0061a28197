"""Tests for the process-wide BLAS thread control around small solves."""

import threading

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import svds

import repro.linalg.blas as blas
import repro.linalg.svd as svd_module
from repro.linalg.blas import single_threaded_blas
from repro.linalg.svd import arpack_svds


def _thread_counts():
    return [getter() for getter, _ in blas._find_controls()]


def _matrix(n=300, seed=3):
    return sparse.random(
        n, n, density=0.03, random_state=np.random.RandomState(seed)
    ).tocsr()


class TestSingleThreadedBlas:
    def test_block_pins_one_thread_and_restores(self):
        before = _thread_counts()
        with single_threaded_blas():
            assert all(count == 1 for count in _thread_counts())
        assert _thread_counts() == before

    def test_nested_blocks_restore_on_last_exit(self):
        before = _thread_counts()
        with single_threaded_blas():
            with single_threaded_blas():
                pass
            assert all(count == 1 for count in _thread_counts())
        assert _thread_counts() == before

    def test_restores_after_exception(self):
        before = _thread_counts()
        with pytest.raises(RuntimeError):
            with single_threaded_blas():
                raise RuntimeError("boom")
        assert _thread_counts() == before

    @pytest.mark.timeout(30)
    def test_concurrent_blocks_restore_once_both_leave(self):
        before = _thread_counts()
        first_in = threading.Event()
        second_done = threading.Event()
        inside_first = []

        def first():
            with single_threaded_blas():
                first_in.set()
                second_done.wait()
                inside_first.append(_thread_counts())

        worker = threading.Thread(target=first)
        worker.start()
        first_in.wait()
        with single_threaded_blas():
            pass
        second_done.set()
        worker.join()
        assert all(count == 1 for count in inside_first[0])
        assert _thread_counts() == before


class TestArpackThreadRule:
    def test_small_solve_matches_plain_svds(self):
        matrix = _matrix()
        v0 = np.random.default_rng(0).standard_normal(matrix.shape[0])
        _, s, _ = arpack_svds(matrix, 4, v0)
        _, reference, _ = svds(matrix, k=4, v0=v0)
        np.testing.assert_allclose(np.sort(s), np.sort(reference), rtol=1e-10)

    def test_only_small_solves_pin_threads(self, monkeypatch):
        entered = []

        class Recorder:
            def __enter__(self):
                entered.append(True)

            def __exit__(self, *exc):
                return False

        monkeypatch.setattr(svd_module, "single_threaded_blas", Recorder)
        matrix = _matrix()
        v0 = np.random.default_rng(0).standard_normal(matrix.shape[0])
        arpack_svds(matrix, 4, v0)
        assert entered == [True]
        monkeypatch.setattr(svd_module, "ARPACK_THREADED_MIN_ENTRIES", 300 * 20)
        arpack_svds(matrix, 4, v0)
        assert entered == [True]
