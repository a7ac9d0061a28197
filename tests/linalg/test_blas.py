"""Tests for the process-wide BLAS thread control around small solves."""

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

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


def _exit_code_in_child(check) -> int:
    """Fork, run ``check()`` in the child and return its exit code
    (0 when ``check`` returns true)."""
    pid = os.fork()
    if pid == 0:  # pragma: no cover - runs in the child
        code = 1
        try:
            code = 0 if check() else 3
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    return os.WEXITSTATUS(status) if os.WIFEXITED(status) else -1


@pytest.mark.skipif(
    not hasattr(os, "register_at_fork"), reason="needs os.fork"
)
@pytest.mark.filterwarnings("ignore::DeprecationWarning")
class TestForkSafety:
    @pytest.mark.timeout(30)
    def test_child_of_a_lock_holder_gets_a_free_lock(self):
        holding = threading.Event()
        release = threading.Event()

        def hold():
            with blas._lock:
                holding.set()
                release.wait()

        holder = threading.Thread(target=hold)
        holder.start()
        holding.wait()
        try:
            code = _exit_code_in_child(
                lambda: blas._lock.acquire(blocking=False)
            )
        finally:
            release.set()
            holder.join()
        assert code == 0

    @pytest.mark.timeout(30)
    def test_child_forked_inside_a_block_starts_outside_it(self):
        before = _thread_counts()
        inside = threading.Event()
        leave = threading.Event()

        def sit_in_block():
            with single_threaded_blas():
                inside.set()
                leave.wait()

        def child_state_is_clean():
            if not blas._lock.acquire(blocking=False):
                return False
            blas._lock.release()
            return (
                blas._depth == 0
                and blas._saved == []
                and _thread_counts() == before
            )

        sitter = threading.Thread(target=sit_in_block)
        sitter.start()
        inside.wait()
        try:
            code = _exit_code_in_child(child_state_is_clean)
            assert all(count == 1 for count in _thread_counts())
        finally:
            leave.set()
            sitter.join()
        assert code == 0
        assert _thread_counts() == before


class TestSetBlasThreads:
    def test_sets_every_library_and_can_be_undone(self):
        before = _thread_counts()
        if not before:
            pytest.skip("no OpenBLAS thread control in this process")
        try:
            blas.set_blas_threads(1)
            assert all(count == 1 for count in _thread_counts())
            assert blas.blas_threads() == 1
        finally:
            for (_, setter), count in zip(blas._find_controls(), before):
                setter(count)
        assert _thread_counts() == before


#: Run in a fresh interpreter, where scipy is not yet imported: pin
#: with numpy's OpenBLAS alone mapped, then import scipy (which maps its
#: own) and pin again.  Every library is first set to two threads
#: through a fresh lookup, so the check bites on one CPU too.
_PIN_THEN_IMPORT = """
import json

import numpy

from repro.linalg import blas

with blas.single_threaded_blas():
    pass
import scipy.sparse.linalg  # maps scipy's OpenBLAS

for _, setter in blas._find_controls():
    setter(2)
before = [getter() for getter, _ in blas._find_controls()]
with blas.single_threaded_blas():
    inside = [getter() for getter, _ in blas._find_controls()]
after = [getter() for getter, _ in blas._find_controls()]
print(json.dumps({"before": before, "inside": inside, "after": after}))
"""


class TestLibrariesMappedLater:
    @pytest.mark.timeout(120)
    def test_a_block_pins_a_library_imported_after_the_first_block(self):
        src = Path(blas.__file__).resolve().parents[2]
        env = dict(os.environ, PYTHONPATH=str(src))
        child = subprocess.run(
            [sys.executable, "-c", _PIN_THEN_IMPORT],
            env=env, capture_output=True, text=True, check=True,
        )
        counts = json.loads(child.stdout)
        if len(counts["before"]) < 2:
            pytest.skip("numpy and scipy do not load two OpenBLAS here")
        assert counts["before"] == [2] * len(counts["before"])
        assert counts["inside"] == [1] * len(counts["before"])
        assert counts["after"] == counts["before"]


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
