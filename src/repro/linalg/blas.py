"""Process-wide BLAS thread control for loops of small calls.

ARPACK (inside ``scipy.sparse.linalg.svds``) makes hundreds of small
BLAS calls per solve.  A threaded OpenBLAS hands each of them to its
worker threads and pays a wake-up per call, which on a small graph
costs far more than the arithmetic: on tiny WT (``n = 600``, ``r = 5``)
a CSR+ ``prepare()`` took ~47 ms with the default two threads and
~4 ms with one.  numpy and scipy each load their own OpenBLAS, so both
are pinned.  The online kernel's GEMMs (batched columns and the
top-k filter, :func:`repro.core.kernel.batched_columns`) run pinned
too, under the kernel's own thread pool: after a multi-threaded call
OpenBLAS's threads spin for ~0.1-0.2 s, each holding a core that the
pool's next fan-out needs.

:func:`single_threaded_blas` sets every OpenBLAS loaded in the process
to one thread for the duration of a ``with`` block and restores the
previous counts when the last concurrent block exits.  The setting is
process-wide, so BLAS calls that other threads make meanwhile also run
on one thread.  :func:`set_blas_threads` sets a count for the rest of
the process's life; a frontend worker process uses it at start so that
processes x BLAS threads stays within the cores (docs/frontend.md).
Other BLAS vendors (MKL, BLIS), and platforms without
``/proc/self/maps``, are left alone: both are then no-ops.  The list
of loaded libraries is cached and looked up again whenever
``sys.modules`` has changed size since the last lookup, so a library
that an import maps later (scipy's, after numpy's) is pinned too.

The module state is fork-safe: a child forked while another thread
held the lock, or sat inside :func:`single_threaded_blas`, starts with
a free lock, no open block and the thread counts from outside it.
"""

from __future__ import annotations

import ctypes
import os
import sys
import threading
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

__all__ = ["blas_threads", "set_blas_threads", "single_threaded_blas"]

#: ``(getter, setter)`` symbol pairs, in the order they are tried on
#: each loaded library: numpy's and scipy's wheels prefix theirs.
_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)

_Control = Tuple[Callable[[], int], Callable[[int], None]]

_lock = threading.Lock()
#: path -> ``(getter, setter)`` of every OpenBLAS found mapped so far
_controls: Dict[str, _Control] = {}
#: ``len(sys.modules)`` when ``_controls`` was last brought up to date
_scanned_at: Optional[int] = None
_depth = 0
#: ``(path, setter, count)`` of each library an open block lowered to
#: one thread, with the count to restore
_saved: List[Tuple[str, Callable[[int], None], int]] = []


def _find_controls() -> List[_Control]:
    """Thread getter/setter of every OpenBLAS mapped into this process."""
    return list(_scan_controls({}).values())


def _scan_controls(known: Dict[str, _Control]) -> Dict[str, _Control]:
    """Path -> controls of every mapped OpenBLAS; libraries already in
    ``known`` keep their controls, only newly mapped ones are opened."""
    paths = set()
    try:
        with open("/proc/self/maps") as fh:
            for line in fh:
                path = line.split()[-1]
                if "openblas" in path.lower():
                    paths.add(path)
    except OSError:
        return {}
    controls: Dict[str, _Control] = {}
    for path in sorted(paths):
        if path in known:
            controls[path] = known[path]
            continue
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _THREAD_SYMBOLS:
            getter = getattr(lib, get_name, None)
            setter = getattr(lib, set_name, None)
            if getter is not None and setter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                setter.argtypes = [ctypes.c_int]
                setter.restype = None
                controls[path] = (getter, setter)
                break
    return controls


def _loaded_controls() -> Dict[str, _Control]:
    """The controls, rescanned when the process has imported a module
    since the last scan (an import is how numpy, scipy and the like map
    another OpenBLAS); call with ``_lock`` held."""
    global _controls, _scanned_at
    modules = len(sys.modules)
    if modules != _scanned_at:
        _controls = _scan_controls(_controls)
        _scanned_at = modules
    return _controls


def blas_threads() -> Optional[int]:
    """Largest thread count among the loaded OpenBLAS libraries, or
    ``None`` when no OpenBLAS control is found."""
    with _lock:
        controls = _loaded_controls().values()
        return max((getter() for getter, _ in controls), default=None)


def set_blas_threads(count: int) -> None:
    """Set every loaded OpenBLAS to ``count`` threads until changed.

    Looks for loaded libraries afresh, so one loaded since the last
    lookup is set too.  A :func:`single_threaded_blas` block open at
    the time restores the counts it saved when it exits.
    """
    global _scanned_at
    count = max(1, int(count))
    with _lock:
        _scanned_at = None
        for _, setter in _loaded_controls().values():
            setter(count)


@contextmanager
def single_threaded_blas() -> Iterator[None]:
    """Run the block with every loaded OpenBLAS at one thread.

    Nested and concurrent blocks share one setting: the first to enter
    records the thread counts and the last to leave restores them.  A
    library mapped while a block is open is pinned by the next block to
    enter.  A library already at one thread is left alone, so a process
    pinned for good (:func:`set_blas_threads`) pays no toggle.
    """
    global _depth
    with _lock:
        pinned = {path for path, _, _ in _saved}
        for path, (getter, setter) in _loaded_controls().items():
            if path not in pinned:
                count = getter()
                if count != 1:
                    setter(1)
                    _saved.append((path, setter, count))
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                for _, setter, count in _saved:
                    setter(count)
                _saved.clear()


def _reset_after_fork() -> None:
    # The child has one thread, the one that forked: no thread of the
    # child holds the lock or sits inside a block, whatever the parent's
    # other threads were doing.  Counts a block had lowered go back.
    global _lock, _depth
    _lock = threading.Lock()
    for _, setter, count in _saved:
        setter(count)
    _saved.clear()
    _depth = 0


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_after_fork)
