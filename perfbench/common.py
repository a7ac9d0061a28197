"""Helpers shared by the benchmark's workloads.

Paths, robust statistics, the per-phase request tally, process
memory probes and the environment record.  Nothing here imports the
program (``repro``): ``run.py`` checks that the program is present
before any workload module is loaded.
"""

from __future__ import annotations

import ctypes
import os
import platform
import statistics
import sys
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, TypeVar

T = TypeVar("T")

#: Root of the checkout the benchmark runs in (this file's grandparent).
ROOT = Path(__file__).resolve().parent.parent
#: Program sources, put on ``sys.path`` and on the server's PYTHONPATH.
SRC = ROOT / "src"
#: Scratch space for cached inputs and per-run stores (gitignored).
WORK = ROOT / ".perfbench_work"

#: p95 latency limit on the HTTP workloads; a failed request misses it.
LATENCY_LIMIT_MS = 100.0


def median(values: Iterable[float]) -> float:
    return float(statistics.median(list(values)))


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile, ``q`` in [0, 1] (numpy's default)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of no values")
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


class Tally:
    """Operations sent / succeeded / failed, per named phase.

    ``failed`` counts refused, failed and wrong answers alike; a wrong
    answer found by a correctness check after the phase moves one
    operation from ``ok`` to ``failed`` via :meth:`wrong`.
    """

    def __init__(self) -> None:
        self.phases: Dict[str, Dict[str, int]] = {}

    def add(self, phase: str, ok: int = 0, failed: int = 0) -> None:
        row = self.phases.setdefault(phase, {"sent": 0, "ok": 0, "failed": 0})
        row["sent"] += ok + failed
        row["ok"] += ok
        row["failed"] += failed

    def wrong(self, phase: str, count: int = 1) -> None:
        row = self.phases[phase]
        row["ok"] -= count
        row["failed"] += count

    @property
    def attempted(self) -> int:
        return sum(row["sent"] for row in self.phases.values())

    @property
    def failed(self) -> int:
        return sum(row["failed"] for row in self.phases.values())

    def render(self) -> List[str]:
        return [
            f"  phase {name:<14} sent {row['sent']:>6}  ok {row['ok']:>6}  "
            f"failed {row['failed']:>4}"
            for name, row in self.phases.items()
        ]


# ----------------------------------------------------------------------
# processes
# ----------------------------------------------------------------------
def _status_kb(pid: int, field: str) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb(pids: Iterable[int]) -> float:
    """Sum of the peak resident set (VmHWM) of live processes, in MB."""
    return sum(_status_kb(pid, "VmHWM") for pid in pids) / 1024.0


def self_peak_rss_mb() -> float:
    return _status_kb(os.getpid(), "VmHWM") / 1024.0


def child_pids(pid: int) -> List[int]:
    """Direct children of ``pid`` (all threads), from /proc."""
    children: List[int] = []
    try:
        for tid in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{tid}/children") as fh:
                children.extend(int(tok) for tok in fh.read().split())
    except OSError:
        pass
    return sorted(set(children))


def cpu_ticks() -> List[int]:
    """Machine-wide CPU tick counters from /proc/stat (user ... steal)."""
    try:
        with open("/proc/stat") as fh:
            return [int(tok) for tok in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return []


def steal_share(before: List[int], after: List[int]) -> float:
    """Share of CPU time the hypervisor gave to others between samples."""
    if len(before) < 8 or len(after) < 8:
        return 0.0
    total = sum(after) - sum(before)
    return (after[7] - before[7]) / total if total else 0.0


#: A measured phase during which the hypervisor stole more than this
#: share of the machine's CPU time is repeated ...
STEAL_LIMIT = 0.02
#: ... up to this many attempts in all ...
STEAL_ATTEMPTS = 2
#: ... and a run repeats at most this many phases in all.
STEAL_REPEATS_PER_RUN = 3


class StealGate:
    """Repeats measured phases that CPU steal disturbed; one per run.

    Steal is time the hypervisor gave to other guests.  The program
    cannot cause it, so a phase it disturbed measures the host, not the
    code.  The run-wide cap keeps a long noisy spell from stretching a
    run past the run budget.
    """

    def __init__(self) -> None:
        self.repeats = 0

    def measure(self, measure: Callable[[int], T]) -> T:
        """Run ``measure(attempt)`` until an attempt sees little steal.

        A phase is repeated, up to ``STEAL_ATTEMPTS`` attempts and while
        the run has repeats left, and the attempt with the least steal
        counts.
        """
        best: Optional[Tuple[float, T]] = None
        for attempt in range(STEAL_ATTEMPTS):
            before = cpu_ticks()
            result = measure(attempt)
            share = steal_share(before, cpu_ticks())
            if best is None or share < best[0]:
                best = (share, result)
            if (
                share <= STEAL_LIMIT
                or attempt + 1 == STEAL_ATTEMPTS
                or self.repeats >= STEAL_REPEATS_PER_RUN
            ):
                break
            self.repeats += 1
            log(f"  CPU steal {share:.1%} during a measured phase; repeating it")
        return best[1]


def process_alive(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            state = fh.read().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return False
    return state != "Z"


# ----------------------------------------------------------------------
# environment
# ----------------------------------------------------------------------
_BLAS_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
    "MKL_Get_Max_Threads",
    "bli_thread_get_num_threads",
)

#: Environment variables that would change BLAS threading; the
#: benchmark sets none of them and records what it found.
BLAS_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
)


def _loaded_blas_threads() -> Optional[int]:
    """Thread count of the BLAS numpy loaded, asked through ctypes."""
    paths = set()
    try:
        with open("/proc/self/maps") as fh:
            for line in fh:
                path = line.split()[-1]
                if any(tag in path.lower() for tag in ("blas", "mkl")):
                    paths.add(path)
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _BLAS_THREAD_SYMBOLS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(workers: int) -> Dict[str, object]:
    """What the numbers depend on besides the code: compare only equals."""
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):  # older numpy: no dict mode
        vendor = "unknown"
    return {
        "nproc": os.cpu_count(),
        "blas": vendor,
        "blas_threads": _loaded_blas_threads(),
        "blas_env": {var: os.environ.get(var) for var in BLAS_ENV_VARS},
        "workers": workers,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def log(message: str) -> None:
    """Progress lines go to stderr; stdout carries results only."""
    print(message, file=sys.stderr, flush=True)
