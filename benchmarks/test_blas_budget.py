"""One thread budget per process: batched calls must not starve the
exact kernel.

Not a paper artefact — this guards the kernel's thread policy
(docs/algorithm.md, "Evaluating Eq. 12").  A multi-threaded OpenBLAS
call leaves its threads spinning for ~0.1–0.2 s, each holding a core,
so an exact call right after a batched one used to find its kernel
pool with one core instead of every core.  The batched kernel now runs
its GEMMs at one BLAS thread inside the pool, so interleaving batched
calls (as ``perfbench``'s ``lib-offline`` does when it checks every
answer) must leave the exact loop's throughput where it is alone.

The loop is the paper's Fig. 5 set sizes, ``|Q|`` = 1…64, on a
131,072-node graph at rank 16; only the exact ``query()`` calls are
timed.  Alone and interleaved phases alternate, and the medians are
compared.  It is a wall-clock check, so it lives here, not in tier-1,
and it needs at least two CPUs (the starved fan-out does not exist on
one).
"""

import itertools
import statistics
import time

import numpy as np
import pytest

from repro.core.index import CSRPlusIndex
from repro.core.kernel import available_cpus
from repro.graphs.generators import chung_lu

pytestmark = pytest.mark.skipif(
    available_cpus() < 2, reason="the kernel pool fans out only on 2+ CPUs"
)

N_NODES = 131_072
N_EDGES = 1_000_000
RANK = 16
SET_SIZES = (1, 2, 4, 8, 16, 32, 64)
PHASE_SECONDS = 1.0
TRIALS = 5
#: Interleaved over alone, median over median.  On 2 CPUs (numpy 2.4,
#: OpenBLAS 0.3.31 at 2 threads), six runs each: one whole-``Z``
#: two-thread GEMM per batched call read 0.63–0.71, the one-thread
#: kernel 0.96–1.04 (CHANGES.md).
MIN_RATIO = 0.88


@pytest.fixture(scope="module")
def index() -> CSRPlusIndex:
    graph = chung_lu(N_NODES, N_EDGES, seed=5)
    return CSRPlusIndex(graph, rank=RANK).prepare()


@pytest.fixture(scope="module")
def sets():
    rng = np.random.default_rng(17)
    return [
        rng.choice(N_NODES, size=size, replace=False) for size in SET_SIZES
    ]


def _exact_cols_per_s(index, sets, interleave: bool) -> float:
    """Exact ``query()`` columns per busy second over whole size
    cycles; with ``interleave`` an untimed batched call of the same set
    follows every exact call."""
    columns, busy = 0, 0.0
    for position, query_set in enumerate(itertools.cycle(sets)):
        if position % len(sets) == 0 and busy >= PHASE_SECONDS:
            break
        start = time.perf_counter()
        index.query(query_set)
        busy += time.perf_counter() - start
        columns += query_set.size
        if interleave:
            index.query_columns(query_set, mode="batched")
    return columns / busy


def test_batched_calls_leave_exact_throughput_alone(index, sets):
    _exact_cols_per_s(index, sets, interleave=True)  # warm-up
    alone, interleaved = [], []
    for _ in range(TRIALS):
        alone.append(_exact_cols_per_s(index, sets, interleave=False))
        interleaved.append(_exact_cols_per_s(index, sets, interleave=True))
    ratio = statistics.median(interleaved) / statistics.median(alone)
    print(
        f"\nexact col/s alone {statistics.median(alone):.0f}, "
        f"with batched calls {statistics.median(interleaved):.0f} "
        f"(ratio {ratio:.3f}, gate {MIN_RATIO})"
    )
    assert ratio >= MIN_RATIO
