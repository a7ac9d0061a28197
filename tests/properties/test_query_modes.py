"""Property: the batched-GEMM query fast path honours its contracts.

Three contracts, each searched for counterexamples with Hypothesis:

1. **Exactness of the default.** ``query_mode="exact"`` output is
   bit-identical to the canonical per-seed GEMV loop (the pre-fast-path
   evaluation) for every kernel block size and thread count — neither
   the fast path nor the blocked, threaded exact kernel may perturb the
   default by a single ulp.
2. **Tolerance equivalence of the fast path.** For any graph, any seed
   batch, and either storage dtype, every entry of the batched result
   is within ``batched_query_atol(rank, dtype)`` of the exact one.
3. **Serving equivalence in batched mode.** ``CoSimRankService`` with
   ``query_mode="batched"`` serves blocks tolerance-equal to direct
   ``index.query()`` in every cache state (cold, warm, mid-eviction,
   disabled), and a warm hit replays the cold computation's exact bytes
   (determinism per cache state).  This mirrors
   ``test_serving_equivalence.py``, which pins the bit-exact contract
   of ``"exact"`` mode; CI runs both files as the dual-mode lane.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.index as index_module
from repro.core.index import CSRPlusIndex, batched_query_atol
from repro.errors import InvalidParameterError
from repro.graphs.digraph import DiGraph
from repro.serving import CoSimRankService

SETTINGS = dict(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def graph_and_seeds(draw):
    n = draw(st.integers(min_value=2, max_value=14))
    possible = [(s, t) for s in range(n) for t in range(n) if s != t]
    edges = draw(
        st.lists(st.sampled_from(possible), min_size=1, max_size=3 * n, unique=True)
    )
    seed = st.integers(min_value=0, max_value=n - 1)
    seeds = draw(st.lists(seed, min_size=1, max_size=2 * n))  # dups allowed
    rank = draw(st.integers(min_value=1, max_value=min(4, n)))
    dtype = draw(st.sampled_from(["float64", "float32"]))
    return DiGraph(n, edges), seeds, rank, dtype


@st.composite
def graph_and_batches(draw):
    n = draw(st.integers(min_value=2, max_value=14))
    possible = [(s, t) for s in range(n) for t in range(n) if s != t]
    edges = draw(
        st.lists(st.sampled_from(possible), min_size=1, max_size=3 * n, unique=True)
    )
    seed = st.integers(min_value=0, max_value=n - 1)
    request = st.lists(seed, min_size=1, max_size=4)
    batch = st.lists(request, min_size=1, max_size=3)
    batches = draw(st.lists(batch, min_size=1, max_size=4))
    rank = draw(st.integers(min_value=1, max_value=min(4, n)))
    return DiGraph(n, edges), batches, rank


def _reference_per_seed_columns(index, seeds):
    """The canonical exact evaluation, re-implemented verbatim.

    One fixed-order row reduction per seed (``np.einsum`` with the
    default ``optimize=False``) — the partition-stable kernel that
    ``repro.core.index.exact_column_product`` pins, written out here
    independently so a kernel regression cannot hide behind its own
    reference.
    """
    u, _, _, z = index.factors
    out = np.empty((index.num_nodes, len(seeds)), dtype=z.dtype, order="F")
    for j, seed in enumerate(np.asarray(seeds, dtype=np.int64)):
        column = index.damping * np.einsum("ij,j->i", z, u[int(seed), :])
        column[seed] += 1.0
        out[:, j] = column
    return out


class TestModeContracts:
    @given(data=graph_and_seeds())
    @settings(**SETTINGS)
    def test_exact_mode_matches_reference_bitwise(self, data):
        graph, seeds, rank, dtype = data
        index = CSRPlusIndex(graph, rank=rank, dtype=dtype).prepare()
        n, itemsize = index.num_nodes, np.dtype(dtype).itemsize
        # as drawn (duplicates likely), with a forced duplicate, and empty
        batches = [seeds, seeds + seeds[:1], []]
        references = [_reference_per_seed_columns(index, b) for b in batches]
        with pytest.MonkeyPatch.context() as patch:
            # every call takes the blocked kernel, and the kernel pool
            # whenever more than one worker is available
            patch.setattr(index_module, "FAN_OUT_MIN_ENTRIES", 0)
            for block_rows in sorted({1, 2, 7, n}):
                patch.setattr(
                    index_module, "KERNEL_BLOCK_BYTES", block_rows * rank * itemsize
                )
                for workers in (1, 2, 3):
                    patch.setattr(
                        index_module, "available_cpus", lambda w=workers: w
                    )
                    for batch, reference in zip(batches, references):
                        assert np.array_equal(index.query_columns(batch), reference)
                        assert np.array_equal(
                            index.query_columns(batch, mode="exact"), reference
                        )
                    # query() computes distinct seeds in caller order and
                    # scatters duplicates; both land on the same bytes
                    assert np.array_equal(index.query(seeds), references[0])
                    assert np.array_equal(
                        index.query(sorted(set(seeds))),
                        index.query_columns(sorted(set(seeds))),
                    )

    @given(data=graph_and_seeds())
    @settings(**SETTINGS)
    def test_batched_within_atol_of_exact(self, data):
        graph, seeds, rank, dtype = data
        index = CSRPlusIndex(graph, rank=rank, dtype=dtype).prepare()
        exact = index.query_columns(seeds, mode="exact")
        batched = index.query_columns(seeds, mode="batched")
        atol = batched_query_atol(rank, exact.dtype)
        assert batched.dtype == exact.dtype
        assert batched.shape == exact.shape
        assert batched.flags.f_contiguous
        np.testing.assert_allclose(
            batched.astype(np.float64),
            exact.astype(np.float64),
            rtol=0.0,
            atol=atol,
        )

    @given(data=graph_and_seeds())
    @settings(**SETTINGS)
    def test_config_mode_is_the_default(self, data):
        graph, seeds, rank, dtype = data
        batched_index = CSRPlusIndex(
            graph, rank=rank, dtype=dtype, query_mode="batched"
        ).prepare()
        assert np.array_equal(
            batched_index.query_columns(seeds),
            batched_index.query_columns(seeds, mode="batched"),
        )

    def test_invalid_mode_rejected(self):
        index = CSRPlusIndex(DiGraph(3, [(0, 1)]), rank=2).prepare()
        with pytest.raises(InvalidParameterError):
            index.query_columns([0], mode="vectorised")
        with pytest.raises(InvalidParameterError):
            CSRPlusIndex(DiGraph(3, [(0, 1)]), rank=2, query_mode="nope")


def _assert_batches_tolerance_equal(service, index, batches, atol):
    for batch in batches:
        blocks = service.serve_batch(batch)
        for request, block in zip(batch, blocks):
            direct = index.query(request)
            assert block.shape == direct.shape
            assert block.dtype == direct.dtype
            np.testing.assert_allclose(block, direct, rtol=0.0, atol=atol)


class TestBatchedServingEquivalence:
    """The serving-equivalence suite, run under the batched contract."""

    @given(data=graph_and_batches())
    @settings(**SETTINGS)
    def test_cold_then_warm_cache(self, data):
        graph, batches, rank = data
        index = CSRPlusIndex(graph, rank=rank).prepare()
        atol = batched_query_atol(rank, np.float64)
        with CoSimRankService(
            index, cache_columns=64, max_workers=1, query_mode="batched"
        ) as service:
            cold = [service.serve_batch(batch) for batch in batches]
            _assert_batches_tolerance_equal(service, index, batches, atol)
            # warm hits replay the cold computation's exact bytes
            warm = [service.serve_batch(batch) for batch in batches]
            for cold_blocks, warm_blocks in zip(cold, warm):
                for cold_block, warm_block in zip(cold_blocks, warm_blocks):
                    assert np.array_equal(cold_block, warm_block)

    @given(data=graph_and_batches())
    @settings(**SETTINGS)
    def test_tiny_capacity_mid_eviction(self, data):
        graph, batches, rank = data
        index = CSRPlusIndex(graph, rank=rank).prepare()
        atol = batched_query_atol(rank, np.float64)
        with CoSimRankService(
            index, cache_columns=1, max_workers=1, query_mode="batched"
        ) as service:
            _assert_batches_tolerance_equal(service, index, batches, atol)
            _assert_batches_tolerance_equal(service, index, batches, atol)

    @given(data=graph_and_batches())
    @settings(**SETTINGS)
    def test_cache_disabled(self, data):
        graph, batches, rank = data
        index = CSRPlusIndex(graph, rank=rank).prepare()
        atol = batched_query_atol(rank, np.float64)
        with CoSimRankService(
            index, cache_columns=0, max_workers=1, query_mode="batched"
        ) as service:
            _assert_batches_tolerance_equal(service, index, batches, atol)
            assert service.stats().hits == 0

    @given(data=graph_and_batches(), chunk_size=st.integers(1, 5))
    @settings(**SETTINGS)
    def test_chunking_and_threads_stay_within_atol(self, data, chunk_size):
        graph, batches, rank = data
        index = CSRPlusIndex(graph, rank=rank).prepare()
        atol = batched_query_atol(rank, np.float64)
        with CoSimRankService(
            index,
            cache_columns=2,
            max_workers=2,
            chunk_size=chunk_size,
            query_mode="batched",
        ) as service:
            _assert_batches_tolerance_equal(service, index, batches, atol)
