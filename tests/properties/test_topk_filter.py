"""Property: exact top-k answers rest on the filter margin, not on BLAS.

In exact mode :func:`~repro.core.topk.top_k_blockwise` filters each
block with one GEMM and rescores the rows that pass with the exact
kernel.  Its answers must not depend on the GEMM's bits, only on the
proven margin :func:`~repro.core.topk.filter_margin`: here the product
is replaced by the exact scores plus seeded signed noise of up to 0.9
margins per entry (the rest of the margin absorbs the noise's own
rounding), and rankings and score bytes must still equal the full
sort.  Star graphs make heavy ties, where a perturbed filter score most
easily reorders rows.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.topk as topk
from repro.core.index import CSRPlusIndex, exact_columns
from repro.core.topk import filter_margin, top_k_blockwise
from repro.graphs.digraph import DiGraph
from repro.sharding import ShardedIndex, shard_index

SETTINGS = dict(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: noise reaches this fraction of the margin
NOISE = 0.9


@st.composite
def hub_case(draw):
    n = draw(st.integers(min_value=3, max_value=16))
    hubs = draw(st.integers(min_value=1, max_value=2))
    # every node points into the hubs: their rows tie in large groups
    edges = {(s, h) for s in range(n) for h in range(hubs) if s != h}
    extra = [(s, t) for s in range(n) for t in range(n) if s != t]
    edges |= set(
        draw(st.lists(st.sampled_from(extra), max_size=n // 2, unique=True))
    )
    seeds = draw(
        st.lists(st.integers(min_value=0, max_value=n - 1), min_size=1,
                 max_size=n)
    )
    return (
        DiGraph(n, sorted(edges)),
        seeds,
        draw(st.integers(min_value=1, max_value=min(4, n))),
        draw(st.sampled_from(["float64", "float32"])),
        draw(st.sampled_from([1, 2, 5, n])),
        draw(st.sampled_from(sorted({1, 3, n - 1, n}))),
        draw(st.booleans()),
        draw(st.integers(min_value=0, max_value=2**32 - 1)),
    )


def _noisy_product(rank, dtype, noise_seed):
    """The exact block scores plus signed noise within the margin."""
    scale, floor = filter_margin(rank, dtype)
    rng = np.random.default_rng(noise_seed)

    def product(z_rows, u_rows, damping):
        exact = exact_columns(
            z_rows, u_rows, damping,
            np.empty((z_rows.shape[0], u_rows.shape[0]), dtype=z_rows.dtype),
        ).astype(np.float64)
        bound = np.linalg.norm(z_rows.astype(np.float64), axis=1).max(
            initial=0.0
        )
        u_norms = np.linalg.norm(u_rows.astype(np.float64), axis=1)
        margins = scale * damping * bound * u_norms + floor
        signs = rng.choice([-1.0, 1.0], size=exact.shape)
        # half the entries sit at the noise limit, the rest inside it
        inside = rng.uniform(0.0, NOISE, exact.shape)
        sizes = np.where(rng.random(exact.shape) < 0.5, NOISE, inside)
        return exact + signs * sizes * margins

    return product


def _reference(index, seeds, k, exclude_self):
    expected = []
    for seed in seeds:
        nodes = index.top_k(int(seed), k, exclude_self=exclude_self)
        expected.append((nodes, index.single_source(int(seed))[nodes]))
    return expected


def _assert_identical(results, expected):
    for result, (nodes, scores) in zip(results, expected):
        np.testing.assert_array_equal(result.nodes, nodes)
        assert result.scores.dtype == scores.dtype
        assert result.scores.tobytes() == scores.tobytes()


@settings(**SETTINGS)
@given(case=hub_case())
def test_noisy_filter_keeps_exact_answers(case, tmp_path_factory):
    graph, seeds, rank, dtype, num_shards, k, exclude_self, noise = case
    index = CSRPlusIndex(graph, rank=rank, dtype=dtype).prepare()
    expected = _reference(index, seeds, k, exclude_self)
    store = shard_index(
        index, tmp_path_factory.mktemp("store"), num_shards=num_shards
    )
    with pytest.MonkeyPatch.context() as patch, ShardedIndex(
        store, max_workers=1
    ) as sharded:
        patch.setattr(
            topk, "_block_product", _noisy_product(rank, dtype, noise)
        )
        for backend, block_rows in ((index, 1), (index, 3), (sharded, None)):
            results = top_k_blockwise(
                backend, seeds, k, exclude_self=exclude_self,
                block_rows=block_rows, mode="exact",
            )
            _assert_identical(results, expected)

