"""Property: edge-batch updates equal a from-scratch build.

``DiGraph.with_edges_added`` merges a batch into the sorted edge arrays
by ``src * n + dst`` key, and ``with_edges_removed`` drops edges by the
same key; both must give exactly the arrays
:meth:`~repro.graphs.digraph.DiGraph.from_arrays` builds from the
concatenated (or filtered) edge list.  Batches carry duplicates, edges
already present, removals of missing edges and self-loops.  The keyless
fallback for ``n * n >= 2**63`` is forced by lowering the key limit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.graphs.digraph as digraph_module
from repro.errors import GraphConstructionError
from repro.graphs.digraph import DiGraph


@st.composite
def graph_and_batch(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    node = st.integers(min_value=0, max_value=n - 1)
    edge = st.tuples(node, node)  # self-loops included
    edges = draw(st.lists(edge, max_size=3 * n))
    graph = DiGraph(n, edges)
    present = sorted(set(edges))
    # a batch mixes fresh edges, edges already in the graph and repeats
    fresh = draw(st.lists(edge, min_size=1, max_size=2 * n))
    old = (
        draw(st.lists(st.sampled_from(present), max_size=n)) if present else []
    )
    batch = fresh + old + draw(st.lists(st.sampled_from(fresh), max_size=3))
    batch = draw(st.permutations(batch))
    return graph, batch


def _same_arrays(got: DiGraph, want: DiGraph) -> None:
    assert got == want
    for got_arr, want_arr in (
        (got.edge_sources, want.edge_sources),
        (got.edge_targets, want.edge_targets),
    ):
        assert got_arr.dtype == want_arr.dtype == np.int64
        assert got_arr.tobytes() == want_arr.tobytes()


#: the real key limit, and one that sends every graph to the fallback
KEY_LIMITS = pytest.mark.parametrize(
    "key_limit", [digraph_module._KEY_LIMIT, 1], ids=["keyed", "fallback"]
)


@KEY_LIMITS
@settings(max_examples=60, deadline=None)
@given(case=graph_and_batch())
def test_added_equals_from_arrays(key_limit, case):
    graph, batch = case
    pairs = np.asarray(batch, dtype=np.int64)
    want = DiGraph.from_arrays(
        graph.num_nodes,
        np.concatenate([graph.edge_sources, pairs[:, 0]]),
        np.concatenate([graph.edge_targets, pairs[:, 1]]),
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(digraph_module, "_KEY_LIMIT", key_limit)
        got = graph.with_edges_added(batch)
    _same_arrays(got, want)


@KEY_LIMITS
@settings(max_examples=60, deadline=None)
@given(case=graph_and_batch(), outside=st.integers(min_value=0, max_value=3))
def test_removed_equals_from_arrays(key_limit, case, outside):
    graph, batch = case
    n = graph.num_nodes
    # ids outside [0, n) name no edge and must not alias a real one
    # (e.g. (0, n + 1) and (1, 1) share the key n + 1)
    batch = batch + [(0, n + outside), (-1, outside), (n, 0)]
    drop = set(batch)
    keep = np.array(
        [
            (int(s), int(t)) not in drop
            for s, t in zip(graph.edge_sources, graph.edge_targets)
        ],
        dtype=bool,
    )
    want = DiGraph.from_arrays(
        n, graph.edge_sources[keep], graph.edge_targets[keep]
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(digraph_module, "_KEY_LIMIT", key_limit)
        got = graph.with_edges_removed(batch)
    _same_arrays(got, want)


def test_added_batch_out_of_range_is_rejected():
    graph = DiGraph(3, [(0, 1)])
    with pytest.raises(GraphConstructionError, match="out of range"):
        graph.with_edges_added([(0, 3)])
    with pytest.raises(GraphConstructionError, match="non-negative"):
        graph.with_edges_added([(-1, 2)])
