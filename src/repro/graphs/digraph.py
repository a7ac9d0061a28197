"""Directed-graph substrate.

The paper stores graphs as COO triples ``{(x, y, 1)}`` and derives an
adjacency list by grouping on the source vertex (§4.1, "Graph Storage").
:class:`DiGraph` mirrors that design: edges are kept as parallel
``numpy`` arrays of sources and targets (the COO view), and CSR/CSC
scipy matrices are built lazily for the matrix pipelines.

Node ids are dense integers ``0 .. n-1``.  Helpers on top of this class
(:mod:`repro.graphs.io`) map arbitrary external labels onto dense ids.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse

from repro.errors import GraphConstructionError, InvalidParameterError

__all__ = ["DiGraph"]

#: Edge keys ``src * n + dst`` stay below this while ``n * n`` does.
_KEY_LIMIT = 1 << 63


def _check_endpoints(n: int, src: np.ndarray, dst: np.ndarray) -> None:
    if src.size == 0:
        return
    if src.min() < 0 or dst.min() < 0:
        raise GraphConstructionError("edge endpoints must be non-negative")
    if src.max() >= n or dst.max() >= n:
        bad = max(src.max(), dst.max())
        raise GraphConstructionError(
            f"edge endpoint {bad} out of range for graph with {n} nodes"
        )


def _edge_pairs(edges) -> np.ndarray:
    pairs = np.asarray(list(edges), dtype=np.int64)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise GraphConstructionError("edges must be (source, target) pairs")
    return pairs


def _locate(sorted_keys: np.ndarray, keys: np.ndarray):
    """Insertion points of ``keys`` in ``sorted_keys``, and which of
    ``keys`` are already there."""
    at = np.searchsorted(sorted_keys, keys)
    present = np.zeros(keys.size, dtype=bool)
    if sorted_keys.size:
        present = sorted_keys[np.minimum(at, sorted_keys.size - 1)] == keys
    return at, present


class DiGraph:
    """An immutable directed graph over dense integer node ids.

    Parameters
    ----------
    num_nodes:
        Number of nodes ``n``; node ids are ``0 .. n-1``.
    edges:
        Iterable of ``(source, target)`` pairs.  Duplicate edges are
        coalesced (the adjacency matrix is binary, as in the paper's COO
        triples ``(x, y, 1)``).  Self-loops are permitted.

    Notes
    -----
    The class is deliberately immutable: every similarity engine in this
    package precomputes structures from the graph, and silent mutation
    would invalidate them.  "Dynamic graph" workflows instead produce a
    new :class:`DiGraph` via :meth:`with_edges_added` /
    :meth:`with_edges_removed`, which the dynamic engine consumes.
    """

    __slots__ = ("_n", "_src", "_dst", "_csr", "_csc")

    def __init__(self, num_nodes: int, edges: Iterable[Tuple[int, int]] = ()):
        n = int(num_nodes)
        if n < 0:
            raise InvalidParameterError(f"num_nodes must be >= 0, got {num_nodes}")
        self._n = n

        edge_list = list(edges)
        if edge_list:
            arr = np.asarray(edge_list, dtype=np.int64)
            if arr.ndim != 2 or arr.shape[1] != 2:
                raise GraphConstructionError(
                    "edges must be an iterable of (source, target) pairs"
                )
            src, dst = arr[:, 0], arr[:, 1]
        else:
            src = np.empty(0, dtype=np.int64)
            dst = np.empty(0, dtype=np.int64)
        self._init_from_arrays(src, dst)

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    def _init_from_arrays(self, src: np.ndarray, dst: np.ndarray) -> None:
        if src.size:
            _check_endpoints(self._n, src, dst)
            # Coalesce duplicates while keeping a deterministic order.
            order = np.lexsort((dst, src))
            src, dst = src[order], dst[order]
            if src.size > 1:
                keep = np.empty(src.size, dtype=bool)
                keep[0] = True
                np.logical_or(
                    src[1:] != src[:-1], dst[1:] != dst[:-1], out=keep[1:]
                )
                src, dst = src[keep], dst[keep]
        self._set_edges(src, dst)

    def _set_edges(self, src: np.ndarray, dst: np.ndarray) -> None:
        self._src = src
        self._dst = dst
        self._csr: Optional[sparse.csr_matrix] = None
        self._csc: Optional[sparse.csc_matrix] = None

    @classmethod
    def _from_sorted(
        cls, n: int, src: np.ndarray, dst: np.ndarray
    ) -> "DiGraph":
        """A graph over edges already in canonical order: in range,
        unique, and sorted by ``(source, target)``."""
        graph = cls.__new__(cls)
        graph._n = n
        graph._set_edges(src, dst)
        return graph

    def _edge_keys(self) -> Optional[np.ndarray]:
        """``src * n + dst`` per edge, ascending like the edges, or
        ``None`` when ``n * n`` overflows int64."""
        if self._n * self._n >= _KEY_LIMIT:
            return None
        return self._src * self._n + self._dst

    @classmethod
    def from_arrays(
        cls, num_nodes: int, sources: np.ndarray, targets: np.ndarray
    ) -> "DiGraph":
        """Build a graph from parallel source/target arrays (COO view)."""
        sources = np.asarray(sources, dtype=np.int64).ravel()
        targets = np.asarray(targets, dtype=np.int64).ravel()
        if sources.shape != targets.shape:
            raise GraphConstructionError(
                f"sources and targets differ in length: "
                f"{sources.size} vs {targets.size}"
            )
        graph = cls.__new__(cls)
        n = int(num_nodes)
        if n < 0:
            raise InvalidParameterError(f"num_nodes must be >= 0, got {num_nodes}")
        graph._n = n
        graph._init_from_arrays(sources.copy(), targets.copy())
        return graph

    @classmethod
    def from_adjacency(cls, matrix) -> "DiGraph":
        """Build a graph from a (sparse or dense) adjacency matrix.

        ``matrix[x, y] != 0`` is interpreted as the edge ``x -> y``.
        """
        coo = sparse.coo_matrix(matrix)
        if coo.shape[0] != coo.shape[1]:
            raise GraphConstructionError(
                f"adjacency matrix must be square, got shape {coo.shape}"
            )
        return cls.from_arrays(coo.shape[0], coo.row, coo.col)

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of nodes ``n``."""
        return self._n

    @property
    def num_edges(self) -> int:
        """Number of distinct directed edges ``m``."""
        return int(self._src.size)

    @property
    def density(self) -> float:
        """Average degree ``m / n`` (the paper's dataset-table column)."""
        return self.num_edges / self._n if self._n else 0.0

    @property
    def edge_sources(self) -> np.ndarray:
        """Read-only COO source array (do not mutate)."""
        return self._src

    @property
    def edge_targets(self) -> np.ndarray:
        """Read-only COO target array (do not mutate)."""
        return self._dst

    def __len__(self) -> int:
        return self._n

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DiGraph(n={self._n}, m={self.num_edges})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiGraph):
            return NotImplemented
        return (
            self._n == other._n
            and np.array_equal(self._src, other._src)
            and np.array_equal(self._dst, other._dst)
        )

    def __hash__(self) -> int:
        return hash((self._n, self._src.tobytes(), self._dst.tobytes()))

    # ------------------------------------------------------------------
    # matrix views
    # ------------------------------------------------------------------
    def adjacency(self, dtype=np.float64) -> sparse.csr_matrix:
        """Binary adjacency matrix ``A`` in CSR format, ``A[x, y] = 1`` iff ``x -> y``."""
        if self._csr is None or self._csr.dtype != np.dtype(dtype):
            data = np.ones(self.num_edges, dtype=dtype)
            self._csr = sparse.csr_matrix(
                (data, (self._src, self._dst)), shape=(self._n, self._n)
            )
        return self._csr

    def adjacency_csc(self, dtype=np.float64) -> sparse.csc_matrix:
        """Binary adjacency matrix in CSC format (fast column slicing)."""
        if self._csc is None or self._csc.dtype != np.dtype(dtype):
            self._csc = self.adjacency(dtype).tocsc()
        return self._csc

    # ------------------------------------------------------------------
    # degrees and neighbourhoods
    # ------------------------------------------------------------------
    def out_degrees(self) -> np.ndarray:
        """Out-degree of every node, as an ``int64`` array of length n."""
        return np.bincount(self._src, minlength=self._n).astype(np.int64)

    def in_degrees(self) -> np.ndarray:
        """In-degree of every node, as an ``int64`` array of length n."""
        return np.bincount(self._dst, minlength=self._n).astype(np.int64)

    def out_neighbors(self, node: int) -> np.ndarray:
        """Targets of edges leaving ``node`` (sorted, deduplicated)."""
        self._check_node(node)
        csr = self.adjacency()
        return csr.indices[csr.indptr[node] : csr.indptr[node + 1]].astype(np.int64)

    def in_neighbors(self, node: int) -> np.ndarray:
        """Sources of edges entering ``node`` (sorted, deduplicated)."""
        self._check_node(node)
        csc = self.adjacency_csc()
        return csc.indices[csc.indptr[node] : csc.indptr[node + 1]].astype(np.int64)

    def has_edge(self, source: int, target: int) -> bool:
        """Whether the directed edge ``source -> target`` exists."""
        self._check_node(source)
        self._check_node(target)
        row = self.out_neighbors(source)
        idx = np.searchsorted(row, target)
        return bool(idx < row.size and row[idx] == target)

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Iterate over ``(source, target)`` pairs in deterministic order."""
        for s, t in zip(self._src.tolist(), self._dst.tolist()):
            yield s, t

    def dangling_nodes(self) -> np.ndarray:
        """Nodes with in-degree zero.

        With a *column*-normalised transition matrix the zero columns are
        exactly these nodes; the transition builder documents how they
        are treated.
        """
        return np.flatnonzero(self.in_degrees() == 0).astype(np.int64)

    def _check_node(self, node: int) -> None:
        if not (0 <= int(node) < self._n):
            raise GraphConstructionError(
                f"node {node} out of range for graph with {self._n} nodes"
            )

    # ------------------------------------------------------------------
    # derived graphs
    # ------------------------------------------------------------------
    def reverse(self) -> "DiGraph":
        """The graph with every edge reversed."""
        return DiGraph.from_arrays(self._n, self._dst, self._src)

    def with_edges_added(self, edges: Sequence[Tuple[int, int]]) -> "DiGraph":
        """A new graph with ``edges`` added (duplicates coalesced).

        The current edges are sorted and unique, so the batch is merged
        in by ``src * n + dst`` key instead of re-sorting all ``m``.
        """
        if not edges:
            return self
        extra = _edge_pairs(edges)
        n = self._n
        old_keys = self._edge_keys()
        if old_keys is None:
            return DiGraph.from_arrays(
                n,
                np.concatenate([self._src, extra[:, 0]]),
                np.concatenate([self._dst, extra[:, 1]]),
            )
        _check_endpoints(n, extra[:, 0], extra[:, 1])
        new_keys = np.unique(extra[:, 0] * n + extra[:, 1])
        at, present = _locate(old_keys, new_keys)
        new_keys, at = new_keys[~present], at[~present]
        return DiGraph._from_sorted(
            n,
            np.insert(self._src, at, new_keys // n),
            np.insert(self._dst, at, new_keys % n),
        )

    def with_edges_removed(self, edges: Sequence[Tuple[int, int]]) -> "DiGraph":
        """A new graph with ``edges`` removed (missing edges are ignored)."""
        if not edges:
            return self
        drop = _edge_pairs(edges)
        n = self._n
        old_keys = self._edge_keys()
        if old_keys is None:
            dropped = {(int(s), int(t)) for s, t in drop}
            keep = np.fromiter(
                ((s, t) not in dropped for s, t in zip(self._src, self._dst)),
                dtype=bool,
                count=self.num_edges,
            )
        else:
            drop = drop[((drop >= 0) & (drop < n)).all(axis=1)]
            at, present = _locate(old_keys, drop[:, 0] * n + drop[:, 1])
            keep = np.ones(old_keys.size, dtype=bool)
            keep[at[present]] = False
        return DiGraph._from_sorted(n, self._src[keep], self._dst[keep])

    def subgraph(self, nodes: Sequence[int]) -> "DiGraph":
        """Induced subgraph on ``nodes``, relabelled to ``0..len(nodes)-1``.

        ``nodes`` must not contain duplicates; order defines the new ids.
        """
        nodes_arr = np.asarray(list(nodes), dtype=np.int64)
        if np.unique(nodes_arr).size != nodes_arr.size:
            raise InvalidParameterError("subgraph nodes must be unique")
        for node in nodes_arr:
            self._check_node(int(node))
        relabel = -np.ones(self._n, dtype=np.int64)
        relabel[nodes_arr] = np.arange(nodes_arr.size)
        mask = (relabel[self._src] >= 0) & (relabel[self._dst] >= 0)
        return DiGraph.from_arrays(
            nodes_arr.size, relabel[self._src[mask]], relabel[self._dst[mask]]
        )

    # ------------------------------------------------------------------
    # neighbour-list view (paper §4.1)
    # ------------------------------------------------------------------
    def to_neighbor_lists(self) -> Dict[int, List[int]]:
        """Adjacency-list view ``{x: [y1, y2, ...]}`` per the paper's COO grouping.

        Only nodes with at least one out-edge appear as keys.
        """
        lists: Dict[int, List[int]] = {}
        csr = self.adjacency()
        for x in range(self._n):
            row = csr.indices[csr.indptr[x] : csr.indptr[x + 1]]
            if row.size:
                lists[x] = row.astype(int).tolist()
        return lists
