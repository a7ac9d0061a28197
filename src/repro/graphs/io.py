"""Edge-list input/output.

Readers accept the SNAP plain-text convention the paper's datasets use:
one ``source target`` pair per line, ``#``-prefixed comment lines, blank
lines ignored, arbitrary (possibly non-contiguous) integer or string
node labels.  Labels are mapped to dense ids ``0..n-1`` in first-seen
order and the mapping is returned alongside the graph.
"""

from __future__ import annotations

import io
import numbers
import os
from collections.abc import Mapping
from typing import Dict, Iterable, List, Optional, Sequence, TextIO, Tuple, Union

import numpy as np

from repro.errors import GraphFormatError
from repro.graphs.digraph import DiGraph

__all__ = [
    "IdentityMapping",
    "read_edge_list",
    "parse_edge_list",
    "write_edge_list",
    "graph_from_labeled_edges",
    "read_weighted_edge_list",
    "write_weighted_edge_list",
]

PathOrFile = Union[str, "os.PathLike[str]", TextIO]

#: Labels read with ``relabel=False`` must fit the int64 edge arrays.
_MAX_LABEL = np.iinfo(np.int64).max


class IdentityMapping(Mapping):
    """The ``i -> i`` mapping on ``range(num_nodes)``, in O(1) memory.

    What the readers return when labels already are node ids: a sparse
    id space such as a lone label ``80220059`` must not cost a dict
    entry per id.
    """

    __slots__ = ("_ids",)

    def __init__(self, num_nodes: int):
        self._ids = range(int(num_nodes))

    def __getitem__(self, label):
        if isinstance(label, numbers.Integral) and int(label) in self._ids:
            return int(label)
        raise KeyError(label)

    def __iter__(self):
        return iter(self._ids)

    def __len__(self) -> int:
        return len(self._ids)

    def __repr__(self) -> str:
        return f"IdentityMapping({len(self._ids)})"


def _open_maybe(path_or_file: PathOrFile):
    """Return ``(file_object, should_close)`` for a path or open file."""
    if hasattr(path_or_file, "read"):
        return path_or_file, False
    return open(os.fspath(path_or_file), "r", encoding="utf-8"), True


def graph_from_labeled_edges(
    edges: Iterable[Tuple[object, object]],
    num_nodes: Optional[int] = None,
) -> Tuple[DiGraph, Mapping]:
    """Build a :class:`DiGraph` from edges over arbitrary hashable labels.

    Returns the graph and the ``label -> dense id`` mapping.  If
    ``num_nodes`` is given, labels must be integers in ``[0, num_nodes)``
    and are used directly (the mapping is then the
    :class:`IdentityMapping` on ``range(num_nodes)``).
    """
    if num_nodes is not None:
        pairs = [(int(s), int(t)) for s, t in edges]
        return DiGraph(num_nodes, pairs), IdentityMapping(num_nodes)

    mapping: Dict[object, int] = {}
    sources: List[int] = []
    targets: List[int] = []
    for s, t in edges:
        for label in (s, t):
            if label not in mapping:
                mapping[label] = len(mapping)
        sources.append(mapping[s])
        targets.append(mapping[t])
    graph = DiGraph.from_arrays(
        len(mapping),
        np.asarray(sources, dtype=np.int64),
        np.asarray(targets, dtype=np.int64),
    )
    return graph, mapping


def parse_edge_list(
    text: str,
    comment: str = "#",
    relabel: bool = True,
) -> Tuple[DiGraph, Mapping]:
    """Parse an edge list from a string.  See :func:`read_edge_list`."""
    return read_edge_list(io.StringIO(text), comment=comment, relabel=relabel)


def read_edge_list(
    path_or_file: PathOrFile,
    comment: str = "#",
    relabel: bool = True,
) -> Tuple[DiGraph, Mapping]:
    """Read a SNAP-style directed edge list.

    Parameters
    ----------
    path_or_file:
        A filesystem path or an open text file.
    comment:
        Lines starting with this prefix are skipped.
    relabel:
        When ``True`` (default), node labels may be arbitrary tokens and
        are densified in first-seen order.  When ``False``, labels must
        already be dense integers ``0..n-1`` with ``n`` inferred as
        ``max label + 1``; a label that does not fit int64 raises
        :class:`~repro.errors.GraphFormatError`.

    Returns
    -------
    (graph, mapping):
        The graph and the ``label -> id`` mapping (an
        :class:`IdentityMapping` when ``relabel`` is ``False``).
    """
    handle, should_close = _open_maybe(path_or_file)
    try:
        raw_edges: List[Tuple[str, str]] = []
        for lineno, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith(comment):
                continue
            parts = stripped.split()
            if len(parts) < 2:
                raise GraphFormatError(
                    f"line {lineno}: expected 'source target', got {stripped!r}"
                )
            raw_edges.append((parts[0], parts[1]))
    finally:
        if should_close:
            handle.close()

    if relabel:
        return graph_from_labeled_edges(raw_edges)

    try:
        int_edges = [(int(s), int(t)) for s, t in raw_edges]
    except ValueError as exc:
        raise GraphFormatError(f"non-integer node label with relabel=False: {exc}")
    num_nodes = 1 + max((max(s, t) for s, t in int_edges), default=-1)
    if num_nodes - 1 > _MAX_LABEL:
        raise GraphFormatError(
            f"node label {num_nodes - 1} does not fit int64 "
            "(use relabel=True for arbitrary labels)"
        )
    return DiGraph(num_nodes, int_edges), IdentityMapping(num_nodes)


def read_weighted_edge_list(
    path_or_file: PathOrFile,
    comment: str = "#",
    default_weight: float = 1.0,
) -> Tuple["WeightedDiGraph", Dict[object, int]]:
    """Read a ``source target [weight]`` edge list into a weighted graph.

    The third column is optional per line; missing weights default to
    ``default_weight``.  Labels are densified in first-seen order, as
    in :func:`read_edge_list`.
    """
    from repro.graphs.weighted import WeightedDiGraph

    handle, should_close = _open_maybe(path_or_file)
    try:
        raw: List[Tuple[str, str, float]] = []
        for lineno, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith(comment):
                continue
            parts = stripped.split()
            if len(parts) < 2:
                raise GraphFormatError(
                    f"line {lineno}: expected 'source target [weight]', "
                    f"got {stripped!r}"
                )
            if len(parts) >= 3:
                try:
                    weight = float(parts[2])
                except ValueError:
                    raise GraphFormatError(
                        f"line {lineno}: non-numeric weight {parts[2]!r}"
                    ) from None
            else:
                weight = default_weight
            raw.append((parts[0], parts[1], weight))
    finally:
        if should_close:
            handle.close()

    mapping: Dict[object, int] = {}
    triples: List[Tuple[int, int, float]] = []
    for s, t, w in raw:
        for label in (s, t):
            if label not in mapping:
                mapping[label] = len(mapping)
        triples.append((mapping[s], mapping[t], w))
    return WeightedDiGraph(len(mapping), triples), mapping


def write_weighted_edge_list(
    graph,
    path_or_file: PathOrFile,
    header: bool = True,
) -> None:
    """Write a :class:`WeightedDiGraph` as ``source target weight`` lines."""
    if hasattr(path_or_file, "write"):
        handle, should_close = path_or_file, False
    else:
        handle, should_close = open(os.fspath(path_or_file), "w", encoding="utf-8"), True
    try:
        if header:
            handle.write(
                f"# nodes: {graph.num_nodes} edges: {graph.num_edges} weighted\n"
            )
        for (s, t), w in zip(graph.edges(), graph.edge_weights):
            handle.write(f"{s}\t{t}\t{float(w)!r}\n")
    finally:
        if should_close:
            handle.close()


def write_edge_list(
    graph: DiGraph,
    path_or_file: PathOrFile,
    header: bool = True,
) -> None:
    """Write a graph as a SNAP-style edge list.

    With ``header=True`` a comment line recording ``n`` and ``m`` is
    emitted first, so round-tripping preserves isolated trailing nodes
    is *not* guaranteed — edge lists cannot represent isolated nodes,
    matching SNAP semantics.
    """
    if hasattr(path_or_file, "write"):
        handle, should_close = path_or_file, False
    else:
        handle, should_close = open(os.fspath(path_or_file), "w", encoding="utf-8"), True
    try:
        if header:
            handle.write(f"# nodes: {graph.num_nodes} edges: {graph.num_edges}\n")
        for s, t in graph.edges():
            handle.write(f"{s}\t{t}\n")
    finally:
        if should_close:
            handle.close()
