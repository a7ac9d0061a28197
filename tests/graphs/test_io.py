"""Unit tests for edge-list IO."""

import io
import tracemalloc

import pytest

from repro.errors import GraphFormatError
from repro.graphs.digraph import DiGraph
from repro.graphs.io import (
    graph_from_labeled_edges,
    parse_edge_list,
    read_edge_list,
    write_edge_list,
)


class TestParse:
    def test_basic(self):
        graph, mapping = parse_edge_list("0 1\n1 2\n")
        assert graph.num_nodes == 3
        assert graph.num_edges == 2

    def test_comments_and_blanks_skipped(self):
        text = "# SNAP header\n\n0\t1\n# another comment\n1\t2\n\n"
        graph, _ = parse_edge_list(text)
        assert graph.num_edges == 2

    def test_string_labels_relabelled(self):
        graph, mapping = parse_edge_list("alice bob\nbob carol\n")
        assert graph.num_nodes == 3
        assert mapping["alice"] == 0
        assert mapping["bob"] == 1
        assert graph.has_edge(mapping["bob"], mapping["carol"])

    def test_non_contiguous_integer_labels_relabelled(self):
        graph, mapping = parse_edge_list("10 500\n500 9999\n")
        assert graph.num_nodes == 3
        assert mapping["10"] == 0

    def test_relabel_false_uses_raw_ids(self):
        graph, mapping = parse_edge_list("0 5\n", relabel=False)
        assert graph.num_nodes == 6
        assert graph.has_edge(0, 5)
        assert mapping[3] == 3

    def test_relabel_false_sparse_labels_map_lazily(self):
        """A lone large label must not cost a dict entry per id."""
        tracemalloc.start()
        try:
            graph, mapping = parse_edge_list("3 80220059\n", relabel=False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        assert graph.num_nodes == len(mapping) == 80_220_060
        assert mapping[80_220_059] == 80_220_059
        assert 80_220_060 not in mapping and -1 not in mapping
        assert list(parse_edge_list("0 2\n", relabel=False)[1].items()) == [
            (0, 0), (1, 1), (2, 2)
        ]

    @pytest.mark.parametrize(
        "label", ["9223372036854775808", "123456789012345678901234"]
    )
    def test_relabel_false_rejects_labels_beyond_int64(self, label):
        with pytest.raises(GraphFormatError, match="int64"):
            parse_edge_list(f"1 {label}\n", relabel=False)

    def test_relabel_false_rejects_strings(self):
        with pytest.raises(GraphFormatError):
            parse_edge_list("a b\n", relabel=False)

    def test_malformed_line(self):
        with pytest.raises(GraphFormatError) as err:
            parse_edge_list("0 1\nonly_one_token\n")
        assert "line 2" in str(err.value)

    def test_extra_columns_ignored(self):
        graph, _ = parse_edge_list("0 1 1.5 timestamp\n")
        assert graph.num_edges == 1

    def test_empty_input(self):
        graph, mapping = parse_edge_list("")
        assert graph.num_nodes == 0
        assert mapping == {}

    def test_custom_comment_prefix(self):
        graph, _ = parse_edge_list("% note\n0 1\n", comment="%")
        assert graph.num_edges == 1


class TestRoundTrip:
    def test_file_round_trip(self, tmp_path, small_er):
        path = tmp_path / "edges.txt"
        write_edge_list(small_er, path)
        loaded, _ = read_edge_list(path, relabel=False)
        # Edge lists cannot encode trailing isolated nodes, so compare
        # against the original restricted to the max referenced id.
        assert list(loaded.edges()) == list(small_er.edges())

    def test_stream_round_trip(self):
        graph = DiGraph(4, [(0, 1), (2, 3), (3, 0)])
        buffer = io.StringIO()
        write_edge_list(graph, buffer)
        buffer.seek(0)
        loaded, _ = read_edge_list(buffer, relabel=False)
        assert loaded == graph

    def test_header_written(self):
        buffer = io.StringIO()
        write_edge_list(DiGraph(2, [(0, 1)]), buffer, header=True)
        assert buffer.getvalue().startswith("# nodes: 2 edges: 1\n")

    def test_no_header(self):
        buffer = io.StringIO()
        write_edge_list(DiGraph(2, [(0, 1)]), buffer, header=False)
        assert buffer.getvalue() == "0\t1\n"


class TestLabeledEdges:
    def test_mapping_first_seen_order(self):
        graph, mapping = graph_from_labeled_edges([("x", "y"), ("z", "x")])
        assert mapping == {"x": 0, "y": 1, "z": 2}
        assert graph.has_edge(2, 0)

    def test_with_num_nodes(self):
        graph, mapping = graph_from_labeled_edges([(0, 2)], num_nodes=5)
        assert graph.num_nodes == 5
        assert mapping[4] == 4

    def test_duplicate_labels_single_node(self):
        graph, mapping = graph_from_labeled_edges([("a", "b"), ("a", "b")])
        assert graph.num_nodes == 2
        assert graph.num_edges == 1
