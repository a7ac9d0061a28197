"""Datasets: the paper's SNAP catalogue, synthetic stand-ins, toy graphs."""

from repro._lazy import lazy_exports as _lazy_exports

__getattr__, __dir__ = _lazy_exports(__name__, {
    ".queries": ["sample_queries"],
    ".registry": [
        "PAPER_DATASETS",
        "DatasetSpec",
        "dataset_keys",
        "load_dataset",
        "paper_table",
    ],
    ".synthetic": ["make_standin"],
    ".toy": [
        "EXAMPLE_3_6_DAMPING",
        "EXAMPLE_3_6_RANK",
        "FIGURE1_LABELS",
        "FIGURE1_NODES",
        "example_3_6_expected",
        "example_3_6_queries",
        "figure1_graph",
        "figure1_node_ids",
    ],
})

__all__ = [
    "DatasetSpec",
    "PAPER_DATASETS",
    "dataset_keys",
    "load_dataset",
    "paper_table",
    "make_standin",
    "sample_queries",
    "figure1_graph",
    "figure1_node_ids",
    "example_3_6_queries",
    "example_3_6_expected",
    "FIGURE1_NODES",
    "FIGURE1_LABELS",
    "EXAMPLE_3_6_RANK",
    "EXAMPLE_3_6_DAMPING",
]
