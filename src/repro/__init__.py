"""cosimrank-csrplus — reproduction of CSR+ (EDBT 2024).

Fast multi-source CoSimRank search on large directed graphs via
low-rank SVD, plus every baseline the paper evaluates against and a
harness that regenerates each figure/table of its evaluation.

Quickstart
----------
>>> from repro import CSRPlusIndex
>>> from repro.graphs import chung_lu
>>> graph = chung_lu(2000, 10_000, seed=7)
>>> index = CSRPlusIndex(graph, rank=5).prepare()
>>> similarities = index.query([3, 14, 159])    # n x 3 block of [S]_{*,Q}
"""

import logging as _logging

# Library-logging hygiene: every logger in this package ("repro.engines",
# "repro.experiments", "repro.serving", ...) is a child of "repro", so a
# single NullHandler here guarantees importing the library never emits
# handler warnings or stray stderr output.  Applications opt in with
# logging.basicConfig() or a handler on "repro".
_logging.getLogger("repro").addHandler(_logging.NullHandler())

from repro._lazy import lazy_exports as _lazy_exports

__getattr__, __dir__ = _lazy_exports(__name__, {
    ".core": [
        "CSRPlusConfig",
        "CSRPlusIndex",
        "DynamicCSRPlus",
        "SimilarityEngine",
        "cosimrank_all_pairs",
        "cosimrank_multi_source",
        "cosimrank_single_pair",
        "cosimrank_single_source",
        "cosimrank_top_k",
        "suggest_rank",
    ],
    ".errors": [
        "ConvergenceError",
        "DatasetError",
        "DecompositionError",
        "ExperimentError",
        "GraphConstructionError",
        "GraphFormatError",
        "InvalidParameterError",
        "MemoryBudgetExceeded",
        "NotPreparedError",
        "QueryError",
        "ReproError",
    ],
    ".graphs": ["DiGraph", "WeightedDiGraph"],
    ".serving": ["CoSimRankService", "IndexRegistry", "ServingStats"],
})

__version__ = "1.0.0"

__all__ = [
    "CSRPlusIndex",
    "CSRPlusConfig",
    "DynamicCSRPlus",
    "SimilarityEngine",
    "DiGraph",
    "WeightedDiGraph",
    "suggest_rank",
    "cosimrank_multi_source",
    "cosimrank_single_source",
    "cosimrank_single_pair",
    "cosimrank_all_pairs",
    "cosimrank_top_k",
    "CoSimRankService",
    "IndexRegistry",
    "ServingStats",
    "ReproError",
    "GraphFormatError",
    "GraphConstructionError",
    "InvalidParameterError",
    "QueryError",
    "NotPreparedError",
    "ConvergenceError",
    "DecompositionError",
    "MemoryBudgetExceeded",
    "DatasetError",
    "ExperimentError",
    "__version__",
]
