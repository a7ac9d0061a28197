"""RP-CoSim — Yang's random-projection estimator [9].

The estimator replaces each inner product ``<p_a^(k), p_b^(k)>`` in the
CoSimRank series with its Johnson–Lindenstrauss sketch: draw a Gaussian
matrix ``R`` of shape ``d x n`` (``d`` = number of projections), iterate
``Y_0 = R``, ``Y_{k+1} = Y_k Q`` so that ``Y_k = R Q^k``, and estimate

    S_hat = sum_{k=0}^{K} c^k Y_k^T Y_k / d,       E[S_hat] = S_K.

Two query modes:

* ``mode="all-pairs"`` (the published method) materialises the dense
  ``n x n`` estimate during preprocessing — the ``O(n^2)`` memory the
  paper says "seriously limits its scalability";
* ``mode="multi-source"`` keeps only the sketches and assembles the
  requested ``n x |Q|`` block online, as a fairer contender for the
  Table-1 scaling study.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.core.base import SimilarityEngine
from repro.core.iterations import baseline_iterations_for_rank
from repro.errors import InvalidParameterError
from repro.graphs.digraph import DiGraph

__all__ = ["RPCoSimEngine"]

_MODES = ("all-pairs", "multi-source")
_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


class RPCoSimEngine(SimilarityEngine):
    """Gaussian random-projection CoSimRank estimator (unbiased)."""

    name = "RP-CoSim"

    def __init__(
        self,
        graph: DiGraph,
        damping: float = 0.6,
        iterations: int = 5,
        num_projections: int = 256,
        mode: str = "all-pairs",
        seed: int = 0,
        memory_budget_bytes: Optional[int] = None,
        dangling: str = "zero",
        dtype: "np.typing.DTypeLike" = np.float64,
    ):
        super().__init__(graph, damping, memory_budget_bytes, dangling)
        if iterations < 1:
            raise InvalidParameterError(f"iterations must be >= 1, got {iterations}")
        if num_projections < 1:
            raise InvalidParameterError(
                f"num_projections must be >= 1, got {num_projections}"
            )
        if mode not in _MODES:
            raise InvalidParameterError(f"mode must be one of {_MODES}, got {mode!r}")
        requested = np.dtype(dtype)
        if requested not in _DTYPES:
            raise InvalidParameterError(
                f"dtype must be float32 or float64, got {requested}"
            )
        self.iterations = int(iterations)
        self.num_projections = int(num_projections)
        self.mode = mode
        self.seed = seed
        self.dtype = requested
        self._sketches: List[np.ndarray] = []
        self._s_hat: Optional[np.ndarray] = None

    @classmethod
    def for_rank(cls, graph: DiGraph, rank: int, **kwargs) -> "RPCoSimEngine":
        """Instance following the paper's fairness rule ``K = r``."""
        return cls(graph, iterations=baseline_iterations_for_rank(rank), **kwargs)

    # ------------------------------------------------------------------
    def _prepare_impl(self) -> None:
        n = self.num_nodes
        d = self.num_projections
        q_matrix = self.transition()

        # Iterate in float64 for stability, then store each retained
        # sketch in the requested dtype (the same cast-on-store policy
        # as CSRPlusIndex factors), C-contiguous.
        rng = np.random.default_rng(self.seed)
        sketch = rng.standard_normal((d, n)) / np.sqrt(d)
        sketches = [np.ascontiguousarray(sketch, dtype=self.dtype)]
        for _ in range(self.iterations):
            sketch = sketch @ q_matrix  # Y_{k+1} = Y_k Q (dense @ sparse)
            sketches.append(np.ascontiguousarray(sketch, dtype=self.dtype))
        self._sketches = sketches
        self.memory.charge(
            "precompute/sketches", sum(y.nbytes for y in sketches)
        )

        if self.mode == "all-pairs":
            self.memory.require("precompute/S_hat", n * n * self.dtype.itemsize)
            s_hat = np.zeros((n, n), dtype=self.dtype)
            c_power = 1.0
            for y_k in sketches:
                s_hat += c_power * (y_k.T @ y_k)
                c_power *= self.damping
            self._s_hat = s_hat
            self.memory.charge("precompute/S_hat", s_hat.nbytes)

    # ------------------------------------------------------------------
    def _query_impl(self, query_ids: np.ndarray) -> np.ndarray:
        n = self.num_nodes
        self.memory.require("query/S", n * query_ids.size * self.dtype.itemsize)
        if self.mode == "all-pairs":
            result = self._s_hat[:, query_ids].copy()
        else:
            result = np.zeros((n, query_ids.size), dtype=self.dtype)
            c_power = 1.0
            for y_k in self._sketches:
                result += c_power * (y_k.T @ y_k[:, query_ids])
                c_power *= self.damping
        self.memory.charge("query/S", result.nbytes)
        return result

    # ------------------------------------------------------------------
    def standard_error_bound(self) -> float:
        """Crude ``O(1/sqrt(d))`` scale of the estimator's noise.

        Each sketched inner product has standard deviation
        ``<= ||p_a|| ||p_b|| * sqrt(2/d)``; with column-substochastic
        ``Q`` the PPR norms are at most 1, and summing the series gives
        the bound ``sqrt(2/d) / (1 - c)``.
        """
        return float(np.sqrt(2.0 / self.num_projections) / (1.0 - self.damping))
