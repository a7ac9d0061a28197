"""Common interface of every CoSimRank engine in this package.

CSR+ and all baselines implement the same two-phase contract the paper
evaluates:

* :meth:`SimilarityEngine.prepare` — the offline phase (anything that
  depends only on the graph);
* :meth:`SimilarityEngine.query` — the online multi-source phase,
  returning the ``n x |Q|`` block ``[S]_{*,Q}``.

Both phases are timed by the engine itself (``prepare_seconds``,
``last_query_seconds``) and charge their materialised arrays to a
shared :class:`~repro.core.memory.MemoryMeter`, so the experiment
harness treats every engine uniformly.

Every engine is also observable for free: :meth:`prepare` and
:meth:`query` emit ``prepare`` / ``query`` spans and per-engine latency
histograms through :mod:`repro.obs`, and subclasses mark their interior
stages with :meth:`SimilarityEngine._stage` to appear in the same span
tree (``prepare.svd``, ``prepare.stein``, ...).
"""

from __future__ import annotations

import logging
import time
from abc import ABC, abstractmethod
from contextlib import contextmanager
from typing import Optional

import numpy as np
from scipy import sparse

import repro.obs as obs
from repro.core.kernel import QueryLike, normalize_queries
from repro.core.memory import MemoryMeter, publish_peak, sparse_nbytes
from repro.errors import (
    InvalidParameterError,
    NotPreparedError,
    QueryError,
    TimeBudgetExceeded,
)
from repro.graphs.digraph import DiGraph
from repro.graphs.transition import transition_matrix

__all__ = ["SimilarityEngine", "normalize_queries"]

logger = logging.getLogger("repro.engines")


class SimilarityEngine(ABC):
    """Abstract two-phase CoSimRank engine.

    Parameters
    ----------
    graph:
        The directed graph to index.
    damping:
        CoSimRank damping factor ``c``.
    memory_budget_bytes:
        Optional hard budget for the engine's :class:`MemoryMeter`.
    dangling:
        Dangling-column policy for the transition matrix.
    """

    #: Short display name, set by subclasses (e.g. ``"CSR+"``).
    name: str = "engine"

    def __init__(
        self,
        graph: DiGraph,
        damping: float = 0.6,
        memory_budget_bytes: Optional[int] = None,
        dangling: str = "zero",
    ):
        if not (0.0 < damping < 1.0):
            raise InvalidParameterError(f"damping must be in (0, 1), got {damping}")
        self.graph = graph
        self.damping = float(damping)
        self.memory = MemoryMeter(memory_budget_bytes)
        self._dangling = dangling
        self._transition: Optional[sparse.csr_matrix] = None
        self._prepared = False
        self.prepare_seconds: float = 0.0
        self.last_query_seconds: float = 0.0
        #: Optional cooperative deadline per phase; engines with long
        #: loops poll :meth:`check_time_budget` between iterations.
        self.time_budget_seconds: Optional[float] = None
        self._phase_started_at: float = 0.0
        self._phase_name: str = ""

    # ------------------------------------------------------------------
    # shared infrastructure
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return self.graph.num_nodes

    @property
    def is_prepared(self) -> bool:
        return self._prepared

    def transition(self) -> sparse.csr_matrix:
        """The column-normalised transition matrix ``Q`` (cached)."""
        if self._transition is None:
            self._transition = transition_matrix(self.graph, dangling=self._dangling)
            self.memory.charge("precompute/Q", sparse_nbytes(self._transition))
        return self._transition

    def prepare(self) -> "SimilarityEngine":
        """Run the offline phase (idempotent).  Returns ``self``."""
        if self._prepared:
            return self
        start = time.perf_counter()
        self._phase_started_at = start
        self._phase_name = "prepare"
        with obs.span(
            "prepare", engine=self.name, n=self.num_nodes,
            m=self.graph.num_edges,
        ):
            self._prepare_impl()
        self.prepare_seconds = time.perf_counter() - start
        if obs.enabled():
            # prepare runs minutes at bench scale; the request-latency
            # buckets top out at 10s and would park every observation
            # in +Inf, degenerating any quantile estimate
            obs.get_registry().histogram(
                "csrplus_prepare_seconds",
                "Offline (prepare) phase wall time per engine",
                labels={"engine": self.name},
                buckets=obs.DEFAULT_PREPARE_BUCKETS,
            ).observe(self.prepare_seconds)
            publish_peak(self.memory, self.name)
        self._prepared = True
        logger.debug(
            "%s prepared: n=%d m=%d in %.4fs (peak %.1f MB accounted)",
            self.name,
            self.num_nodes,
            self.graph.num_edges,
            self.prepare_seconds,
            self.memory.peak_bytes / 1e6,
        )
        return self

    def check_time_budget(self) -> None:
        """Raise :class:`TimeBudgetExceeded` if the phase deadline passed.

        A no-op when ``time_budget_seconds`` is ``None``.  Long-running
        engines poll this between loop iterations so the experiment
        harness can bound runaway baselines cooperatively.
        """
        if self.time_budget_seconds is None:
            return
        elapsed = time.perf_counter() - self._phase_started_at
        if elapsed > self.time_budget_seconds:
            raise TimeBudgetExceeded(
                elapsed, self.time_budget_seconds, what=self._phase_name
            )

    @contextmanager
    def _stage(self, stage: str, **attributes):
        """Span + cumulative metric for one named stage of the current phase.

        Subclasses wrap their expensive blocks (``with
        self._stage("svd"): ...``) and inherit a uniform span taxonomy
        (``prepare.svd``, ``query.gather``, ...) plus a per-stage
        ``csrplus_stage_seconds_total`` counter labelled by engine,
        phase, and stage.  No-op cost only when instrumentation is
        disabled (see :mod:`repro.obs.config`).
        """
        phase = self._phase_name or "prepare"
        with obs.span(f"{phase}.{stage}", engine=self.name, **attributes) as sp:
            yield sp
        if obs.enabled():
            obs.get_registry().counter(
                "csrplus_stage_seconds_total",
                "Cumulative wall time per engine phase stage",
                labels={"engine": self.name, "phase": phase, "stage": stage},
            ).inc(sp.wall_seconds)

    def query(self, queries: QueryLike) -> np.ndarray:
        """Multi-source CoSimRank block ``[S]_{*,Q}`` as an ``n x |Q|`` array.

        Column ``j`` holds the similarities of every node to
        ``queries[j]``.  Calls :meth:`prepare` automatically if needed.
        """
        self.prepare()
        query_ids = normalize_queries(queries, self.num_nodes)
        start = time.perf_counter()
        self._phase_started_at = start
        self._phase_name = "query"
        with obs.span("query", engine=self.name, num_queries=int(query_ids.size)):
            result = self._query_impl(query_ids)
        self.last_query_seconds = time.perf_counter() - start
        if obs.enabled():
            obs.get_registry().histogram(
                "csrplus_query_seconds",
                "Online (query) phase wall time per engine",
                labels={"engine": self.name},
            ).observe(self.last_query_seconds)
        logger.debug(
            "%s query: |Q|=%d in %.4fs", self.name, query_ids.size,
            self.last_query_seconds,
        )
        return result

    # ------------------------------------------------------------------
    # convenience entry points (the paper's "extreme cases", §3.2)
    # ------------------------------------------------------------------
    def single_source(self, query: int) -> np.ndarray:
        """``[S]_{*,q}`` as a length-``n`` vector."""
        return self.query(int(query))[:, 0]

    def single_pair(self, a: int, b: int) -> float:
        """``[S]_{a,b}``."""
        column = self.single_source(b)
        a = int(a)
        if not (0 <= a < self.num_nodes):
            raise QueryError(f"node {a} out of range")
        return float(column[a])

    def all_pairs(self) -> np.ndarray:
        """Dense ``n x n`` similarity matrix (``Q = V`` extreme case)."""
        return self.query(np.arange(self.num_nodes, dtype=np.int64))

    def top_k(self, query: int, k: int, exclude_self: bool = True) -> np.ndarray:
        """Ids of the ``k`` nodes most similar to ``query`` (descending).

        Ties are broken by ascending node id for determinism.
        """
        if k < 1:
            raise InvalidParameterError(f"k must be >= 1, got {k}")
        scores = self.single_source(query)
        # argsort on (-score, id) gives deterministic tie-breaking.
        order = np.lexsort((np.arange(scores.size), -scores))
        if exclude_self:
            order = order[order != int(query)]
        return order[: min(k, order.size)].astype(np.int64)

    # ------------------------------------------------------------------
    # subclass responsibilities
    # ------------------------------------------------------------------
    @abstractmethod
    def _prepare_impl(self) -> None:
        """Offline phase; charge large arrays to ``self.memory``."""

    @abstractmethod
    def _query_impl(self, query_ids: np.ndarray) -> np.ndarray:
        """Online phase for validated query ids; return ``n x |Q|``."""

    def _require_prepared(self) -> None:
        if not self._prepared:
            raise NotPreparedError(
                f"{self.name}: query issued before prepare() — call prepare() first"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "prepared" if self._prepared else "unprepared"
        return f"{type(self).__name__}(n={self.num_nodes}, c={self.damping}, {state})"
