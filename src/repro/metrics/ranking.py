"""Ranking-quality metrics.

CoSimRank's applications (categorisation, synonym expansion, link
prediction) consume *rankings*, not raw scores, so the application
examples and tests judge approximate engines by how well they preserve
the exact engine's ordering.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import InvalidParameterError

__all__ = ["precision_at_k", "ndcg_at_k", "kendall_tau", "rank_of"]


def _validate_k(k: int) -> int:
    if k < 1:
        raise InvalidParameterError(f"k must be >= 1, got {k}")
    return int(k)


def precision_at_k(
    predicted: Sequence[int], relevant: Sequence[int], k: int
) -> float:
    """Fraction of the top-``k`` slots filled with relevant items.

    The denominator is ``k``, not the number of predictions actually
    supplied: a ranker that returns fewer than ``k`` items left slots
    empty, and empty slots are misses.  (Dividing by ``len(predicted)``
    would score the 1-item list ``[hit]`` a perfect 1.0 at any ``k`` —
    truncated predictions would *inflate* precision.)
    """
    k = _validate_k(k)
    top = list(predicted)[:k]
    relevant_set = set(int(x) for x in relevant)
    hits = sum(1 for item in top if int(item) in relevant_set)
    return hits / k


def ndcg_at_k(predicted: Sequence[int], relevant: Sequence[int], k: int) -> float:
    """Binary-relevance NDCG@k."""
    k = _validate_k(k)
    top = list(predicted)[:k]
    relevant_set = set(int(x) for x in relevant)
    gains = np.array([1.0 if int(item) in relevant_set else 0.0 for item in top])
    if gains.size == 0:
        return 0.0
    discounts = 1.0 / np.log2(np.arange(2, gains.size + 2))
    dcg = float(np.dot(gains, discounts))
    ideal_hits = min(len(relevant_set), gains.size)
    if ideal_hits == 0:
        return 0.0
    ideal = float(discounts[:ideal_hits].sum())
    return dcg / ideal


def kendall_tau(scores_a: np.ndarray, scores_b: np.ndarray) -> float:
    """Kendall's tau-b between two score vectors (1 = same ordering)."""
    # scipy.stats alone costs ~0.4 s to import; only this metric needs it
    from scipy import stats

    scores_a = np.asarray(scores_a, dtype=np.float64).ravel()
    scores_b = np.asarray(scores_b, dtype=np.float64).ravel()
    if scores_a.shape != scores_b.shape:
        raise InvalidParameterError(
            f"shape mismatch: {scores_a.shape} vs {scores_b.shape}"
        )
    if scores_a.size < 2:
        raise InvalidParameterError("need at least 2 scores for kendall_tau")
    tau, _ = stats.kendalltau(scores_a, scores_b)
    return float(tau) if np.isfinite(tau) else 0.0


def rank_of(scores: np.ndarray, node: int) -> int:
    """0-based rank of ``node`` when sorting ``scores`` descending.

    Ties broken by ascending node id (matching ``SimilarityEngine.top_k``).
    """
    scores = np.asarray(scores, dtype=np.float64).ravel()
    if not (0 <= node < scores.size):
        raise InvalidParameterError(
            f"node {node} out of range for {scores.size} scores"
        )
    order = np.lexsort((np.arange(scores.size), -scores))
    return int(np.flatnonzero(order == node)[0])
