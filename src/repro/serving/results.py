"""Per-request outcome types for degraded batch serving.

Theorem 3.5 makes every output column a function of its own seed, so a
batch has no shared fate: when one seed's computation fails or a
deadline cancels part of the work, the unaffected requests can still be
answered bit-exactly.  :class:`BatchResult` is the honest shape of that
fact — one :class:`RequestOutcome` per request, each either a result
block or a typed :class:`~repro.errors.ReproError`.

``CoSimRankService.serve_batch`` keeps its all-or-raise list-of-arrays
contract by default and derives it from this type; callers that want
graceful degradation use ``serve_batch_detailed`` (or
``serve_batch(..., partial=True)``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ReproError

__all__ = ["RequestOutcome", "BatchResult"]


@dataclass
class RequestOutcome:
    """The fate of one request in a batch: a block or a typed error.

    ``request_id`` is the correlation handle minted by the service
    (``batch-<seq>.<index>``): the same id appears on the batch span's
    ``request_ids`` attribute and in the slow-query JSON log line, so a
    slow or failed request can be joined across trace, log, and outcome
    (docs/observability.md).

    ``tier`` records which serving tier produced the outcome:
    ``"exact"`` for the CSR+ index path (bit-exact under Theorem 3.5),
    ``"approx"`` for the rank-truncated replica — including requests
    that a ``quality="auto"`` batch downgraded instead of shedding.
    Approx answers stay within the replica's published ``approx_atol``
    of the exact answer, entry by entry, and are never cached into the
    exact caches (docs/approx.md).
    """

    result: Optional[np.ndarray] = None
    error: Optional[ReproError] = None
    request_id: Optional[str] = None
    tier: str = "exact"

    @property
    def ok(self) -> bool:
        return self.error is None

    def unwrap(self) -> np.ndarray:
        """The result block, raising the typed error for failures."""
        if self.error is not None:
            raise self.error
        assert self.result is not None
        return self.result


@dataclass
class BatchResult:
    """Everything one ``serve_batch_detailed`` call produced.

    Attributes
    ----------
    outcomes:
        One :class:`RequestOutcome` per input request, in order.
    retries:
        Per-seed isolation retries attempted after chunk failures.
    failed_seeds:
        Seeds that could not be computed, with their typed errors.
    cancelled_seeds:
        Seeds never started because the deadline passed.
    """

    outcomes: List[RequestOutcome] = field(default_factory=list)
    retries: int = 0
    failed_seeds: Dict[int, ReproError] = field(default_factory=dict)
    cancelled_seeds: Tuple[int, ...] = ()
    #: Correlation id of the whole batch; each outcome's ``request_id``
    #: is ``<batch_id>.<index>``.
    batch_id: Optional[str] = None

    @property
    def ok(self) -> bool:
        return all(outcome.ok for outcome in self.outcomes)

    @property
    def num_failed(self) -> int:
        return sum(1 for outcome in self.outcomes if not outcome.ok)

    def results(self) -> List[np.ndarray]:
        """All result blocks; raises the first typed error if any failed."""
        return [outcome.unwrap() for outcome in self.outcomes]

    def partial_results(self) -> List[Optional[np.ndarray]]:
        """Result blocks with ``None`` holes where requests failed."""
        return [outcome.result if outcome.ok else None for outcome in self.outcomes]

    def errors(self) -> List[Optional[ReproError]]:
        """Per-request errors (``None`` for successes), in request order."""
        return [outcome.error for outcome in self.outcomes]
