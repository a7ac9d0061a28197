"""Configuration for CSR+ and the other CoSimRank engines."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.errors import InvalidParameterError

__all__ = [
    "CSRPlusConfig",
    "DEFAULT_DAMPING",
    "DEFAULT_RANK",
    "DEFAULT_EPSILON",
    "QUERY_MODES",
]

#: Paper defaults (§4.1 "Parameters"): c = 0.6, r = 5, epsilon = 1e-5.
DEFAULT_DAMPING = 0.6
DEFAULT_RANK = 5
DEFAULT_EPSILON = 1e-5

_SOLVERS = ("squaring", "fixed_point", "direct")
_DANGLING = ("zero", "uniform")

#: Online evaluation strategies for ``[S]_{*,Q}`` (docs/algorithm.md §7):
#: ``"exact"`` evaluates the partition-stable einsum kernel (bit-exact,
#: batch-independent columns — the serving cache's bit-exactness
#: contract), ``"batched"`` evaluates whole seed batches as a single
#: ``Z @ (U[Q,:])^T`` GEMM (faster at large ``|Q|``, columns
#: tolerance-equal to exact).
QUERY_MODES = ("exact", "batched")


@dataclass(frozen=True)
class CSRPlusConfig:
    """Hyper-parameters of the CSR+ index.

    Attributes
    ----------
    damping:
        CoSimRank damping factor ``c`` in (0, 1); paper default 0.6.
    rank:
        Target low rank ``r`` of the truncated SVD; paper default 5.
    epsilon:
        Desired accuracy of the Stein-equation solve (Algorithm 1's
        ``eps``); the *low-rank* approximation error is governed by
        ``rank``, not by this.
    solver:
        ``"squaring"`` (Algorithm 1 lines 4–5, default), ``"fixed_point"``,
        or ``"direct"`` — all agree to within ``epsilon``.
    dangling:
        Policy for in-degree-0 columns of the transition matrix; the
        paper semantics is ``"zero"``.
    svd_seed:
        Seed of the deterministic ARPACK start vector.
    memory_budget_bytes:
        Optional hard memory budget passed to the engine's meter.
    dtype:
        Storage dtype of the large factors (``"float64"`` default, or
        ``"float32"`` to halve the index memory at ~1e-5-level extra
        error; the SVD and Stein solve always run in float64).
    query_mode:
        Default online evaluation strategy (one of :data:`QUERY_MODES`).
        ``"exact"`` (default) evaluates the partition-stable einsum
        kernel, keeping every column a bit-exact pure function of its
        seed; ``"batched"`` evaluates each batch as a single GEMM — ≥2x
        the column throughput at ``|Q| >= 64`` in exchange for a
        documented tolerance-equivalence contract
        (:func:`~repro.core.kernel.batched_query_atol`).
    """

    damping: float = DEFAULT_DAMPING
    rank: int = DEFAULT_RANK
    epsilon: float = DEFAULT_EPSILON
    solver: str = "squaring"
    dangling: str = "zero"
    svd_seed: int = 0
    memory_budget_bytes: Optional[int] = None
    dtype: str = "float64"
    query_mode: str = "exact"

    def __post_init__(self) -> None:
        if not (0.0 < self.damping < 1.0):
            raise InvalidParameterError(
                f"damping must be in (0, 1), got {self.damping}"
            )
        if self.rank < 1:
            raise InvalidParameterError(f"rank must be >= 1, got {self.rank}")
        if not (0.0 < self.epsilon < 1.0):
            raise InvalidParameterError(
                f"epsilon must be in (0, 1), got {self.epsilon}"
            )
        if self.solver not in _SOLVERS:
            raise InvalidParameterError(
                f"solver must be one of {_SOLVERS}, got {self.solver!r}"
            )
        if self.dangling not in _DANGLING:
            raise InvalidParameterError(
                f"dangling must be one of {_DANGLING}, got {self.dangling!r}"
            )
        if self.memory_budget_bytes is not None and self.memory_budget_bytes <= 0:
            raise InvalidParameterError(
                f"memory_budget_bytes must be positive or None, "
                f"got {self.memory_budget_bytes}"
            )
        if self.dtype not in ("float32", "float64"):
            raise InvalidParameterError(
                f"dtype must be 'float32' or 'float64', got {self.dtype!r}"
            )
        if self.query_mode not in QUERY_MODES:
            raise InvalidParameterError(
                f"query_mode must be one of {QUERY_MODES}, "
                f"got {self.query_mode!r}"
            )

    def with_overrides(self, **overrides) -> "CSRPlusConfig":
        """A copy of this config with the given fields replaced."""
        return replace(self, **overrides)
