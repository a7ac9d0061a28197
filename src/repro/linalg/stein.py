"""Solvers for the discrete Stein equation ``P = c H P H^T + I``.

Theorem 3.4 reduces the heart of CSR+ to this ``r x r`` fixed-point
problem.  Three interchangeable solvers are provided:

* :func:`solve_stein_fixed_point` — the plain iteration
  ``P_{k+1} = c H P_k H^T + I``; needs ``O(log_c eps)`` iterations.
* :func:`solve_stein_squaring` — the repeated-squaring scheme of
  Algorithm 1 lines 4–5 (from the authors' prior partial-pairs work),
  which needs only ``O(log2 log_c eps)`` iterations.
* :func:`solve_stein_direct` — the closed-form
  ``vec(P) = (I - c H kron H)^{-1} vec(I)``; exact, ``O(r^6)``, used as
  ground truth in tests and in the squaring-vs-fixed-point ablation.

:func:`solve_stein` dispatches on a configured solver name, and
:func:`sigma_p_sigma` forms the ``Sigma P Sigma`` core of
``Z = U (Sigma P Sigma)`` (Algorithm 1, line 6); every producer of
CSR+ factors goes through these two.

All three converge when ``sqrt(c) * ||H||_2 < 1``, which holds for
CoSimRank because ``H = V^T U Sigma`` has spectral norm at most
``sigma_1(Q) <= 1`` for a column-substochastic ``Q`` and ``c < 1``.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

import repro.obs as obs
from repro.errors import ConvergenceError, InvalidParameterError

__all__ = [
    "squaring_iteration_count",
    "fixed_point_iteration_count",
    "solve_stein_fixed_point",
    "solve_stein_squaring",
    "solve_stein_direct",
    "solve_stein",
    "sigma_p_sigma",
]


def _check_inputs(h: np.ndarray, c: float) -> np.ndarray:
    h = np.asarray(h, dtype=np.float64)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise InvalidParameterError(f"H must be square, got shape {h.shape}")
    if not (0.0 < c < 1.0):
        raise InvalidParameterError(f"damping factor c must be in (0, 1), got {c}")
    return h


def squaring_iteration_count(c: float, epsilon: float) -> int:
    """Iteration bound for repeated squaring: ``max(0, floor(log2 log_c eps) + 1)``.

    After ``k`` squaring steps the partial sum covers ``2^k`` power terms,
    so the truncation error is below ``c^(2^k) / (1 - c)``; the paper's
    bound picks the smallest ``k`` with ``c^(2^k) < eps``.
    """
    if not (0.0 < c < 1.0):
        raise InvalidParameterError(f"damping factor c must be in (0, 1), got {c}")
    if not (0.0 < epsilon < 1.0):
        raise InvalidParameterError(f"epsilon must be in (0, 1), got {epsilon}")
    log_c_eps = math.log(epsilon) / math.log(c)  # > 0
    if log_c_eps <= 1.0:
        return 0
    return max(0, int(math.floor(math.log2(log_c_eps))) + 1)


def fixed_point_iteration_count(c: float, epsilon: float) -> int:
    """Iteration bound for the plain iteration: smallest K with ``c^K < eps``."""
    if not (0.0 < c < 1.0):
        raise InvalidParameterError(f"damping factor c must be in (0, 1), got {c}")
    if not (0.0 < epsilon < 1.0):
        raise InvalidParameterError(f"epsilon must be in (0, 1), got {epsilon}")
    return max(1, int(math.ceil(math.log(epsilon) / math.log(c))))


def solve_stein_fixed_point(
    h: np.ndarray,
    c: float,
    epsilon: float = 1e-5,
    max_iterations: int = 10_000,
) -> Tuple[np.ndarray, int]:
    """Plain fixed-point solve of ``P = c H P H^T + I``.

    Returns ``(P, iterations_used)``.  Raises :class:`ConvergenceError`
    if the max-norm update does not fall below ``epsilon`` within
    ``max_iterations`` (which signals ``sqrt(c) ||H|| >= 1``, i.e. a
    malformed input).
    """
    h = _check_inputs(h, c)
    r = h.shape[0]
    identity = np.eye(r)
    p = identity.copy()
    for iteration in range(1, max_iterations + 1):
        with obs.span("stein.iteration", solver="fixed_point", k=iteration) as sp:
            nxt = c * (h @ p @ h.T) + identity
            delta = np.max(np.abs(nxt - p)) if r else 0.0
            sp.set_attribute("delta", float(delta))
        p = nxt
        if delta < epsilon:
            return p, iteration
    raise ConvergenceError(
        f"Stein fixed point did not reach epsilon={epsilon} in "
        f"{max_iterations} iterations (is sqrt(c)*||H|| < 1?)"
    )


def solve_stein_squaring(
    h: np.ndarray,
    c: float,
    epsilon: float = 1e-5,
) -> Tuple[np.ndarray, int]:
    """Repeated-squaring solve (Algorithm 1, lines 3–5).

    Maintains the invariant
    ``P_k = sum_{j=0}^{2^k - 1} c^j H^j (H^T)^j`` via

        P_{k+1} = P_k + c^(2^k) H_k P_k H_k^T,   H_{k+1} = H_k^2,

    terminating after ``max(0, floor(log2 log_c eps) + 1)`` steps so
    that ``||P_k - P||_max < eps``.  Returns ``(P, squaring_steps)``.
    """
    h = _check_inputs(h, c)
    r = h.shape[0]
    steps = squaring_iteration_count(c, epsilon)
    p = np.eye(r)
    h_k = h.copy()
    c_pow = c  # c^(2^k) for the current k
    for k in range(steps + 1):
        # The loop in Algorithm 1 runs while k <= bound, i.e. bound+1 times.
        with obs.span("stein.iteration", solver="squaring", k=k):
            p = p + c_pow * (h_k @ p @ h_k.T)
            if k < steps:
                # the final H_k / c_pow are never read again; skip the
                # trailing O(r^3) squaring GEMM
                h_k = h_k @ h_k
                c_pow = c_pow * c_pow
    return p, steps + 1


def solve_stein_direct(h: np.ndarray, c: float) -> np.ndarray:
    """Exact solve via ``vec(P) = (I_{r^2} - c (H kron H))^{-1} vec(I_r)``.

    ``O(r^6)`` time and ``O(r^4)`` memory — fine for the small ranks the
    paper uses, and the reference the iterative solvers are tested
    against.
    """
    h = _check_inputs(h, c)
    r = h.shape[0]
    if r == 0:
        return np.zeros((0, 0))
    if r > 64:
        # The r^2 x r^2 dense system needs 8 r^4 bytes (r = 200 would be
        # ~13 GB); beyond r = 64 use the iterative solvers instead.
        raise InvalidParameterError(
            f"direct Stein solve materialises an r^2 x r^2 system; "
            f"refusing r={r} > 64 (use the squaring/fixed-point solver)"
        )
    system = np.eye(r * r) - c * np.kron(h, h)
    rhs = np.eye(r).reshape(-1, order="F")
    try:
        solution = np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"direct Stein solve failed: {exc}") from exc
    return solution.reshape(r, r, order="F")


def solve_stein(
    h: np.ndarray, c: float, epsilon: float, solver: str
) -> Tuple[np.ndarray, int]:
    """``(P, iterations)`` from the named solver (``CSRPlusConfig.solver``).

    ``"squaring"`` and ``"fixed_point"`` report their iteration counts;
    ``"direct"`` reports ``0``.
    """
    if solver == "squaring":
        return solve_stein_squaring(h, c, epsilon)
    if solver == "fixed_point":
        return solve_stein_fixed_point(h, c, epsilon)
    if solver == "direct":
        return solve_stein_direct(h, c), 0
    raise InvalidParameterError(f"unknown Stein solver {solver!r}")


def sigma_p_sigma(sigma: np.ndarray, p: np.ndarray) -> np.ndarray:
    """``Sigma P Sigma`` as ``(sigma[:, None] * P) * sigma[None, :]``.

    The ``r x r`` core of ``Z = U (Sigma P Sigma)``.  The evaluation
    order is fixed: every factor producer calls this one function, so
    they all form the same bytes.
    """
    return (sigma[:, np.newaxis] * p) * sigma[np.newaxis, :]
