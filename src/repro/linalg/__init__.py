"""Linear-algebra substrate: truncated SVD, Kronecker toolkit, Stein solvers."""

from repro._lazy import lazy_exports as _lazy_exports

__getattr__, __dir__ = _lazy_exports(__name__, {
    ".kronecker": ["kron", "mixed_product", "unvec", "vec", "vec_identity"],
    ".stein": [
        "fixed_point_iteration_count",
        "solve_stein_direct",
        "solve_stein_fixed_point",
        "solve_stein_squaring",
        "squaring_iteration_count",
    ],
    ".svd": ["TruncatedSVD", "truncated_svd"],
})

__all__ = [
    "TruncatedSVD",
    "truncated_svd",
    "vec",
    "unvec",
    "kron",
    "vec_identity",
    "mixed_product",
    "solve_stein_fixed_point",
    "solve_stein_squaring",
    "solve_stein_direct",
    "squaring_iteration_count",
    "fixed_point_iteration_count",
]
