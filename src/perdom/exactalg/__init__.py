"""Exact arithmetic substrate: finite fields, subspaces, rational matrices."""

from .gf import DEFAULT_ORDER_BOUND, FieldSpec, is_prime, make_field
from .qcount import q_binomial, q_factorial, q_int, q_multinomial
from .rational import (
    ChainComplexQ,
    MatrixQ,
    chain_complex,
    mat_mul_exact,
    rank_mod_prime,
    rational_rank,
)
from .subspaces import (
    SubspaceGF,
    enumerate_chains,
    enumerate_subspaces,
    mat_mul,
    rref,
    right_kernel,
)

__all__ = [
    "DEFAULT_ORDER_BOUND",
    "FieldSpec",
    "is_prime",
    "make_field",
    "q_binomial",
    "q_factorial",
    "q_int",
    "q_multinomial",
    "ChainComplexQ",
    "MatrixQ",
    "chain_complex",
    "mat_mul_exact",
    "rank_mod_prime",
    "rational_rank",
    "SubspaceGF",
    "enumerate_chains",
    "enumerate_subspaces",
    "mat_mul",
    "rref",
    "right_kernel",
]
