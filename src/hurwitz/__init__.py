"""Exact double Hurwitz numbers, three ways.

H_g(mu, nu) is computed by counting monodromy sets in the symmetric group, by
counting weighted bicolored ribbon graphs, and by a weighted count of tropical
monodromy graphs; the three pipelines share nothing but the parameter types,
so their agreement is a strong correctness check (exposed as `hurwitz verify`).
"""

from .core import (
    DegreeMismatch,
    HurwitzError,
    HurwitzParams,
    NegativeR,
    Partition,
    RZero,
    format_rational,
    hurwitz_params,
)

__all__ = [
    "DegreeMismatch",
    "HurwitzError",
    "HurwitzParams",
    "NegativeR",
    "Partition",
    "RZero",
    "format_rational",
    "hurwitz_params",
]

__version__ = "0.1.0"
