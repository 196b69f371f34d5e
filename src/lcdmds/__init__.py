"""Complementary-dual MDS codes from generalized Reed-Solomon codes.

Exact finite-field arithmetic, GRS and extended GRS code specifications,
generic linear-code oracles (duals, hulls, the MDS check), and five
deterministic constructions of LCD MDS codes over odd-characteristic fields.
"""

from .construct import (
    ALL_THEOREMS,
    THEOREM_DIVISOR,
    THEOREM_EXTENDED,
    THEOREM_LARGE_NK,
    THEOREM_PRIME_POWER,
    THEOREM_WINDOW,
    ConstructionReport,
    applicable_conditions,
    construct_auto,
    construct_divisor,
    construct_extended,
    construct_large_nk,
    construct_prime_power,
    construct_window,
    verify_report,
)
from .errors import (
    BudgetExceeded,
    FieldMismatch,
    LcdMdsError,
    NoConstructionApplies,
    ParameterError,
    TheoremViolation,
)
from .fields import Field, field, field_from_order
from .grs import GrsSpec, dual_multipliers
from .linear import DEFAULT_BUDGET, LinearCode, rref
from .poly import Poly, interpolate

__all__ = [
    "ALL_THEOREMS",
    "THEOREM_DIVISOR",
    "THEOREM_EXTENDED",
    "THEOREM_LARGE_NK",
    "THEOREM_PRIME_POWER",
    "THEOREM_WINDOW",
    "BudgetExceeded",
    "ConstructionReport",
    "DEFAULT_BUDGET",
    "Field",
    "FieldMismatch",
    "GrsSpec",
    "LcdMdsError",
    "LinearCode",
    "NoConstructionApplies",
    "ParameterError",
    "Poly",
    "TheoremViolation",
    "applicable_conditions",
    "construct_auto",
    "construct_divisor",
    "construct_extended",
    "construct_large_nk",
    "construct_prime_power",
    "construct_window",
    "dual_multipliers",
    "field",
    "field_from_order",
    "interpolate",
    "rref",
    "verify_report",
]
