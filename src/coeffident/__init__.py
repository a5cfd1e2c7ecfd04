"""Exact verification of a multi-binomial identity.

An alternating double sum over integer compositions is claimed to equal
4**s times a product of binomial coefficients, for every s >= 0, every
vector of nonnegative integers alpha with sum(alpha) = 2s+1, and every
rational vector gamma of the same length.  This package evaluates both
sides in exact rational arithmetic by three independent routes (literal
summation, coefficient extraction from a series product, and a reduced
product of closed-form residues) and checks that everything agrees --
Fraction equality, never floats, never tolerances.
"""

from .algebra import (
    Poly,
    as_rational,
    binomial,
    parse_rational,
    rising_factorial,
)
from .series import (
    IrrationalScalarPower,
    NestedSeries,
    NonUnitSeries,
    TSeries,
    TruncationExceeded,
    binomial_series,
    coefficient_ops,
    nested_exp_core,
    rational_power,
    residue,
)
from .residues import (
    DerivativeTable,
    base_t_residue,
    correction_t_residue,
    correction_weight,
    derivative_table,
    w_residue_closed,
    w_residue_series,
)
from .identity import (
    MAX_JOBS,
    CorrectionInvariantError,
    IdentityInstance,
    InvalidInstance,
    VerificationReport,
    compositions,
    correction_polynomial,
    inner_sum,
    iter_instances,
    lhs_direct,
    lhs_product,
    lhs_residue,
    rhs_closed,
    sweep,
    verify,
    verify_poly_gamma,
)

__version__ = "0.1.0"

__all__ = [
    "as_rational",
    "parse_rational",
    "binomial",
    "rising_factorial",
    "Poly",
    "TSeries",
    "NestedSeries",
    "binomial_series",
    "residue",
    "rational_power",
    "nested_exp_core",
    "coefficient_ops",
    "NonUnitSeries",
    "IrrationalScalarPower",
    "TruncationExceeded",
    "DerivativeTable",
    "derivative_table",
    "correction_weight",
    "w_residue_series",
    "w_residue_closed",
    "base_t_residue",
    "correction_t_residue",
    "InvalidInstance",
    "CorrectionInvariantError",
    "MAX_JOBS",
    "IdentityInstance",
    "VerificationReport",
    "compositions",
    "inner_sum",
    "lhs_direct",
    "lhs_residue",
    "lhs_product",
    "rhs_closed",
    "correction_polynomial",
    "verify",
    "verify_poly_gamma",
    "iter_instances",
    "sweep",
]
