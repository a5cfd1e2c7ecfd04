"""The integer per-coordinate kernels against the Fraction loops they replace.

``identity._coordinate_factors``, ``residues.w_residue_series`` and
``series.binomial_series`` compute in ints and make no Fraction before
their result.  Each must give exactly what the earlier Fraction loop,
written out below, gives: the same numerators over the same lowest
denominator, and for a series the same ``(order, nums, den)`` as
``TSeries(fraction_coeffs, order)``.
"""

import math
from fractions import Fraction as F

from hypothesis import example, given
from hypothesis import strategies as st

import coeffident.identity as identity
from coeffident.algebra import binomial
from coeffident.residues import w_residue_series
from coeffident.series import TSeries, binomial_series, coefficient_ops

# gammas: small numerators over denominators up to 10**6, plus the negative
# integers, where C(b + gamma, b) vanishes from b = -gamma on
rationals = st.one_of(
    st.builds(F, st.integers(-60, 60), st.integers(1, 10**6)),
    st.builds(F, st.integers(-10**6, 10**6), st.integers(1, 12)),
    st.integers(-8, -1).map(F),
)
alphas = st.integers(0, 7)
orders = st.integers(0, 7)


def fraction_factors(alpha, g, limit):
    """The earlier Fraction loop of ``_coordinate_factors``: the values
    C(b+g, b) (2b+g+1)**alpha / alpha! for b = 0..limit."""
    inv_fact = F(1, math.factorial(alpha))
    values = []
    binom = F(1)
    for b in range(limit + 1):
        if b:
            binom = binom * (g + b) / b
        values.append(binom * (2 * b + g + 1) ** alpha * inv_fact)
    return values


def fraction_w_residue(alpha, g, order):
    """The earlier Fraction loop of ``w_residue_series``."""
    inv_fact = F(1, math.factorial(alpha))
    binom = F(1)
    coeffs = []
    for b in range(order + 1):
        coeffs.append(binom * (2 * b + g + 1) ** alpha * inv_fact)
        binom = binom * (g + b + 1) / (b + 1)
    return coeffs


def fraction_binomial(c, r, order):
    """The earlier Fraction loop of ``binomial_series``."""
    coeffs = [F(1)]
    coef = F(1)
    for n in range(order):
        coef = coef * c * (r - n) / (n + 1)
        coeffs.append(coef)
    return coeffs


def same_series(series, coeffs, order):
    expected = TSeries(coeffs, order)
    return (series.order, series.nums, series.den) == (
        expected.order,
        expected.nums,
        expected.den,
    )


@given(alphas, rationals, orders)
@example(0, F(0), 0)
@example(0, F(-1), 0)
@example(3, F(-2), 5)  # zero factors from b = 2 on
@example(2, F(-1), 4)  # every factor zero
@example(4, F(7, 10**6), 6)
@example(5, F(-999_999, 1_000_000), 3)
@example(1, F(1, 3), 2)
def test_coordinate_factors_match_the_fraction_loop(alpha, g, limit):
    nums, den = identity._coordinate_factors(alpha, g.numerator, g.denominator, limit)
    values = fraction_factors(alpha, g, limit)
    lowest = math.lcm(*(v.denominator for v in values))
    assert type(nums) is tuple and all(type(n) is int for n in nums)
    assert den == lowest
    assert nums == tuple(v.numerator * (lowest // v.denominator) for v in values)


@given(alphas, rationals, orders)
@example(0, F(0), 0)
@example(0, F(-3), 5)
@example(3, F(-2), 6)
@example(5, F(-9, 11), 0)
@example(4, F(7, 10**6), 6)
@example(2, F(1, 2), 6)
def test_w_residue_series_matches_the_fraction_loop(alpha, g, order):
    before = coefficient_ops()
    series = w_residue_series(alpha, g, order)
    assert coefficient_ops() - before == (order + 1) * (alpha + 4)
    assert same_series(series, fraction_w_residue(alpha, g, order), order)


@given(st.one_of(rationals, st.integers(-3, 3)), rationals, orders)
@example(-1, F(0), 0)
@example(0, F(5, 7), 4)
@example(-1, F(3), 6)  # integer exponent: the series ends at x**3
@example(1, F(-4), 5)
@example(F(-3, 10**6), F(7, 999_983), 6)
@example(F(2, 3), F(-1, 2), 7)
def test_binomial_series_matches_the_fraction_loop(c, r, order):
    before = coefficient_ops()
    series = binomial_series(c, r, order)
    assert coefficient_ops() - before == 2 * order
    assert same_series(series, fraction_binomial(F(c), r, order), order)


@given(alphas, rationals)
@example(0, F(0))
@example(3, F(-2))
@example(4, F(5, 10**6))
def test_leading_binomial_is_the_generalized_binomial(alpha, g):
    lead = binomial(g + alpha, alpha)
    assert identity._leading_binomial(alpha, g.numerator, g.denominator) == (
        lead.numerator,
        lead.denominator,
    )
