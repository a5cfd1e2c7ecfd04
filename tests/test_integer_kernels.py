"""The integer per-coordinate kernels against the Fraction loops they replace.

``identity._coordinate_factors``, ``residues.w_residue_series``,
``series.binomial_series`` and ``DerivativeTable.scaled_row`` compute in ints and make no Fraction before
their result.  Each must give exactly what the earlier Fraction loop,
written out below, gives: the same numerators over the same lowest
denominator, and for a series the same ``(order, nums, den)`` as the
loop's Fraction coefficients over their lowest common denominator.  The
direct route's walk, ``identity._head_sums``, must give what a plain
enumeration of the compositions gives.  The residue route, ``identity.lhs_residue``,
convolves the integer numerators of the series kernels and must give
what the product of the public ``TSeries`` gives, at the same op count;
and the right side's polynomial in ``verify_poly_gamma``, built from row
0 of the derivative table (the rising product), must be the polynomial
that the earlier code interpolated.
"""

import itertools
import math
from fractions import Fraction as F

from hypothesis import example, given
from hypothesis import strategies as st

import coeffident.identity as identity
from coeffident.algebra import binomial
from coeffident.identity import IdentityInstance, lhs_residue, rhs_closed, verify
from coeffident.residues import derivative_table, w_residue_series
from coeffident.series import binomial_series, coefficient_ops, residue
from oracles import over_common_denominator, poly_value

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
    nums, den = over_common_denominator(coeffs)
    return (series.order, series.nums, series.den) == (order, tuple(nums), den)


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


@given(alphas, rationals, rationals)
@example(0, F(0), F(-1))  # alpha_i = 0, and alpha_i = 1 at a zero
@example(1, F(-1), F(1, 3))  # alpha_i = 1 at a zero, and alpha_i = 2
@example(3, F(-2), F(-4))  # both zero, each read from row 0
@example(4, F(5, 10**6), F(-7, 2))
def test_leading_binomial_is_the_generalized_binomial(alpha, g, h):
    # route 3's lead pair, read from row 0 of the derivative table for
    # alpha_i >= 2 and inline for alpha_i <= 1, is prod_i C(gamma_i + alpha_i, alpha_i)
    inst = IdentityInstance(s=alpha, alpha=(alpha, alpha + 1), gamma=(g, h))
    num, den = identity._correction_numerators(inst)[2]
    assert den > 0
    assert F(num, den) == binomial(g + alpha, alpha) * binomial(h + alpha + 1, alpha + 1)


@given(alphas, rationals)
@example(7, F(-7, 3))
def test_scaled_row_is_the_row_at_p_over_q(alpha, g):
    table = derivative_table(alpha)
    p, q = g.numerator, g.denominator
    for k, row in enumerate(table.entries):
        value = table.scaled_row(k, p, q)
        assert type(value) is int
        assert value == q**alpha * poly_value(row, g)
        assert table.weight(k, g) == poly_value(row, g) / math.factorial(alpha)


@st.composite
def head_coordinates(draw):
    """A budget s and 0..4 coordinate triples (alpha_i, p_i, q_i), with
    the negative integer gammas, whose tables hold zeros, drawn often."""
    s = draw(st.integers(0, 6))
    gamma = st.one_of(st.integers(-4, -1).map(F), rationals)
    coordinate = st.tuples(st.integers(0, 4), gamma).map(
        lambda ag: (ag[0], ag[1].numerator, ag[1].denominator)
    )
    return s, tuple(draw(st.lists(coordinate, max_size=4)))


@given(head_coordinates())
@example((2, ((3, 1, 2),)))  # one part: the sums are the table itself
@example((1, ((0, -1, 1), (1, 0, 1), (2, -2, 1))))
@example((0, ((1, 0, 1),) * 4))
@example((3, ()))  # no parts: the empty composition, at budget 0
def test_composition_sums_are_the_plain_enumeration(case):
    s, heads = case
    sums, terms, den = identity._head_sums(s, heads)
    tables = [identity._coordinate_factors(*coordinate, s) for coordinate in heads]
    expected, expected_terms = [0] * (s + 1), 0
    for beta in itertools.product(range(s + 1), repeat=len(heads)):
        m = sum(beta)
        if m <= s:
            expected[m] += math.prod(t[0][b] for t, b in zip(tables, beta))
            expected_terms += s + 1 - m  # the closing parts 0..s - m
    assert sums == tuple(expected)
    assert terms == expected_terms
    assert den == math.prod(t[1] for t in tables)
    # the compositions of 0..s into the heads and one closing part
    parts = len(heads) + 1
    assert terms == math.comb(s + parts, parts)


@st.composite
def instances(draw, max_s, max_d):
    """An instance with s <= max_s, d <= max_d and gammas from ``rationals``."""
    s = draw(st.integers(0, max_s))
    d = draw(st.integers(0, max_d))
    cuts = sorted(draw(st.lists(st.integers(0, 2 * s + 1), min_size=d, max_size=d)))
    alpha = tuple(b - a for a, b in zip((0, *cuts), (*cuts, 2 * s + 1)))
    gamma = draw(st.lists(rationals, min_size=d + 1, max_size=d + 1))
    return IdentityInstance(s=s, alpha=alpha, gamma=tuple(gamma))


def residue_ops(inst):
    """The op count of the residue route: the binomial series, each
    coordinate series and each truncated product."""
    s = inst.s
    per_product = (s + 1) * (s + 2) // 2
    return 2 * s + sum((s + 1) * (a + 4) + per_product for a in inst.alpha)


@given(instances(max_s=8, max_d=3))
@example(IdentityInstance(0, (1,), (F(0),)))
@example(IdentityInstance(8, (17,), (F(-7, 3),)))
@example(IdentityInstance(3, (0, 4, 3), (F(-2), F(-5, 2), F(1, 3))))
@example(IdentityInstance(2, (1, 1, 2, 1), (F(-1), F(-3), F(7, 10**6), F(-999_999, 8))))
def test_lhs_residue_is_the_tseries_product(inst):
    s = inst.s
    before = coefficient_ops()
    value = lhs_residue(inst)
    charged = coefficient_ops() - before
    before = coefficient_ops()
    acc = binomial_series(-1, inst.top, s)
    for a, g in zip(inst.alpha, inst.gamma):
        acc = acc * w_residue_series(a, g, s)
    assert coefficient_ops() - before == charged == residue_ops(inst)
    assert type(value) is F
    assert value == residue(acc, s) == rhs_closed(inst)
    assert verify(inst).residue_ops == residue_ops(inst)


def test_a_wrong_w_numerator_fails_the_residue_route(monkeypatch):
    # +1 on the last numerator of every coordinate series moves [t**s] by a
    # sum of positive terms here, so the residue route must disagree
    real = identity._w_residue_numerators

    def plus_one(alpha, p, q, order):
        nums, den = real(alpha, p, q, order)
        return nums[:-1] + (nums[-1] + 1,), den

    monkeypatch.setattr(identity, "_w_residue_numerators", plus_one)
    report = verify(IdentityInstance(s=2, alpha=(3, 2), gamma=(F(1, 2), F(-2, 3))))
    assert report.lhs_direct == report.lhs_product == report.rhs
    assert report.lhs_residue != report.rhs
    assert report.all_equal is False


def closed_basis(a, x):
    """a! C(x + a, a) for any integer x, from ``math.comb``: for x + a < 0,
    C(n, a) = (-1)**a C(a - n - 1, a)."""
    n = x + a
    if n >= 0:
        return math.comb(n, a) * math.factorial(a)
    return (-1) ** a * math.comb(a - n - 1, a) * math.factorial(a)


def test_rising_coefficients_are_the_closed_basis():
    # row 0 of the derivative table, which verify_poly_gamma's right side
    # is built from, is (x + 1)...(x + a)
    for a in range(21):
        coeffs = derivative_table(a).entries[0]
        assert len(coeffs) == a + 1 and coeffs[-1] == 1
        assert all(type(c) is int for c in coeffs)
        for x in range(-a - 2, a + 3):
            assert sum(c * x**k for k, c in enumerate(coeffs)) == closed_basis(a, x)


@given(st.integers(0, 12), rationals, rationals)
@example(5, F(1, 2), F(-1))  # C(gamma + alpha, alpha) = 0 at the other coordinate
@example(0, F(0), F(3, 7))
@example(12, F(-7, 3), F(5, 2))
def test_rhs_poly_is_the_interpolated_closed_form(alpha_c, gamma_c, gamma_o):
    # the earlier construction, kept as the oracle: the closed right side's
    # values at x = 0..alpha_c, interpolated
    inst = IdentityInstance(s=6, alpha=(alpha_c, 13 - alpha_c), gamma=(gamma_c, gamma_o))
    num, den = identity._binomial_product(inst.alpha[1:], inst.gamma[1:])
    num *= 4**inst.s
    values = [num * math.comb(x + alpha_c, alpha_c) for x in range(alpha_c + 1)]
    lhs, rhs, equal = identity.verify_poly_gamma(inst, 0)
    assert equal and lhs is rhs
    assert rhs.coeffs == identity._interpolate(values, den).coeffs
