import math
from fractions import Fraction as F

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from coeffident.series import (
    TSeries,
    TruncationExceeded,
    binomial_series,
    coefficient_ops,
    residue,
)
from oracles import (
    IrrationalScalarPower,
    NestedSeries,
    NonUnitSeries,
    Series,
    inverse,
    nested_exp_core,
    over_common_denominator,
    pow_rational,
    power,
    rational_power,
    subtract,
)

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=12)


def tseries(values, order=None):
    """The package series with the given Fraction coefficients, padded with
    zeros or truncated to ``order`` (by default, one per value)."""
    values = list(Series(values, order))
    return TSeries(*over_common_denominator(values), len(values) - 1)


def series_strategy(order=4):
    return st.lists(rationals, min_size=order + 1, max_size=order + 1).map(Series)


def unit_series_strategy(order=4):
    return st.tuples(
        st.fractions(min_value=F(1, 5), max_value=5, max_denominator=8),
        st.lists(rationals, min_size=order, max_size=order),
    ).map(lambda pair: Series([pair[0]] + pair[1], order))


# --- construction ------------------------------------------------------------


def test_constructor_pads_and_truncates():
    # the reference series; the package's is built from its integer form
    assert Series([1, 2], 4) == (1, 2, 0, 0, 0)
    assert Series([1, 2, 3, 4], 1) == (1, 2)
    assert Series([1, 2, 3]).order == 2


def test_constructor_validation():
    with pytest.raises(ValueError):
        Series([], None)
    with pytest.raises(ValueError):
        Series([1], -1)
    with pytest.raises(TypeError):
        Series([0.5], 1)
    # the package series: order + 1 integer numerators over a positive
    # denominator, the order a count
    with pytest.raises(ValueError, match="3 numerators for order 1"):
        TSeries([1, 2, 3], 1, 1)
    with pytest.raises(ValueError, match="^den=0 must be >= 1$"):
        TSeries([1, 2], 0, 1)
    with pytest.raises(ValueError, match="^den=-2 must be >= 1$"):
        TSeries([1, 2], -2, 1)
    with pytest.raises(ValueError, match="^order=-1 must be >= 0$"):
        TSeries([], 1, -1)
    for call in (
        lambda: TSeries([F(1, 2)], 1, 0),
        lambda: TSeries([0.5], 1, 0),
        lambda: TSeries([1], 1.0, 0),
        lambda: TSeries([1], 1, 0.0),
    ):
        with pytest.raises(TypeError):
            call()


def test_constructor_reduces_by_one_gcd():
    a = TSeries([6, -4, 0], 10, 2)
    assert (a.order, a.nums, a.den) == (2, (3, -2, 0), 5)
    assert a.coeffs == (F(3, 5), F(-2, 5), 0)
    assert all(type(n) is int for n in a.nums) and type(a.den) is int
    zero = TSeries([0, 0], 7, 1)
    assert (zero.nums, zero.den) == ((0, 0), 1)
    assert repr(a) == "TSeries([3, -2, 0], 5, 2)"


def test_constant_and_one():
    assert Series.one(3) == (1, 0, 0, 0)
    assert Series.constant(F(2, 3), 2) == (F(2, 3), 0, 0)


def test_equality_includes_order_and_var():
    assert Series([1, 2], 1) == Series([1, 2], 1)
    assert Series([1, 2], 1) != Series([1, 2], 2)


# --- arithmetic --------------------------------------------------------------


def test_add_truncates_to_min_order():
    a = Series([1, 1, 1, 1])
    b = Series([1, 2], 1)
    assert (a + b).order == 1
    assert (a + b) == (2, 3)


def test_scalar_arithmetic():
    a = Series([1, 2, 3])
    assert subtract(a, F(1, 2)) == (F(1, 2), 2, 3)
    assert subtract(a, -1) == (2, 2, 3)
    assert subtract(Series.constant(1, a.order), a) == (0, -2, -3)
    assert a.scale(2) == (2, 4, 6)
    # a tuple's repetition is not a scalar multiple
    with pytest.raises(TypeError):
        a * 2
    with pytest.raises(TypeError):
        2 * a


def test_mul_example():
    one_plus = binomial_series(1, 1, 3)
    one_minus = binomial_series(-1, 1, 3)
    assert (one_plus * one_minus).coeffs == (1, 0, -1, 0)
    assert Series([1, 1], 3) * Series([1, -1], 3) == (1, 0, -1, 0)
    with pytest.raises(TypeError):
        one_plus * 2


def test_inverse_geometric():
    # 1/(1-t) = 1 + t + t^2 + t^3
    inv = inverse(Series([1, -1], 3))
    assert inv == (1, 1, 1, 1)


def test_inverse_requires_unit():
    with pytest.raises(NonUnitSeries):
        inverse(Series([0, 1], 2))


@given(unit_series_strategy())
def test_inverse_is_inverse(a):
    assert a * inverse(a) == Series.one(a.order)


def test_integer_powers():
    cube = power(Series([1, 1], 3), 3)
    assert cube == (1, 3, 3, 1)
    assert power(Series([1, 1], 3), 0) == Series.one(3)
    neg = power(Series([1, -1], 3), -1)
    assert neg == (1, 1, 1, 1)


# --- residue -----------------------------------------------------------------


def test_residue_contract():
    a = TSeries([5, 7, 11], 1, 2)
    assert residue(a, 1) == 7
    assert residue(a, -3) == 0
    with pytest.raises(TruncationExceeded):
        residue(a, 3)


# --- binomial series ----------------------------------------------------------


def test_binomial_series_integer_exponent():
    s = binomial_series(1, 5, 5)
    assert s.coeffs == tuple(math.comb(5, n) for n in range(6))


def test_binomial_series_geometric():
    assert binomial_series(-1, -1, 4).coeffs == (1, 1, 1, 1, 1)


def test_binomial_series_rational_exponent():
    s = binomial_series(1, F(1, 2), 3)
    assert s.coeffs == (1, F(1, 2), F(-1, 8), F(1, 16))


def test_binomial_series_validates_order():
    with pytest.raises(ValueError):
        binomial_series(1, 1, -1)


@given(
    st.sampled_from([F(1), F(-1), F(2), F(1, 2)]),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
)
def test_binomial_series_exponent_additivity(c, r1, r2):
    order = 5
    lhs = binomial_series(c, r1, order) * binomial_series(c, r2, order)
    rhs = binomial_series(c, r1 + r2, order)
    assert (lhs.order, lhs.nums, lhs.den) == (rhs.order, rhs.nums, rhs.den)


# --- rational powers -----------------------------------------------------------


def test_rational_power_examples():
    assert rational_power(F(8), F(2, 3)) == 4
    assert rational_power(F(27, 8), F(-1, 3)) == F(2, 3)
    assert rational_power(F(-8), F(1, 3)) == -2
    assert rational_power(F(4, 9), F(1, 2)) == F(2, 3)
    assert rational_power(F(5), 2) == 25
    assert rational_power(F(0), F(3, 2)) == 0


def test_rational_power_failures():
    with pytest.raises(IrrationalScalarPower):
        rational_power(F(2), F(1, 2))
    with pytest.raises(IrrationalScalarPower):
        rational_power(F(-4), F(1, 2))
    with pytest.raises(ZeroDivisionError):
        rational_power(F(0), F(-1))


def test_pow_rational_perfect_square_lead():
    a = Series([4, 4], 3)  # 4(1+t)
    half = pow_rational(a, F(1, 2))
    assert half == Series(binomial_series(1, F(1, 2), 3).coeffs).scale(2)
    assert half * half == a


def test_pow_rational_irrational_lead():
    with pytest.raises(IrrationalScalarPower):
        pow_rational(Series([2, 1], 2), F(1, 2))


def test_pow_rational_needs_unit():
    with pytest.raises(NonUnitSeries):
        pow_rational(Series([0, 1], 2), F(1, 2))


@given(unit_series_strategy(), st.integers(min_value=-3, max_value=3))
def test_pow_rational_integer_matches_repeated_mul(a, m):
    assert pow_rational(a, m) == power(a, m)


@given(unit_series_strategy())
def test_pow_rational_inverse_law(a):
    # exponents +-2 always keep the leading coefficient rational
    assert pow_rational(a, 2) * pow_rational(a, -2) == Series.one(a.order)


# --- ring axioms (randomized) ---------------------------------------------------


@given(series_strategy(), series_strategy(), series_strategy())
def test_ring_axioms(a, b, c):
    # the reference series' laws, which its powers and the blind
    # expansion rely on
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


# --- op counter -------------------------------------------------------------------


def test_coefficient_ops_counts_multiplications():
    before = coefficient_ops()
    TSeries([1, 2, 3], 1, 2) * TSeries([4, 5, 6], 1, 2)
    after = coefficient_ops()
    assert after - before == 6  # 1 + 2 + 3 coefficient products


coefficient_lists = st.lists(
    st.one_of(
        rationals,
        st.just(F(0)),
        st.fractions(min_value=-(10**9), max_value=10**9, max_denominator=10**15),
    ),
    min_size=1,
    max_size=7,
)


@given(coefficient_lists, coefficient_lists)
@example([F(0), F(0), F(0)], [F(1, 3), F(-2), F(5, 7)])
@example([F(-1, 10**20), F(3, 10**20 + 1)], [F(10**12, 7), F(-1), F(0), F(9, 2)])
def test_mul_is_the_fraction_cauchy_product(xs, ys):
    n = min(len(xs), len(ys)) - 1
    expected = tuple(
        sum((xs[i] * ys[k - i] for i in range(k + 1)), F(0)) for k in range(n + 1)
    )
    before = coefficient_ops()
    product = tseries(xs) * tseries(ys)
    assert coefficient_ops() - before == (n + 1) * (n + 2) // 2
    assert product.order == n
    assert product.coeffs == expected
    assert all(type(c) is F for c in product.coeffs)


def assert_canonical(series):
    assert len(series.nums) == series.order + 1
    assert all(type(n) is int for n in series.nums)
    assert type(series.den) is int and series.den > 0
    assert math.gcd(series.den, *series.nums) == 1


@given(coefficient_lists, st.integers(0, 8), coefficient_lists, st.integers(1, 6))
@example([F(1, 6), F(1, 3)], 1, [F(-1, 6), F(2, 3)], 3)
def test_integer_form_is_canonical(xs, order, ys, g):
    # a series built from any integer form of its values, or reached by a
    # product, is in lowest terms: equal series have equal (order, nums, den)
    a = tseries(xs, order)
    assert_canonical(a)
    assert a.coeffs == tuple((xs + [F(0)] * order)[: order + 1])
    scaled = TSeries([g * n for n in a.nums], g * a.den, order)
    assert (scaled.nums, scaled.den) == (a.nums, a.den)
    b = tseries(ys)
    n = min(a.order, b.order)
    product = a * b
    assert_canonical(product)
    built = tseries(Series(a.coeffs) * Series(b.coeffs))
    assert (product.order, product.nums, product.den) == (n, built.nums, built.den)


# --- nested series ------------------------------------------------------------------


def test_nested_constructor_checks():
    rows = [Series([1, 1], 2), Series([0, 1], 2)]
    ns = NestedSeries(rows)
    assert ns.w_order == 1
    assert ns.t_order == 2
    with pytest.raises(ValueError):
        NestedSeries([])
    with pytest.raises(ValueError):
        NestedSeries([Series([1], 1), Series([1], 2)])


def test_nested_coefficient_contract():
    ns = NestedSeries([Series([1, 1], 2), Series([0, 1], 2)])
    assert ns.coefficient(1) == Series([0, 1], 2)
    assert ns.coefficient(-1) == Series.constant(0, 2)
    with pytest.raises(LookupError):
        ns.coefficient(2)


def test_nested_padding():
    ns = NestedSeries([Series([1], 1)], w_order=3)
    assert len(ns.coeffs) == 4
    assert ns.coefficient(3) == Series.constant(0, 1)


def test_nested_mul_is_cauchy_product():
    t = Series([0, 1], 2)
    one = Series.one(2)
    a = NestedSeries([one, t])  # 1 + t*w
    b = NestedSeries([t, one])  # t + w
    prod = a * b
    assert prod.coefficient(0) == t
    assert prod.coefficient(1) == one + t * t


def test_nested_scale_by_tseries():
    t = Series([0, 1], 2)
    ns = NestedSeries([Series.one(2), Series.one(2)])
    scaled = ns.scale(t)
    assert scaled.coefficient(0) == t
    assert scaled.coefficient(1) == t


def test_nested_pow_rational_integer_case():
    core = NestedSeries([Series([1, -1], 3), Series([2, 0], 3)])
    assert core.pow_rational(2) == core * core
    assert core.pow_rational(-1) * core == NestedSeries.one(3, 1)


def test_nested_pow_needs_unit_head():
    bad = NestedSeries([Series([0, 1], 2), Series.one(2)])
    with pytest.raises(NonUnitSeries):
        bad.pow_rational(F(1, 2))


def test_nested_exp_core_known_coefficients():
    # gamma = 0: the w^1 coefficient of (e^{-w} - t e^w)^{-1} is
    # sum_b (2b+1) t^b
    ns = nested_exp_core(0, 3, 1)
    assert ns.coefficient(1) == (1, 3, 5, 7)
    # gamma = 0: w^0 coefficient is the geometric series
    assert ns.coefficient(0) == (1, 1, 1, 1)


def test_nested_exp_core_rational_gamma():
    # constant-in-w coefficient is (1-t)^{-gamma-1} for any gamma
    ns = nested_exp_core(F(1, 2), 4, 2)
    assert ns.coefficient(0) == binomial_series(-1, F(-3, 2), 4).coeffs


def test_nested_coefficient_rows_are_stable_values():
    ns = nested_exp_core(0, 2, 2)
    row = ns.coefficient(1)
    _ = ns * ns  # further w-operations must not disturb extracted rows
    assert row == ns.coefficient(1)
