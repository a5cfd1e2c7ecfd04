import math
from fractions import Fraction as F

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from coeffident.series import (
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

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=12)


def series_strategy(order=4):
    return st.lists(rationals, min_size=order + 1, max_size=order + 1).map(
        lambda cs: TSeries(cs, order)
    )


def unit_series_strategy(order=4):
    return st.tuples(
        st.fractions(min_value=F(1, 5), max_value=5, max_denominator=8),
        st.lists(rationals, min_size=order, max_size=order),
    ).map(lambda pair: TSeries([pair[0]] + pair[1], order))


# --- construction ------------------------------------------------------------


def test_constructor_pads_and_truncates():
    assert TSeries([1, 2], 4).coeffs == (1, 2, 0, 0, 0)
    assert TSeries([1, 2, 3, 4], 1).coeffs == (1, 2)
    assert TSeries([1, 2, 3]).order == 2


def test_constructor_validation():
    with pytest.raises(ValueError):
        TSeries([], None)
    with pytest.raises(ValueError):
        TSeries([1], -1)
    with pytest.raises(TypeError):
        TSeries([0.5], 1)


def test_constant_and_one():
    assert TSeries.one(3).coeffs == (1, 0, 0, 0)
    assert TSeries.constant(F(2, 3), 2).coeffs == (F(2, 3), 0, 0)


def test_equality_includes_order_and_var():
    assert TSeries([1, 2], 1) == TSeries([1, 2], 1)
    assert TSeries([1, 2], 1) != TSeries([1, 2], 2)


# --- arithmetic --------------------------------------------------------------


def test_add_truncates_to_min_order():
    a = TSeries([1, 1, 1, 1])
    b = TSeries([1, 2], 1)
    assert (a + b).order == 1
    assert (a + b).coeffs == (2, 3)


def test_scalar_arithmetic():
    a = TSeries([1, 2, 3])
    assert (a + 1).coeffs == (2, 2, 3)
    assert (a - F(1, 2)).coeffs == (F(1, 2), 2, 3)
    assert (1 - a).coeffs == (0, -2, -3)
    assert (a * 2).coeffs == (2, 4, 6)


def test_mul_example():
    one_plus = TSeries([1, 1], 3)
    one_minus = TSeries([1, -1], 3)
    assert (one_plus * one_minus).coeffs == (1, 0, -1, 0)


def test_inverse_geometric():
    # 1/(1-t) = 1 + t + t^2 + t^3
    inv = TSeries([1, -1], 3).inverse()
    assert inv.coeffs == (1, 1, 1, 1)


def test_inverse_requires_unit():
    with pytest.raises(NonUnitSeries):
        TSeries([0, 1], 2).inverse()


@given(unit_series_strategy())
def test_inverse_is_inverse(a):
    assert a * a.inverse() == TSeries.one(a.order)


def test_integer_powers():
    cube = TSeries([1, 1], 3) ** 3
    assert cube.coeffs == (1, 3, 3, 1)
    assert TSeries([1, 1], 3) ** 0 == TSeries.one(3)
    neg = TSeries([1, -1], 3) ** -1
    assert neg.coeffs == (1, 1, 1, 1)


# --- residue -----------------------------------------------------------------


def test_residue_contract():
    a = TSeries([5, 7, 11])
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
    assert lhs == binomial_series(c, r1 + r2, order)


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
    a = TSeries([4, 4], 3)  # 4(1+t)
    half = a.pow_rational(F(1, 2))
    assert half == binomial_series(1, F(1, 2), 3).scale(2)
    assert half * half == a


def test_pow_rational_irrational_lead():
    with pytest.raises(IrrationalScalarPower):
        TSeries([2, 1], 2).pow_rational(F(1, 2))


def test_pow_rational_needs_unit():
    with pytest.raises(NonUnitSeries):
        TSeries([0, 1], 2).pow_rational(F(1, 2))


@given(unit_series_strategy(), st.integers(min_value=-3, max_value=3))
def test_pow_rational_integer_matches_repeated_mul(a, m):
    assert a.pow_rational(m) == a**m


@given(unit_series_strategy())
def test_pow_rational_inverse_law(a):
    # exponents +-2 always keep the leading coefficient rational
    assert a.pow_rational(2) * a.pow_rational(-2) == TSeries.one(a.order)


# --- ring axioms (randomized) ---------------------------------------------------


@given(series_strategy(), series_strategy(), series_strategy())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


# --- op counter -------------------------------------------------------------------


def test_coefficient_ops_counts_multiplications():
    before = coefficient_ops()
    TSeries([1, 2, 3]) * TSeries([4, 5, 6])
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
    product = TSeries(xs) * TSeries(ys)
    assert coefficient_ops() - before == (n + 1) * (n + 2) // 2
    assert product.order == n
    assert product.coeffs == expected
    assert all(type(c) is F for c in product.coeffs)


# --- nested series ------------------------------------------------------------------


def test_nested_constructor_checks():
    rows = [TSeries([1, 1], 2), TSeries([0, 1], 2)]
    ns = NestedSeries(rows)
    assert ns.w_order == 1
    assert ns.t_order == 2
    with pytest.raises(ValueError):
        NestedSeries([])
    with pytest.raises(ValueError):
        NestedSeries([TSeries([1], 1), TSeries([1], 2)])


def test_nested_coefficient_contract():
    ns = NestedSeries([TSeries([1, 1], 2), TSeries([0, 1], 2)])
    assert ns.coefficient(1) == TSeries([0, 1], 2)
    assert ns.coefficient(-1).is_zero()
    with pytest.raises(TruncationExceeded):
        ns.coefficient(2)


def test_nested_padding():
    ns = NestedSeries([TSeries([1], 1)], w_order=3)
    assert len(ns.coeffs) == 4
    assert ns.coefficient(3).is_zero()


def test_nested_mul_is_cauchy_product():
    t = TSeries([0, 1], 2)
    one = TSeries.one(2)
    a = NestedSeries([one, t])  # 1 + t*w
    b = NestedSeries([t, one])  # t + w
    prod = a * b
    assert prod.coefficient(0) == t
    assert prod.coefficient(1) == one + t * t


def test_nested_scale_by_tseries():
    t = TSeries([0, 1], 2)
    ns = NestedSeries([TSeries.one(2), TSeries.one(2)])
    scaled = ns.scale(t)
    assert scaled.coefficient(0) == t
    assert scaled.coefficient(1) == t


def test_nested_pow_rational_integer_case():
    core = NestedSeries([TSeries([1, -1], 3), TSeries([2, 0], 3)])
    assert core.pow_rational(2) == core * core
    assert core.pow_rational(-1) * core == NestedSeries.one(3, 1)


def test_nested_pow_needs_unit_head():
    bad = NestedSeries([TSeries([0, 1], 2), TSeries.one(2)])
    with pytest.raises(NonUnitSeries):
        bad.pow_rational(F(1, 2))


def test_nested_exp_core_known_coefficients():
    # gamma = 0: the w^1 coefficient of (e^{-w} - t e^w)^{-1} is
    # sum_b (2b+1) t^b
    ns = nested_exp_core(0, 3, 1)
    assert ns.coefficient(1).coeffs == (1, 3, 5, 7)
    # gamma = 0: w^0 coefficient is the geometric series
    assert ns.coefficient(0).coeffs == (1, 1, 1, 1)


def test_nested_exp_core_rational_gamma():
    # constant-in-w coefficient is (1-t)^{-gamma-1} for any gamma
    ns = nested_exp_core(F(1, 2), 4, 2)
    assert ns.coefficient(0) == binomial_series(-1, F(-3, 2), 4)


def test_nested_coefficient_rows_are_stable_values():
    ns = nested_exp_core(0, 2, 2)
    row = ns.coefficient(1)
    _ = ns * ns  # further w-operations must not disturb extracted rows
    assert row == ns.coefficient(1)
