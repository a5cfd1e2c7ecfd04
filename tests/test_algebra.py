import math
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from coeffident.algebra import (
    Poly,
    as_rational,
    binomial,
    parse_rational,
)
from oracles import rising_factorial

rationals = st.fractions(min_value=-10, max_value=10, max_denominator=20)


# --- rational parsing / formatting ---------------------------------------


def test_parse_rational_basic():
    assert parse_rational("3/4") == F(3, 4)
    assert parse_rational("-3/4") == F(-3, 4)
    assert parse_rational("7") == F(7)
    assert parse_rational("-7") == F(-7)
    assert parse_rational("0") == 0


def test_parse_rational_normalizes():
    assert parse_rational("6/8") == F(3, 4)
    assert parse_rational("-6/8") == F(-3, 4)


def test_parse_rational_unicode_minus():
    assert parse_rational("−3/4") == F(-3, 4)
    assert parse_rational("−5") == F(-5)


@pytest.mark.parametrize(
    "bad", ["", "3.5", "1e3", "a", "1/ 2", "1 /2", "+3", "3/-4", "--3", "1/2/3"]
)
def test_parse_rational_rejects_garbage(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


def test_parse_rational_zero_denominator():
    with pytest.raises(ValueError, match="denominator"):
        parse_rational("1/0")


@given(rationals)
def test_parse_format_round_trip(q):
    assert parse_rational(str(q)) == q


def test_as_rational_rejects_floats():
    with pytest.raises(TypeError):
        as_rational(0.5)
    with pytest.raises(TypeError):
        as_rational(1.0)


def test_binomial_and_poly_evaluation_refuse_floats():
    with pytest.raises(TypeError, match="refusing float"):
        binomial(0.5, 2)
    with pytest.raises(TypeError, match="refusing float"):
        binomial(0.5, -1)
    with pytest.raises(TypeError, match="refusing float"):
        Poly([1, 1])(0.5)
    # int and Fraction arguments keep their exact results
    assert binomial(5, 2) == 10 and type(binomial(5, 2)) is F
    assert Poly([1, 1])(F(1, 2)) == F(3, 2)
    assert Poly([1, 1])(2) == 3 and type(Poly([1, 1])(2)) is F


def test_as_rational_returns_an_exact_fraction_unchanged():
    q = F(3, 7)
    assert as_rational(q) is q

    class Tagged(F):
        pass

    converted = as_rational(Tagged(3, 7))
    assert type(converted) is F and converted == q
    assert type(as_rational(3)) is F and as_rational(3) == 3


# --- generalized binomial --------------------------------------------------


def test_binomial_integers_match_math_comb():
    for n in range(10):
        for k in range(n + 1):
            assert binomial(n, k) == math.comb(n, k)


def test_binomial_examples():
    assert binomial(5, 2) == 10
    assert binomial(F(1, 2), 2) == F(-1, 8)
    assert binomial(-1, 3) == -1
    assert binomial(F(3, 2), 1) == F(3, 2)


def test_binomial_lower_index_edge_cases():
    assert binomial(F(7, 3), 0) == 1
    assert binomial(F(7, 3), -1) == 0
    assert binomial(-5, -2) == 0


def test_binomial_vanishes_on_short_integer_top():
    # for integer 0 <= x < b the product picks up a zero factor
    assert binomial(2, 3) == 0
    assert binomial(0, 1) == 0


@given(rationals, st.integers(min_value=1, max_value=10))
def test_binomial_pascal_rule(x, b):
    assert binomial(x, b) == binomial(x - 1, b - 1) + binomial(x - 1, b)


@given(st.integers(min_value=0, max_value=8))
def test_binomial_is_degree_b_polynomial(b):
    # (b+1)-st finite difference of a degree-b polynomial vanishes
    points = [binomial(F(x), b) for x in range(b + 2)]
    for _ in range(b + 1):
        points = [points[i + 1] - points[i] for i in range(len(points) - 1)]
    assert points == [0]


def test_rising_factorial():
    assert rising_factorial(F(1, 2), 0) == 1
    assert rising_factorial(1, 5) == math.factorial(5)
    assert rising_factorial(F(1, 2), 3) == F(1, 2) * F(3, 2) * F(5, 2)
    with pytest.raises(ValueError):
        rising_factorial(F(1), -1)


@given(rationals, st.integers(min_value=0, max_value=8))
def test_rising_factorial_vs_binomial(g, a):
    assert rising_factorial(g + 1, a) == math.factorial(a) * binomial(g + a, a)


# --- polynomials -------------------------------------------------------------


def test_poly_normalization():
    p = Poly([1, 2, 0, 0])
    assert p.coeffs == (1, 2)
    assert p.degree == 1
    z = Poly([0, 0])
    assert z == Poly([])
    assert z.degree == -1
    assert z.coeffs == ()


def test_poly_coefficient_beyond_degree():
    p = Poly([3, 5])
    assert p.coefficient(0) == 3
    assert p.coefficient(7) == 0


def test_poly_arithmetic():
    x = Poly.indeterminate()
    p = (x + 1) * (x + 2)
    assert p == Poly([2, 3, 1])
    assert p + Poly([-2]) == Poly([0, 3, 1])
    assert p * -1 == Poly([-2, -3, -1])
    assert p * 0 == Poly([])


def test_poly_scalar_mixing():
    x = Poly.indeterminate()
    assert 1 + x == Poly([1, 1])
    assert 2 + x * -1 == Poly([2, -1])
    assert 3 * x == Poly([0, 3])
    assert x + F(1, 2) == Poly([F(1, 2), 1])


def test_poly_eval_horner():
    p = Poly([2, 3, 1])  # (x+1)(x+2)
    assert p(F(1, 2)) == F(15, 4)
    assert p(-1) == 0
    assert Poly([])(F(5)) == 0


def test_poly_eval_matches_expanded_sum():
    p = Poly([F(1, 3), -2, 0, F(7, 5)])
    x = F(-3, 2)
    expected = sum(c * x**k for k, c in enumerate(p.coeffs))
    assert p(x) == expected


def test_poly_var_mismatch():
    p = Poly([1, 1], var="gamma")
    q = Poly([1, 1], var="u")
    with pytest.raises(ValueError, match="mismatch"):
        p + q
    with pytest.raises(ValueError, match="mismatch"):
        p * q


def test_poly_equality_with_scalars():
    assert Poly([5]) == 5
    assert Poly([]) == 0
    assert Poly([0, 1]) != 1


def test_poly_is_hashable():
    assert hash(Poly([1, 2])) == hash(Poly([1, 2, 0]))
    assert len({Poly([1]), Poly([1]), Poly([2])}) == 2


def test_poly_hash_agrees_with_scalar_equality():
    assert hash(Poly((3,))) == hash(3)
    assert hash(Poly(())) == hash(0)
    assert hash(Poly((F(1, 2),), var="u")) == hash(F(1, 2))
    assert len({Poly((3,)), 3}) == 1
    assert len({Poly(()), 0, F(0)}) == 1


def test_poly_rejects_float_coefficients():
    with pytest.raises(TypeError):
        Poly([0.5])


def test_poly_str():
    assert str(Poly([2, 3, 1])) == "gamma^2 + 3*gamma + 2"
    assert str(Poly([-5, -8, -3])) == "-3*gamma^2 - 8*gamma - 5"
    assert str(Poly([])) == "0"
    assert str(Poly([0, 1], var="u")) == "u"


def test_rising_factorial_accepts_poly():
    x = Poly.indeterminate()
    p = rising_factorial(x + 1, 3)
    assert p == Poly([6, 11, 6, 1])


@given(st.lists(rationals, max_size=5), st.lists(rationals, max_size=5), rationals)
def test_poly_eval_is_ring_morphism(cs, ds, x):
    p, q = Poly(cs), Poly(ds)
    assert (p + q)(x) == p(x) + q(x)
    assert (p * q)(x) == p(x) * q(x)
