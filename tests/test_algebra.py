import math
from decimal import Decimal
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
from coeffident.identity import IdentityInstance
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


def test_as_rational_reads_strings_as_the_command_line_does():
    assert as_rational("1/2") == F(1, 2)
    assert as_rational(" -3/4 ") == F(-3, 4)
    assert as_rational("−5") == -5
    # the command line refuses these; Fraction alone would accept them
    for text in ("0.1", "1e3", "1_0", "+1"):
        with pytest.raises(ValueError, match="not a rational"):
            as_rational(text)
    with pytest.raises(ValueError, match="zero denominator"):
        as_rational("1/0")
    with pytest.raises(ValueError, match="zero denominator"):
        IdentityInstance(0, (1,), ("1/0",))
    # the other exact types are read as before
    assert as_rational(3) == 3 and type(as_rational(3)) is F
    assert as_rational(Decimal("0.25")) == F(1, 4)
    half = F(1, 2)
    assert as_rational(half) is half


def test_binomial_refuses_floats():
    with pytest.raises(TypeError, match="refusing float"):
        binomial(0.5, 2)
    with pytest.raises(TypeError, match="refusing float"):
        binomial(0.5, -1)
    # int and Fraction arguments keep their exact results
    assert binomial(5, 2) == 10 and type(binomial(5, 2)) is F
    assert binomial(F(1, 2), 1) == F(1, 2)


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
    assert z.coeffs == Poly([]).coeffs
    assert z.degree == -1
    assert z.coeffs == ()


def test_poly_coefficient_beyond_degree():
    p = Poly([3, 5])
    assert p.coefficient(0) == 3
    assert p.coefficient(7) == 0


def test_poly_arithmetic():
    p = Poly([1, 1]) * Poly([2, 1])  # (x+1)(x+2)
    assert p.coeffs == (2, 3, 1)
    assert (p * Poly([-1])).coeffs == (-2, -3, -1)
    assert (p * Poly([])).coeffs == ()
    assert (Poly([F(1, 2)], var="u") * Poly([0, 4], var="u")).var == "u"
    # the product takes polynomials only
    with pytest.raises(TypeError):
        p * 2
    with pytest.raises(TypeError):
        2 * p


def test_poly_var_mismatch():
    p = Poly([1, 1], var="gamma")
    q = Poly([1, 1], var="u")
    with pytest.raises(ValueError, match="mismatch"):
        p * q


def test_poly_rejects_float_coefficients():
    with pytest.raises(TypeError):
        Poly([0.5])


@given(st.lists(rationals, max_size=5), st.lists(rationals, max_size=5))
def test_poly_mul_is_the_cauchy_product(cs, ds):
    product = (Poly(cs) * Poly(ds)).coeffs
    expected = [
        sum((cs[i] * ds[k - i] for i in range(k + 1) if i < len(cs) and k - i < len(ds)), F(0))
        for k in range(len(cs) + len(ds) - 1)
    ]
    while expected and expected[-1] == 0:
        expected.pop()
    assert product == tuple(expected)
    assert all(type(c) is F for c in product)
