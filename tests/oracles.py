"""Reference expansions that the tests compare the package against.

The package evaluates [w**alpha] of the exponential core
(exp(-w) - t*exp(w))**(-(gamma+1)) from a derivative table
(``w_residue_closed``) and as a term-by-term sum (``w_residue_series``).
``nested_exp_core`` computes the same coefficient blind: it expands the
core as a bivariate series and raises it to a rational power, with no
derivative table, no closed form and none of the package's series
arithmetic.  What it needs lives here:

* ``Series``, a truncated series held as a tuple of ``Fraction``
  coefficients, with ``+``, ``*`` and ``scale``;
* ``inverse``, ``power``, ``pow_rational`` and ``subtract`` on a
  ``Series``;
* ``rational_power``, the exact rational power of a scalar;
* ``NestedSeries``, a series in an outer variable w whose coefficients
  are ``Series`` in an inner variable t;
* ``rising_factorial``, the product x (x+1) ... (x+n-1), and
  ``rising_coefficients``, the integer coefficients of (x+1) ... (x+n);
* ``poly_value``, a polynomial's value from its coefficients.

``over_common_denominator`` writes a list of ``Fraction``s in the
package's integer form.  None of this is imported by the package, and
nothing here is imported from ``coeffident.series``.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Iterable, Sequence

from coeffident.algebra import Scalar, as_rational


class NonUnitSeries(ArithmeticError):
    """A series whose constant term must be invertible has constant term 0."""


class IrrationalScalarPower(ArithmeticError):
    """A scalar power u**r left the rationals (u is no perfect power)."""


def rising_factorial(x, n: int):
    """Product x (x+1) ... (x+n-1); the empty product (= 1) for n = 0."""
    if n < 0:
        raise ValueError("rising_factorial needs n >= 0")
    acc = Fraction(1)
    for i in range(n):
        acc = acc * (x + i)
    return acc


def poly_value(coeffs: Sequence[Scalar], x: Scalar) -> Fraction:
    """sum_k coeffs[k] * x**k, exactly: the value at x of the polynomial
    with these coefficients, lowest degree first."""
    x = as_rational(x)
    return sum((c * x**k for k, c in enumerate(coeffs)), Fraction(0))


def rising_coefficients(n: int) -> tuple[int, ...]:
    """Coefficients of (x+1)(x+2)...(x+n), lowest degree first, multiplied
    out one factor at a time in ints."""
    coeffs = [1]
    for i in range(1, n + 1):
        coeffs = [i * a + b for a, b in zip(coeffs + [0], [0] + coeffs)]
    return tuple(coeffs)


def over_common_denominator(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integer numerators of ``values`` over their lowest common denominator:
    ``values[i] == Fraction(nums[i], den)``, and gcd(den, *nums) == 1."""
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


# ---------------------------------------------------------------------------
# truncated series of Fractions


class Series(tuple):
    """Series sum_k c_k t**k truncated after t**order, as the tuple of its
    ``Fraction`` coefficients, lowest power first; the order is len - 1.

    The constructor pads with zeros or truncates to ``order``.  ``+`` and
    ``*`` take only another series and truncate to the shorter order, so
    they never fall back to a tuple's concatenation or repetition;
    ``scale`` multiplies by a scalar.
    Equality and hashing are the tuple's, so a series equals the
    ``coeffs`` of a package series with the same coefficients.
    """

    def __new__(cls, coeffs: Iterable[Scalar], order: int | None = None):
        cs = [as_rational(c) for c in coeffs]
        if order is None:
            if not cs:
                raise ValueError("empty coefficient list needs an explicit order")
            order = len(cs) - 1
        if order < 0:
            raise ValueError(f"order={order} must be >= 0")
        return super().__new__(cls, (cs + [Fraction(0)] * order)[: order + 1])

    @classmethod
    def constant(cls, value: Scalar, order: int) -> "Series":
        return cls((value,), order)

    @classmethod
    def one(cls, order: int) -> "Series":
        return cls.constant(1, order)

    @property
    def order(self) -> int:
        return len(self) - 1

    def __add__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return Series(map(operator.add, self, other))

    def __mul__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return Series(
            sum(map(operator.mul, self[: k + 1], other[k::-1]), Fraction(0))
            for k in range(min(len(self), len(other)))
        )

    __rmul__ = __mul__

    def scale(self, factor: Scalar) -> "Series":
        c = as_rational(factor)
        return Series(c * x for x in self)

    def __repr__(self):
        return f"Series({[str(c) for c in self]})"


def subtract(a: Series, b) -> Series:
    """a - b for a series b, truncated to the shorter order, or a scalar b."""
    if not isinstance(b, Series):
        b = Series.constant(b, a.order)
    return a + b.scale(-1)


def inverse(series: Series) -> Series:
    """Multiplicative inverse to the same order, by the usual recursion."""
    u = series[0]
    if u == 0:
        raise NonUnitSeries("cannot invert a series with zero constant term")
    inv0 = 1 / u
    out = [inv0]
    for k in range(1, series.order + 1):
        tail = sum((series[i] * out[k - i] for i in range(1, k + 1)), Fraction(0))
        out.append(-inv0 * tail)
    return Series(out)


def power(series: Series, n: int) -> Series:
    """series**n for an integer n, by repeated squaring; a negative n
    inverts first."""
    if not isinstance(n, int):
        raise TypeError("use pow_rational for fractional exponents")
    if n < 0:
        return power(inverse(series), -n)
    result = Series.one(series.order)
    base = series
    while n:
        if n & 1:
            result = result * base
        n >>= 1
        if n:
            base = base * base
    return result


def pow_rational(series: Series, exponent: Scalar) -> Series:
    """Raise a unit series to an exact rational power.

    The constant term u must be nonzero, and u**exponent must itself
    be rational (otherwise IrrationalScalarPower); the tail is the
    binomial expansion of (1 + v)**exponent with v = series/u - 1,
    which terminates at the truncation order because v has no
    constant term.
    """
    r = as_rational(exponent)
    u = series[0]
    if u == 0:
        raise NonUnitSeries("pow_rational needs a nonzero constant term")
    lead = rational_power(u, r)
    v = subtract(series.scale(1 / u), 1)
    return _one_plus_power(Series.one(series.order), v, r, series.order).scale(lead)


def _one_plus_power(one, v, r: Fraction, order: int):
    """(1 + v)**r as sum_n C(r, n) v**n, for a series v without constant
    term, so v**n vanishes past the truncation ``order``; ``one`` is the
    unit series of v's kind."""
    result = vpow = one
    coef = Fraction(1)
    for n in range(1, order + 1):
        coef = coef * (r - (n - 1)) / n
        if coef == 0:
            break  # nonnegative integer exponent: expansion ends early
        vpow = vpow * v
        result = result + vpow.scale(coef)
    return result


# ---------------------------------------------------------------------------
# scalar rational powers


def rational_power(base: Scalar, exponent: Scalar) -> Fraction:
    """Exact base**exponent, defined only when the result is rational.

    Integer exponents always work (base != 0 for negative ones).  For
    exponent p/q the base must be a perfect q-th power in the rationals;
    otherwise IrrationalScalarPower is raised.  Negative bases admit only
    odd root indices.
    """
    b = as_rational(base)
    r = as_rational(exponent)
    if b == 0:
        if r > 0:
            return Fraction(0)
        raise ZeroDivisionError("0 cannot be raised to a nonpositive power")
    if r.denominator == 1:
        return b ** int(r)
    index = r.denominator
    negative = b < 0
    if negative and index % 2 == 0:
        raise IrrationalScalarPower(f"{b} has no rational {index}th root")
    num_root = _exact_root(abs(b.numerator), index)
    den_root = _exact_root(b.denominator, index)
    if num_root is None or den_root is None:
        raise IrrationalScalarPower(f"{b} has no rational {index}th root")
    root = Fraction(-num_root if negative else num_root, den_root)
    return root ** r.numerator


def _exact_root(n: int, k: int) -> int | None:
    """Integer k-th root of n >= 0, or None when n is not a perfect power."""
    if n < 2:
        return n
    lo, hi = 1, 1
    while hi**k < n:
        hi <<= 1
    while lo < hi:
        mid = (lo + hi) // 2
        if mid**k < n:
            lo = mid + 1
        else:
            hi = mid
    return lo if lo**k == n else None


# ---------------------------------------------------------------------------
# bivariate series and the blind expansion


class NestedSeries:
    """Series in an outer variable whose coefficients are Series.

    The outer variable (w) is always resolved first: ``coefficient(k)``
    hands back an ordinary Series in the inner variable, and nothing
    done to the nested series afterwards can reach into it.  All inner
    series must share one truncation order.
    """

    __slots__ = ("coeffs", "w_order", "t_order")

    def __init__(self, coeffs: Sequence[Series], w_order: int | None = None):
        rows = list(coeffs)
        if not rows:
            raise ValueError("a nested series needs at least the w**0 coefficient")
        t_order = rows[0].order
        if any(row.order != t_order for row in rows):
            raise ValueError("all inner series must share one truncation order")
        if w_order is None:
            w_order = len(rows) - 1
        if w_order < 0:
            raise ValueError("outer truncation order must be >= 0")
        if len(rows) <= w_order:
            zero = Series.constant(0, t_order)
            rows.extend([zero] * (w_order + 1 - len(rows)))
        else:
            del rows[w_order + 1 :]
        self.coeffs = tuple(rows)
        self.w_order = w_order
        self.t_order = t_order

    @classmethod
    def one(cls, t_order: int, w_order: int) -> "NestedSeries":
        return cls([Series.one(t_order)], w_order)

    def coefficient(self, k: int) -> Series:
        """The w**k coefficient; negative k is zero, past w_order unknown."""
        if k < 0:
            return Series.constant(0, self.t_order)
        if k > self.w_order:
            raise LookupError(
                f"w-coefficient {k} lies beyond truncation order {self.w_order}"
            )
        return self.coeffs[k]

    def __add__(self, other):
        if not isinstance(other, NestedSeries):
            return NotImplemented
        n = min(self.w_order, other.w_order)
        return NestedSeries(
            [self.coeffs[k] + other.coeffs[k] for k in range(n + 1)], n
        )

    def __sub__(self, other):
        if not isinstance(other, NestedSeries):
            return NotImplemented
        n = min(self.w_order, other.w_order)
        return NestedSeries(
            [subtract(self.coeffs[k], other.coeffs[k]) for k in range(n + 1)], n
        )

    def scale(self, factor) -> "NestedSeries":
        """Multiply every w-coefficient by a scalar or by a Series in t."""
        if isinstance(factor, Series):
            return NestedSeries([row * factor for row in self.coeffs], self.w_order)
        return NestedSeries(
            [row.scale(factor) for row in self.coeffs], self.w_order
        )

    def __mul__(self, other):
        if isinstance(other, (Series, int, Fraction)):
            return self.scale(other)
        if not isinstance(other, NestedSeries):
            return NotImplemented
        n = min(self.w_order, other.w_order)
        t_order = min(self.t_order, other.t_order)
        rows = []
        for k in range(n + 1):
            acc = Series.constant(0, t_order)
            for i in range(k + 1):
                acc = acc + self.coeffs[i] * other.coeffs[k - i]
            rows.append(acc)
        return NestedSeries(rows, n)

    def pow_rational(self, exponent: Scalar) -> "NestedSeries":
        """Rational power via u**r * (1 + v)**r, u = the w**0 coefficient.

        u must be a unit Series (nonzero constant term) whose own
        rational power exists; v = self/u - 1 has a zero w**0 coefficient
        so its powers terminate at the outer truncation order.
        """
        r = as_rational(exponent)
        u = self.coeffs[0]
        if u[0] == 0:
            raise NonUnitSeries("the w**0 coefficient is not a unit series")
        lead = pow_rational(u, r)
        one = NestedSeries.one(self.t_order, self.w_order)
        v = self.scale(inverse(u)) - one
        return _one_plus_power(one, v, r, self.w_order).scale(lead)

    def __eq__(self, other):
        if not isinstance(other, NestedSeries):
            return NotImplemented
        return self.w_order == other.w_order and self.coeffs == other.coeffs

    def __repr__(self):
        return f"NestedSeries({list(self.coeffs)!r}, w_order={self.w_order})"


def nested_exp_core(gamma: Scalar, t_order: int, w_order: int) -> NestedSeries:
    """Bivariate expansion of (exp(-w) - t*exp(w))**(-(gamma+1)).

    The base expands as sum_n w**n/n! * ((-1)**n - t); its w**0
    coefficient is 1 - t, a unit, so every rational exponent exists.
    This is the blind cross-check for the closed forms in
    ``coeffident.residues``: no derivative tables, just series
    arithmetic.
    """
    g = as_rational(gamma)
    rows = []
    inv_fact = Fraction(1)
    for n in range(w_order + 1):
        if n:
            inv_fact /= n
        sign = 1 if n % 2 == 0 else -1
        rows.append(Series((sign * inv_fact, -inv_fact), t_order))
    core = NestedSeries(rows, w_order)
    return core.pow_rational(-1 - g)
