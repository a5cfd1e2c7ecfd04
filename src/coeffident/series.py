"""Truncated formal power series with exact rational coefficients.

``TSeries`` is a series in t cut off after an explicit order, held as
order + 1 integer numerators (zeros kept) over one denominator, so the
order is part of the value.  ``NestedSeries`` is a series in an outer
variable w whose coefficients are ``TSeries`` in an inner variable t --
just enough bivariate structure to expand integrand cores of the shape
(exp(-w) - t*exp(w))**r and read off w-coefficients.

Everything here is formal: no convergence reasoning, no floats, no
analytic continuation.  A module-level counter tallies coefficient
multiplications so callers can report what a computation cost.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction
from typing import Iterable, Sequence

from .algebra import _SCALARS, Scalar, _over_common_denominator, as_rational

__all__ = [
    "NonUnitSeries",
    "IrrationalScalarPower",
    "TruncationExceeded",
    "TSeries",
    "NestedSeries",
    "binomial_series",
    "residue",
    "rational_power",
    "nested_exp_core",
    "coefficient_ops",
]

class NonUnitSeries(ArithmeticError):
    """A series whose constant term must be invertible has constant term 0."""


class IrrationalScalarPower(ArithmeticError):
    """A scalar power u**r left the rationals (u is no perfect power)."""


class TruncationExceeded(LookupError):
    """A coefficient beyond the stored truncation order was requested."""


class _OpCounter:
    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0


_OPS = _OpCounter()


def coefficient_ops() -> int:
    """Running total of coefficient multiplications performed so far.

    Callers measure a computation by differencing this before and after.
    The count is logical work: a memoized kernel replays the count of its
    first evaluation on every cache hit, so identical computations report
    identical costs whether the caches are cold or warm.
    """
    return _OPS.count


def _memoized(maxsize: int):
    """Bounded ``lru_cache`` for a pure kernel that keeps its op count.

    Each cached result is stored with the ``coefficient_ops`` that its
    first evaluation charged; the counter is put back after that
    evaluation, and every call, hit or miss, adds the stored count.
    ``typed=True`` keeps 1, Fraction(1) and 1.0 apart, so a float
    argument is never answered from an exact entry and still reaches the
    kernel's ``as_rational``, which refuses it.
    """

    def decorate(kernel):
        @functools.lru_cache(maxsize=maxsize, typed=True)
        def evaluate(*args, **kwargs):
            before = _OPS.count
            value = kernel(*args, **kwargs)
            ops = _OPS.count - before
            _OPS.count = before
            return value, ops

        @functools.wraps(kernel)
        def memoized(*args, **kwargs):
            value, ops = evaluate(*args, **kwargs)
            _OPS.count += ops
            return value

        memoized.cache_info = evaluate.cache_info
        memoized.cache_clear = evaluate.cache_clear
        return memoized

    return decorate


class TSeries:
    """Series sum_k c_k x**k truncated after x**order.

    The coefficients are stored as integer numerators ``nums`` (one per
    power, zeros kept) over one positive denominator ``den``, reduced so
    that gcd(den, *nums) == 1; equal series therefore have equal
    ``(order, nums, den)``.  ``coeffs``, the tuple of ``Fraction``
    coefficients, is derived from that form when something reads it.
    Arithmetic between series of different orders truncates to the
    shorter one (the longer tail would be unreliable anyway).  Instances
    are immutable in practice and hashable.
    """

    __slots__ = ("order", "nums", "den", "_coeffs")

    def __init__(self, coeffs: Iterable[Scalar], order: int | None = None):
        cs = [as_rational(c) for c in coeffs]
        if order is None:
            if not cs:
                raise ValueError("empty coefficient list needs an explicit order")
            order = len(cs) - 1
        if order < 0:
            raise ValueError("truncation order must be >= 0")
        if len(cs) <= order:
            cs.extend([Fraction(0)] * (order + 1 - len(cs)))
        else:
            del cs[order + 1 :]
        # over the lowest common denominator the numerators are already
        # coprime to it, so no reduction is needed
        nums, den = _over_common_denominator(cs)
        self.order = order
        self.nums = tuple(nums)
        self.den = den
        self._coeffs = None

    @classmethod
    def _reduced(cls, nums: Sequence[int], den: int, order: int) -> "TSeries":
        """The series sum_k nums[k]/den x**k (len(nums) == order + 1,
        den > 0), brought to lowest terms by one gcd."""
        g = math.gcd(den, *nums)
        if g != 1:
            nums = [n // g for n in nums]
            den //= g
        series = object.__new__(cls)
        series.order = order
        series.nums = tuple(nums)
        series.den = den
        series._coeffs = None
        return series

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions, lowest power first."""
        if self._coeffs is None:
            den = self.den
            self._coeffs = tuple(Fraction(n, den) for n in self.nums)
        return self._coeffs

    @classmethod
    def constant(cls, value: Scalar, order: int) -> "TSeries":
        return cls((value,), order)

    @classmethod
    def one(cls, order: int) -> "TSeries":
        return cls.constant(1, order)

    def _combine(self, other: "TSeries", sign: int) -> "TSeries":
        """self + sign * other, truncated to the shorter order."""
        n = min(self.order, other.order)
        g = math.gcd(self.den, other.den)
        fa, fb = other.den // g, sign * (self.den // g)
        nums = [
            x * fa + y * fb for x, y in zip(self.nums[: n + 1], other.nums[: n + 1])
        ]
        return TSeries._reduced(nums, self.den * fa, n)

    def __add__(self, other):
        if isinstance(other, _SCALARS):
            c = as_rational(other)
            nums = [n * c.denominator for n in self.nums]
            nums[0] += c.numerator * self.den
            return TSeries._reduced(nums, self.den * c.denominator, self.order)
        if not isinstance(other, TSeries):
            return NotImplemented
        return self._combine(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, _SCALARS):
            return self + -as_rational(other)
        if not isinstance(other, TSeries):
            return NotImplemented
        return self._combine(other, -1)

    def scale(self, factor: Scalar) -> "TSeries":
        c = as_rational(factor)
        _OPS.count += self.order + 1
        return TSeries._reduced(
            [c.numerator * n for n in self.nums], self.den * c.denominator, self.order
        )

    def __mul__(self, other):
        if isinstance(other, _SCALARS):
            return self.scale(other)
        if not isinstance(other, TSeries):
            return NotImplemented
        n = min(self.order, other.order)
        a = self.nums
        b = other.nums[n::-1]  # b[n - i] is the t**i numerator
        out = [sum(map(operator.mul, a[: k + 1], b[n - k :])) for k in range(n + 1)]
        _OPS.count += (n + 1) * (n + 2) // 2
        return TSeries._reduced(out, self.den * other.den, n)

    __rmul__ = __mul__

    def inverse(self) -> "TSeries":
        """Multiplicative inverse to the same order, by the usual recursion."""
        u = self.coeffs[0]
        if u == 0:
            raise NonUnitSeries("cannot invert a series with zero constant term")
        inv0 = 1 / u
        out = [inv0]
        for k in range(1, self.order + 1):
            tail = sum(
                (self.coeffs[i] * out[k - i] for i in range(1, k + 1)), Fraction(0)
            )
            out.append(-inv0 * tail)
        _OPS.count += self.order * (self.order + 1) // 2 + self.order + 1
        return TSeries(out, self.order)

    def __pow__(self, n: int) -> "TSeries":
        if not isinstance(n, int):
            raise TypeError("use pow_rational for fractional exponents")
        if n < 0:
            return self.inverse() ** (-n)
        result = TSeries.one(self.order)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def pow_rational(self, exponent: Scalar) -> "TSeries":
        """Raise a unit series to an exact rational power.

        The constant term u must be nonzero, and u**exponent must itself
        be rational (otherwise IrrationalScalarPower); the tail is the
        binomial expansion of (1 + v)**exponent with v = self/u - 1,
        which terminates at the truncation order because v has no
        constant term.
        """
        r = as_rational(exponent)
        u = self.coeffs[0]
        if u == 0:
            raise NonUnitSeries("pow_rational needs a nonzero constant term")
        lead = rational_power(u, r)
        v = self.scale(1 / u) - 1
        return _one_plus_power(TSeries.one(self.order), v, r, self.order).scale(lead)

    def __eq__(self, other):
        if not isinstance(other, TSeries):
            return NotImplemented
        return (
            self.order == other.order
            and self.den == other.den
            and self.nums == other.nums
        )

    def __hash__(self):
        return hash((self.order, self.nums, self.den))

    def __repr__(self):
        return f"TSeries({[str(c) for c in self.coeffs]}, order={self.order})"


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


def residue(series: TSeries, m: int) -> Fraction:
    """Coefficient of x**m: the formal residue of x**(-m-1) * series.

    Negative m gives 0 (the series has no pole); m past the truncation
    order is *unknown*, not zero, so that raises TruncationExceeded.
    """
    if m < 0:
        return Fraction(0)
    if m > series.order:
        raise TruncationExceeded(
            f"coefficient {m} lies beyond truncation order {series.order}"
        )
    return Fraction(series.nums[m], series.den)


@_memoized(maxsize=256)
def binomial_series(c: Scalar, r: Scalar, order: int) -> TSeries:
    """The expansion of (1 + c*x)**r to the given order, r any rational.

    Coefficients come from the incremental ratio binom(r, n+1)/binom(r, n)
    = (r - n)/(n + 1), so the whole series costs O(order) multiplications.
    Memoized; a cache hit still counts those multiplications.
    """
    if order < 0:
        raise ValueError("truncation order must be >= 0")
    cc = as_rational(c)
    rr = as_rational(r)
    coeffs = [Fraction(1)]
    coef = Fraction(1)
    for n in range(order):
        coef = coef * cc * (rr - n) / (n + 1)
        coeffs.append(coef)
    _OPS.count += 2 * order
    return TSeries(coeffs, order)


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


class NestedSeries:
    """Series in an outer variable whose coefficients are TSeries.

    The outer variable (w) is always resolved first: ``coefficient(k)``
    hands back an ordinary TSeries in the inner variable, and nothing
    done to the nested series afterwards can reach into it.  All inner
    series must share one truncation order.
    """

    __slots__ = ("coeffs", "w_order", "t_order")

    def __init__(self, coeffs: Sequence[TSeries], w_order: int | None = None):
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
            zero = TSeries.constant(0, t_order)
            rows.extend([zero] * (w_order + 1 - len(rows)))
        else:
            del rows[w_order + 1 :]
        self.coeffs = tuple(rows)
        self.w_order = w_order
        self.t_order = t_order

    @classmethod
    def one(cls, t_order: int, w_order: int) -> "NestedSeries":
        return cls([TSeries.one(t_order)], w_order)

    def coefficient(self, k: int) -> TSeries:
        """The w**k coefficient; negative k is zero, past w_order unknown."""
        if k < 0:
            return TSeries.constant(0, self.t_order)
        if k > self.w_order:
            raise TruncationExceeded(
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
            [self.coeffs[k] - other.coeffs[k] for k in range(n + 1)], n
        )

    def scale(self, factor) -> "NestedSeries":
        """Multiply every w-coefficient by a scalar or by a TSeries in t."""
        if isinstance(factor, TSeries):
            return NestedSeries([row * factor for row in self.coeffs], self.w_order)
        return NestedSeries(
            [row.scale(factor) for row in self.coeffs], self.w_order
        )

    def __mul__(self, other):
        if isinstance(other, (TSeries,) + _SCALARS):
            return self.scale(other)
        if not isinstance(other, NestedSeries):
            return NotImplemented
        n = min(self.w_order, other.w_order)
        t_order = min(self.t_order, other.t_order)
        rows = []
        for k in range(n + 1):
            acc = TSeries.constant(0, t_order)
            for i in range(k + 1):
                acc = acc + self.coeffs[i] * other.coeffs[k - i]
            rows.append(acc)
        return NestedSeries(rows, n)

    __rmul__ = __mul__

    def pow_rational(self, exponent: Scalar) -> "NestedSeries":
        """Rational power via u**r * (1 + v)**r, u = the w**0 coefficient.

        u must be a unit TSeries (nonzero constant term) whose own
        rational power exists; v = self/u - 1 has a zero w**0 coefficient
        so its powers terminate at the outer truncation order.
        """
        r = as_rational(exponent)
        u = self.coeffs[0]
        if u.coeffs[0] == 0:
            raise NonUnitSeries("the w**0 coefficient is not a unit series")
        lead = u.pow_rational(r)
        one = NestedSeries.one(self.t_order, self.w_order)
        v = self.scale(u.inverse()) - one
        return _one_plus_power(one, v, r, self.w_order).scale(lead)

    def __eq__(self, other):
        if not isinstance(other, NestedSeries):
            return NotImplemented
        return self.w_order == other.w_order and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.w_order, self.coeffs))

    def __repr__(self):
        return f"NestedSeries({list(self.coeffs)!r}, w_order={self.w_order})"


def nested_exp_core(gamma: Scalar, t_order: int, w_order: int) -> NestedSeries:
    """Bivariate expansion of (exp(-w) - t*exp(w))**(-(gamma+1)).

    The base expands as sum_n w**n/n! * ((-1)**n - t); its w**0
    coefficient is 1 - t, a unit, so every rational exponent exists.
    This is the blind cross-check for the closed forms in
    ``residues``: no derivative tables, just series arithmetic.
    """
    g = as_rational(gamma)
    rows = []
    inv_fact = Fraction(1)
    for n in range(w_order + 1):
        if n:
            inv_fact /= n
        sign = 1 if n % 2 == 0 else -1
        rows.append(TSeries((sign * inv_fact, -inv_fact), t_order))
    core = NestedSeries(rows, w_order)
    return core.pow_rational(-1 - g)
