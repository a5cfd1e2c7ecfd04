"""Truncated formal power series with exact rational coefficients.

``TSeries`` is a series in t cut off after an explicit order, held as
order + 1 integer numerators (zeros kept) over one denominator, so the
order is part of the value.  It has sums, scalar multiples, the
truncated product and coefficient extraction by ``residue``.
``binomial_series`` expands (1 + c*x)**r for any rational r.  The blind bivariate expansion that the tests
compare the derivative table against, with its inverse and rational
powers, is in ``tests/oracles.py``, not here.

Everything here is formal: no convergence reasoning, no floats, no
analytic continuation.  A module-level counter tallies coefficient
multiplications so callers can report what a computation cost.
``_convolve`` is the package's one truncated Cauchy product of integer
coefficient lists.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction
from typing import Iterable, Sequence

from .algebra import (
    _SCALARS,
    Scalar,
    _as_ratio,
    _count,
    _over_common_denominator,
    as_rational,
)

__all__ = [
    "TruncationExceeded",
    "TSeries",
    "binomial_series",
    "residue",
    "coefficient_ops",
]


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
    The count is logical work: each counting function charges its
    closed-form count on every call, and no cache counts, so identical
    computations report identical costs whether the caches are cold or
    warm.
    """
    return _OPS.count


def _convolve(a: Sequence[int], b: Sequence[int], n: int) -> list[int]:
    """[t**k] of the product of two integer series, for k = 0..n.

    ``b`` must reach t**n; ``a`` may be shorter (its tail is zero).
    Counts no ops; its callers charge them.
    """
    return [sum(map(operator.mul, a[: k + 1], b[k::-1])) for k in range(n + 1)]


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
        order = order if order is None else _count(order, "order")
        cs = [as_rational(c) for c in coeffs]
        if order is None:
            if not cs:
                raise ValueError("empty coefficient list needs an explicit order")
            order = len(cs) - 1
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

    def __add__(self, other):
        if isinstance(other, _SCALARS):
            c = as_rational(other)
            nums = [n * c.denominator for n in self.nums]
            nums[0] += c.numerator * self.den
            return TSeries._reduced(nums, self.den * c.denominator, self.order)
        if not isinstance(other, TSeries):
            return NotImplemented
        n = min(self.order, other.order)
        g = math.gcd(self.den, other.den)
        fa, fb = other.den // g, self.den // g
        nums = [
            x * fa + y * fb for x, y in zip(self.nums[: n + 1], other.nums[: n + 1])
        ]
        return TSeries._reduced(nums, self.den * fa, n)

    __radd__ = __add__

    def scale(self, factor: Scalar) -> "TSeries":
        c = as_rational(factor)
        _OPS.count += self.order + 1
        return TSeries._reduced(
            [c.numerator * n for n in self.nums], self.den * c.denominator, self.order
        )

    def __mul__(self, other):
        # the series case first: it is the common one, and an exact type
        # test costs less than isinstance against a tuple of types
        if type(other) is not TSeries:
            if isinstance(other, _SCALARS):
                return self.scale(other)
            if not isinstance(other, TSeries):
                return NotImplemented
        n = min(self.order, other.order)
        _OPS.count += (n + 1) * (n + 2) // 2
        out = _convolve(self.nums, other.nums, n)
        return TSeries._reduced(out, self.den * other.den, n)

    __rmul__ = __mul__

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


def residue(series: TSeries, m: int) -> Fraction:
    """Coefficient of x**m: the formal residue of x**(-m-1) * series.

    Negative m gives 0 (the series has no pole); m past the truncation
    order is *unknown*, not zero, so that raises TruncationExceeded.
    """
    m = operator.index(m)
    if m < 0:
        return Fraction(0)
    if m > series.order:
        raise TruncationExceeded(
            f"coefficient {m} lies beyond truncation order {series.order}"
        )
    return Fraction(series.nums[m], series.den)


@functools.lru_cache(maxsize=256)
def _binomial_numerators(
    a: int, b: int, p: int, q: int, order: int
) -> tuple[tuple[int, ...], int]:
    """The coefficients of (1 + (a/b)*x)**(p/q) up to x**order (b, q > 0)
    as integer numerators over one positive denominator, in lowest terms.

    The x**n coefficient C(r, n) c**n is a**n prod_{i<n} (p - i*q) over
    (b*q)**n n!.  Over the common denominator (b*q)**order order! its
    numerator is a**n prod_{i<n} (p - i*q) (b*q)**(order-n) order!/n!,
    stepped in ints by the incremental ratio
    binom(r, n)/binom(r, n-1) = (r - n + 1)/n; each division is exact.
    The key is ints, so a lookup hashes no Fraction; this kernel counts
    no ops, its callers do.
    """
    bq = b * q
    num = bq**order * math.factorial(order)
    nums = [num]
    for n in range(1, order + 1):
        num = num * a * (p - (n - 1) * q) // (bq * n)
        nums.append(num)
    common = math.gcd(*nums)
    return tuple([n // common for n in nums]), nums[0] // common


def binomial_series(c: Scalar, r: Scalar, order: int) -> TSeries:
    """The expansion of (1 + c*x)**r to the given order, r any rational.

    A ``TSeries`` over the cached integer kernel ``_binomial_numerators``,
    which the residue route also reads directly.  It makes no Fraction,
    and every call charges its 2*order multiplications.
    """
    order = _count(order, "order")
    a, b = _as_ratio(c)
    p, q = _as_ratio(r)
    nums, den = _binomial_numerators(a, b, p, q, order)
    _OPS.count += 2 * order
    return TSeries._reduced(nums, den, order)
