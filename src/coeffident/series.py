"""Truncated formal power series with exact rational coefficients.

``TSeries`` is a series in t cut off after an explicit order, held as
order + 1 integer numerators (zeros kept) over one denominator, so the
order is part of the value.  It has one operation, the truncated
product, and ``residue`` extracts a coefficient: the method of
coefficients needs no more.  ``binomial_series`` expands (1 + c*x)**r
for any rational r.  The blind bivariate expansion that the tests
compare the derivative table against is in ``tests/oracles.py``, on a
series type of its own, not here.

Everything here is formal: no convergence reasoning, no floats, no
analytic continuation.  A module-level counter tallies coefficient
multiplications so callers can report what a computation cost.
``_convolve`` is the truncated Cauchy product of integer coefficient
lists that the series product, the residue route and the polynomial
certification share.
"""

import functools
import math
import operator
from fractions import Fraction
from typing import Sequence

from .algebra import Scalar, _as_ratio, _count

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

    ``b`` must reach t**n; ``a`` may be shorter (its tail is zero).  Each
    a[i] adds a[i] * b[k - i] to every k >= i.  Counts no ops; its callers
    charge them.
    """
    out = [0] * (n + 1)
    for i, x in enumerate(a[: n + 1]):
        for k in range(i, n + 1):
            out[k] += x * b[k - i]
    return out


class TSeries:
    """Series sum_k c_k x**k truncated after x**order.

    ``TSeries(nums, den, order)`` is the series sum_k nums[k]/den x**k:
    integer numerators, one per power up to the order (zeros kept), over
    one positive denominator.  The constructor reduces them by one gcd,
    so that gcd(den, *nums) == 1 and equal series have equal
    ``(order, nums, den)``.  ``coeffs``, the tuple of ``Fraction``
    coefficients, is derived from that form on each read.
    The product of two series truncates to the shorter order (the longer
    tail would be unreliable anyway).  Instances are immutable in
    practice.
    """

    __slots__ = ("order", "nums", "den")

    def __init__(self, nums: Sequence[int], den: int, order: int):
        order = _count(order, "order")
        den = _count(den, "den", 1)
        if len(nums) != order + 1:
            raise ValueError(f"{len(nums)} numerators for order {order}, not order + 1")
        g = math.gcd(den, *nums)
        self.order = order
        self.nums = tuple(nums) if g == 1 else tuple([n // g for n in nums])
        self.den = den // g

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions, lowest power first."""
        return tuple(Fraction(n, self.den) for n in self.nums)

    def __mul__(self, other):
        if not isinstance(other, TSeries):
            return NotImplemented
        n = min(self.order, other.order)
        _OPS.count += (n + 1) * (n + 2) // 2
        return TSeries(_convolve(self.nums, other.nums, n), self.den * other.den, n)

    def __repr__(self):
        return f"TSeries({list(self.nums)}, {self.den}, {self.order})"


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
    return TSeries(nums, den, order)
