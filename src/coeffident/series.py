"""Truncated formal power series with exact rational coefficients.

``TSeries`` is a series in one variable cut off after an explicit order;
the coefficient tuple always has length order + 1 with zeros kept, so the
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
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .algebra import as_rational

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
    "sinh_t_series",
    "coefficient_ops",
]

Scalar = Union[int, Fraction]
_SCALARS = (int, Fraction)


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

    Arithmetic between series of different orders truncates to the
    shorter one (the longer tail would be unreliable anyway).  Arithmetic
    between different variable tags is refused.  Instances are immutable
    in practice and hashable.
    """

    __slots__ = ("coeffs", "order", "var")

    def __init__(self, coeffs: Iterable[Scalar], order: int | None = None, var: str = "t"):
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
        self.coeffs = tuple(cs)
        self.order = order
        self.var = var

    @classmethod
    def constant(cls, value: Scalar, order: int, var: str = "t") -> "TSeries":
        return cls((value,), order, var)

    @classmethod
    def one(cls, order: int, var: str = "t") -> "TSeries":
        return cls.constant(1, order, var)

    def truncate(self, order: int) -> "TSeries":
        """The same series cut down to a smaller (or equal) order."""
        if order > self.order:
            raise TruncationExceeded(
                f"cannot extend order {self.order} to {order}: tail unknown"
            )
        return TSeries(self.coeffs[: order + 1], order, self.var)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def _check_compatible(self, other: "TSeries") -> None:
        if self.var != other.var:
            raise ValueError(f"series variable mismatch: {self.var!r} vs {other.var!r}")

    def __add__(self, other):
        if isinstance(other, _SCALARS):
            head = (self.coeffs[0] + as_rational(other),) + self.coeffs[1:]
            return TSeries(head, self.order, self.var)
        if not isinstance(other, TSeries):
            return NotImplemented
        self._check_compatible(other)
        n = min(self.order, other.order)
        return TSeries(
            (self.coeffs[k] + other.coeffs[k] for k in range(n + 1)), n, self.var
        )

    __radd__ = __add__

    def __neg__(self):
        return TSeries((-c for c in self.coeffs), self.order, self.var)

    def __sub__(self, other):
        if isinstance(other, _SCALARS):
            head = (self.coeffs[0] - as_rational(other),) + self.coeffs[1:]
            return TSeries(head, self.order, self.var)
        if not isinstance(other, TSeries):
            return NotImplemented
        self._check_compatible(other)
        n = min(self.order, other.order)
        return TSeries(
            (self.coeffs[k] - other.coeffs[k] for k in range(n + 1)), n, self.var
        )

    def __rsub__(self, other):
        if isinstance(other, _SCALARS):
            return (-self) + other
        return NotImplemented

    def scale(self, factor: Scalar) -> "TSeries":
        c = as_rational(factor)
        _OPS.count += self.order + 1
        return TSeries((c * a for a in self.coeffs), self.order, self.var)

    def __mul__(self, other):
        if isinstance(other, _SCALARS):
            return self.scale(other)
        if not isinstance(other, TSeries):
            return NotImplemented
        self._check_compatible(other)
        n = min(self.order, other.order)
        a, b = self.coeffs, other.coeffs
        out = [
            sum((a[i] * b[k - i] for i in range(k + 1)), Fraction(0))
            for k in range(n + 1)
        ]
        _OPS.count += (n + 1) * (n + 2) // 2
        return TSeries(out, n, self.var)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, _SCALARS):
            return self.scale(1 / as_rational(other))
        return NotImplemented

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
        return TSeries(out, self.order, self.var)

    def __pow__(self, n: int) -> "TSeries":
        if not isinstance(n, int):
            raise TypeError("use pow_rational for fractional exponents")
        if n < 0:
            return self.inverse() ** (-n)
        result = TSeries.one(self.order, self.var)
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
        result = TSeries.one(self.order, self.var)
        vpow = TSeries.one(self.order, self.var)
        coef = Fraction(1)
        for n in range(1, self.order + 1):
            coef = coef * (r - (n - 1)) / n
            if coef == 0:
                break  # nonnegative integer exponent: expansion ends early
            vpow = vpow * v
            result = result + vpow.scale(coef)
        return result.scale(lead)

    def __eq__(self, other):
        if not isinstance(other, TSeries):
            return NotImplemented
        return (
            self.var == other.var
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.var, self.order, self.coeffs))

    def __repr__(self):
        return (
            f"TSeries({[str(c) for c in self.coeffs]}, "
            f"order={self.order}, var={self.var!r})"
        )


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
    return series.coeffs[m]


@_memoized(maxsize=256)
def binomial_series(c: Scalar, r: Scalar, order: int, var: str = "t") -> TSeries:
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
    return TSeries(coeffs, order, var)


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
    series must share one variable tag and one truncation order.
    """

    __slots__ = ("coeffs", "w_order", "t_order")

    def __init__(self, coeffs: Sequence[TSeries], w_order: int | None = None):
        rows = list(coeffs)
        if not rows:
            raise ValueError("a nested series needs at least the w**0 coefficient")
        t_order = rows[0].order
        var = rows[0].var
        for row in rows:
            if row.order != t_order or row.var != var:
                raise ValueError("all inner series must share order and variable")
        if w_order is None:
            w_order = len(rows) - 1
        if w_order < 0:
            raise ValueError("outer truncation order must be >= 0")
        if len(rows) <= w_order:
            zero = TSeries.constant(0, t_order, var)
            rows.extend([zero] * (w_order + 1 - len(rows)))
        else:
            del rows[w_order + 1 :]
        self.coeffs = tuple(rows)
        self.w_order = w_order
        self.t_order = t_order

    @classmethod
    def one(cls, t_order: int, w_order: int, var: str = "t") -> "NestedSeries":
        rows = [TSeries.one(t_order, var)]
        return cls(rows, w_order)

    def coefficient(self, k: int) -> TSeries:
        """The w**k coefficient; negative k is zero, past w_order unknown."""
        if k < 0:
            return TSeries.constant(0, self.t_order, self.coeffs[0].var)
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

    def __neg__(self):
        return NestedSeries([-row for row in self.coeffs], self.w_order)

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
        var = self.coeffs[0].var
        rows = []
        for k in range(n + 1):
            acc = TSeries.constant(0, t_order, var)
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
        v = self.scale(u.inverse()) - NestedSeries.one(
            self.t_order, self.w_order, self.coeffs[0].var
        )
        result = NestedSeries.one(self.t_order, self.w_order, self.coeffs[0].var)
        vpow = NestedSeries.one(self.t_order, self.w_order, self.coeffs[0].var)
        coef = Fraction(1)
        for n in range(1, self.w_order + 1):
            coef = coef * (r - (n - 1)) / n
            if coef == 0:
                break
            vpow = vpow * v
            result = result + vpow.scale(coef)
        return result.scale(lead)

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


def sinh_t_series(t_order: int, w_order: int) -> NestedSeries:
    """The deformed hyperbolic sine (exp(-w) - t*exp(w)) / 2, bivariately.

    At t = 1 the w**odd coefficients are -1/n! and the even ones vanish,
    recovering -sinh(w); the t-deformation keeps the w**0 coefficient a
    unit so negative powers exist as series.
    """
    rows = []
    inv_fact = Fraction(1)
    for n in range(w_order + 1):
        if n:
            inv_fact /= n
        sign = 1 if n % 2 == 0 else -1
        rows.append(TSeries((sign * inv_fact / 2, -inv_fact / 2), t_order))
    return NestedSeries(rows, w_order)
