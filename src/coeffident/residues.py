"""Closed forms for the residues of the exponential core.

Write f = exp(-w) - t*exp(w) and g = exp(-w) + t*exp(w).  Since f' = -g
and g' = -f (derivatives in w), repeated differentiation of f**(-c-1)
stays inside the span of products f**a g**b, and the w**alpha coefficient
of f**(-c-1) -- a power series in t -- acquires a closed description:

    [w**alpha] f**(-c-1)
        = (1-t)**(-c-alpha-1) * (1+t)**alpha
          * sum_k weight_k(c) * ((1-t)/(1+t))**(2k)

where weight_k = (row k of the derivative table) / alpha!; the k = 0
weight is the binomial C(alpha + c, alpha), so for alpha <= 1 the sum
is that binomial alone.

``derivative_table`` carries the coefficient rows of the derivatives
(polynomials in the exponent parameter with integer coefficients, built
by a two-term recurrence), ``w_residue_closed`` assembles the display
above, and ``w_residue_series`` is the same object computed the honest
way, as the term-by-term sum

    sum_b C(b + c, b) * (2b + c + 1)**alpha / alpha! * t**b.

``base_t_residue`` and ``correction_t_residue`` are the two scalar
t-extractions the reduced-product route of the identity engine needs,
both [t**s] (1-t)**a (1+t)**b as one O(s) integer sum, not cached:
the base one always equals 4**s, and the corrections vanish exactly at
even correction index (the coefficient vector of the underlying
polynomial is palindromic with sign (-1)**(k-1), killing the middle
coefficient only when that sign is -1).
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .algebra import _as_ratio, _count, as_rational
from .series import _OPS, TSeries, binomial_series

__all__ = [
    "DerivativeTable",
    "derivative_table",
    "w_residue_series",
    "w_residue_closed",
    "base_t_residue",
    "correction_t_residue",
]


class DerivativeTable(NamedTuple):
    """Coefficient rows of the alpha-th w-derivative of f**(-c-1).

    The derivative equals

        sum_{k=0}^{alpha//2} entries[k](c) * f**(-c-1-alpha+2k) * g**(alpha-2k)

    with f, g as in the module docstring.  entries[0] is the rising
    factorial (c+1)(c+2)...(c+alpha); every row is a polynomial in c, a
    tuple of its integer coefficients, lowest degree first.
    """

    alpha: int
    entries: tuple[tuple[int, ...], ...]

    def scaled_row(self, k: int, p: int, q: int) -> int:
        """q**alpha * entries[k](p/q), an integer for q > 0.

        Row k has integer coefficients c_i and degree alpha - k, so the
        value is sum_i c_i p**i q**(alpha - i), which Horner's scheme
        computes in ints.  k runs over 0..alpha//2, so a negative k is
        refused, not read from the end; q is at least 1, and p any int.
        """
        k = _count(k, "k", 0, self.alpha // 2)
        p, q = operator.index(p), _count(q, "q", 1)
        row = self.entries[k]
        value, qpow = 0, q ** (self.alpha - len(row) + 1)
        for c in reversed(row):
            value = value * p + c * qpow
            qpow *= q
        return value

    def weight(self, k: int, value) -> Fraction:
        """entries[k] evaluated at a rational, normalized by alpha!; k is
        checked as ``scaled_row`` checks it."""
        p, q = _as_ratio(value)
        return Fraction(
            self.scaled_row(k, p, q), q**self.alpha * math.factorial(self.alpha)
        )


@lru_cache(maxsize=256)
def derivative_table(alpha: int) -> DerivativeTable:
    """Build the coefficient rows for the alpha-th derivative.

    One differentiation step maps row k of level a to

        (c + 1 + a - 2k) * row_k  -  (a - 2k + 2) * row_{k-1}

    at level a + 1 (the first term from differentiating the f-power,
    the second from g' = -f turning a g into an f and bumping k).  The
    levels are stepped through in a loop from level 0, so any alpha
    works without recursion.  Row k has degree exactly alpha - k: its
    leading coefficient has the sign (-1)**k at every level, as each step
    adds to it -(a - 2k + 2) <= -1 times row k-1's, of the other sign.
    """
    alpha = _count(alpha, "alpha")
    prev: list[list[int]] = [[1]]
    for a in range(alpha):
        entries = []
        for k in range((a + 1) // 2 + 1):
            # row k has degree at most a + 1 - k at level a + 1
            acc = [0] * (a + 2 - k)
            if k < len(prev):
                shift = 1 + a - 2 * k
                for i, p in enumerate(prev[k]):
                    acc[i] += shift * p
                    acc[i + 1] += p
            if k >= 1:
                drop = a - 2 * k + 2
                for i, p in enumerate(prev[k - 1]):
                    acc[i] -= drop * p
            entries.append(acc)
        prev = entries
    return DerivativeTable(alpha, tuple(map(tuple, prev)))


@lru_cache(maxsize=256)
def _w_residue_numerators(
    alpha: int, p: int, q: int, order: int
) -> tuple[tuple[int, ...], int]:
    """The coefficients of ``w_residue_series(alpha, p/q, order)`` (p/q in
    lowest terms, q > 0) as integer numerators over one positive
    denominator, in lowest terms (so that the residue route's products
    stay small at large order).

    The b-th coefficient C(b + gamma, b) * (2b + gamma + 1)**alpha / alpha!
    is an integer over q**(alpha+b) b! alpha!, so over the common
    denominator q**(alpha+order) order! alpha! its numerator is
    w_b * (p + (2b+1)*q)**alpha with
    w_b = prod_{i=1..b} (p + i*q) * q**(order-b) * order!/b!, stepped in
    ints as w_{b+1} = w_b (p + (b+1)*q) / (q (b+1)), an exact division
    for b < order.  The key is ints, so a lookup hashes no Fraction; this
    kernel counts no ops, its callers do.
    """
    den = q ** (alpha + order) * math.factorial(order) * math.factorial(alpha)
    weight = q**order * math.factorial(order)  # w_0
    nums = []
    for b in range(order + 1):
        nums.append(weight * (p + (2 * b + 1) * q) ** alpha)
        if b < order:
            weight = weight * (p + (b + 1) * q) // (q * (b + 1))
    common = math.gcd(den, *nums)
    return tuple([n // common for n in nums]), den // common


def w_residue_series(alpha: int, gamma, order: int) -> TSeries:
    """[w**alpha] of the exponential core, as a t-series, by direct sum.

    The b-th coefficient is C(b + gamma, b) * (2b + gamma + 1)**alpha / alpha!,
    computed in ints by the cached kernel ``_w_residue_numerators``, which
    the residue route also reads directly; no Fraction is made.  Every
    call charges its (order + 1)(alpha + 4) multiplications.
    """
    alpha, order = _count(alpha, "alpha"), _count(order, "order")
    p, q = _as_ratio(gamma)
    nums, den = _w_residue_numerators(alpha, p, q, order)
    _OPS.count += (order + 1) * (alpha + 4)
    return TSeries(nums, den, order)


def w_residue_closed(alpha: int, gamma, order: int) -> TSeries:
    """Same series as ``w_residue_series``, via the derivative table: the
    module docstring's display with the prefactor distributed over the sum,

        sum_k weight_k * (1-t)**(2k-gamma-alpha-1) * (1+t)**(alpha-2k),

    which keeps the form valid even at the negative integers gamma where
    the k = 0 weight C(alpha + gamma, alpha) vanishes.  Each term is a
    product of two ``binomial_series``; at gamma = p/q the weights share
    the denominator q**alpha alpha!, so the terms are weighted by
    ``scaled_row`` and summed on integer numerators, each weighting
    charged order + 1 multiplications.
    """
    alpha, order = _count(alpha, "alpha"), _count(order, "order")
    g = as_rational(gamma)
    p, q = g.numerator, g.denominator
    table = derivative_table(alpha)
    nums, den = [0] * (order + 1), 1
    for k in range(alpha // 2 + 1):
        term = binomial_series(-1, 2 * k - g - alpha - 1, order) * binomial_series(
            1, alpha - 2 * k, order
        )
        weight, common = table.scaled_row(k, p, q), math.lcm(den, term.den)
        nums = [
            n * (common // den) + weight * m * (common // term.den)
            for n, m in zip(nums, term.nums)
        ]
        den = common
    _OPS.count += (alpha // 2 + 1) * (order + 1)
    return TSeries(nums, den * q**alpha * math.factorial(alpha), order)


def _t_residue(a: int, b: int, s: int) -> int:
    """[t**s] (1-t)**a (1+t)**b (ints a >= -1, b >= 0) as sum_j c_j C(b, s-j)
    with c_j = [t**j] (1-t)**a, stepped exactly from c_0 = 1.  Counts no ops."""
    total, c = 0, 1
    for j in range(s + 1):
        total += c * math.comb(b, s - j)
        c = c * (j - a) // (j + 1)
    return total


def base_t_residue(s: int) -> int:
    """[t**s] (1-t)**(-1) (1+t)**(2s+1); equals 4**s.

    This is the sum of the first s+1 binomials C(2s+1, j), which is half
    of 2**(2s+1) by symmetry of the binomial row.  Every call charges
    4s + (s+1)(s+2)/2, the ops of two binomial series and their product.
    """
    s = _count(s, "s")
    _OPS.count += 4 * s + (s + 1) * (s + 2) // 2
    return _t_residue(-1, 2 * s + 1, s)


def correction_t_residue(s: int, k: int) -> int:
    """[t**s] (1-t)**(k-1) (1+t)**(2s-k+1), for 1 <= k <= 2s.

    The polynomial has degree 2s and palindromic coefficients up to the
    sign (-1)**(k-1), so the middle coefficient extracted here vanishes
    exactly for even k.  Odd k gives a genuinely nonzero value (k = 1
    yields the central binomial C(2s, s)); the product route never asks
    for odd k because its correction polynomial is even.  Charged as
    ``base_t_residue`` is.
    """
    s = _count(s, "s", 1)
    k = _count(k, "k", 1, 2 * s)
    _OPS.count += 4 * s + (s + 1) * (s + 2) // 2
    return _t_residue(k - 1, 2 * s - k + 1, s)
