"""Exact scalars, generalized binomials, and univariate polynomials.

The scalar domain for the whole package is ``fractions.Fraction``:
arbitrary precision, always in lowest terms with positive denominator, so
equality is bit-exact.  Floats are refused everywhere they could sneak in.
``Poly`` holds the coefficients of a dense univariate polynomial over
that domain; the package returns it only from ``verify_poly_gamma``,
which certifies an identity as a *polynomial* identity rather than a
numerical coincidence.
"""

from __future__ import annotations

import math
import operator
import re
from fractions import Fraction
from typing import Iterable, Union

__all__ = [
    "as_rational",
    "parse_rational",
    "binomial",
    "Poly",
]

Scalar = Union[int, Fraction]

_RATIONAL_PATTERN = re.compile(r"^-?\d+(?:/\d+)?$", re.ASCII)


def as_rational(value: Scalar) -> Fraction:
    """Coerce an int or Fraction to Fraction, refusing floats outright.

    ``Fraction(0.1)`` would silently produce the exact binary expansion of
    the float, which is never what an exact computation wants.  An exact
    ``Fraction`` is immutable and comes back as it is.  A string is read in
    ``parse_rational``'s grammar, so the library and the command line share it.
    """
    if type(value) is Fraction:
        return value
    if isinstance(value, str):
        return parse_rational(value)
    _refuse_float(value)
    return Fraction(value)


def _refuse_float(value) -> None:
    if isinstance(value, float):
        raise TypeError(f"refusing float {value!r}: pass an exact Fraction instead")


def _refuse_text(values, name: str):
    """``values`` itself, unless it is a str or bytes, which would be read
    one character or byte at a time where a vector is expected."""
    if isinstance(values, (str, bytes, bytearray)):
        kind = type(values).__name__
        raise TypeError(f"refusing {kind} {values!r} as {name}: pass a sequence")
    return values


def _count(value, name: str, low: int = 0, high: int | None = None) -> int:
    """``value`` as an int in ``low..high`` (no upper bound for None): the
    one check of every count argument.  ``operator.index`` makes a float a
    TypeError, never truncated or matched to a cached int key; a value out
    of range is a ValueError whose message starts with ``name=value``.
    """
    value = operator.index(value)
    if high is None:
        if value < low:
            raise ValueError(f"{name}={value} must be >= {low}")
    elif not low <= value <= high:
        raise ValueError(f"{name}={value} outside {low}..{high}")
    return value


def _as_ratio(value: Scalar) -> tuple[int, int]:
    """Numerator and positive denominator, in lowest terms, of an int or
    Fraction, refused like ``as_rational`` refuses it; an int makes no
    Fraction."""
    if type(value) is int:
        return value, 1
    r = as_rational(value)
    return r.numerator, r.denominator


def parse_rational(text: str) -> Fraction:
    """Parse a rational in canonical ``p/q`` (or plain ``p``) form.

    A leading ASCII hyphen or U+2212 minus sign is accepted; whitespace is
    trimmed.  Digits are ASCII only.  Decimal points, exponents, and
    embedded spaces are rejected.
    """
    numerator, denominator = _rational_parts(text)
    if denominator is None:
        return Fraction(numerator)
    if denominator == 0:
        raise ValueError(f"zero denominator: {text!r}")
    return Fraction(numerator, denominator)


def _rational_parts(text: str) -> tuple[int, int | None]:
    """Numerator and denominator (None without ``/q``) of ``text`` in
    ``parse_rational``'s grammar, which the command line's integers share."""
    normalized = text.strip().replace("−", "-")
    if not _RATIONAL_PATTERN.match(normalized):
        raise ValueError(f"not a rational in p/q form: {text!r}")
    numerator, _, denominator = normalized.partition("/")
    return int(numerator), int(denominator) if denominator else None


def binomial(x: Scalar, b: int) -> Fraction:
    """Binomial coefficient with an int or Fraction on top.

    Computed as prod_{i=0}^{b-1} (x - i) / b!, the degree-b polynomial
    extension of the integer binomial: for integers 0 <= x < b the product
    contains a zero factor, and b < 0 gives 0 outright.  A float on top
    is refused, as ``as_rational`` refuses it, and b must be an int.
    """
    _refuse_float(x)
    b = operator.index(b)
    if b < 0:
        return Fraction(0)
    acc = Fraction(1)
    for i in range(b):
        acc = acc * (x - i)
    return acc * Fraction(1, math.factorial(b))


class Poly:
    """Dense univariate polynomial with exact rational coefficients.

    Coefficients are stored lowest degree first with trailing zeros
    stripped, so equal polynomials have equal ``coeffs``; the zero
    polynomial has an empty coefficient tuple and degree -1.  Every
    polynomial is tagged with the name of its indeterminate, and the one
    operation, the product, refuses two different indeterminates.
    Instances are immutable in practice (tuple storage, no mutating
    methods).
    """

    __slots__ = ("coeffs", "var")

    def __init__(self, coeffs: Iterable[Scalar] = (), var: str = "gamma"):
        normalized = [as_rational(c) for c in _refuse_text(coeffs, "coeffs")]
        while normalized and normalized[-1] == 0:
            normalized.pop()
        self.coeffs = tuple(normalized)
        self.var = var

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, k: int) -> Fraction:
        """Coefficient of x**k, zero beyond the degree."""
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        if self.var != other.var:
            raise ValueError(f"indeterminate mismatch: {self.var!r} vs {other.var!r}")
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(out, self.var)

    def __repr__(self):
        return f"Poly({[str(c) for c in self.coeffs]}, var={self.var!r})"
