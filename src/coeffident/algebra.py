"""Exact scalars, generalized binomials, and univariate polynomials.

The scalar domain for the whole package is ``fractions.Fraction``:
arbitrary precision, always in lowest terms with positive denominator, so
equality is bit-exact.  Floats are refused everywhere they could sneak in.
``Poly`` adds dense univariate polynomials over that domain; the package
returns them only from ``verify_poly_gamma``, which certifies an identity
as a *polynomial* identity rather than a numerical coincidence.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterable, Sequence, Union

__all__ = [
    "as_rational",
    "parse_rational",
    "binomial",
    "Poly",
]

Scalar = Union[int, Fraction]
_SCALARS = (int, Fraction)

_RATIONAL_PATTERN = re.compile(r"^-?\d+(?:/\d+)?$", re.ASCII)


def as_rational(value: Scalar) -> Fraction:
    """Coerce an int or Fraction to Fraction, refusing floats outright.

    ``Fraction(0.1)`` would silently produce the exact binary expansion of
    the float, which is never what an exact computation wants.  An exact
    ``Fraction`` is immutable and comes back as it is.
    """
    if type(value) is Fraction:
        return value
    _refuse_float(value)
    return Fraction(value)


def _refuse_float(value) -> None:
    if isinstance(value, float):
        raise TypeError(f"refusing float {value!r}: pass an exact Fraction instead")


def _as_ratio(value: Scalar) -> tuple[int, int]:
    """Numerator and positive denominator, in lowest terms, of an int or
    Fraction, refused like ``as_rational`` refuses it; an int makes no
    Fraction."""
    if type(value) is int:
        return value, 1
    r = as_rational(value)
    return r.numerator, r.denominator


def _over_common_denominator(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integer numerators of ``values`` over their lowest common denominator:
    ``values[i] == Fraction(nums[i], den)`` for ``nums, den``.  Exact kernels
    sum these numerators as ints and make one Fraction at the end."""
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def parse_rational(text: str) -> Fraction:
    """Parse a rational in canonical ``p/q`` (or plain ``p``) form.

    A leading ASCII hyphen or U+2212 minus sign is accepted; whitespace is
    trimmed.  Digits are ASCII only.  Decimal points, exponents, and
    embedded spaces are rejected.
    """
    normalized = text.strip().replace("−", "-")
    if not _RATIONAL_PATTERN.match(normalized):
        raise ValueError(f"not a rational in p/q form: {text!r}")
    numerator, _, denominator = normalized.partition("/")
    if denominator:
        if int(denominator) == 0:
            raise ValueError(f"zero denominator: {text!r}")
        return Fraction(int(numerator), int(denominator))
    return Fraction(int(numerator))


def binomial(x: Scalar, b: int) -> Fraction:
    """Binomial coefficient with an int or Fraction on top.

    Computed as prod_{i=0}^{b-1} (x - i) / b!, the degree-b polynomial
    extension of the integer binomial: for integers 0 <= x < b the product
    contains a zero factor, and b < 0 gives 0 outright.  A float on top
    is refused, as ``as_rational`` refuses it.
    """
    _refuse_float(x)
    if b < 0:
        return Fraction(0)
    acc = Fraction(1)
    for i in range(b):
        acc = acc * (x - i)
    return acc * Fraction(1, math.factorial(b))


class Poly:
    """Dense univariate polynomial with exact rational coefficients.

    Coefficients are stored lowest degree first with trailing zeros
    stripped, so equal polynomials compare equal; the zero polynomial has
    an empty coefficient tuple and degree -1.  Every polynomial is tagged
    with the name of its indeterminate and arithmetic between different
    indeterminates is refused.  Instances are immutable in practice
    (tuple storage, no mutating methods) and hashable.
    """

    __slots__ = ("coeffs", "var")

    def __init__(self, coeffs: Iterable[Scalar] = (), var: str = "gamma"):
        normalized = [as_rational(c) for c in coeffs]
        while normalized and normalized[-1] == 0:
            normalized.pop()
        self.coeffs = tuple(normalized)
        self.var = var

    @classmethod
    def indeterminate(cls, var: str = "gamma") -> "Poly":
        """The polynomial x itself."""
        return cls((0, 1), var)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, k: int) -> Fraction:
        """Coefficient of x**k, zero beyond the degree."""
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    def _check_var(self, other: "Poly") -> None:
        if self.var != other.var:
            raise ValueError(f"indeterminate mismatch: {self.var!r} vs {other.var!r}")

    def __add__(self, other):
        if isinstance(other, _SCALARS):
            other = Poly((other,), self.var)
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_var(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(
            (self.coefficient(k) + other.coefficient(k) for k in range(n)),
            self.var,
        )

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, _SCALARS):
            factor = as_rational(other)
            return Poly((factor * c for c in self.coeffs), self.var)
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_var(other)
        if not self.coeffs or not other.coeffs:
            return Poly((), self.var)
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(out, self.var)

    __rmul__ = __mul__

    def __call__(self, x):
        """Horner evaluation; the argument may be any ring element but a
        float, which is refused as ``as_rational`` refuses it."""
        _refuse_float(x)
        result = Fraction(0)
        for c in reversed(self.coeffs):
            result = result * x + c
        return result

    def __eq__(self, other):
        if isinstance(other, _SCALARS):
            other = Poly((other,), self.var)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.var == other.var and self.coeffs == other.coeffs

    def __hash__(self):
        # a constant compares equal to its scalar, so it must hash like it
        if len(self.coeffs) <= 1:
            return hash(self.coefficient(0))
        return hash((self.var, self.coeffs))

    def __repr__(self):
        return f"Poly({[str(c) for c in self.coeffs]}, var={self.var!r})"

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            if k == 0:
                body = str(abs(c))
            else:
                head = "" if abs(c) == 1 else f"{abs(c)}*"
                power = self.var if k == 1 else f"{self.var}^{k}"
                body = head + power
            sign = "-" if c < 0 else "+"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = (first_sign if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text
