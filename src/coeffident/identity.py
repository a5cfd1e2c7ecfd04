"""The multi-binomial identity and its three evaluation routes.

An instance fixes an integer s >= 0, a vector alpha of d+1 nonnegative
integers with sum 2s+1, and a vector gamma of d+1 rationals.  The claim
under test is

    sum_{j=0}^{s} (-1)**j * C(d + sum_i(alpha_i + gamma_i), j) * S_j
        =  4**s * prod_i C(alpha_i + gamma_i, alpha_i)

where S_j sums over all compositions beta of s - j into d+1 parts:

    S_j = sum_{|beta| = s-j} prod_i C(beta_i + gamma_i, beta_i)
                                   * (2*beta_i + gamma_i + 1)**alpha_i / alpha_i!

The left side is evaluated three independent ways:

* ``lhs_direct``   -- the literal double sum over compositions, walked
                      once with shared prefixes for every j;
* ``lhs_residue``  -- [t**s] of (1-t)**(d + sum(alpha+gamma)) times the
                      product of per-coordinate w-residue series, letting
                      the Cauchy product do the composition sum;
* ``lhs_product``  -- the reduced product: the same extraction after the
                      series product is collapsed in closed form, leaving
                      one base residue plus even-index corrections
                      weighted by a correction polynomial.

All three must equal ``rhs_closed`` exactly -- rational equality, no
tolerances -- on every valid instance.  ``verify`` decides it on integer
(numerator, denominator) pairs by cross-multiplication.
"""

from __future__ import annotations

import collections
import itertools
import math
import operator
import time
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, NamedTuple, Sequence

from .algebra import Poly, _count, _refuse_text, as_rational
from .residues import (
    DerivativeTable,
    _w_residue_numerators,
    base_t_residue,
    correction_t_residue,
    derivative_table,
)
from .series import _OPS, _binomial_numerators, _convolve

__all__ = [
    "InvalidInstance",
    "CorrectionInvariantError",
    "MAX_JOBS",
    "IdentityInstance",
    "VerificationReport",
    "compositions",
    "inner_sum",
    "lhs_direct",
    "lhs_residue",
    "lhs_product",
    "rhs_closed",
    "verify",
    "verify_poly_gamma",
    "iter_instances",
    "sweep",
]


class InvalidInstance(ValueError):
    """Instance parameters violate the identity's standing hypotheses."""


class CorrectionInvariantError(ArithmeticError):
    """The correction polynomial broke a structural invariant the reduced
    product relies on: constant term 1, degree at most 2s, even powers only."""


# Upper bound on worker processes for ``sweep``.
MAX_JOBS = 64


class _InstanceFields(NamedTuple):
    s: int
    alpha: tuple[int, ...]
    gamma: tuple[Fraction, ...]


class IdentityInstance(_InstanceFields):
    """One cell of the identity: s plus the alpha and gamma vectors.

    Validation happens at construction: the two vectors must have equal
    positive length, s and alpha must be counts (``algebra._count``; a
    float is refused, not truncated), gamma must be exact rationals (a
    str or bytes vector, alpha or gamma, is refused, not read by
    character), and sum(alpha) must equal 2s+1 (the identity is not claimed outside that
    hypothesis).  ``_make``, and so ``_replace``, construct through the
    same checks.

    Construction also computes, once, the integers the routes read: each
    coordinate's triple (alpha_i, p_i, q_i), gamma_i = p_i/q_i in lowest
    terms, and the binomial top d + sum(alpha) + sum(gamma) as a
    lowest-terms pair.  The triples key the routes' caches, so the
    instances of a grid that share their first d coordinates share the
    routes' work on them.  They are no fields, so equality, hashing and
    pickling see only s, alpha and gamma: ``pickle`` and ``copy`` rebuild
    an instance through the constructor.  The constructor and
    ``iter_instances`` share the triples' one producer,
    ``_checked_instance``.
    """

    def __new__(cls, s: int, alpha: Sequence[int], gamma: Sequence) -> IdentityInstance:
        alpha = _refuse_text(alpha, "alpha")
        try:
            s = _count(s, "s")
            alpha = tuple([_count(a, "alpha_i") for a in alpha])
        except TypeError as exc:
            raise InvalidInstance(f"s and alpha must be integers: {exc}") from None
        except ValueError as exc:
            raise InvalidInstance(str(exc)) from None
        gamma = tuple(map(as_rational, _refuse_text(gamma, "gamma")))
        if not alpha:
            raise InvalidInstance("alpha needs at least one coordinate")
        if len(alpha) != len(gamma):
            raise InvalidInstance(
                f"alpha and gamma lengths differ: {len(alpha)} vs {len(gamma)}"
            )
        total = sum(alpha)
        if total != 2 * s + 1:
            raise InvalidInstance(
                f"sum(alpha) = {total} but the hypothesis needs 2s+1 = {2 * s + 1}"
            )
        return _checked_instance(
            cls, s, alpha, gamma, [(g.numerator, g.denominator) for g in gamma]
        )

    def __reduce__(self):
        return type(self), tuple(self)

    @classmethod
    def _make(cls, iterable) -> IdentityInstance:
        return cls(*iterable)

    @property
    def d(self) -> int:
        """Number of coordinates minus one."""
        return len(self.alpha) - 1

    @property
    def top(self) -> Fraction:
        """The left side's binomial top d + sum(alpha) + sum(gamma),
        made from the integer pair computed at construction."""
        return Fraction(*self._top_pair)


def _checked_instance(
    cls: type, s: int, alpha: tuple[int, ...], gamma: tuple[Fraction, ...], pairs
) -> IdentityInstance:
    """The instance of fields that already passed the constructor's checks,
    with ``pairs`` the gammas' (numerator, denominator) pairs in order:
    the one producer of the coordinate triples and the top's pair, which
    ``IdentityInstance`` and ``iter_instances`` both call.
    """
    self = tuple.__new__(cls, (s, alpha, gamma))
    # the top d + sum(alpha) + sum(gamma), sum(alpha) = 2s+1, as num/den,
    # den the gammas' least common denominator, in one pass (on CPython
    # 3.11 math.lcm and sum over comprehensions cost 1 us more); one gcd
    # at the end
    num, den = len(alpha) + 2 * s, 1
    coords = []
    for a, (p, q) in zip(alpha, pairs):
        coords.append((a, p, q))
        if den % q:
            lcm = math.lcm(den, q)
            num *= lcm // den
            den = lcm
        num += p * (den // q)
    common = math.gcd(num, den)
    self._coords = tuple(coords)
    self._top_pair = (num // common, den // common)
    return self


def compositions(n: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All tuples of ``parts`` nonnegative integers summing to n, in
    lexicographic order.  There are C(n + parts - 1, parts - 1) of them.

    Stars and bars: the parts are the gaps between parts - 1 cut points
    0 <= c_1 <= ... <= c_{parts-1} <= n, and cut tuples in lexicographic
    order give the parts in lexicographic order.  No recursion, so any
    number of parts works.  The counts are checked on the call.
    """
    n, parts = _count(n, "n"), _count(parts, "parts", 1)
    return (
        tuple(map(operator.sub, cuts + (n,), (0,) + cuts))
        for cuts in itertools.combinations_with_replacement(range(n + 1), parts - 1)
    )


# ---------------------------------------------------------------------------
# direct route


@lru_cache(maxsize=256)
def _coordinate_factors(
    alpha_i: int, p: int, q: int, limit: int
) -> tuple[tuple[int, ...], int]:
    """One coordinate's factors C(b+g, b) (2b+g+1)**a / a! for b = 0..limit,
    g = p/q in lowest terms (q > 0), as integer numerators over their
    lowest common denominator.

    The b-th factor is prod_{i=1..b} (p + i*q) * (p + (2b+1)*q)**a over
    q**(a+b) b! a!.  Over D = q**(a+limit) limit! a! its numerator is
    n_b = prod_{i=1..b} (p + i*q) * (p + (2b+1)*q)**a * q**(limit-b) * limit!/b!,
    all in ints; dividing D and every n_b by their gcd leaves the lowest
    common denominator.  The key is ints, so a lookup hashes no Fraction.
    """
    head = 1  # prod_{i=1..b} (p + i*q)
    tail = math.factorial(limit)  # limit!/b!
    nums = []
    for b in range(limit + 1):
        if b:
            head *= p + b * q
            tail //= b
        nums.append(head * (p + (2 * b + 1) * q) ** alpha_i * q ** (limit - b) * tail)
    den = q ** (alpha_i + limit) * math.factorial(limit) * math.factorial(alpha_i)
    common = math.gcd(den, *nums)
    return tuple(n // common for n in nums), den // common


@lru_cache(maxsize=256)
def _head_sums(
    s: int, heads: tuple[tuple[int, int, int], ...]
) -> tuple[tuple[int, ...], int, int]:
    """For every budget u = 0..s, the sum over the compositions beta of u
    into len(heads) parts of prod_i T_i[beta_i], where T_i is the factor
    table to b = s (``_coordinate_factors``) of the coordinate triple
    heads[i]; the number of terms the direct route sums once a closing
    part is added; and the product of the tables' denominators, the
    denominator of every sum.

    One depth-first walk with an explicit stack (no recursion, so any
    number of parts works) carries each prefix's budget and product, and
    adds each full composition to the sum of its budget u, and its
    s + 1 - u closing parts to the count: every composition is visited
    exactly once, and none is kept.  With no parts, the one empty
    composition has budget 0 and product 1.  The routes key it by an
    instance's coordinates before the last, so the instances of a grid
    that differ only in the last coordinate share one walk.
    """
    tables, den = [], 1
    for a, p, q in heads:
        nums, table_den = _coordinate_factors(a, p, q, s)
        tables.append(nums)
        den *= table_den
    sums, terms = [0] * (s + 1), 0
    depth = len(tables)
    stack = [(0, 0, 1)]  # (parts chosen, budget used, prefix product)
    while stack:
        level, used, prefix = stack.pop()
        if level == depth:
            sums[used] += prefix
            terms += s + 1 - used
            continue
        table = tables[level]
        for b in range(s - used + 1):
            stack.append((level + 1, used + b, prefix * table[b]))
    return tuple(sums), terms, den


def _direct_sums(inst: IdentityInstance) -> tuple[list[int], int, int]:
    """For every m = 0..s, the sum over the compositions of m into d+1
    parts of the factor products, as integer numerators over one positive
    denominator (not reduced); and the number of compositions summed,
    over all m together.

    The sums over the coordinates before the last (``_head_sums``, cached
    by their triples) are closed by the last coordinate's table: the head
    sum at budget u adds head[u] * last[m - u] to the sum of every
    m >= u, in a loop of its own, so that this route shares no code with
    the residue route's ``_convolve``.  That is the composition sum
    grouped by its last part; the count is the one the head walk took
    with the closing parts, whether its cache entry was warm or cold.
    """
    s, coords = inst.s, inst._coords
    heads, terms, den = _head_sums(s, coords[:-1])
    last, last_den = _coordinate_factors(*coords[-1], s)
    sums = [0] * (s + 1)
    for u, head in enumerate(heads):
        if head:
            for m in range(u, s + 1):
                sums[m] += head * last[m - u]
    return sums, den * last_den, terms


@lru_cache(maxsize=256)
def _falling_weights(p: int, q: int, s: int) -> tuple[tuple[int, ...], int]:
    """(-1)**j C(top, j) for j = 0..s, top = p/q (q > 0), as integer
    numerators over the scale q**s s!.

    (-1)**j C(top, j) = prod_{i<j} (i*q - p) / (q**j j!).
    Over the common denominator q**s s! its numerator is the integer
    w_j = prod_{i<j} (i*q - p) * q**(s-j) s!/j!, stepped as one running
    product w_{j+1} = w_j (j*q - p) / (q (j+1)); the division is exact
    for j < s, since q (j+1) divides q**(s-j) s!/j!.  No Fraction is made.
    """
    scale = weight = q**s * math.factorial(s)  # w_0
    weights = [weight]
    for j in range(s):
        weight = weight * (j * q - p) // (q * (j + 1))
        weights.append(weight)
    return tuple(weights), scale


def inner_sum(inst: IdentityInstance, j: int) -> Fraction:
    """The inner sum S_j: compositions of s-j across the coordinates."""
    j = _count(j, "j", 0, inst.s)
    sums, den, _ = _direct_sums(inst)
    return Fraction(sums[inst.s - j], den)


def _lhs_direct_counted(inst: IdentityInstance) -> tuple[tuple[int, int], int]:
    """The direct left side as an integer numerator and positive
    denominator (not reduced), and the number of compositions summed."""
    sums, den, terms = _direct_sums(inst)
    # the alternating j-sum: S_j is sums[s - j]
    weights, scale = _falling_weights(*inst._top_pair, inst.s)
    return (sum(map(operator.mul, weights, reversed(sums))), scale * den), terms


def lhs_direct(inst: IdentityInstance) -> Fraction:
    """Left side by literal summation."""
    return Fraction(*_lhs_direct_counted(inst)[0])


# ---------------------------------------------------------------------------
# residue route


@lru_cache(maxsize=256)
def _head_series(
    s: int, heads: tuple[tuple[int, int, int], ...]
) -> tuple[tuple[int, ...], int]:
    """The product, truncated at t**s, of the w-residue series of the
    coordinate triples ``heads`` (``_w_residue_numerators``), as integer
    numerators over the product of their denominators; with no heads, the
    series 1.  The residue route keys it by an instance's coordinates
    before the last, as the direct route keys ``_head_sums``.  Counts no
    ops; the route charges them.
    """
    acc, den = (1,), 1
    for a, p, q in heads:
        nums, w_den = _w_residue_numerators(a, p, q, s)
        acc = _convolve(acc, nums, s)
        den *= w_den
    return tuple(acc), den


def _lhs_residue_pair(inst: IdentityInstance) -> tuple[int, int]:
    """Left side as one coefficient extraction, as an integer numerator
    and positive denominator (not reduced).

    The alternating j-sum is [t**s] (1-t)**(d + sum(alpha+gamma)) times
    the product of the coordinate series; the Cauchy product performs
    the composition sum implicitly.  The factors are the integer
    numerators of ``binomial_series`` and ``w_residue_series`` (their
    int-keyed kernels, read directly).  The product of the coordinates
    before the last comes from ``_head_series``; ``_convolve`` takes its
    truncated product with the last coordinate's series, and the
    coefficient of t**s of that times (1-t)**top is one dot product with
    the reversed numerators of the top's series.  The denominators
    multiply.  The ops charged are the ones those kernels and
    ``TSeries`` multiplication charge, whether the head was cached or
    not: 2s for the binomial series, (s+1)(alpha_i+4) per coordinate
    series and (s+1)(s+2)/2 per product.
    """
    s, coords = inst.s, inst._coords
    head, den = _head_series(s, coords[:-1])
    last, w_den = _w_residue_numerators(*coords[-1], s)
    top, top_den = _binomial_numerators(-1, 1, *inst._top_pair, s)
    acc = _convolve(head, last, s)
    n, per_product = len(coords), (s + 1) * (s + 2) // 2
    _OPS.count += 2 * s + (s + 1) * (sum(inst.alpha) + 4 * n) + n * per_product
    return sum(map(operator.mul, reversed(top), acc)), top_den * den * w_den


def lhs_residue(inst: IdentityInstance) -> Fraction:
    """Left side as one coefficient extraction (``_lhs_residue_pair``)."""
    return Fraction(*_lhs_residue_pair(inst))


# ---------------------------------------------------------------------------
# reduced-product route


@lru_cache(maxsize=256)
def _correction_factor(
    table: DerivativeTable, p: int, q: int
) -> tuple[tuple[int, ...], int, int]:
    """One coordinate's factor of the correction polynomial at
    alpha = table.alpha >= 2 and gamma = p/q in lowest terms (q > 0): its
    numerators of u**0, u**1, ..., u**(2 * (alpha//2)), reduced by their gcd;
    the leading binomial's numerator ``scaled_row(0, p, q)``; and the
    scale q**alpha alpha! that both are over before the reduction.

    The factor is 1 + sum_k weight_k u**(2k) for k = 1..alpha//2, with
    weight_k = entries[k](gamma) / alpha!: over the scale, its numerators
    are the scale at u**0 and ``scaled_row(k, p, q)`` at u**(2k).  The
    key is the table that the caller looked up, not alpha, so that every
    call still makes the route's lookups.
    """
    a = table.alpha
    half = a // 2
    scale = q**a * math.factorial(a)
    factor = [scale] + [0] * (2 * half)
    for k in range(1, half + 1):
        factor[2 * k] = table.scaled_row(k, p, q)
    common = math.gcd(*factor)
    return tuple([y // common for y in factor]), table.scaled_row(0, p, q), scale


def _correction_numerators(
    inst: IdentityInstance,
) -> tuple[list[int], int, tuple[int, int]]:
    """The correction polynomial as integer numerators of u**0, u**1, ...
    (trailing zeros stripped) over one positive denominator, and the
    leading product prod_i C(gamma_i + alpha_i, alpha_i) as an integer
    numerator and positive denominator (not reduced).

    The polynomial is the product, in u = (1-t)/(1+t), of one factor per
    coordinate with alpha_i >= 2 (``_correction_factor``), in even powers
    of u only, so it has degree at most 2 * sum(alpha_i//2) <= 2s and
    constant term 1.  The factors are multiplied by integer convolution,
    and their reduced constant terms, the denominators, multiply; no
    Fraction is made.

    The k = 0 weight is the leading binomial: row 0 is the rising product
    (c+1)...(c+alpha_i), so for alpha_i >= 2 the coordinate's binomial is
    ``scaled_row(0, p, q)`` over the factor's scale, read from the table
    that the coordinate's last weight lookup returned; for alpha_i <= 1 it
    is ((p+q)/q)**alpha_i.

    The table is looked up once per weight, not once per coordinate, and
    the factor is cached by the table the last lookup returned: the
    benchmark's traced replay makes the same lookups and checks the
    table's hit ratio against the untraced run.
    ``test_verify_looks_up_the_derivative_table_once_per_weight`` pins the
    count until a meter of the program's own calls replaces the replay.
    For the same reason this route, unlike the direct and residue routes,
    keeps no cache of its work on the coordinates before the last: a
    cached head would skip those lookups.
    """
    nums, den, lead_num, lead_den = [1], 1, 1, 1
    for a, p, q in inst._coords:
        half = a // 2
        if half == 0:
            lead_num *= (p + q) ** a
            lead_den *= q**a
            continue
        for _ in range(half):  # one lookup per weight, as the replay makes them
            table = derivative_table(a)
        factor, lead, scale = _correction_factor(table, p, q)
        lead_num *= lead
        lead_den *= scale
        product = [0] * (len(nums) + 2 * half)
        for i, x in enumerate(nums):
            if x:
                for j, y in enumerate(factor):
                    product[i + j] += x * y
        nums = product
        den *= factor[0]
    while nums and not nums[-1]:
        nums.pop()
    return nums, den, (lead_num, lead_den)


def _lhs_product_pair(inst: IdentityInstance) -> tuple[int, int]:
    """Left side by the reduced product, as an integer numerator and
    positive denominator (not reduced).

    After substituting the closed forms, the (1-t) exponents across all
    factors sum to -1 and the (1+t) exponents to 2s+1, so the extraction
    collapses to scalar residues: the base one (worth 4**s) plus the
    even-index corrections weighted by the correction polynomial.  The
    binomial prefactors come out in front.  The correction polynomial's
    weights are evaluated from the derivative table's integer rows by
    Horner's scheme in ints, and the binomial prefactors are the integer
    rising products of the same table's row 0 (``_correction_numerators``);
    the invariants are checked, and the sum of the weighted residues is
    taken, on integer numerators.
    """
    nums, den, (lead_num, lead_den) = _correction_numerators(inst)
    degree = len(nums) - 1
    constant = nums[0] if nums else 0
    if constant != den:
        raise CorrectionInvariantError(
            f"correction polynomial has constant term {Fraction(constant, den)}, not 1"
        )
    if degree > 2 * inst.s:
        raise CorrectionInvariantError(
            f"correction polynomial has degree {degree} above 2s = {2 * inst.s}"
        )
    odd = [k for k in range(1, degree + 1, 2) if nums[k]]
    if odd:
        raise CorrectionInvariantError(
            f"correction polynomial has nonzero odd powers of u: {odd}"
        )
    total = den * base_t_residue(inst.s)
    for k in range(2, degree + 1, 2):
        if nums[k]:
            total += nums[k] * correction_t_residue(inst.s, k)
    return total * lead_num, den * lead_den


def lhs_product(inst: IdentityInstance) -> Fraction:
    """Left side by the reduced product (``_lhs_product_pair``)."""
    return Fraction(*_lhs_product_pair(inst))


@lru_cache(maxsize=256)
def _rising_product(a: int, p: int, q: int) -> tuple[int, int]:
    """C(p/q + a, a) for q > 0 as the rising product
    prod_{k=1..a} (p + k*q) over q**a a!, an integer numerator and
    denominator (not reduced)."""
    return math.prod(range(p + q, p + a * q + 1, q)), q**a * math.factorial(a)


def _binomial_product(
    alpha: Sequence[int], gamma: Sequence[Fraction]
) -> tuple[int, int]:
    """prod_i C(gamma_i + alpha_i, alpha_i), each the rising product of
    ``_rising_product`` at gamma_i = p/q, as an integer numerator and
    denominator (not reduced).  The right side shares no code with the
    product route, which reads its binomials from row 0 of the
    derivative table."""
    num = den = 1
    for a, g in zip(alpha, gamma):
        n, d = _rising_product(a, g.numerator, g.denominator)
        num *= n
        den *= d
    return num, den


def _rhs_closed_pair(inst: IdentityInstance) -> tuple[int, int]:
    """Right side: 4**s times the product of C(alpha_i + gamma_i, alpha_i),
    as an integer numerator and positive denominator (not reduced).  It
    reads the gamma Fractions itself, not the instance's integer pairs,
    which the routes read."""
    num, den = _binomial_product(inst.alpha, inst.gamma)
    return 4**inst.s * num, den


def rhs_closed(inst: IdentityInstance) -> Fraction:
    """Right side: 4**s times the product of C(alpha_i + gamma_i, alpha_i)."""
    return Fraction(*_rhs_closed_pair(inst))


# ---------------------------------------------------------------------------
# verification


class VerificationReport(NamedTuple):
    """All four route values for one instance, plus timings and costs.

    Equality of the four values is the verdict; timings are wall-clock
    microseconds and purely informational (they are the one part of a
    report allowed to differ between identical runs).  When ``verify``
    finds the four values equal, the four fields hold one Fraction.
    """

    instance: IdentityInstance
    lhs_direct: Fraction
    lhs_residue: Fraction
    lhs_product: Fraction
    rhs: Fraction
    all_equal: bool
    time_direct_us: int
    time_residue_us: int
    time_product_us: int
    time_rhs_us: int
    direct_terms: int
    residue_ops: int
    product_ops: int

    def _strings(self) -> tuple[str, str, str, str, list[str]]:
        """The four values' and the gamma coordinates' ``str``, as both
        record forms spell them.  A value that is the same object as the one
        before it is spelled once, so an agreeing report, whose four values
        are one Fraction, makes one string."""
        direct = str(self.lhs_direct)
        res = direct if self.lhs_residue is self.lhs_direct else str(self.lhs_residue)
        prod = res if self.lhs_product is self.lhs_residue else str(self.lhs_product)
        rhs = prod if self.rhs is self.lhs_product else str(self.rhs)
        return direct, res, prod, rhs, [str(g) for g in self.instance.gamma]

    def to_json_dict(self) -> dict:
        """The report as a record, in field order: ``instance`` expands to
        s, d, alpha, gamma, the four values become their ``str``, and every
        other field passes through."""
        inst = self.instance
        direct, res, prod, rhs, gamma = self._strings()
        return {
            "s": inst.s,
            "d": inst.d,
            "alpha": list(inst.alpha),
            "gamma": gamma,
            "lhs_direct": direct,
            "lhs_residue": res,
            "lhs_product": prod,
            "rhs": rhs,
            "all_equal": self.all_equal,
            "time_direct_us": self.time_direct_us,
            "time_residue_us": self.time_residue_us,
            "time_product_us": self.time_product_us,
            "time_rhs_us": self.time_rhs_us,
            "direct_terms": self.direct_terms,
            "residue_ops": self.residue_ops,
            "product_ops": self.product_ops,
        }

    def to_json_line(self) -> str:
        """``json.dumps(self.to_json_dict(), separators=(",", ":"))``,
        formatted straight from the fields, with no dict and no encoder."""
        return f"{{{self._json_fields()}}}"

    def _json_fields(self) -> str:
        """The JSON line's fields, without its braces.  Nothing needs
        escaping: every string is the ``str`` of a Fraction, and every
        other field is an int or the verdict."""
        direct, res, prod, rhs, gamma = self._strings()
        inst = self.instance
        alpha = ",".join(map(str, inst.alpha))
        verdict = "true" if self.all_equal else "false"
        return (
            f'"s":{inst.s},"d":{inst.d},"alpha":[{alpha}],"gamma":{_json_strings(gamma)},'
            f'"lhs_direct":"{direct}","lhs_residue":"{res}","lhs_product":"{prod}",'
            f'"rhs":"{rhs}","all_equal":{verdict},'
            f'"time_direct_us":{self.time_direct_us},"time_residue_us":{self.time_residue_us},'
            f'"time_product_us":{self.time_product_us},"time_rhs_us":{self.time_rhs_us},'
            f'"direct_terms":{self.direct_terms},"residue_ops":{self.residue_ops},'
            f'"product_ops":{self.product_ops}'
        )


class _PolyRecord(NamedTuple):
    """A ``verify --poly-gamma`` record: the report's fields, then the
    certificate in gamma coordinate ``poly_gamma``, as ``verify_poly_gamma``
    returns it."""

    report: VerificationReport
    poly_gamma: int
    lhs: Poly
    rhs: Poly
    poly_equal: bool

    @property
    def all_equal(self) -> bool:
        """The record's verdict: the routes agree and so do the two
        polynomials."""
        return self.report.all_equal and self.poly_equal

    def _poly_strings(self) -> tuple[list[str], list[str]]:
        lhs = [str(c) for c in self.lhs.coeffs]
        # when the sides agree they are one polynomial, spelled once
        return lhs, (lhs if self.rhs is self.lhs else [str(c) for c in self.rhs.coeffs])

    def to_json_dict(self) -> dict:
        """The report's record with the four certificate fields appended."""
        lhs, rhs = self._poly_strings()
        record = self.report.to_json_dict()
        record["poly_gamma"] = self.poly_gamma
        record["lhs_poly"] = lhs
        record["rhs_poly"] = rhs
        record["poly_equal"] = self.poly_equal
        return record

    def to_json_line(self) -> str:
        """``to_json_dict()`` in compact JSON: the report's fields, then the
        certificate's."""
        lhs, rhs = self._poly_strings()
        lhs_json = _json_strings(lhs)
        rhs_json = lhs_json if rhs is lhs else _json_strings(rhs)
        verdict = "true" if self.poly_equal else "false"
        return (
            f'{{{self.report._json_fields()},"poly_gamma":{self.poly_gamma},'
            f'"lhs_poly":{lhs_json},"rhs_poly":{rhs_json},"poly_equal":{verdict}}}'
        )


def _json_strings(strings: Sequence[str]) -> str:
    """Strings that need no escaping as a compact JSON array."""
    return '["' + '","'.join(strings) + '"]' if strings else "[]"


def verify(inst: IdentityInstance) -> VerificationReport:
    """Evaluate all four values with per-route timings and cost counters.

    Each side is an integer pair (numerator, positive denominator), and
    the verdict compares every route's pair with the right side's by
    cross-multiplication, n * d' == n' * d, which is exact since both
    denominators are positive.  If all four agree, one Fraction, the
    right side's, fills all four value fields; otherwise each field holds
    its own side's value.
    """
    t0 = time.perf_counter_ns()
    direct, terms = _lhs_direct_counted(inst)
    t1 = time.perf_counter_ns()
    ops0 = _OPS.count
    res = _lhs_residue_pair(inst)
    ops1 = _OPS.count
    t2 = time.perf_counter_ns()
    prod = _lhs_product_pair(inst)
    ops2 = _OPS.count
    t3 = time.perf_counter_ns()
    rhs = _rhs_closed_pair(inst)
    t4 = time.perf_counter_ns()
    num, den = rhs
    all_equal = (
        direct[0] * den == num * direct[1]
        and res[0] * den == num * res[1]
        and prod[0] * den == num * prod[1]
    )
    if all_equal:
        direct = res = prod = rhs = Fraction(num, den)
    else:
        direct, res, prod, rhs = [Fraction(*pair) for pair in (direct, res, prod, rhs)]
    return VerificationReport(
        inst,
        direct,
        res,
        prod,
        rhs,
        all_equal,
        (t1 - t0) // 1000,
        (t2 - t1) // 1000,
        (t3 - t2) // 1000,
        (t4 - t3) // 1000,
        terms,
        ops1 - ops0,
        ops2 - ops1,
    )


# ---------------------------------------------------------------------------
# polynomial certification in one gamma coordinate


def _interpolate(nums: Sequence[int], den: int) -> Poly:
    """The polynomial of degree < n through (x, nums[x] / den), x = 0..n-1,
    for integer numerators over one positive denominator, not necessarily
    the lowest.

    Newton's form sum_k c_k x(x-1)...(x-k+1), with c_k the divided
    differences Delta**k y_0 / k! of the values at the nodes 0..n-1,
    expanded into monomial coefficients by Horner's scheme in the falling
    factors (x - k).
    """
    diffs = [Fraction(y, den) for y in nums]
    n = len(diffs)
    for level in range(1, n):
        for i in range(n - 1, level - 1, -1):
            diffs[i] = (diffs[i] - diffs[i - 1]) / level
    coeffs: list[Fraction] = []
    for k in range(n - 1, -1, -1):
        # coeffs <- coeffs * (x - k) + c_k
        coeffs = [a - k * c for a, c in zip([0] + coeffs, coeffs + [0])]
        coeffs[0] += diffs[k]
    return Poly(coeffs, var="gamma")


@lru_cache(maxsize=256)
def _node_tables(alpha_c: int, s: int) -> tuple[tuple[int, ...], ...]:
    """For each node x = 0, 1, ..., s + alpha_c, the series
    U_x = (1-t)**x T_x to t**s, where T_x is a coordinate's factor table
    at alpha_c and gamma = x, as integer numerators over the one
    denominator alpha_c!.

    At an integer node the b-th factor C(b+x, b) (2b+x+1)**alpha_c / alpha_c!
    has the integer numerator C(b+x, b) (2b+x+1)**alpha_c, and the product
    with the integer series (1-t)**x = sum_k (-1)**k C(x, k) t**k is an
    integer convolution.  The key is ints, and one entry serves every
    call at (alpha_c, s).
    """
    tables = []
    for x in range(s + alpha_c + 1):
        factors = [math.comb(b + x, b) * (2 * b + x + 1) ** alpha_c for b in range(s + 1)]
        signed = [(-1) ** k * math.comb(x, k) for k in range(min(x, s) + 1)]
        tables.append(tuple(_convolve(signed, factors, s)))
    return tuple(tables)


def _lhs_at_nodes(inst: IdentityInstance, coordinate: int) -> tuple[list[int], int]:
    """The direct left side with gamma[coordinate] pinned to each of
    x = 0, 1, ..., s + alpha_c, in that order, as integer numerators over
    one shared denominator (not reduced).

    Grouping the compositions of s - j by their coordinate-c part b gives
    S_j(x) = sum_b T_x[b] * R[s - j - b], where T_x is coordinate c's
    factor table at gamma_c = x and R[m] sums the composition products of
    m over the other coordinates.  R does not depend on x, so the other
    coordinates' compositions are walked once per call, by the direct
    route's walk (``_head_sums``, keyed by the other coordinates' triples).  With top0 = p0/q0 the
    instance's top minus gamma_c (taken in ints, reduced by one gcd), the
    alternating j-sum at node x is
    sum_j (-1)**j C(top0 + x, j) S_j(x) = [t**s] (1-t)**(top0+x) T_x R,
    and since (1-t)**(top0+x) = (1-t)**top0 (1-t)**x (Vandermonde), that
    is sum_b U_x[b] * A[s - b] with U_x = (1-t)**x T_x (``_node_tables``,
    cached by alpha_c and s) and A = (1-t)**top0 R truncated at t**s.  A
    is built once per call, from the weights ``_falling_weights``, in
    O(s**2); each node is then one dot product, O(s), on integer
    numerators, and makes no Fraction.  Every U_x is over alpha_c!, and A
    is over q0**s s! times the other tables' denominators, at every
    node.  The regrouped sum is the same exact sum, so every value
    equals ``lhs_direct`` of the pinned instance.
    """
    s, coords = inst.s, inst._coords
    alpha_c, p_c, q_c = coords[coordinate]
    rest, _, rest_den = _head_sums(s, coords[:coordinate] + coords[coordinate + 1 :])
    # the top at gamma_c = x is top0 + x = (p0 + x*q0)/q0
    top_p, top_q = inst._top_pair
    q0 = top_q * q_c
    p0 = top_p * q_c - p_c * top_q
    common = math.gcd(p0, q0)
    p0, q0 = p0 // common, q0 // common
    weights, scale = _falling_weights(p0, q0, s)
    # reversed, so that a node is one aligned dot product: shifted[b] = A[s - b]
    shifted = _convolve(weights, rest, s)[::-1]
    nums = [sum(map(operator.mul, u, shifted)) for u in _node_tables(alpha_c, s)]
    return nums, scale * math.factorial(alpha_c) * rest_den


def verify_poly_gamma(
    inst: IdentityInstance, coordinate: int
) -> tuple[Poly, Poly, bool]:
    """Certify the instance polynomially in one gamma coordinate.

    Treats gamma[coordinate] (written x; its concrete value in the
    instance is ignored) as a free variable and returns both sides as
    polynomials in x: (lhs_poly, rhs_poly, equal).

    The degree bound: in the direct left side, C(top, j) has degree j in
    x, and each term of S_j has degree at most (s - j) + alpha_c, from
    C(beta_c + x, beta_c) with beta_c <= s - j and (2 beta_c + x + 1)**alpha_c.
    So the left side has degree at most s + alpha_c, and the right side,
    4**s C(x + alpha_c, alpha_c) times constants, has degree alpha_c.
    Two polynomials of degree at most n - 1 = s + alpha_c that agree at
    n distinct points are equal.  So the direct left side is evaluated
    exactly at x = 0, 1, ..., n - 1 (``_lhs_at_nodes``), the right side's
    closed form num * C(x + alpha_c, alpha_c) / den is evaluated at the
    same nodes, and the two are compared there, as integer cross products
    of their numerators and denominators.  Agreement at all n nodes proves
    the identity for *every* value of x, rational or not; that is
    ``equal``.  ``rhs_poly`` needs no interpolation: its monomial
    coefficients are num / (den alpha_c!) times the integer coefficients
    of (x + 1)...(x + alpha_c), which is row 0 of
    ``derivative_table(alpha_c)``.  When the sides agree it is
    also ``lhs_poly``, since the unique polynomial of degree < n through
    the left side's n values is then this one.  When they disagree,
    ``lhs_poly`` is interpolated from the left side's own n values, so a
    wrong node shows in it.
    """
    coordinate = _count(coordinate, "coordinate", 0, inst.d)
    alpha_c = inst.alpha[coordinate]
    lnums, lden = _lhs_at_nodes(inst, coordinate)
    num, den = _binomial_product(
        inst.alpha[:coordinate] + inst.alpha[coordinate + 1 :],
        inst.gamma[:coordinate] + inst.gamma[coordinate + 1 :],
    )
    num *= 4**inst.s
    equal = all(
        left * den == num * math.comb(x + alpha_c, alpha_c) * lden
        for x, left in enumerate(lnums)
    )
    den *= math.factorial(alpha_c)
    rising = derivative_table(alpha_c).entries[0]  # (x + 1)...(x + alpha_c)
    rhs = Poly((Fraction(num * c, den) for c in rising), var="gamma")
    lhs = rhs if equal else _interpolate(lnums, lden)
    return lhs, rhs, equal


# ---------------------------------------------------------------------------
# sweeping


def iter_instances(
    max_s: int,
    max_d: int,
    gamma_set: Sequence,
    cap: int | None = None,
) -> Iterator[IdentityInstance]:
    """Deterministic grid enumeration.

    Order: s ascending, then d ascending, then alpha in lexicographic
    composition order, then gamma running through the Cartesian power of
    ``gamma_set`` in the given order.  ``cap`` cuts the stream after that
    many instances, so a capped sweep is a prefix of the uncapped one.
    The arguments are checked on the call, before any instance is drawn.

    Every alpha is a composition of 2s+1 and every gamma is drawn from the
    checked set, so each instance is built without the constructor's
    per-coordinate checks, from the gammas' integer pairs taken once per
    gamma set; the instance is the one the constructor makes.
    """
    max_s, max_d = _count(max_s, "max_s"), _count(max_d, "max_d")
    if cap is not None:
        cap = _count(cap, "cap", 1)
    gam = tuple(as_rational(g) for g in _refuse_text(gamma_set, "gamma_set"))
    if not gam:
        raise ValueError("gamma_set must be nonempty")
    pairs = tuple((g.numerator, g.denominator) for g in gam)
    grid = (
        _checked_instance(IdentityInstance, s, alpha, gamma, gamma_pairs)
        for s in range(max_s + 1)
        for d in range(max_d + 1)
        for alpha in compositions(2 * s + 1, d + 1)
        for gamma, gamma_pairs in zip(
            itertools.product(gam, repeat=d + 1), itertools.product(pairs, repeat=d + 1)
        )
    )
    return itertools.islice(grid, cap)


def sweep(
    max_s: int,
    max_d: int,
    gamma_set: Sequence,
    cap: int | None = None,
    jobs: int = 1,
) -> Iterator[VerificationReport]:
    """``verify`` over the instance grid, in enumeration order.

    With jobs > 1 the instances go to worker processes in chunks of 32,
    and the reports come back chunk by chunk in submission order, so the
    output stream is identical to the serial one.  The pool starts when
    the first report is drawn, and at most 2 * jobs chunks are in flight:
    a chunk is drawn from the grid only after the oldest one's reports
    have been taken, so a reader that stalls stops the sweep, as a
    blocked write stops a serial one.  ``jobs`` is checked on the call.
    """
    jobs = _count(jobs, "jobs", 1, MAX_JOBS)
    instances = iter_instances(max_s, max_d, gamma_set, cap)
    if jobs == 1:
        return map(verify, instances)
    return _pooled_reports(instances, jobs)


def _pooled_reports(
    instances: Iterator[IdentityInstance], jobs: int
) -> Iterator[VerificationReport]:
    import multiprocessing  # here, so that a serial run does not pay for it
    window = collections.deque()
    with multiprocessing.Pool(processes=jobs) as pool:
        while chunk := list(itertools.islice(instances, 32)):
            window.append(pool.map_async(verify, chunk, chunksize=32))
            if len(window) == 2 * jobs:
                yield from window.popleft().get()
        while window:
            yield from window.popleft().get()
