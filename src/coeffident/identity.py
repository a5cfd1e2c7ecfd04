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

All three must equal ``rhs_closed`` exactly -- Fraction equality, no
tolerances -- on every valid instance.
"""

from __future__ import annotations

import itertools
import math
import operator
import time
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterator, NamedTuple, Sequence

from .algebra import Poly, _over_common_denominator, as_rational
from .residues import (
    _w_residue_numerators,
    base_t_residue,
    correction_t_residue,
    derivative_table,
)
from .series import _OPS, _binomial_numerators, _convolve, coefficient_ops

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
    positive length, s and alpha must be nonnegative integers (anything
    ``operator.index`` accepts; a float is refused, not truncated), gamma
    must be exact rationals, and sum(alpha) must equal 2s+1 (the identity
    is not claimed outside that hypothesis).  ``_make``, and so
    ``_replace``, construct through the same checks.
    """

    def __new__(cls, s: int, alpha: Sequence[int], gamma: Sequence) -> IdentityInstance:
        try:
            s = operator.index(s)
            alpha = tuple(operator.index(a) for a in alpha)
        except TypeError as exc:
            raise InvalidInstance(f"s and alpha must be integers: {exc}") from None
        gamma = tuple(as_rational(g) for g in gamma)
        if s < 0:
            raise InvalidInstance("s must be >= 0")
        if not alpha:
            raise InvalidInstance("alpha needs at least one coordinate")
        if len(alpha) != len(gamma):
            raise InvalidInstance(
                f"alpha and gamma lengths differ: {len(alpha)} vs {len(gamma)}"
            )
        if any(a < 0 for a in alpha):
            raise InvalidInstance("alpha coordinates must be >= 0")
        if sum(alpha) != 2 * s + 1:
            raise InvalidInstance(
                f"sum(alpha) = {sum(alpha)} but the hypothesis needs "
                f"2s+1 = {2 * s + 1}"
            )
        return super().__new__(cls, s, alpha, gamma)

    @classmethod
    def _make(cls, iterable) -> IdentityInstance:
        return cls(*iterable)

    @property
    def d(self) -> int:
        """Number of coordinates minus one."""
        return len(self.alpha) - 1

    @cached_property
    def top(self) -> Fraction:
        """The left side's binomial top d + sum(alpha) + sum(gamma),
        computed once per instance: the gammas are summed as integer
        numerators over their common denominator, and the one Fraction
        made is the result."""
        nums, den = _over_common_denominator(self.gamma)
        return Fraction((self.d + sum(self.alpha)) * den + sum(nums), den)


def compositions(n: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All tuples of ``parts`` nonnegative integers summing to n, in
    lexicographic order.  There are C(n + parts - 1, parts - 1) of them.

    Stars and bars: the parts are the gaps between parts - 1 cut points
    0 <= c_1 <= ... <= c_{parts-1} <= n, and cut tuples in lexicographic
    order give the parts in lexicographic order.  No recursion, so any
    number of parts works.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if parts < 1:
        raise ValueError("parts must be >= 1")
    for cuts in itertools.combinations_with_replacement(range(n + 1), parts - 1):
        yield tuple(map(operator.sub, cuts + (n,), (0,) + cuts))


# ---------------------------------------------------------------------------
# direct route


@lru_cache(maxsize=4096)
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


def _instance_tables(inst: IdentityInstance) -> tuple[list[tuple[int, ...]], int]:
    """Every coordinate's integer factor table, and the product of their
    denominators: the denominator of each composition product."""
    tables = []
    den = 1
    for a, g in zip(inst.alpha, inst.gamma):
        nums, table_den = _coordinate_factors(a, g.numerator, g.denominator, inst.s)
        tables.append(nums)
        den *= table_den
    return tables, den


def _composition_sums(tables: Sequence[Sequence[int]], n: int) -> tuple[list[int], int]:
    """For every m = 0..n, the sum over the compositions beta of m into
    len(tables) parts of prod_i tables[i][beta_i]; and the number of
    compositions summed, over all m together.

    One depth-first walk over the parts before the last, with an explicit
    stack (no recursion, so any number of parts works), carries each
    prefix's budget u = beta_0 + ... and product.  A prefix is closed by
    the last table: it adds prefix * last[m - u] to the sum of every
    m >= u.  So the prefixes are shared between all m, and each
    composition of each m is still visited, and counted, exactly once --
    the tables are not convolved with each other.
    """
    *heads, last = tables
    sums = [0] * (n + 1)
    terms = 0
    depth = len(heads)
    stack = [(0, 0, 1)]  # (parts chosen, budget used, prefix product)
    while stack:
        level, used, prefix = stack.pop()
        if level == depth:
            for m in range(used, n + 1):
                sums[m] += prefix * last[m - used]
            terms += n + 1 - used
            continue
        table = heads[level]
        for b in range(n - used + 1):
            stack.append((level + 1, used + b, prefix * table[b]))
    return sums, terms


def _falling_weights(p: int, q: int, s: int) -> tuple[list[int], int]:
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
    return weights, scale


def inner_sum(inst: IdentityInstance, j: int) -> Fraction:
    """The inner sum S_j: compositions of s-j across the coordinates."""
    j = operator.index(j)
    if not 0 <= j <= inst.s:
        raise ValueError(f"j={j} outside 0..{inst.s}")
    tables, den = _instance_tables(inst)
    return Fraction(_composition_sums(tables, inst.s - j)[0][-1], den)


def _lhs_direct_counted(inst: IdentityInstance) -> tuple[Fraction, int]:
    """The direct left side, and the number of compositions summed."""
    tables, den = _instance_tables(inst)
    sums, terms = _composition_sums(tables, inst.s)
    top = inst.top
    # the alternating j-sum: S_j is sums[s - j]
    weights, scale = _falling_weights(top.numerator, top.denominator, inst.s)
    total = sum(map(operator.mul, weights, reversed(sums)))
    return Fraction(total, scale * den), terms


def lhs_direct(inst: IdentityInstance) -> Fraction:
    """Left side by literal summation."""
    return _lhs_direct_counted(inst)[0]


# ---------------------------------------------------------------------------
# residue route


def lhs_residue(inst: IdentityInstance) -> Fraction:
    """Left side as one coefficient extraction.

    The alternating j-sum is [t**s] (1-t)**(d + sum(alpha+gamma)) times
    the product of the coordinate series; the Cauchy product performs
    the composition sum implicitly.  The factors are the integer
    numerators of ``binomial_series`` and ``w_residue_series`` (their
    int-keyed kernels, read directly), each truncated product is taken
    in full to order s by ``_convolve``, the denominators multiply, and
    the one Fraction made is the coefficient of t**s.  The ops charged
    are the ones those kernels and ``TSeries`` multiplication charge:
    2s for the binomial series, (s+1)(alpha_i+4) per coordinate series
    and (s+1)(s+2)/2 per product.
    """
    s = inst.s
    top = inst.top
    acc, den = _binomial_numerators(-1, 1, top.numerator, top.denominator, s)
    ops = 2 * s
    for a, g in zip(inst.alpha, inst.gamma):
        nums, w_den = _w_residue_numerators(a, g.numerator, g.denominator, s)
        acc = _convolve(acc, nums, s)
        den *= w_den
        ops += (s + 1) * (a + 4) + (s + 1) * (s + 2) // 2
    _OPS.count += ops
    return Fraction(acc[s], den)


# ---------------------------------------------------------------------------
# reduced-product route


def _correction_numerators(inst: IdentityInstance) -> tuple[list[int], int]:
    """The correction polynomial as integer numerators of u**0, u**1, ...
    (trailing zeros stripped) over one positive denominator.

    The polynomial is the product, in u = (1-t)/(1+t), of one factor per
    coordinate, 1 + sum_k weight_k u**(2k) for k = 1..alpha_i//2, with
    weight_k = entries[k](gamma_i) / alpha_i! from ``derivative_table(alpha_i)``.
    So it has only even powers of u, degree at most
    2 * sum(alpha_i//2) <= 2s, and constant term 1.  At gamma_i = p/q the
    factor's numerators over the scale q**alpha_i alpha_i! are that scale
    at u**0 and the integer ``scaled_row(k, p, q)`` at u**(2k), reduced by
    their gcd.  The factors are multiplied by integer convolution, and the
    denominators multiply; no Fraction is made.

    The table is looked up once per weight, not once per coordinate: the
    benchmark's traced replay makes the same lookups and checks the
    table's hit ratio against the untraced run.
    ``test_verify_looks_up_the_derivative_table_once_per_weight`` pins the
    count until ROADMAP item 3 replaces the replay with the program's meter.
    """
    nums, den = [1], 1
    for a, g in zip(inst.alpha, inst.gamma):
        half = a // 2
        if half == 0:
            continue
        p, q = g.numerator, g.denominator
        factor = [0] * (2 * half + 1)
        factor[0] = q**a * math.factorial(a)
        for k in range(1, half + 1):
            factor[2 * k] = derivative_table(a).scaled_row(k, p, q)
        common = math.gcd(*factor)
        factor = [y // common for y in factor]
        product = [0] * (len(nums) + 2 * half)
        for i, x in enumerate(nums):
            if x:
                for j, y in enumerate(factor):
                    product[i + j] += x * y
        nums = product
        den *= factor[0]
    while nums and not nums[-1]:
        nums.pop()
    return nums, den


def lhs_product(inst: IdentityInstance) -> Fraction:
    """Left side by the reduced product.

    After substituting the closed forms, the (1-t) exponents across all
    factors sum to -1 and the (1+t) exponents to 2s+1, so the extraction
    collapses to scalar residues: the base one (worth 4**s) plus the
    even-index corrections weighted by the correction polynomial.  The
    binomial prefactors come out in front.  The correction polynomial's
    weights are evaluated from the derivative table's integer rows by
    Horner's scheme in ints, and the binomial prefactors are integer
    rising products; the invariants are checked, and the sum is taken,
    on the integer numerators, and the result is the one Fraction made.
    """
    nums, den = _correction_numerators(inst)
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
    weights = [den]
    residues = [base_t_residue(inst.s)]
    for k in range(2, degree + 1, 2):
        if nums[k]:
            weights.append(nums[k])
            residues.append(correction_t_residue(inst.s, k))
    rnums, rden = _over_common_denominator(residues)
    lead_num, lead_den = _leading_product(inst)
    total = sum(map(operator.mul, weights, rnums))
    return Fraction(total * lead_num, den * rden * lead_den)


@lru_cache(maxsize=256)
def _leading_binomial(alpha_i: int, p: int, q: int) -> tuple[int, int]:
    """One coordinate's leading binomial C(gamma_i + alpha_i, alpha_i),
    gamma_i = p/q in lowest terms, as its numerator and denominator in
    lowest terms: the rising product (p + q)(p + 2q)...(p + alpha_i*q) over
    q**alpha_i alpha_i!, stepped one factor at a time in ints and reduced
    by one gcd.  The key is ints, so a lookup hashes no Fraction."""
    num = den = 1
    for k in range(1, alpha_i + 1):
        num *= p + k * q
        den *= k * q
    common = math.gcd(num, den)
    return num // common, den // common


def _leading_product(inst: IdentityInstance) -> tuple[int, int]:
    """prod_i C(gamma_i + alpha_i, alpha_i) as an integer numerator and
    denominator (not reduced)."""
    num = den = 1
    for a, g in zip(inst.alpha, inst.gamma):
        lead_num, lead_den = _leading_binomial(a, g.numerator, g.denominator)
        num *= lead_num
        den *= lead_den
    return num, den


def _binomial_product(
    alpha: Sequence[int], gamma: Sequence[Fraction]
) -> tuple[int, int]:
    """prod_i C(gamma_i + alpha_i, alpha_i), each the rising product
    prod_{k=1..alpha_i} (p + k*q) over q**alpha_i alpha_i! for gamma_i = p/q,
    as an integer numerator and denominator (not reduced).  The right side
    shares no code with the product route's ``_leading_binomial``."""
    num = den = 1
    for a, g in zip(alpha, gamma):
        p, q = g.numerator, g.denominator
        num *= math.prod(range(p + q, p + a * q + 1, q))
        den *= q**a * math.factorial(a)
    return num, den


def rhs_closed(inst: IdentityInstance) -> Fraction:
    """Right side: 4**s times the product of C(alpha_i + gamma_i, alpha_i)."""
    num, den = _binomial_product(inst.alpha, inst.gamma)
    return Fraction(4**inst.s * num, den)


# ---------------------------------------------------------------------------
# verification


class VerificationReport(NamedTuple):
    """All four route values for one instance, plus timings and costs.

    Equality of the four values is the verdict; timings are wall-clock
    microseconds and purely informational (they are the one part of a
    report allowed to differ between identical runs).
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

    def to_json_dict(self) -> dict:
        """The report as a record, derived from its fields: ``instance``
        expands to s, d, alpha, gamma, a Fraction becomes its ``str``, and
        every other value passes through."""
        record = {}
        for name, value in zip(self._fields, self):
            # exact type tests: isinstance on a non-Fraction goes through
            # ABCMeta.__instancecheck__, and fields hold no subclasses
            if type(value) is IdentityInstance:
                record["s"] = value.s
                record["d"] = value.d
                record["alpha"] = list(value.alpha)
                record["gamma"] = [str(g) for g in value.gamma]
            elif type(value) is Fraction:
                record[name] = str(value)
            else:
                record[name] = value
        return record


def verify(inst: IdentityInstance) -> VerificationReport:
    """Evaluate all four values with per-route timings and cost counters."""
    t0 = time.perf_counter_ns()
    direct, terms = _lhs_direct_counted(inst)
    t1 = time.perf_counter_ns()
    ops0 = coefficient_ops()
    res = lhs_residue(inst)
    ops1 = coefficient_ops()
    t2 = time.perf_counter_ns()
    prod = lhs_product(inst)
    ops2 = coefficient_ops()
    t3 = time.perf_counter_ns()
    rhs = rhs_closed(inst)
    t4 = time.perf_counter_ns()
    return VerificationReport(
        instance=inst,
        lhs_direct=direct,
        lhs_residue=res,
        lhs_product=prod,
        rhs=rhs,
        all_equal=(direct == res == prod == rhs),
        time_direct_us=(t1 - t0) // 1000,
        time_residue_us=(t2 - t1) // 1000,
        time_product_us=(t3 - t2) // 1000,
        time_rhs_us=(t4 - t3) // 1000,
        direct_terms=terms,
        residue_ops=ops1 - ops0,
        product_ops=ops2 - ops1,
    )


# ---------------------------------------------------------------------------
# polynomial certification in one gamma coordinate


def _interpolate(nums: Sequence[int], den: int) -> Poly:
    """The polynomial of degree < n through (x, nums[x] / den), x = 0..n-1,
    for integer numerators over one positive denominator, not necessarily
    the lowest.

    Newton's forward-difference form sum_k Delta**k * C(x, k): the
    differences of the numerators are ints.  Over the scale (n-1)!, the
    k-th term's weight Delta**k (n-1)!/k! is an int, and Horner's scheme
    in the falling factors (x - k) expands the sum into integer monomial
    coefficients; one Fraction is made per coefficient.
    """
    diffs = list(nums)
    n = len(diffs)
    for level in range(1, n):
        for i in range(n - 1, level - 1, -1):
            diffs[i] -= diffs[i - 1]
    scale = math.factorial(n - 1)
    coeffs: list[int] = []
    for k in range(n - 1, -1, -1):
        # coeffs <- coeffs * (x - k) + Delta**k * scale / k!
        coeffs = [a - k * c for a, c in zip([0] + coeffs, coeffs + [0])]
        coeffs[0] += diffs[k] * (scale // math.factorial(k))
    return Poly((Fraction(c, scale * den) for c in coeffs), var="gamma")


@lru_cache(maxsize=256)
def _node_tables(alpha_c: int, s: int) -> tuple[tuple[int, ...], ...]:
    """For each node x = 0, 1, ..., s + alpha_c, the series
    U_x = (1-t)**x T_x to t**s, where T_x is a coordinate's factor table
    (``_coordinate_factors``) at alpha_c and gamma = x, as integer
    numerators over the one denominator s! alpha_c!.

    T_x's numerators are brought to that denominator (it is T_x's before
    the gcd), and the product with the integer series
    (1-t)**x = sum_k (-1)**k C(x, k) t**k is an integer convolution.  The
    key is ints, and one entry serves every call at (alpha_c, s).
    """
    table_den = math.factorial(s) * math.factorial(alpha_c)
    tables = []
    for x in range(s + alpha_c + 1):
        table, den = _coordinate_factors(alpha_c, x, 1, s)
        lift = table_den // den
        signed = [(-1) ** k * math.comb(x, k) * lift for k in range(min(x, s) + 1)]
        tables.append(tuple(_convolve(signed, table, s)))
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
    route's prefix walk (``_composition_sums``).  With top0 = p0/q0 the
    instance's top minus gamma_c (taken in ints, reduced by one gcd), the
    alternating j-sum at node x is
    sum_j (-1)**j C(top0 + x, j) S_j(x) = [t**s] (1-t)**(top0+x) T_x R,
    and since (1-t)**(top0+x) = (1-t)**top0 (1-t)**x (Vandermonde), that
    is sum_b U_x[b] * A[s - b] with U_x = (1-t)**x T_x (``_node_tables``,
    cached by alpha_c and s) and A = (1-t)**top0 R truncated at t**s.  A
    is built once per call, from the weights ``_falling_weights``, in
    O(s**2); each node is then one dot product, O(s), on integer
    numerators, and makes no Fraction.  Every U_x is over s! alpha_c!,
    and A is over q0**s s! times the other tables' denominators, at
    every node.  The regrouped sum is the same exact sum, so every value
    equals ``lhs_direct`` of the pinned instance.
    """
    s = inst.s
    alpha_c = inst.alpha[coordinate]
    others = [
        _coordinate_factors(a, g.numerator, g.denominator, s)
        for i, (a, g) in enumerate(zip(inst.alpha, inst.gamma))
        if i != coordinate
    ]
    rest_den = math.prod(den for _, den in others)
    if others:
        rest = _composition_sums([nums for nums, _ in others], s)[0]
    else:
        rest = [1] + [0] * s
    # the top at gamma_c = x is top0 + x = (p0 + x*q0)/q0
    top, gamma_c = inst.top, inst.gamma[coordinate]
    q0 = top.denominator * gamma_c.denominator
    p0 = top.numerator * gamma_c.denominator - gamma_c.numerator * top.denominator
    common = math.gcd(p0, q0)
    p0, q0 = p0 // common, q0 // common
    weights, scale = _falling_weights(p0, q0, s)
    # reversed, so that a node is one aligned dot product: shifted[b] = A[s - b]
    shifted = _convolve(weights, rest, s)[::-1]
    nums = [sum(map(operator.mul, u, shifted)) for u in _node_tables(alpha_c, s)]
    return nums, scale * math.factorial(s) * math.factorial(alpha_c) * rest_den


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
    coordinate = operator.index(coordinate)
    if not 0 <= coordinate <= inst.d:
        raise ValueError(f"coordinate {coordinate} outside 0..{inst.d}")
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
    ``gamma_set`` in the given order.  ``cap`` cuts the stream after
    that many instances, so a capped sweep is a prefix of the uncapped
    one.
    """
    if max_s < 0 or max_d < 0:
        raise ValueError("max_s and max_d must be >= 0")
    if cap is not None and cap < 1:
        raise ValueError("cap must be >= 1")
    gam = tuple(as_rational(g) for g in gamma_set)
    if not gam:
        raise ValueError("gamma_set must be nonempty")
    produced = 0
    for s in range(max_s + 1):
        for d in range(max_d + 1):
            for alpha in compositions(2 * s + 1, d + 1):
                for gamma in itertools.product(gam, repeat=d + 1):
                    if cap is not None and produced >= cap:
                        return
                    produced += 1
                    yield IdentityInstance(s=s, alpha=alpha, gamma=gamma)


def sweep(
    max_s: int,
    max_d: int,
    gamma_set: Sequence,
    cap: int | None = None,
    jobs: int = 1,
) -> Iterator[VerificationReport]:
    """``verify`` over the instance grid, yielded in enumeration order.

    With jobs > 1 the instances go to worker processes; ordered imap
    keeps the output stream identical to the serial one.  A jobs value
    outside 1..MAX_JOBS raises ValueError before any work starts.
    """
    if not 1 <= jobs <= MAX_JOBS:
        raise ValueError(f"jobs={jobs} outside 1..MAX_JOBS={MAX_JOBS}")
    instances = iter_instances(max_s, max_d, gamma_set, cap)
    if jobs == 1:
        yield from map(verify, instances)
        return
    import multiprocessing  # here, so that a serial run does not pay for it
    with multiprocessing.Pool(processes=jobs) as pool:
        yield from pool.imap(verify, instances, chunksize=32)
