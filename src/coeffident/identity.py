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

* ``lhs_direct``   -- the literal double sum over compositions;
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
import multiprocessing
import operator
import time
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterator, Sequence

from .algebra import Poly, _over_common_denominator, as_rational, binomial
from .residues import (
    base_t_residue,
    correction_t_residue,
    correction_weight,
    w_residue_series,
)
from .series import binomial_series, coefficient_ops, residue

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
    "correction_polynomial",
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


@dataclass(frozen=True)
class IdentityInstance:
    """One cell of the identity: s plus the alpha and gamma vectors.

    Validation happens at construction: the two vectors must have equal
    positive length, s and alpha must be nonnegative integers (anything
    ``operator.index`` accepts; a float is refused, not truncated), gamma
    must be exact rationals, and sum(alpha)
    must equal 2s+1 (the identity is not claimed outside that
    hypothesis).
    """

    s: int
    alpha: tuple[int, ...]
    gamma: tuple[Fraction, ...]

    def __post_init__(self):
        try:
            object.__setattr__(self, "s", operator.index(self.s))
            object.__setattr__(
                self, "alpha", tuple(operator.index(a) for a in self.alpha)
            )
        except TypeError as exc:
            raise InvalidInstance(f"s and alpha must be integers: {exc}") from None
        object.__setattr__(
            self, "gamma", tuple(as_rational(g) for g in self.gamma)
        )
        if self.s < 0:
            raise InvalidInstance("s must be >= 0")
        if not self.alpha:
            raise InvalidInstance("alpha needs at least one coordinate")
        if len(self.alpha) != len(self.gamma):
            raise InvalidInstance(
                f"alpha and gamma lengths differ: {len(self.alpha)} vs {len(self.gamma)}"
            )
        if any(a < 0 for a in self.alpha):
            raise InvalidInstance("alpha coordinates must be >= 0")
        if sum(self.alpha) != 2 * self.s + 1:
            raise InvalidInstance(
                f"sum(alpha) = {sum(self.alpha)} but the hypothesis needs "
                f"2s+1 = {2 * self.s + 1}"
            )

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


def _composition_sum(tables: Sequence[Sequence[int]], n: int) -> tuple[int, int]:
    """Sum over the compositions beta of n into len(tables) parts of
    prod_i tables[i][beta_i], and the number of compositions."""
    total = 0
    terms = 0
    for beta in compositions(n, len(tables)):
        total += math.prod(map(operator.getitem, tables, beta))
        terms += 1
    return total, terms


def _alternating_sum(p: int, q: int, inner: Sequence[int], den: int) -> Fraction:
    """sum_j (-1)**j C(top, j) * inner[j] / den over j = 0..s, s = len(inner) - 1,
    for top = p/q (q > 0).

    (-1)**j C(top, j) = prod_{i<j} (i*q - p) / (q**j j!).
    Over the common denominator q**s s! its numerator is the integer
    w_j = prod_{i<j} (i*q - p) * q**(s-j) s!/j!, stepped as one running
    product w_{j+1} = w_j (j*q - p) / (q (j+1)); the division is exact
    for j < s, since q (j+1) divides q**(s-j) s!/j!.  The only Fraction
    is the result.
    """
    s = len(inner) - 1
    scale = q**s * math.factorial(s)
    weight = scale  # w_0
    total = 0
    for j, value in enumerate(inner):
        total += weight * value
        weight = weight * (j * q - p) // (q * (j + 1))
    return Fraction(total, scale * den)


def inner_sum(inst: IdentityInstance, j: int) -> Fraction:
    """The inner sum S_j: compositions of s-j across the coordinates."""
    if not 0 <= j <= inst.s:
        raise ValueError(f"j={j} outside 0..{inst.s}")
    tables, den = _instance_tables(inst)
    return Fraction(_composition_sum(tables, inst.s - j)[0], den)


def _lhs_direct_counted(inst: IdentityInstance) -> tuple[Fraction, int]:
    tables, den = _instance_tables(inst)
    inner = []
    terms = 0
    for j in range(inst.s + 1):
        value, n = _composition_sum(tables, inst.s - j)
        inner.append(value)
        terms += n
    top = inst.top
    return _alternating_sum(top.numerator, top.denominator, inner, den), terms


def lhs_direct(inst: IdentityInstance) -> Fraction:
    """Left side by literal summation."""
    return _lhs_direct_counted(inst)[0]


# ---------------------------------------------------------------------------
# residue route


def lhs_residue(inst: IdentityInstance) -> Fraction:
    """Left side as one coefficient extraction.

    The alternating j-sum is [t**s] (1-t)**(d + sum(alpha+gamma)) times
    the product of the coordinate series; the Cauchy product performs
    the composition sum implicitly.
    """
    order = inst.s
    acc = binomial_series(-1, inst.top, order)
    for a, g in zip(inst.alpha, inst.gamma):
        acc = acc * w_residue_series(a, g, order)
    return residue(acc, order)


# ---------------------------------------------------------------------------
# reduced-product route


def _correction_numerators(inst: IdentityInstance) -> tuple[list[int], int]:
    """The correction polynomial as integer numerators of u**0, u**1, ...
    (trailing zeros stripped) over one positive denominator.

    Each coordinate contributes 1 + sum_k weight_k u**(2k), k = 1..alpha_i//2,
    brought to numerators over the lowest common denominator of its
    weights; the factors are multiplied by integer convolution, and the
    denominators multiply.
    """
    nums, den = [1], 1
    for a, g in zip(inst.alpha, inst.gamma):
        half = a // 2
        if half == 0:
            continue
        wnums, wden = _over_common_denominator(
            [correction_weight(a, k, g) for k in range(1, half + 1)]
        )
        factor = [0] * (2 * half + 1)
        factor[0] = wden
        factor[2::2] = wnums
        product = [0] * (len(nums) + 2 * half)
        for i, x in enumerate(nums):
            if x:
                for j, y in enumerate(factor):
                    product[i + j] += x * y
        nums = product
        den *= wden
    while nums and not nums[-1]:
        nums.pop()
    return nums, den


def correction_polynomial(inst: IdentityInstance) -> Poly:
    """Product of the per-coordinate correction factors, in u = (1-t)/(1+t).

    Each coordinate contributes 1 + sum_k weight_k u**(2k) with
    k <= alpha_i//2, so the product contains only even powers of u and
    has degree at most 2 * sum(alpha_i//2) <= 2s.  Its constant term
    is exactly 1.
    """
    nums, den = _correction_numerators(inst)
    return Poly((Fraction(n, den) for n in nums), var="u")


def lhs_product(inst: IdentityInstance) -> Fraction:
    """Left side by the reduced product.

    After substituting the closed forms, the (1-t) exponents across all
    factors sum to -1 and the (1+t) exponents to 2s+1, so the extraction
    collapses to scalar residues: the base one (worth 4**s) plus the
    even-index corrections weighted by the correction polynomial.  The
    binomial prefactors come out in front.  The correction polynomial's
    invariants are checked, and the sum is taken, on its integer
    numerators; the result is the one Fraction made.
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
    lowest terms.  The key is ints, so a lookup hashes no Fraction."""
    lead = binomial(Fraction(p + alpha_i * q, q), alpha_i)
    return lead.numerator, lead.denominator


def _leading_product(inst: IdentityInstance) -> tuple[int, int]:
    """prod_i C(gamma_i + alpha_i, alpha_i) as an integer numerator and
    denominator (not reduced)."""
    num = den = 1
    for a, g in zip(inst.alpha, inst.gamma):
        lead_num, lead_den = _leading_binomial(a, g.numerator, g.denominator)
        num *= lead_num
        den *= lead_den
    return num, den


def rhs_closed(inst: IdentityInstance) -> Fraction:
    """Right side: 4**s times the product of C(alpha_i + gamma_i, alpha_i)."""
    num, den = _leading_product(inst)
    return Fraction(4**inst.s * num, den)


# ---------------------------------------------------------------------------
# verification


@dataclass(frozen=True)
class VerificationReport:
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
        for f in fields(self):
            value = getattr(self, f.name)
            # exact type tests: isinstance on a non-Fraction goes through
            # ABCMeta.__instancecheck__, and fields hold no subclasses
            if type(value) is IdentityInstance:
                record["s"] = value.s
                record["d"] = value.d
                record["alpha"] = list(value.alpha)
                record["gamma"] = [str(g) for g in value.gamma]
            elif type(value) is Fraction:
                record[f.name] = str(value)
            else:
                record[f.name] = value
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


def _interpolate(values: Sequence[Fraction]) -> Poly:
    """The polynomial of degree < n through (x, values[x]), x = 0..n-1.

    Newton's forward-difference form sum_k Delta**k * C(x, k), with the
    values as integer numerators over one denominator, so the differences
    are ints.  Over the scale (n-1)!, the k-th term's weight
    Delta**k (n-1)!/k! is an int, and Horner's scheme in the falling
    factors (x - k) expands the sum into integer monomial coefficients;
    one Fraction is made per coefficient.
    """
    diffs, den = _over_common_denominator(values)
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


def _lhs_at_nodes(inst: IdentityInstance, coordinate: int) -> list[Fraction]:
    """The direct left side with gamma[coordinate] pinned to each of
    x = 0, 1, ..., s + alpha_c, in that order.

    Grouping the compositions of s - j by their coordinate-c part b gives
    S_j(x) = sum_b T(x)[b] * R[s - j - b], where T(x) is coordinate c's
    factor table at gamma_c = x and R[m] sums the composition products of
    m over the other coordinates.  R does not depend on x, so the other
    coordinates' compositions are enumerated once per call, and each node
    adds an O(s**2) convolution and the alternating j-sum.  T and R are
    integer numerators over known denominators, so a node costs one
    integer convolution and one final division.  The regrouped
    sum is the same exact sum, so every value equals ``lhs_direct`` of
    the pinned instance.
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
        tables = [nums for nums, _ in others]
        rest = [_composition_sum(tables, m)[0] for m in range(s + 1)]
    else:
        rest = [1] + [0] * s
    # the top at gamma_c = x is top0 + x = (p0 + x*q0)/q0
    top0 = inst.top - inst.gamma[coordinate]
    p0, q0 = top0.numerator, top0.denominator
    values = []
    for x in range(s + alpha_c + 1):
        table, den = _coordinate_factors(alpha_c, x, 1, s)
        # inner[j] = sum_b T[b] R[m - b] with m = s - j
        inner = [
            sum(map(operator.mul, table[: m + 1], reversed(rest[: m + 1])))
            for m in range(s, -1, -1)
        ]
        values.append(_alternating_sum(p0 + x * q0, q0, inner, den * rest_den))
    return values


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
    exactly at x = 0, 1, ..., n - 1 (``_lhs_at_nodes``), ``lhs_poly`` is
    the unique interpolating polynomial through those values, and
    ``lhs_poly == rhs_poly`` proves the identity for *every* value of x,
    rational or not.  ``rhs_poly`` is interpolated the same way, from
    its closed-form values at x = 0, 1, ..., alpha_c.
    """
    if not 0 <= coordinate <= inst.d:
        raise ValueError(f"coordinate {coordinate} outside 0..{inst.d}")
    alpha_c = inst.alpha[coordinate]
    lhs = _interpolate(_lhs_at_nodes(inst, coordinate))
    num, den = 4**inst.s, 1
    for i, (a, g) in enumerate(zip(inst.alpha, inst.gamma)):
        if i != coordinate:
            lead_num, lead_den = _leading_binomial(a, g.numerator, g.denominator)
            num *= lead_num
            den *= lead_den
    const = Fraction(num, den)
    rhs = _interpolate(
        [const * math.comb(x + alpha_c, alpha_c) for x in range(alpha_c + 1)]
    )
    return lhs, rhs, lhs == rhs


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
    with multiprocessing.Pool(processes=jobs) as pool:
        yield from pool.imap(verify, instances, chunksize=32)
