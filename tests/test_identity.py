import contextlib
import csv
import importlib
import inspect
import io
import itertools
import json
import math
import pickle
import pkgutil
import random
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import coeffident
import coeffident.identity as identity
from coeffident.algebra import Poly, _over_common_denominator, binomial
from coeffident.cli import _emit
from coeffident.residues import (
    _t_residue,
    _w_residue_numerators,
    base_t_residue,
    correction_t_residue,
    derivative_table,
    w_residue_series,
)
from coeffident.series import (
    _binomial_numerators,
    _convolve,
    binomial_series,
    coefficient_ops,
    residue,
)
from coeffident.identity import (
    MAX_JOBS,
    CorrectionInvariantError,
    IdentityInstance,
    InvalidInstance,
    compositions,
    inner_sum,
    iter_instances,
    lhs_direct,
    lhs_product,
    lhs_residue,
    rhs_closed,
    sweep,
    verify,
    verify_poly_gamma,
)
from oracles import rising_factorial


# --- independent brute-force oracle (kept deliberately naive) ----------------


def oracle_compositions(n, parts):
    if parts == 1:
        return [(n,)]
    out = []
    for first in range(n + 1):
        for rest in oracle_compositions(n - first, parts - 1):
            out.append((first,) + rest)
    return out


def oracle_factor(b, a, g):
    return binomial(g + b, b) * (2 * b + g + 1) ** a / F(math.factorial(a))


def oracle_inner(s, alpha, gamma, j):
    inner = F(0)
    for beta in oracle_compositions(s - j, len(alpha)):
        term = F(1)
        for b, a, g in zip(beta, alpha, gamma):
            term *= oracle_factor(b, a, g)
        inner += term
    return inner


def oracle_lhs(s, alpha, gamma):
    d = len(alpha) - 1
    top = d + sum(alpha) + sum(gamma)
    total = F(0)
    for j in range(s + 1):
        total += (-1) ** j * binomial(top, j) * oracle_inner(s, alpha, gamma, j)
    return total


def oracle_rhs(s, alpha, gamma):
    out = F(4) ** s
    for a, g in zip(alpha, gamma):
        out *= binomial(g + a, a)
    return out


# --- instances -----------------------------------------------------------------


def test_instance_validation():
    inst = IdentityInstance(s=1, alpha=(1, 2), gamma=(F(0), F(0)))
    assert inst.d == 1
    with pytest.raises(InvalidInstance, match="2s\\+1"):
        IdentityInstance(s=1, alpha=(1, 1), gamma=(F(0), F(0)))
    with pytest.raises(InvalidInstance):
        IdentityInstance(s=-1, alpha=(1,), gamma=(F(0),))
    with pytest.raises(InvalidInstance):
        IdentityInstance(s=0, alpha=(1, 0), gamma=(F(0),))
    with pytest.raises(InvalidInstance):
        IdentityInstance(s=0, alpha=(), gamma=())
    with pytest.raises(InvalidInstance):
        IdentityInstance(s=1, alpha=(4, -1), gamma=(F(0), F(0)))
    with pytest.raises(TypeError):
        IdentityInstance(s=0, alpha=(1,), gamma=(0.5,))
    # non-integer s and alpha are refused, not truncated or left to the routes
    with pytest.raises(InvalidInstance, match="integers"):
        IdentityInstance(s=0, alpha=(1.9,), gamma=(0,))
    with pytest.raises(InvalidInstance, match="integers"):
        IdentityInstance(s=1.0, alpha=(3,), gamma=(0,))


def test_instance_top_is_the_binomial_top():
    inst = IdentityInstance(s=2, alpha=(1, 3, 1), gamma=(F(1, 2), 0, F(-7, 3)))
    assert inst.top == inst.d + sum(inst.alpha) + sum(inst.gamma) == F(31, 6)
    assert inst.top is inst.top  # computed once
    # the cached value is no field: equality and hashing ignore it
    fresh = IdentityInstance(s=2, alpha=(1, 3, 1), gamma=(F(1, 2), 0, F(-7, 3)))
    assert inst == fresh and hash(inst) == hash(fresh)
    single = IdentityInstance(s=0, alpha=(1,), gamma=(0,))
    assert single.top == 1 and type(single.top) is F


def test_records_survive_pickling():
    # sweep --jobs N sends instances to worker processes and reports back
    inst = IdentityInstance(s=2, alpha=(1, 3, 1), gamma=(F(1, 2), 0, F(-7, 3)))
    assert inst.top == F(31, 6)
    copy = pickle.loads(pickle.dumps(inst))
    assert copy == inst and type(copy) is IdentityInstance and copy.top == inst.top
    report = verify(inst)
    assert pickle.loads(pickle.dumps(report)) == report


def test_replace_and_make_validate():
    inst = IdentityInstance(s=1, alpha=(1, 2), gamma=(F(1, 2), 0))
    assert inst._fields == ("s", "alpha", "gamma")
    assert inst._replace(alpha=(3, 0)) == IdentityInstance(1, (3, 0), (F(1, 2), 0))
    with pytest.raises(InvalidInstance, match="2s\\+1"):
        inst._replace(s=inst.s + 1)
    with pytest.raises(InvalidInstance, match="2s\\+1"):
        IdentityInstance._make((1, (1, 1), (0, 0)))
    with pytest.raises(InvalidInstance, match="integers"):
        inst._replace(s=1.0)
    with pytest.raises(TypeError):
        inst._replace(gamma=(0.5, 0))
    assert type(IdentityInstance._make(inst).gamma[1]) is F


def test_instance_accepts_zero_coordinates():
    inst = IdentityInstance(s=0, alpha=(1, 0, 0), gamma=(F(1), F(2), F(3)))
    assert inst.d == 2
    assert verify(inst).all_equal
    assert rhs_closed(inst) == 2


# --- compositions ----------------------------------------------------------------


def test_compositions_examples():
    assert list(compositions(2, 2)) == [(0, 2), (1, 1), (2, 0)]
    assert list(compositions(0, 3)) == [(0, 0, 0)]
    assert sum(1 for _ in compositions(5, 4)) == 56


def test_compositions_are_lexicographic_and_complete():
    seen = list(compositions(4, 3))
    assert seen == sorted(seen)
    assert len(set(seen)) == len(seen) == math.comb(4 + 2, 2)
    assert all(sum(c) == 4 for c in seen)


def test_compositions_validation():
    with pytest.raises(ValueError):
        list(compositions(-1, 2))
    with pytest.raises(ValueError):
        list(compositions(2, 0))


@contextlib.contextmanager
def recursion_headroom(frames=40):
    """Set the recursion limit a few dozen frames above the current depth."""
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + frames)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


def test_compositions_and_derivative_table_need_no_recursion():
    with recursion_headroom():
        many = list(compositions(1, 200))
        derivative_table.cache_clear()
        table = derivative_table(50)
    assert many == [tuple(int(i == 199 - k) for i in range(200)) for k in range(200)]
    assert len(table.entries) == 26
    assert Poly(table.entries[0]) == rising_factorial(Poly.indeterminate() + 1, 50)


def package_caches():
    """Every cached function that a module of the package holds, once."""
    found = {}
    for info in pkgutil.iter_modules(coeffident.__path__):
        module = importlib.import_module(f"coeffident.{info.name}")
        for value in vars(module).values():
            if hasattr(value, "cache_info"):
                found[id(value)] = value
    return list(found.values())


def clear_caches():
    for cached in package_caches():
        cached.cache_clear()


# Every cache in the package: each is a plain int-keyed lru_cache on a
# kernel that counts no ops.
PACKAGE_CACHES = (
    identity._coordinate_factors,
    identity._node_tables,
    identity._leading_binomial,
    _w_residue_numerators,
    _binomial_numerators,
    _t_residue,
    derivative_table,
)


def test_caches_are_bounded():
    caches = package_caches()
    for cached in caches:
        assert cached.cache_info().maxsize is not None, cached
    # a cache added or removed without updating the list fails here
    found = {f"{c.__module__}.{c.__qualname__}" for c in caches}
    listed = {f"{c.__module__}.{c.__qualname__}" for c in PACKAGE_CACHES}
    assert found == listed


def criterion_6_instances():
    """The cells of acceptance criterion 6: s <= 2, d <= 2, gammas in {0, 1}."""
    for s in range(3):
        for d in range(3):
            for alpha in compositions(2 * s + 1, d + 1):
                for gamma in itertools.product((F(0), F(1)), repeat=d + 1):
                    yield IdentityInstance(s=s, alpha=alpha, gamma=gamma)


def untimed(report):
    return {k: v for k, v in report.to_json_dict().items() if not k.startswith("time_")}


def test_reports_do_not_depend_on_cache_state():
    for inst in criterion_6_instances():
        clear_caches()
        cold = verify(inst)
        warm = verify(inst)
        assert untimed(cold) == untimed(warm)


def series_t_residue(a, b, s):
    """[t**s] (1-t)**a (1+t)**b in the public series arithmetic: the value
    and the op count that the scalar residues' int kernel must match."""
    return residue(binomial_series(-1, a, s) * binomial_series(1, b, s), s)


# each public kernel's private cached kernel, and for the scalar residues
# the same extraction in TSeries arithmetic
PRIVATE_KERNEL = {
    binomial_series: _binomial_numerators,
    w_residue_series: _w_residue_numerators,
    base_t_residue: _t_residue,
    correction_t_residue: _t_residue,
}
SERIES_CONSTRUCTION = {
    base_t_residue: lambda s: series_t_residue(-1, 2 * s + 1, s),
    correction_t_residue: lambda s, k: series_t_residue(k - 1, 2 * s - k + 1, s),
}


@pytest.mark.parametrize(
    "kernel, args",
    [
        (binomial_series, (-1, F(1, 2), 4)),
        (w_residue_series, (3, F(1, 2), 4)),
        (base_t_residue, (3,)),
        (correction_t_residue, (3, 2)),
    ],
)
def test_memoized_kernel_charges_the_same_ops_cold_and_warm(kernel, args):
    def charged(fn):
        ops0 = coefficient_ops()
        value = fn(*args)
        return value, coefficient_ops() - ops0

    private = PRIVATE_KERNEL[kernel]
    clear_caches()
    cold = charged(kernel)
    hits = private.cache_info().hits
    warm = charged(kernel)
    assert private.cache_info().hits == hits + 1
    assert cold == warm
    assert cold[1] > 0
    if kernel in SERIES_CONSTRUCTION:
        clear_caches()
        assert charged(SERIES_CONSTRUCTION[kernel]) == cold


@given(
    st.lists(st.integers(-50, 50), max_size=6),
    st.lists(st.integers(-50, 50), min_size=1, max_size=8),
)
@example([], [3])
@example([2], [1, 2, 3])
def test_convolve_is_the_truncated_cauchy_product(a, b):
    n = len(b) - 1
    naive = [0] * (n + 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if i + j <= n:
                naive[i + j] += x * y
    assert _convolve(a, b, n) == naive
    for m in range(n + 1):
        assert _convolve(a, b, m) == naive[: m + 1]


# --- the four routes ----------------------------------------------------------------


SPOT = IdentityInstance(s=1, alpha=(1, 2), gamma=(F(0), F(0)))


def test_inner_sum_examples():
    assert inner_sum(SPOT, 0) == 6
    assert inner_sum(SPOT, 1) == F(1, 2)
    with pytest.raises(ValueError):
        inner_sum(SPOT, 2)


def test_float_indices_are_refused_clearly():
    # operator.index's TypeError, not an error from deep inside the route
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        inner_sum(SPOT, 1.0)
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        verify_poly_gamma(SPOT, 1.0)


def test_inner_sum_at_j_equals_s():
    # single composition (0,...,0)
    inst = IdentityInstance(s=2, alpha=(2, 3), gamma=(F(1, 2), F(3)))
    expected = F(1)
    for a, g in zip(inst.alpha, inst.gamma):
        expected *= (g + 1) ** a / F(math.factorial(a))
    assert inner_sum(inst, 2) == expected


def test_lhs_direct_examples():
    assert lhs_direct(IdentityInstance(0, (1,), (F(0),))) == 1
    assert lhs_direct(SPOT) == 4
    assert lhs_direct(IdentityInstance(1, (3,), (F(0),))) == 4


def test_rhs_closed_examples():
    assert rhs_closed(IdentityInstance(0, (1,), (F(0),))) == 1
    assert rhs_closed(SPOT) == 4
    assert rhs_closed(IdentityInstance(0, (1,), (F(1, 2),))) == F(3, 2)


def test_lhs_residue_examples():
    assert lhs_residue(IdentityInstance(0, (1,), (F(0),))) == 1
    assert lhs_residue(IdentityInstance(1, (3,), (F(0),))) == 4
    assert lhs_residue(SPOT) == 4


def test_lhs_product_trivial_when_alphas_small():
    # all alpha_i <= 1: the correction polynomial is 1
    inst = IdentityInstance(s=1, alpha=(1, 1, 1), gamma=(F(1, 2), F(0), F(2)))
    assert identity._correction_numerators(inst) == ([1], 1)
    assert lhs_product(inst) == rhs_closed(inst)


def test_lhs_product_with_corrections():
    inst = IdentityInstance(1, (3,), (F(0),))
    nums, den = identity._correction_numerators(inst)
    assert [F(n, den) for n in nums] == [1, 0, F(-5, 6)]
    assert lhs_product(inst) == 4


def test_correction_polynomial_structure():
    inst = IdentityInstance(s=3, alpha=(4, 3), gamma=(F(1, 2), F(2)))
    nums, den = identity._correction_numerators(inst)
    assert nums[:1] == [den]
    assert len(nums) - 1 <= 2 * inst.s
    assert not any(nums[1::2])


@st.composite
def small_instances(draw, max_s=3, max_d=3):
    s = draw(st.integers(min_value=0, max_value=max_s))
    d = draw(st.integers(min_value=0, max_value=max_d))
    cuts = sorted(draw(st.lists(st.integers(0, 2 * s + 1), min_size=d, max_size=d)))
    alpha = tuple(b - a for a, b in zip((0, *cuts), (*cuts, 2 * s + 1)))
    gamma = draw(
        st.lists(
            st.fractions(min_value=-6, max_value=6, max_denominator=9),
            min_size=d + 1,
            max_size=d + 1,
        )
    )
    return IdentityInstance(s=s, alpha=alpha, gamma=tuple(gamma))


@given(small_instances())
def test_correction_numerators_are_the_polynomial(inst):
    nums, den = identity._correction_numerators(inst)
    assert den > 0
    assert not nums or nums[-1] != 0
    # the Fraction product of the coordinate factors, as Poly arithmetic
    expected = Poly([1], var="u")
    for a, g in zip(inst.alpha, inst.gamma):
        factor = [F(0)] * (2 * (a // 2) + 1)
        factor[0] = F(1)
        for k in range(1, a // 2 + 1):
            factor[2 * k] = derivative_table(a).weight(k, g)
        expected = expected * Poly(factor, var="u")
    assert tuple(F(n, den) for n in nums) == expected.coeffs


@pytest.mark.parametrize(
    "lam, broken",
    [
        (([4, 0, 2], 2), "constant term"),  # 2 + u**2/2
        (([3, 0, 0, 0, 3], 3), "degree"),  # 1 + u**4 at s = 1
        (([2, 1], 2), "odd powers"),  # 1 + u/2
    ],
)
def test_lhs_product_invariants_raise(monkeypatch, lam, broken):
    # lam is the correction polynomial as (numerators, denominator); the
    # checks are real exceptions, not asserts: they must still fire under
    # python -O
    monkeypatch.setattr(identity, "_correction_numerators", lambda inst: lam)
    with pytest.raises(CorrectionInvariantError, match=broken):
        lhs_product(SPOT)
    assert issubclass(CorrectionInvariantError, ArithmeticError)


@given(small_instances().map(lambda inst: inst._replace(gamma=tuple(map(abs, inst.gamma)))))
def test_right_side_does_not_share_the_leading_binomials(inst):
    # A wrong leading binomial must move the product route only: the right
    # side computes its binomials itself.  With gamma >= 0 every binomial
    # is >= 1, so raising each by one strictly raises the product.
    real = identity._leading_binomial

    def off_by_one(a, p, q):
        num, den = real(a, p, q)
        return num + den, den

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(identity, "_leading_binomial", off_by_one)
        report = verify(inst)
    assert report.lhs_product != report.rhs
    assert report.all_equal is False
    assert report.rhs == report.lhs_direct == oracle_rhs(inst.s, inst.alpha, inst.gamma)


# The package functions that two sides of the identity both enter, with
# cold caches and a fresh instance per side.  Anything else they share is
# a common point of failure that could make two routes agree wrongly.
SHARED_CODE = {
    # the left side's binomial top d + sum(alpha) + sum(gamma), summed over
    # the gammas' common denominator (IdentityInstance.top and .d)
    ("lhs_direct", "lhs_residue"): {"_over_common_denominator", "top", "d"},
    # the product route puts its scalar residues over one denominator
    ("lhs_direct", "lhs_product"): {"_over_common_denominator"},
    # the binomial numerators of (1-t)**a and (1+t)**b, and the truncated
    # Cauchy product: the residue route's extraction, and the scalar
    # residues base_t_residue and correction_t_residue of the product route
    ("lhs_residue", "lhs_product"): {
        "_over_common_denominator",
        "_binomial_numerators",
        "_convolve",
    },
}


def entered_package_functions(side, inst):
    """The names of the package functions that ``side(inst)`` enters, with
    cold caches and a fresh instance; comprehensions count as part of the
    function that holds them."""
    package = str(Path(coeffident.__file__).parent)
    clear_caches()
    fresh = IdentityInstance(*inst)
    names = set()

    def tracer(frame, event, arg):
        code = frame.f_code
        if code.co_filename.startswith(package) and not code.co_name.startswith("<"):
            names.add(code.co_name)

    sys.settrace(tracer)
    try:
        side(fresh)
    finally:
        sys.settrace(None)
    return names


def test_sides_share_only_the_listed_functions():
    sides = (lhs_direct, lhs_residue, lhs_product, rhs_closed)
    shared = {}
    for inst in (
        IdentityInstance(s=0, alpha=(1,), gamma=(F(0),)),
        IdentityInstance(s=2, alpha=(2, 3), gamma=(F(1, 2), F(-2, 3))),
        IdentityInstance(s=3, alpha=(4, 0, 3), gamma=(F(1), F(5, 2), F(-7))),
    ):
        entered = {side.__name__: entered_package_functions(side, inst) for side in sides}
        for a, b in itertools.combinations(entered, 2):
            shared.setdefault((a, b), set()).update(entered[a] & entered[b])
    # a listed function that is no longer shared fails too, so the list
    # (and the README's claim) cannot go stale
    assert {pair: names for pair, names in shared.items() if names} == SHARED_CODE


def test_verify_looks_up_the_derivative_table_once_per_weight():
    # lhs_product looks the table up once per correction weight,
    # sum_{alpha_i >= 2} alpha_i // 2 times per instance, and never for a
    # leading binomial, with a cold cache or a warm one; verify's other
    # routes never look it up.  The coordinates with alpha_i >= 4 are
    # where one lookup per coordinate would differ.  The benchmark's
    # replay makes the same lookups and checks the table's hit ratio
    # against the untraced run, so this count is pinned until ROADMAP
    # item 3 replaces the replay with the program's own meter.
    cases = [
        SPOT,
        IdentityInstance(s=3, alpha=(4, 3), gamma=(F(1, 2), F(2))),
        IdentityInstance(s=2, alpha=(1, 0, 4), gamma=(F(-1, 3), F(0), F(5))),
        IdentityInstance(s=4, alpha=(9,), gamma=(F(7, 2),)),
        IdentityInstance(s=5, alpha=(6, 5, 0), gamma=(F(1), F(-2, 5), F(3))),
        IdentityInstance(s=1, alpha=(1, 1, 1), gamma=(F(1), F(2), F(3))),
    ]
    clear_caches()
    for inst in cases * 2:
        for route in (lhs_product, verify):
            before = derivative_table.cache_info()
            route(inst)
            after = derivative_table.cache_info()
            lookups = after.hits + after.misses - before.hits - before.misses
            assert lookups == sum(a // 2 for a in inst.alpha if a >= 2)


def test_regression_instance():
    inst = IdentityInstance(s=2, alpha=(2, 3), gamma=(F(1), F(0)))
    report = verify(inst)
    assert report.all_equal
    assert report.lhs_direct == 48
    assert report.lhs_residue == 48
    assert report.lhs_product == 48
    assert report.rhs == 48


def test_rational_gamma_stress_instance():
    inst = IdentityInstance(s=2, alpha=(1, 2, 2), gamma=(F(1, 2), F(3, 7), F(2)))
    report = verify(inst)
    assert report.all_equal
    assert report.rhs == F(12240, 49)


def test_verify_report_metadata():
    report = verify(SPOT)
    assert report.instance is SPOT
    assert report.all_equal
    assert report.direct_terms == 3  # compositions of 1 and of 0 into 2 parts
    assert report.residue_ops > 0
    assert report.product_ops > 0
    assert all(
        t >= 0
        for t in (
            report.time_direct_us,
            report.time_residue_us,
            report.time_product_us,
            report.time_rhs_us,
        )
    )


def test_bench_instance_counters():
    # the per-route cost counters a CSV sweep reports, one instance per (s, d)
    for s, d in [(0, 0), (1, 1), (2, 2), (3, 1)]:
        alpha = (2 * s + 1,) + (0,) * d
        inst = IdentityInstance(s=s, alpha=alpha, gamma=(F(1),) * (d + 1))
        report = verify(inst)
        assert report.all_equal
        expected_terms = sum(math.comb(s - j + d, d) for j in range(s + 1))
        assert report.direct_terms == expected_terms
        assert expected_terms == math.comb(s + d + 1, d + 1)  # hockey stick
        assert report.residue_ops > 0
        assert report.product_ops > 0


def emitted_csv(record):
    out = io.StringIO()
    assert _emit(out, "csv", [record]) == 0
    return list(csv.reader(io.StringIO(out.getvalue())))


def test_report_serialization_round_trip():
    report = verify(SPOT)
    d = report.to_json_dict()
    assert list(d) == [
        "s", "d", "alpha", "gamma",
        "lhs_direct", "lhs_residue", "lhs_product", "rhs", "all_equal",
        "time_direct_us", "time_residue_us", "time_product_us", "time_rhs_us",
        "direct_terms", "residue_ops", "product_ops",
    ]
    assert d["s"] == 1 and d["d"] == 1
    assert d["alpha"] == [1, 2]
    assert d["gamma"] == ["0", "0"]
    assert d["lhs_direct"] == d["rhs"] == "4"
    assert d["all_equal"] is True
    assert json.loads(json.dumps(d)) == d
    header, row = emitted_csv(d)
    assert header == list(d)
    assert row[:9] == ["1", "1", "1,2", "0,0", "4", "4", "4", "4", "true"]
    assert row[13:] == [str(report.direct_terms), str(report.residue_ops), str(report.product_ops)]


# --- oracle cross-checks -----------------------------------------------------------


def test_routes_match_oracle_on_random_instances():
    rng = random.Random(20240817)
    pool = [F(0), F(1), F(2), F(1, 2), F(-1, 2), F(3, 7), F(5), F(-2, 3)]
    for _ in range(60):
        s = rng.randrange(0, 3)
        d = rng.randrange(0, 3)
        cuts = sorted(rng.randrange(0, 2 * s + 2) for _ in range(d))
        alpha = tuple(
            b - a for a, b in zip((0, *cuts), (*cuts, 2 * s + 1))
        )
        gamma = tuple(rng.choice(pool) for _ in range(d + 1))
        inst = IdentityInstance(s=s, alpha=alpha, gamma=gamma)
        expected = oracle_lhs(s, alpha, gamma)
        assert lhs_direct(inst) == expected
        assert lhs_residue(inst) == expected
        assert lhs_product(inst) == expected
        assert rhs_closed(inst) == oracle_rhs(s, alpha, gamma) == expected


def random_rational_instance(rng, max_s, max_d):
    s = rng.randrange(0, max_s + 1)
    d = rng.randrange(0, max_d + 1)
    cuts = sorted(rng.randrange(0, 2 * s + 2) for _ in range(d))
    alpha = tuple(b - a for a, b in zip((0, *cuts), (*cuts, 2 * s + 1)))
    gamma = tuple(
        F(rng.randrange(-40, 41), rng.randrange(1, 60)) for _ in range(d + 1)
    )
    return IdentityInstance(s=s, alpha=alpha, gamma=gamma)


def test_direct_kernels_match_the_literal_sum():
    rng = random.Random(90210)
    for _ in range(40):
        inst = random_rational_instance(rng, max_s=4, max_d=2)
        s, alpha, gamma = inst.s, inst.alpha, inst.gamma
        for j in range(s + 1):
            assert inner_sum(inst, j) == oracle_inner(s, alpha, gamma, j)
        assert lhs_direct(inst) == oracle_lhs(s, alpha, gamma)


def test_lhs_at_nodes_matches_the_literal_sum():
    rng = random.Random(4711)
    for _ in range(12):
        inst = random_rational_instance(rng, max_s=4, max_d=2)
        c = rng.randrange(inst.d + 1)
        nums, den = identity._lhs_at_nodes(inst, c)
        for x, num in enumerate(nums):
            gamma = inst.gamma[:c] + (F(x),) + inst.gamma[c + 1 :]
            assert F(num, den) == oracle_lhs(inst.s, inst.alpha, gamma)


@pytest.mark.parametrize(
    "alpha_i, gamma_i, limit",
    [(0, F(0), 0), (3, F(0), 4), (5, F(1), 3), (2, F(-7, 6), 5), (4, F(3, 10), 4)],
)
def test_coordinate_factors_are_ints_over_the_lowest_denominator(alpha_i, gamma_i, limit):
    nums, den = identity._coordinate_factors(
        alpha_i, gamma_i.numerator, gamma_i.denominator, limit
    )
    assert type(nums) is tuple and all(type(n) is int for n in nums)
    assert type(den) is int and den > 0
    values = [oracle_factor(b, alpha_i, gamma_i) for b in range(limit + 1)]
    assert [F(n, den) for n in nums] == values
    assert den == math.lcm(*(v.denominator for v in values))


# --- polynomial certification ---------------------------------------------------------


def test_verify_poly_gamma_simplest():
    inst = IdentityInstance(0, (1,), (F(0),))
    lhs, rhs, equal = verify_poly_gamma(inst, 0)
    assert equal
    assert lhs == rhs == Poly([1, 1])  # gamma + 1


def test_verify_poly_gamma_spot_instance():
    lhs, rhs, equal = verify_poly_gamma(SPOT, 1)
    assert equal
    assert rhs == Poly([4, 6, 2])  # 4*C(g+2,2) = 2(g+1)(g+2)


def lagrange_coefficients(values):
    """Monomial coefficients of the polynomial through (x, values[x]),
    x = 0..n-1, as the Lagrange sum in plain Fraction arithmetic."""
    n = len(values)
    coeffs = [F(0)] * n
    for i, v in enumerate(values):
        basis, scale = [F(1)], F(1)  # prod_{j != i} (x - j), and (i - j)
        for j in range(n):
            if j != i:
                basis = [a - j * b for a, b in zip([F(0)] + basis, basis + [F(0)])]
                scale *= i - j
        for k, c in enumerate(basis):
            coeffs[k] += v * c / scale
    return coeffs


@given(
    st.lists(
        st.one_of(
            st.just(F(0)),
            st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**6),
        ),
        min_size=1,
        max_size=8,
    )
)
@example([F(0)] * 5)
@example([F(1, 3)] * 4)
@example([F(x**3, 2) for x in range(5)])
def test_interpolate_is_the_lagrange_polynomial(values):
    nums, den = _over_common_denominator(values)
    p = identity._interpolate(nums, den)
    # a denominator above the lowest gives the same polynomial
    assert identity._interpolate([3 * n for n in nums], 3 * den) == p
    assert p.var == "gamma"
    assert p.degree < len(values)
    assert all(type(c) is F for c in p.coeffs)
    assert [p(x) for x in range(len(values))] == values
    assert p == Poly(lagrange_coefficients(values))


@pytest.mark.parametrize(
    "inst",
    [IdentityInstance(s=3, alpha=(a, 7 - a), gamma=(F(1, 2), F(-2, 3))) for a in range(7)]
    # C(gamma_1 + alpha_1, alpha_1) = C(1, 2) = 0 makes the constant 0
    + [IdentityInstance(s=2, alpha=(3, 2), gamma=(F(1, 3), F(-1)))],
)
def test_poly_gamma_rhs_is_the_closed_form(inst):
    alpha_c = inst.alpha[0]
    const = F(4) ** inst.s * binomial(inst.gamma[1] + inst.alpha[1], inst.alpha[1])
    expected = rising_factorial(Poly.indeterminate() + 1, alpha_c) * (
        const / math.factorial(alpha_c)
    )
    lhs, rhs, equal = verify_poly_gamma(inst, 0)
    assert rhs == expected
    assert equal and lhs == rhs
    assert rhs.degree == (alpha_c if const else -1)


def test_verify_poly_gamma_coordinate_range():
    with pytest.raises(ValueError):
        verify_poly_gamma(SPOT, 2)
    with pytest.raises(ValueError):
        verify_poly_gamma(SPOT, -1)


def test_poly_gamma_specialization_coherence():
    # evaluating the certified polynomials at rational points reproduces
    # the pointwise routes
    inst = IdentityInstance(s=1, alpha=(2, 1), gamma=(F(1, 2), F(2)))
    for i in range(2):
        lhs, rhs, equal = verify_poly_gamma(inst, i)
        assert equal
        for value in (F(0), F(1), F(-1, 2), F(7, 3)):
            gammas = list(inst.gamma)
            gammas[i] = value
            pinned = IdentityInstance(s=inst.s, alpha=inst.alpha, gamma=tuple(gammas))
            assert lhs(value) == lhs_direct(pinned)
            assert rhs(value) == rhs_closed(pinned)


def criterion_6_cells():
    """Every (s <= 2, d <= 2) cell and coordinate criterion 6 certifies."""
    for s in range(3):
        for d in range(3):
            for alpha in compositions(2 * s + 1, d + 1):
                for rest in itertools.product((F(0), F(1)), repeat=d):
                    for i in range(d + 1):
                        gamma = rest[:i] + (F(0),) + rest[i:]
                        yield IdentityInstance(s=s, alpha=alpha, gamma=gamma), i


def test_poly_gamma_exact_off_the_nodes():
    # the interpolation nodes are x = 0..n-1 with n = s + alpha_c + 1;
    # negative, fractional and beyond-the-last points are none of them
    for inst, i in criterion_6_cells():
        n = inst.s + inst.alpha[i] + 1
        lhs, rhs, equal = verify_poly_gamma(inst, i)
        assert equal
        assert lhs.degree <= n - 1
        for x in (F(-7, 3), F(1, 2), F(5, 2), F(n + 3)):
            gammas = list(inst.gamma)
            gammas[i] = x
            pinned = IdentityInstance(s=inst.s, alpha=inst.alpha, gamma=tuple(gammas))
            assert lhs(x) == lhs_direct(pinned)
            assert rhs(x) == rhs_closed(pinned)


def test_poly_gamma_lhs_is_the_left_side_interpolated():
    # when the sides agree, lhs_poly is the right side's polynomial; it is
    # the one through the left side's own node values
    for inst, i in criterion_6_cells():
        lhs, rhs, equal = verify_poly_gamma(inst, i)
        assert equal
        assert lhs == identity._interpolate(*identity._lhs_at_nodes(inst, i))


@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_poly_gamma_uses_every_node(monkeypatch, where):
    # a wrong value at any single node must break the certification
    inst = IdentityInstance(s=2, alpha=(3, 2), gamma=(F(1, 2), F(1, 3)))
    coordinate = 0
    n = inst.s + inst.alpha[coordinate] + 1
    node = {"first": 0, "middle": n // 2, "last": n - 1}[where]
    real = identity._lhs_at_nodes

    def one_wrong_node(*args):
        nums, den = real(*args)
        nums[node] += den  # the value at the node, plus one
        return nums, den

    monkeypatch.setattr(identity, "_lhs_at_nodes", one_wrong_node)
    lhs, rhs, equal = verify_poly_gamma(inst, coordinate)
    assert equal is False
    assert lhs != rhs
    assert lhs(node) == rhs(node) + 1


def node_cases():
    """Instances and coordinates whose node values are checked one by one."""
    yield from criterion_6_cells()
    for s in range(5):  # d = 0: no other coordinates
        yield IdentityInstance(s=s, alpha=(2 * s + 1,), gamma=(F(1, 3),)), 0
    # alpha_c = 0, the other gammas negative non-integers
    yield IdentityInstance(s=3, alpha=(0, 4, 3), gamma=(F(2), F(-5, 2), F(-7, 3))), 0
    yield IdentityInstance(s=2, alpha=(2, 0, 3), gamma=(F(-1, 2), F(0), F(-9, 4))), 1
    yield IdentityInstance(s=3, alpha=(5, 2), gamma=(F(0), F(-11, 3))), 0


def assert_nodes_are_the_direct_route(inst, i):
    """Every value of ``_lhs_at_nodes(inst, i)`` is ``lhs_direct`` of the
    instance with gamma_i pinned at that node, with the node tables' cache
    cleared and then warm."""
    identity._node_tables.cache_clear()
    nums, den = identity._lhs_at_nodes(inst, i)
    assert identity._lhs_at_nodes(inst, i) == (nums, den)
    assert len(nums) == inst.s + inst.alpha[i] + 1
    assert all(type(n) is int for n in nums) and type(den) is int and den > 0
    for x, num in enumerate(nums):
        gammas = inst.gamma[:i] + (F(x),) + inst.gamma[i + 1 :]
        pinned = IdentityInstance(s=inst.s, alpha=inst.alpha, gamma=gammas)
        assert F(num, den) == lhs_direct(pinned)


def test_lhs_at_nodes_is_the_direct_route():
    for inst, i in node_cases():
        assert_nodes_are_the_direct_route(inst, i)


@st.composite
def node_instances(draw):
    """An instance with s <= 7 and d <= 2, negative and non-integer gammas
    drawn often, and one of its coordinates."""
    inst = draw(small_instances(max_s=7, max_d=2))
    return inst, draw(st.integers(0, inst.d))


@given(node_instances())
@example((IdentityInstance(s=7, alpha=(15,), gamma=(F(-7, 2),)), 0))
@example((IdentityInstance(s=7, alpha=(0, 15), gamma=(F(5, 3), F(-4))), 0))
@example((IdentityInstance(s=6, alpha=(4, 0, 9), gamma=(F(-1, 9), F(-6), F(11, 4))), 2))
def test_lhs_at_nodes_is_the_direct_route_at_drawn_instances(case):
    assert_nodes_are_the_direct_route(*case)


@pytest.mark.parametrize(
    "alpha, coordinate",
    [((1, 6), 0), ((1, 6), 1), ((7, 0), 0), ((2, 0, 5), 2), ((0, 3, 4), 0)],
)
def test_poly_gamma_enumerates_the_other_coordinates_once(monkeypatch, alpha, coordinate):
    # one pass over the compositions of m = 0..s into the d other parts,
    # however many nodes alpha_c asks for: the prefix walk's visits, as it
    # counts them, add up to that one pass
    inst = IdentityInstance(s=3, alpha=alpha, gamma=(F(1, 2),) * len(alpha))
    real = identity._composition_sums
    visits = 0

    def counted(tables, n):
        nonlocal visits
        sums, terms = real(tables, n)
        visits += terms
        return sums, terms

    monkeypatch.setattr(identity, "_composition_sums", counted)
    assert verify_poly_gamma(inst, coordinate)[2]
    d = inst.d
    assert visits == sum(math.comb(m + d - 1, d - 1) for m in range(inst.s + 1))


# --- enumeration, sweep -----------------------------------------------------------------


def test_iter_instances_order_and_counts():
    insts = list(iter_instances(1, 0, (F(0),)))
    assert [(i.s, i.alpha) for i in insts] == [(0, (1,)), (1, (3,))]
    insts = list(iter_instances(1, 1, (F(0),)))
    alphas = [i.alpha for i in insts]
    assert alphas == [
        (1,),
        (0, 1),
        (1, 0),
        (3,),
        (0, 3),
        (1, 2),
        (2, 1),
        (3, 0),
    ]


def test_iter_instances_gamma_cartesian_order():
    insts = list(iter_instances(0, 1, (F(0), F(1))))
    # d=0 first: one alpha, two gammas; then d=1: two alphas, four gammas each
    assert [tuple(i.gamma) for i in insts[:2]] == [(F(0),), (F(1),)]
    assert [tuple(i.gamma) for i in insts[2:6]] == [
        (F(0), F(0)),
        (F(0), F(1)),
        (F(1), F(0)),
        (F(1), F(1)),
    ]


def test_iter_instances_cap_is_prefix():
    full = list(iter_instances(2, 2, (F(0), F(1))))
    capped = list(iter_instances(2, 2, (F(0), F(1)), cap=17))
    assert capped == full[:17]


def test_iter_instances_validation():
    with pytest.raises(ValueError):
        list(iter_instances(1, 1, (F(0),), cap=0))
    with pytest.raises(ValueError):
        list(iter_instances(1, 1, ()))
    with pytest.raises(ValueError):
        list(iter_instances(-1, 0, (F(0),)))


def test_sweep_serial():
    reports = list(sweep(1, 1, (F(0), F(1)), cap=10))
    assert len(reports) == 10
    assert all(r.all_equal for r in reports)


def test_sweep_parallel_matches_serial():
    serial = [untimed(r) for r in sweep(2, 2, (0, 1, "1/2"), jobs=1)]
    clear_caches()  # the workers fork from a process with empty caches
    parallel = [untimed(r) for r in sweep(2, 2, (0, 1, "1/2"), jobs=2)]
    assert parallel == serial


@pytest.mark.parametrize("runner", [sweep])
def test_jobs_bound_checked_before_any_worker(runner):
    for jobs in (MAX_JOBS + 1, 0, -1):
        with pytest.raises(ValueError, match="MAX_JOBS"):
            next(runner(0, 0, (0,), jobs=jobs))
