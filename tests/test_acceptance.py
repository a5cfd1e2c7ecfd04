"""Acceptance gate: eight criteria, one test each.

Every test prints a one-line pass/fail summary (visible with ``pytest -s``;
``pytest -v`` additionally shows one PASSED/FAILED line per criterion).
All comparisons are exact rational equality -- there are no tolerances
anywhere in this suite.
"""

import csv
import io
import itertools
import math
import random
from fractions import Fraction as F

import pytest

from coeffident.algebra import Poly, binomial
from coeffident.cli import main
from coeffident.identity import (
    IdentityInstance,
    _correction_numerators,
    compositions,
    sweep,
    verify_poly_gamma,
)
from coeffident.residues import (
    base_t_residue,
    correction_t_residue,
    derivative_table,
    w_residue_closed,
    w_residue_series,
)
from coeffident.series import TSeries, binomial_series
from oracles import inverse, nested_exp_core, pow_rational, power

SWEEP_GAMMAS = (F(0), F(1), F(2), F(1, 2))
SWEEP_CAP = 5000


@pytest.fixture(scope="module")
def sweep_reports():
    # shared by criteria 1-3: s <= 4, d <= 3, all compositions of 2s+1,
    # gamma vectors from SWEEP_GAMMAS^(d+1), first 5000 instances in
    # deterministic enumeration order
    return list(sweep(4, 3, SWEEP_GAMMAS, cap=SWEEP_CAP))


def announce(n, label, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    tail = f" ({detail})" if detail else ""
    print(f"[criterion {n}] {label}: {verdict}{tail}")


def test_criterion_1_identity_sweep(sweep_reports):
    bad = [r for r in sweep_reports if r.lhs_direct != r.rhs]
    ok = not bad and len(sweep_reports) == SWEEP_CAP
    announce(
        1,
        "direct sum equals closed right side on the 5000-instance sweep",
        ok,
        f"{len(sweep_reports)} instances, {len(bad)} mismatches",
    )
    assert len(sweep_reports) == SWEEP_CAP
    assert not bad


def test_criterion_2_residue_route(sweep_reports):
    bad = [r for r in sweep_reports if r.lhs_residue != r.lhs_direct]
    announce(
        2,
        "series-extraction route equals direct sum on the full sweep",
        not bad,
        f"{len(bad)} mismatches",
    )
    assert not bad


def test_criterion_3_product_route(sweep_reports):
    bad = [r for r in sweep_reports if r.lhs_product != r.rhs]
    parity_bad = []
    for r in sweep_reports:
        # the correction polynomial as integer numerators over den
        nums, den = _correction_numerators(r.instance)
        even_only = not any(nums[1::2])
        if not (even_only and len(nums) - 1 <= 2 * r.instance.s and nums[:1] == [den]):
            parity_bad.append(r.instance)
    ok = not bad and not parity_bad
    announce(
        3,
        "reduced-product route equals right side; correction polynomial "
        "is even with degree <= 2s",
        ok,
        f"{len(bad)} value mismatches, {len(parity_bad)} structure violations",
    )
    assert not bad
    assert not parity_bad


def test_criterion_4_derivative_table_adjudication():
    gammas = (F(0), F(1), F(2), F(-1, 2), F(3, 7))
    mismatches = []
    for alpha in range(7):
        order = 2 * alpha
        for g in gammas:
            direct = w_residue_series(alpha, g, order)
            closed = w_residue_closed(alpha, g, order)
            blind = nested_exp_core(g, order, alpha).coefficient(alpha)
            if not (direct == closed == blind):
                mismatches.append((alpha, g))

    # the contested alpha=3 table row: the recurrence (validated by the
    # three-way agreement above) yields -(g+1)(3g+5); the widely copied
    # alternative -(g+1)(3g+2) is refuted by the same expansions
    table_row = Poly(derivative_table(3).entries[1])
    expected_row = Poly([-5, -8, -3])
    alternative_row = Poly([-2, -5, -3])
    alternative_survives = []
    for g in gammas:
        order = 6
        base = binomial_series(-1, -g - 4, order) * binomial_series(1, 3, order)
        ratio_sq = power(binomial_series(-1, 1, order) * binomial_series(1, -1, order), 2)
        bracket = TSeries.constant(binomial(g + 3, 3), order) + ratio_sq.scale(
            alternative_row(g) / 6
        )
        if base * bracket == w_residue_series(3, g, order):
            alternative_survives.append(g)

    integrality_bad = [
        alpha
        for alpha in range(11)
        if any(
            type(c) is not int for row in derivative_table(alpha).entries for c in row
        )
    ]

    ok = (
        not mismatches
        and table_row == expected_row
        and not alternative_survives
        and not integrality_bad
    )
    announce(
        4,
        "three independent expansions agree for alpha <= 6 over five gammas; "
        "table rows have integer coefficients up to alpha = 10",
        ok,
        f"{len(mismatches)} expansion mismatches",
    )
    print(
        "[criterion 4] adjudication note: the (alpha=3, k=1) table row is "
        f"{table_row} = -(g+1)(3g+5); the alternative -(g+1)(3g+2) "
        "disagrees with the direct and bivariate expansions at every "
        "tested gamma (already in the constant t-coefficient), so it is "
        "recorded as a misprint, not a competing value."
    )
    assert not mismatches
    assert table_row == expected_row
    assert not alternative_survives
    assert not integrality_bad


def test_criterion_5_scalar_residues():
    base_bad = [s for s in range(13) if base_t_residue(s) != F(4) ** s]
    even_bad = [
        (s, 2 * m)
        for s in range(1, 11)
        for m in range(1, s + 1)
        if correction_t_residue(s, 2 * m) != 0
    ]
    witnesses = [(s, correction_t_residue(s, 1)) for s in range(1, 6)]
    witness_ok = all(value == math.comb(2 * s, s) for s, value in witnesses)
    ok = not base_bad and not even_bad and witness_ok
    announce(
        5,
        "base residue is 4^s (s <= 12); even-index corrections vanish "
        "(s <= 10)",
        ok,
    )
    print(
        "[criterion 5] odd-index witness: correction residue at k=1 equals "
        f"the central binomial, e.g. {[(s, str(v)) for s, v in witnesses]} "
        "-- nonzero, so the vanishing claim holds for even indices only."
    )
    assert not base_bad
    assert not even_bad
    assert witness_ok


def test_criterion_6_polynomial_certification():
    failures = []
    count = 0
    for s in range(3):
        for d in range(3):
            for alpha in compositions(2 * s + 1, d + 1):
                for rest in itertools.product((F(0), F(1)), repeat=d):
                    for i in range(d + 1):
                        gamma = rest[:i] + (F(0),) + rest[i:]
                        inst = IdentityInstance(s=s, alpha=alpha, gamma=gamma)
                        lhs, rhs, equal = verify_poly_gamma(inst, i)
                        count += 1
                        if not equal:
                            failures.append((inst, i))
    announce(
        6,
        "polynomial-in-gamma certification on every (s<=2, d<=2) cell, "
        "each coordinate in turn",
        not failures,
        f"{count} certifications",
    )
    assert not failures


def test_criterion_7_randomized_property_suite():
    rng = random.Random(0x5EED)
    cases = 1000

    def random_fraction():
        return F(rng.randrange(-30, 31), rng.randrange(1, 13))

    def random_series(order):
        return TSeries([random_fraction() for _ in range(order + 1)], order)

    ring_failures = 0
    for _ in range(cases):
        a, b, c = (random_series(4) for _ in range(3))
        if not (
            (a + b) + c == a + (b + c)
            and a * b == b * a
            and (a * b) * c == a * (b * c)
            and a * (b + c) == a * b + a * c
        ):
            ring_failures += 1

    inverse_failures = 0
    for _ in range(cases):
        lead = abs(random_fraction()) + 1
        a = TSeries([lead] + [random_fraction() for _ in range(4)], 4)
        m = rng.randrange(-3, 4)
        if a * inverse(a) != TSeries.one(4):
            inverse_failures += 1
        elif pow_rational(a, m) != power(a, m):
            inverse_failures += 1
        elif pow_rational(a * a, F(1, 2)) != a:
            inverse_failures += 1

    pascal_failures = 0
    for _ in range(cases):
        x = random_fraction()
        b = rng.randrange(1, 11)
        if binomial(x, b) != binomial(x - 1, b - 1) + binomial(x - 1, b):
            pascal_failures += 1

    palindromy_failures = 0
    for _ in range(cases):
        s = rng.randrange(1, 9)
        k = rng.randrange(1, 2 * s + 1)
        poly = binomial_series(-1, k - 1, 2 * s) * binomial_series(
            1, 2 * s + 1 - k, 2 * s
        )
        sign = (-1) ** (k - 1)
        if any(
            poly.coeffs[j] != sign * poly.coeffs[2 * s - j]
            for j in range(2 * s + 1)
        ):
            palindromy_failures += 1

    total_failures = (
        ring_failures + inverse_failures + pascal_failures + palindromy_failures
    )
    announce(
        7,
        "randomized properties (ring axioms, inverse/power laws, Pascal "
        "rule, palindromic antisymmetry), 1000 cases each",
        total_failures == 0,
        f"failures: ring={ring_failures} inverse={inverse_failures} "
        f"pascal={pascal_failures} palindromy={palindromy_failures}",
    )
    assert total_failures == 0


def test_criterion_8_bench_counters(capsys):
    code = main(
        ["sweep", "--max-s", "6", "--max-d", "3", "--gamma-set", "0,1", "--format", "csv"]
    )
    out = capsys.readouterr().out
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    expected_rows = sum(
        math.comb(2 * s + 1 + d, d) * 2 ** (d + 1)
        for s in range(7)
        for d in range(4)
    )
    counter_bad = []
    for row in rows:
        s, d = int(row["s"]), int(row["d"])
        alpha = [int(a) for a in row["alpha"].split(",")]
        expected = sum(math.comb(s - j + d, d) for j in range(s + 1))
        # 2s for the top's series, (s+1)(alpha_i+4) for each coordinate's
        # series, and (s+1)(s+2)/2 for each of the d+1 truncated products
        residue_ops = (
            2 * s
            + sum((s + 1) * (a + 4) for a in alpha)
            + (d + 1) * (s + 1) * (s + 2) // 2
        )
        if (
            int(row["direct_terms"]) != expected
            or int(row["residue_ops"]) != residue_ops
            or row["all_equal"] != "true"
        ):
            counter_bad.append(row)
    ok = len(rows) == expected_rows and not counter_bad
    announce(
        8,
        "sweep over s<=6, d<=3, gammas {0,1}: all routes agree and the "
        "direct-route term and residue-route op counters match their formulas",
        ok,
        f"{len(rows)} instances",
    )
    assert len(rows) == expected_rows
    assert not counter_bad
