import json
import math
from fractions import Fraction as F

import pytest

from coeffident.algebra import Poly
from coeffident.cli import main
from coeffident.residues import (
    base_t_residue,
    correction_t_residue,
    derivative_table,
    w_residue_closed,
    w_residue_series,
)
from coeffident.series import TSeries, binomial_series
from oracles import nested_exp_core, power, rising_factorial

GAMMAS = (F(0), F(1), F(2), F(-1, 2), F(3, 7))


# --- derivative table -----------------------------------------------------


def test_table_base_cases():
    assert derivative_table(0).entries == ((1,),)
    assert derivative_table(1).entries == ((1, 1),)  # c + 1
    t2 = derivative_table(2)
    assert t2.entries == ((2, 3, 1), (-1, -1))  # (c+1)(c+2), -(c+1)


def test_table_alpha_3():
    t3 = derivative_table(3)
    assert t3.entries[0] == (6, 11, 6, 1)
    # -(c+1)(3c+5); see the adjudication test below for why not -(c+1)(3c+2)
    assert t3.entries[1] == (-5, -8, -3)


def test_table_alpha_4():
    t4 = derivative_table(4)
    assert t4.entries[0] == (24, 50, 35, 10, 1)
    assert t4.entries[1] == (-28, -54, -32, -6)  # -2(c+1)(c+2)(3c+7)
    assert t4.entries[2] == (5, 8, 3)  # (c+1)(3c+5)


def test_table_leading_entry_is_rising_factorial():
    x = Poly.indeterminate()
    for alpha in range(9):
        assert Poly(derivative_table(alpha).entries[0]) == rising_factorial(x + 1, alpha)


def poly_recurrence_rows(alpha):
    """The table's two-term recurrence written out in Poly arithmetic, each
    row as its coefficient tuple."""
    c = Poly.indeterminate()
    rows = [Poly([1])]
    for a in range(alpha):
        nxt = []
        for k in range((a + 1) // 2 + 1):
            acc = Poly([])
            if k < len(rows):
                acc = acc + rows[k] * (c + (1 + a - 2 * k))
            if k >= 1:
                acc = acc + rows[k - 1] * (2 * k - a - 2)
            nxt.append(acc)
        rows = nxt
    return tuple(row.coeffs for row in rows)


def test_table_row_count_and_integrality():
    for alpha in range(26):
        table = derivative_table(alpha)
        assert len(table.entries) == alpha // 2 + 1
        assert table.entries == poly_recurrence_rows(alpha)
        for k, row in enumerate(table.entries):
            assert type(row) is tuple and len(row) == alpha + 1 - k and row[-1]
            assert all(type(c) is int for c in row)


def test_table_rejects_negative_alpha():
    with pytest.raises(ValueError):
        derivative_table(-1)


def test_table_json_dict(capsys):
    # the table as lemma2 writes it: alpha, then the integer rows as strings
    assert main(["lemma2", "--alpha", "3"]) == 0
    d = json.loads(capsys.readouterr().out.splitlines()[0])
    table = derivative_table(3)
    assert {k: d[k] for k in ("alpha", "entries")} == {
        "alpha": table.alpha,
        "entries": [[str(c) for c in row] for row in table.entries],
    }
    assert d["entries"] == [["6", "11", "6", "1"], ["-5", "-8", "-3"]]


# --- correction weights -----------------------------------------------------


def test_correction_weight_example():
    # the product route's weights: entries[k](gamma) / alpha!, k >= 1
    assert derivative_table(3).weight(1, F(0)) == F(-5, 6)
    assert derivative_table(2).weight(1, F(3)) == -2  # -(3+1)/2!


# --- the w-residue series and its closed form --------------------------------


def test_w_residue_series_examples():
    assert w_residue_series(0, F(0), 3).coeffs == (1, 1, 1, 1)
    assert w_residue_series(1, F(0), 3).coeffs == (1, 3, 5, 7)
    assert w_residue_series(3, F(0), 2).coeffs == (F(1, 6), F(27, 6), F(125, 6))


def test_w_residue_series_general_term():
    alpha, g, order = 2, F(3, 7), 5
    ser = w_residue_series(alpha, g, order)
    from coeffident.algebra import binomial

    for b in range(order + 1):
        expected = binomial(g + b, b) * (2 * b + g + 1) ** alpha / math.factorial(alpha)
        assert ser.coeffs[b] == expected


def test_w_residue_validation():
    with pytest.raises(ValueError):
        w_residue_series(-1, F(0), 2)
    with pytest.raises(ValueError):
        w_residue_series(1, F(0), -1)
    with pytest.raises(ValueError):
        w_residue_closed(-1, F(0), 2)


def test_w_residue_closed_example():
    assert w_residue_closed(2, F(0), 2).coeffs == (F(1, 2), F(9, 2), F(25, 2))
    assert w_residue_closed(0, F(0), 4).coeffs == (1, 1, 1, 1, 1)


def test_closed_form_matches_series():
    for alpha in range(6):
        for g in GAMMAS:
            order = 2 * alpha + 1
            assert w_residue_closed(alpha, g, order) == w_residue_series(
                alpha, g, order
            )


def test_closed_form_at_degenerate_gammas():
    # the leading binomial vanishes at negative integers; the distributed
    # form must survive that
    for alpha in range(5):
        for g in (F(-1), F(-2), F(-3)):
            assert w_residue_closed(alpha, g, 4) == w_residue_series(alpha, g, 4)


def test_closed_form_matches_bivariate_expansion():
    for alpha in range(5):
        for g in (F(0), F(1, 2), F(-1, 2)):
            order = alpha + 2
            blind = nested_exp_core(g, order, alpha).coefficient(alpha)
            assert blind == w_residue_series(alpha, g, order)


def test_wrongly_normalized_closed_form_fails():
    # dividing the leading entry out while keeping alpha!-normalized
    # weights only works at gamma = 0 -- guard against that regression
    from coeffident.algebra import binomial
    from coeffident.series import binomial_series

    alpha, g, order = 2, F(1), 4
    lead = binomial(g + alpha, alpha)
    base = binomial_series(-1, -g - alpha - 1, order) * binomial_series(1, alpha, order)
    ratio_sq = power(binomial_series(-1, 1, order) * binomial_series(1, -1, order), 2)
    bad = (base * (TSeries.one(order) + ratio_sq.scale(derivative_table(2).weight(1, g)))).scale(lead)
    assert bad != w_residue_series(alpha, g, order)


# --- scalar t-residues ---------------------------------------------------------


def test_base_t_residue_powers_of_four():
    for s in range(13):
        assert base_t_residue(s) == F(4) ** s
    with pytest.raises(ValueError):
        base_t_residue(-1)


def test_base_t_residue_is_half_binomial_row():
    # [t^s] (1+t)^{2s+1}/(1-t) sums the first s+1 entries of a binomial row
    for s in range(8):
        assert base_t_residue(s) == sum(math.comb(2 * s + 1, j) for j in range(s + 1))


def test_correction_t_residue_values():
    assert correction_t_residue(1, 1) == 2
    assert correction_t_residue(2, 2) == 0
    assert correction_t_residue(2, 3) == -2
    for s in range(1, 11):
        for m in range(1, s + 1):
            assert correction_t_residue(s, 2 * m) == 0


def test_correction_t_residue_odd_k_witness():
    for s in range(1, 9):
        assert correction_t_residue(s, 1) == math.comb(2 * s, s)


def test_correction_t_residue_bounds():
    with pytest.raises(ValueError):
        correction_t_residue(2, 0)
    with pytest.raises(ValueError):
        correction_t_residue(2, 5)
    with pytest.raises(ValueError):
        correction_t_residue(0, 1)


def test_palindromic_antisymmetry_small():
    # full coefficient vector of (1-t)^{k-1} (1+t)^{2s+1-k} at order 2s
    for s in range(1, 5):
        for k in range(1, 2 * s + 1):
            from coeffident.series import binomial_series

            poly = binomial_series(-1, k - 1, 2 * s) * binomial_series(
                1, 2 * s + 1 - k, 2 * s
            )
            sign = (-1) ** (k - 1)
            for j in range(2 * s + 1):
                assert poly.coeffs[j] == sign * poly.coeffs[2 * s - j]


def test_floats_are_refused_after_a_warm_hit():
    # the exact entries are cached first; a float argument must not reach
    # them, and the int parameters (alpha, order, s, k) equal a cached int
    # key as floats, so they are refused before any cache
    w_residue_series(2, 1, 3)
    binomial_series(-1, 2, 3)
    base_t_residue(2)
    correction_t_residue(2, 2)
    for call in (
        lambda: w_residue_series(2, 1.0, 3),
        lambda: binomial_series(-1, 2.0, 3),
        lambda: w_residue_series(2.0, 1, 3),
        lambda: w_residue_series(2, 1, 3.0),
        lambda: binomial_series(-1, 2, 3.0),
        lambda: base_t_residue(2.0),
        lambda: correction_t_residue(2.0, 2),
        lambda: correction_t_residue(2, 2.0),
    ):
        with pytest.raises(TypeError):
            call()
