"""Every count argument goes through ``algebra._count``: a float is a
TypeError on the call, the first value out of range is a ValueError whose
message names the argument and its value, and the boundary is accepted."""

from fractions import Fraction as F

import pytest

from coeffident.algebra import binomial
from coeffident.identity import (
    MAX_JOBS,
    IdentityInstance,
    InvalidInstance,
    compositions,
    inner_sum,
    iter_instances,
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
from coeffident.series import TSeries, binomial_series, coefficient_ops, residue

SPOT = IdentityInstance(s=1, alpha=(1, 2), gamma=(F(0), F(1, 2)))

# (call with the count in its place, argument name, low, high or None)
COUNTS = {
    "IdentityInstance.s": (lambda v: IdentityInstance(v, (1,), (0,)), "s", 0, None),
    "IdentityInstance.alpha": (
        lambda v: IdentityInstance(0, (1, v), (0, 0)), "alpha_i", 0, None
    ),
    "compositions.n": (lambda v: compositions(v, 2), "n", 0, None),
    "compositions.parts": (lambda v: compositions(2, v), "parts", 1, None),
    "inner_sum.j": (lambda v: inner_sum(SPOT, v), "j", 0, 1),
    "verify_poly_gamma.coordinate": (
        lambda v: verify_poly_gamma(SPOT, v), "coordinate", 0, 1
    ),
    "iter_instances.max_s": (lambda v: iter_instances(v, 0, [0]), "max_s", 0, None),
    "iter_instances.max_d": (lambda v: iter_instances(0, v, [0]), "max_d", 0, None),
    "iter_instances.cap": (lambda v: iter_instances(0, 0, [0], v), "cap", 1, None),
    "sweep.max_s": (lambda v: sweep(v, 0, [0]), "max_s", 0, None),
    "sweep.jobs": (lambda v: sweep(0, 0, [0], jobs=v), "jobs", 1, MAX_JOBS),
    "scaled_row.k": (lambda v: derivative_table(4).scaled_row(v, 1, 2), "k", 0, 2),
    "scaled_row.q": (lambda v: derivative_table(4).scaled_row(1, 1, v), "q", 1, None),
    "derivative_table.alpha": (lambda v: derivative_table(v), "alpha", 0, None),
    "w_residue_series.alpha": (lambda v: w_residue_series(v, 0, 2), "alpha", 0, None),
    "w_residue_series.order": (lambda v: w_residue_series(2, 0, v), "order", 0, None),
    "w_residue_closed.alpha": (lambda v: w_residue_closed(v, 0, 2), "alpha", 0, None),
    "w_residue_closed.order": (lambda v: w_residue_closed(2, 0, v), "order", 0, None),
    "base_t_residue.s": (lambda v: base_t_residue(v), "s", 0, None),
    "correction_t_residue.s": (lambda v: correction_t_residue(v, 1), "s", 1, None),
    "correction_t_residue.k": (lambda v: correction_t_residue(2, v), "k", 1, 4),
    "binomial_series.order": (lambda v: binomial_series(1, 2, v), "order", 0, None),
    "TSeries.order": (lambda v: TSeries([1], 1, v), "order", 0, None),
    "TSeries.den": (lambda v: TSeries([1], v, 0), "den", 1, None),
}


@pytest.mark.parametrize("key", COUNTS)
def test_every_count_goes_through_one_check(key):
    call, name, low, high = COUNTS[key]
    # IdentityInstance reports every bad count as InvalidInstance
    refused = InvalidInstance if key.startswith("IdentityInstance") else TypeError
    edges = [low] if high is None else [low, high]
    for edge in edges:
        call(edge)  # the boundary is accepted, and may be cached
    outside = [(low - 1, f"must be >= {low}")] if high is None else [
        (low - 1, f"outside {low}..{high}"),
        (high + 1, f"outside {low}..{high}"),
    ]
    ops = coefficient_ops()
    for edge in edges:
        # on the call itself, with no next(), and never matched to the
        # int entry the boundary call may have cached
        with pytest.raises(refused):
            call(float(edge))
    for value, bound in outside:
        with pytest.raises(ValueError) as raised:
            call(value)
        assert str(raised.value) == f"{name}={value} {bound}"
    assert coefficient_ops() == ops  # refused before any work


def test_counts_that_may_be_negative_are_still_ints():
    assert residue(TSeries([1, 2], 1, 1), -1) == 0
    assert binomial(3, -1) == 0
    row = derivative_table(4).entries[1]
    at_minus_half = sum(c * (-1) ** i * 2 ** (4 - i) for i, c in enumerate(row))
    assert derivative_table(4).scaled_row(1, -1, 2) == at_minus_half
    for call in (
        lambda: residue(TSeries([1, 2], 1, 1), -1.0),
        lambda: binomial(3, 1.0),
        lambda: derivative_table(4).scaled_row(1, -1.0, 2),
    ):
        with pytest.raises(TypeError):
            call()


def test_a_bool_count_becomes_an_int():
    assert type(derivative_table(True).alpha) is int
    assert type(IdentityInstance(True, (3,), (0,)).s) is int
