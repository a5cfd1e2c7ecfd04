"""Spans and the traced replay of the three routes.

The package is not instrumented.  Instead the replay re-runs each
instance as the sequence of public calls its routes make, with a span
around each call, and returns the values it got so that they can be
compared with what the untraced run recorded.  The replay makes the
same calls as the program, and no others, with two exceptions:

* ``correction_polynomial`` is replayed from the public calls it makes,
  ``derivative_table(a).weight(k, gamma)`` for each coordinate and k, so
  that each table lookup gets a span of its own.  The lookups are the
  program's, so the table's ``cache_info()`` must move as in the
  untraced run.
* ``inner_sum`` enumerates its compositions internally, where no span can
  reach.  After an instance's routes, the ``identity.compositions`` span
  runs the program's ``compositions`` once more on each argument pair the
  direct route passes it, outside every route span; it also counts the
  direct route's terms.  This extra enumeration is part of
  ``trace.overhead_frac`` but of no route's time.
"""

from __future__ import annotations

import json
import time
from fractions import Fraction

from coeffident import cli
from coeffident.algebra import Poly, binomial
from coeffident.identity import (
    IdentityInstance,
    VerificationReport,
    compositions,
    inner_sum,
    iter_instances,
    rhs_closed,
    verify_poly_gamma,
)
from coeffident.residues import (
    base_t_residue,
    correction_t_residue,
    derivative_table,
    w_residue_series,
)
from coeffident.series import binomial_series, coefficient_ops, residue

SPANS = (
    "cli.parse_config",
    "identity.iter_instances",
    "identity.lhs_direct",
    "identity.inner_sum",
    "identity.compositions",
    "algebra.binomial",
    "identity.lhs_residue",
    "series.binomial_series",
    "residues.w_residue_series",
    "series.tseries_mul",
    "identity.lhs_product",
    "identity.correction_polynomial",
    "residues.derivative_table",
    "residues.correction_t_residue",
    "identity.rhs_closed",
    "identity.verify_poly_gamma",
    "cli.emit",
)


class Tracer:
    """Spans kept in memory as [name, parent, start_ns, end_ns]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []
        self.counts = {
            "identity.direct_terms": 0,
            "residues.correction_t_residue.nonzero": 0,
        }

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def summary(self) -> dict[str, dict[str, float]]:
        """calls, total_ms and self_ms for every name in SPANS."""
        child_ns = [0] * len(self.spans)
        for _, parent, start, end in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        out = {name: {"calls": 0, "total_ms": 0.0, "self_ms": 0.0} for name in SPANS}
        for (name, _, start, end), child in zip(self.spans, child_ns):
            entry = out[name]
            entry["calls"] += 1
            entry["total_ms"] += (end - start) / 1e6
            entry["self_ms"] += (end - start - child) / 1e6
        return out


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> None:
        tr = self.tracer
        self.index = len(tr.spans)
        parent = tr._open[-1] if tr._open else None
        tr.spans.append([self.name, parent, 0, 0])
        tr._open.append(self.index)
        tr.spans[self.index][2] = time.perf_counter_ns()

    def __exit__(self, *exc) -> None:
        tr = self.tracer
        tr.spans[self.index][3] = time.perf_counter_ns()
        tr._open.pop()


def _direct(tr: Tracer, inst: IdentityInstance) -> Fraction:
    with tr.span("identity.lhs_direct"):
        top = inst.d + sum(inst.alpha) + sum(inst.gamma)
        total = Fraction(0)
        sign = 1
        for j in range(inst.s + 1):
            with tr.span("identity.inner_sum"):
                value = inner_sum(inst, j)
            with tr.span("algebra.binomial"):
                b = binomial(top, j)
            total += sign * b * value
            sign = -sign
        return total


def _direct_terms(tr: Tracer, inst: IdentityInstance) -> int:
    """The compositions the direct route enumerates, enumerated again."""
    terms = 0
    for j in range(inst.s + 1):
        with tr.span("identity.compositions"):
            terms += sum(1 for _ in compositions(inst.s - j, inst.d + 1))
    tr.counts["identity.direct_terms"] += terms
    return terms


def _residue(tr: Tracer, inst: IdentityInstance) -> Fraction:
    with tr.span("identity.lhs_residue"):
        order = inst.s
        exponent = inst.d + sum(inst.alpha) + sum(inst.gamma)
        with tr.span("series.binomial_series"):
            acc = binomial_series(-1, exponent, order)
        for a, g in zip(inst.alpha, inst.gamma):
            with tr.span("residues.w_residue_series"):
                w = w_residue_series(a, g, order)
            with tr.span("series.tseries_mul"):
                acc = acc * w
        return residue(acc, order)


def _correction_polynomial(tr: Tracer, inst: IdentityInstance) -> Poly:
    """``identity.correction_polynomial`` as the calls it makes."""
    with tr.span("identity.correction_polynomial"):
        lam = Poly((1,), var="u")
        for a, g in zip(inst.alpha, inst.gamma):
            half = a // 2
            if half == 0:
                continue
            coeffs = [Fraction(0)] * (2 * half + 1)
            coeffs[0] = Fraction(1)
            for k in range(1, half + 1):
                # residues.correction_weight(a, k, g), split at the lookup
                with tr.span("residues.derivative_table"):
                    table = derivative_table(a)
                coeffs[2 * k] = table.weight(k, g)
            lam = lam * Poly(coeffs, var="u")
        return lam


def _product(tr: Tracer, inst: IdentityInstance) -> Fraction:
    with tr.span("identity.lhs_product"):
        lam = _correction_polynomial(tr, inst)
        total = base_t_residue(inst.s)
        for k in range(2, lam.degree + 1, 2):
            weight = lam.coefficient(k)
            if weight:
                with tr.span("residues.correction_t_residue"):
                    value = correction_t_residue(inst.s, k)
                if value:
                    tr.counts["residues.correction_t_residue.nonzero"] += 1
                total += weight * value
        lead = Fraction(1)
        for a, g in zip(inst.alpha, inst.gamma):
            with tr.span("algebra.binomial"):
                lead *= binomial(g + a, a)
        return lead * total


def _record(tr: Tracer, inst: IdentityInstance, poly_gamma: int | None) -> str:
    """One instance through all routes, emitted as ``cli`` would emit it."""
    direct = _direct(tr, inst)
    ops0 = coefficient_ops()
    res = _residue(tr, inst)
    ops1 = coefficient_ops()
    prod = _product(tr, inst)
    ops2 = coefficient_ops()
    with tr.span("identity.rhs_closed"):
        rhs = rhs_closed(inst)
    terms = _direct_terms(tr, inst)
    report = VerificationReport(
        instance=inst,
        lhs_direct=direct,
        lhs_residue=res,
        lhs_product=prod,
        rhs=rhs,
        all_equal=direct == res == prod == rhs,
        time_direct_us=0,
        time_residue_us=0,
        time_product_us=0,
        time_rhs_us=0,
        direct_terms=terms,
        residue_ops=ops1 - ops0,
        product_ops=ops2 - ops1,
    )
    poly = None
    if poly_gamma is not None:
        with tr.span("identity.verify_poly_gamma"):
            poly = verify_poly_gamma(inst, poly_gamma)
    with tr.span("cli.emit"):
        record = report.to_json_dict()
        if poly is not None:
            lhs, rhs_poly, equal = poly
            record["poly_gamma"] = poly_gamma
            record["lhs_poly"] = [str(c) for c in lhs.coeffs]
            record["rhs_poly"] = [str(c) for c in rhs_poly.coeffs]
            record["poly_equal"] = equal
        return json.dumps(record, separators=(",", ":"))


def replay_call(tr: Tracer, argv) -> list[str]:
    """Replay one CLI call; returns the records the replay produced."""
    with tr.span("cli.parse_config"):
        cfg = cli.parse_config(list(argv))
    if cfg.subcommand == "sweep":
        with tr.span("identity.iter_instances"):
            instances = list(iter_instances(cfg.max_s, cfg.max_d, cfg.gamma_set, cfg.cap))
        return [_record(tr, inst, None) for inst in instances]
    inst = IdentityInstance(s=cfg.s, alpha=cfg.alpha, gamma=cfg.gamma)
    return [_record(tr, inst, cfg.poly_gamma)]
