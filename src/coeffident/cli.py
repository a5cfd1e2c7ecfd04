"""Command-line front end.

Subcommands: ``verify`` one instance by all routes, ``sweep`` a parameter
grid, ``lemma2`` / ``lemma3`` / ``jseries`` for inspecting the underlying
tables and series, ``bench`` for route cost measurement.  Records are
emitted one per line (JSON by default, CSV on request; bench is CSV).

Exit status: 0 everything verified (or purely informational output),
1 some route disagreed, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import IO, Iterable

from .algebra import parse_rational
from .identity import (
    MAX_JOBS,
    IdentityInstance,
    InvalidInstance,
    bench,
    sweep,
    verify,
    verify_poly_gamma,
)
from .residues import (
    base_t_residue,
    correction_t_residue,
    derivative_table,
    w_residue_series,
)

__all__ = ["CliConfig", "UsageError", "parse_config", "run", "main", "entry"]


class UsageError(ValueError):
    """Bad command-line input; reported on stderr with exit status 2."""


@dataclass(frozen=True)
class CliConfig:
    """Parsed, validated invocation.  ``to_argv`` is its canonical form:
    ``parse_config(cfg.to_argv()) == cfg`` for every valid config."""

    subcommand: str
    format: str = "json"
    jobs: int = 1
    s: int = 0
    alpha: tuple[int, ...] = ()
    gamma: tuple[Fraction, ...] = ()
    poly_gamma: int | None = None
    max_s: int = 0
    max_d: int = 0
    gamma_set: tuple[Fraction, ...] = ()
    cap: int | None = None
    alpha_value: int = 0
    gamma_value: Fraction = Fraction(0)
    order: int = 0

    def to_argv(self) -> list[str]:
        args = [self.subcommand]
        # rational values may start with "-", which argparse would read as
        # a flag, so those are always emitted in --name=value form
        if self.subcommand == "verify":
            args += ["--s", str(self.s)]
            args += ["--alpha", ",".join(str(a) for a in self.alpha)]
            args += ["--gamma=" + ",".join(str(g) for g in self.gamma)]
            if self.poly_gamma is not None:
                args += ["--poly-gamma", str(self.poly_gamma)]
        elif self.subcommand in ("sweep", "bench"):
            args += ["--max-s", str(self.max_s), "--max-d", str(self.max_d)]
            args += ["--gamma-set=" + ",".join(str(g) for g in self.gamma_set)]
            if self.cap is not None:
                args += ["--cap", str(self.cap)]
            args += ["--jobs", str(self.jobs)]
        elif self.subcommand == "lemma2":
            args += ["--alpha", str(self.alpha_value)]
        elif self.subcommand == "lemma3":
            args += ["--max-s", str(self.max_s)]
        elif self.subcommand == "jseries":
            args += ["--alpha", str(self.alpha_value)]
            args += ["--gamma=" + str(self.gamma_value)]
            args += ["--order", str(self.order)]
        if self.subcommand != "bench":  # bench is CSV only and has no --format
            args += ["--format", self.format]
        return args


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coeffident",
        description="Exact verification of a multi-binomial identity "
        "by independent evaluation routes.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("verify", help="check one instance by all routes")
    p.add_argument("--s", type=int, required=True, help="outer parameter s >= 0")
    p.add_argument("--alpha", required=True, help="comma-separated integers")
    p.add_argument("--gamma", required=True, help="comma-separated rationals p/q")
    p.add_argument(
        "--poly-gamma",
        type=int,
        default=None,
        metavar="I",
        help="also certify polynomially in gamma coordinate I",
    )
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("sweep", help="verify a whole parameter grid")
    p.add_argument("--max-s", type=int, required=True)
    p.add_argument("--max-d", type=int, required=True)
    p.add_argument("--gamma-set", required=True, help="comma-separated rationals")
    p.add_argument("--cap", type=int, default=None, help="stop after this many instances")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("lemma2", help="print a derivative-expansion table")
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("lemma3", help="print base and correction residues")
    p.add_argument("--max-s", type=int, required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("jseries", help="print one coordinate's residue series")
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--gamma", required=True, help="rational p/q")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("bench", help="compare route costs over a grid (CSV)")
    p.add_argument("--max-s", type=int, required=True)
    p.add_argument("--max-d", type=int, required=True)
    p.add_argument("--gamma-set", required=True, help="comma-separated rationals")
    p.add_argument("--cap", type=int, default=None)
    p.add_argument("--jobs", type=int, default=1)

    return parser


def _parse_int_vector(text: str, flag: str) -> tuple[int, ...]:
    try:
        return tuple(int(piece) for piece in text.split(","))
    except ValueError as exc:
        raise UsageError(f"{flag}: {exc}") from None


def _parse_rational_vector(text: str, flag: str) -> tuple[Fraction, ...]:
    try:
        return tuple(parse_rational(piece) for piece in text.split(","))
    except ValueError as exc:
        raise UsageError(f"{flag}: {exc}") from None


def parse_config(argv: list[str]) -> CliConfig:
    """argparse plus semantic validation; raises UsageError on bad input."""
    ns = build_parser().parse_args(argv)
    sub = ns.subcommand
    if sub == "verify":
        return CliConfig(
            subcommand=sub,
            s=ns.s,
            alpha=_parse_int_vector(ns.alpha, "--alpha"),
            gamma=_parse_rational_vector(ns.gamma, "--gamma"),
            poly_gamma=ns.poly_gamma,
            format=ns.format,
        )
    if sub in ("sweep", "bench"):
        if ns.max_s < 0 or ns.max_d < 0:
            raise UsageError("--max-s and --max-d must be >= 0")
        if ns.cap is not None and ns.cap < 1:
            raise UsageError("--cap must be >= 1")
        if not 1 <= ns.jobs <= MAX_JOBS:
            raise UsageError(f"--jobs must be in 1..{MAX_JOBS}")
        return CliConfig(
            subcommand=sub,
            max_s=ns.max_s,
            max_d=ns.max_d,
            gamma_set=_parse_rational_vector(ns.gamma_set, "--gamma-set"),
            cap=ns.cap,
            jobs=ns.jobs,
            format="csv" if sub == "bench" else ns.format,
        )
    if sub == "lemma2":
        if ns.alpha < 0:
            raise UsageError("--alpha must be >= 0")
        return CliConfig(subcommand=sub, alpha_value=ns.alpha, format=ns.format)
    if sub == "lemma3":
        if ns.max_s < 0:
            raise UsageError("--max-s must be >= 0")
        return CliConfig(subcommand=sub, max_s=ns.max_s, format=ns.format)
    if sub == "jseries":
        if ns.alpha < 0:
            raise UsageError("--alpha must be >= 0")
        if ns.order < 0:
            raise UsageError("--order must be >= 0")
        try:
            gamma_value = parse_rational(ns.gamma)
        except ValueError as exc:
            raise UsageError(f"--gamma: {exc}") from None
        return CliConfig(
            subcommand=sub,
            alpha_value=ns.alpha,
            gamma_value=gamma_value,
            order=ns.order,
            format=ns.format,
        )
    raise UsageError(f"unknown subcommand {sub!r}")  # pragma: no cover


# Record keys whose value false means a route disagreed (exit status 1).
_VERDICTS = ("all_equal", "routes_equal", "poly_equal")


def _cell(key: str, value) -> str:
    """One CSV cell: booleans as true/false, lists joined (alpha and gamma
    with commas, everything else with semicolons), the rest as str."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        sep = "," if key in ("alpha", "gamma") else ";"
        return sep.join(str(v) for v in value)
    return str(value)


def _emit(out: IO[str], fmt: str, records: Iterable[dict]) -> int:
    """Write records one per line: compact JSON, or CSV under a header of
    the first record's keys.  Returns the exit status: 1 if some record
    holds a false verdict, else 0."""
    ok = True
    writer = None
    for record in records:
        ok = ok and all(record.get(key, True) for key in _VERDICTS)
        if fmt == "json":
            out.write(json.dumps(record, separators=(",", ":")) + "\n")
            continue
        if writer is None:
            writer = csv.writer(out, lineterminator="\n")
            writer.writerow(record.keys())
        writer.writerow([_cell(key, value) for key, value in record.items()])
    return 0 if ok else 1


def _run_verify(cfg: CliConfig, out: IO[str]) -> int:
    try:
        inst = IdentityInstance(s=cfg.s, alpha=cfg.alpha, gamma=cfg.gamma)
    except InvalidInstance as exc:
        raise UsageError(str(exc)) from None
    record = verify(inst).to_json_dict()
    if cfg.poly_gamma is not None:
        if not 0 <= cfg.poly_gamma <= inst.d:
            raise UsageError(
                f"--poly-gamma index {cfg.poly_gamma} outside 0..{inst.d}"
            )
        lhs, rhs, equal = verify_poly_gamma(inst, cfg.poly_gamma)
        record["poly_gamma"] = cfg.poly_gamma
        record["lhs_poly"] = [str(c) for c in lhs.coeffs]
        record["rhs_poly"] = [str(c) for c in rhs.coeffs]
        record["poly_equal"] = equal
    return _emit(out, cfg.format, [record])


def _run_grid(cfg: CliConfig, out: IO[str]) -> int:
    grid = sweep if cfg.subcommand == "sweep" else bench
    rows = grid(cfg.max_s, cfg.max_d, cfg.gamma_set, cap=cfg.cap, jobs=cfg.jobs)
    return _emit(out, cfg.format, (row.to_json_dict() for row in rows))


def _run_lemma2(cfg: CliConfig, out: IO[str]) -> int:
    table = derivative_table(cfg.alpha_value)
    inv_fact = Fraction(1, math.factorial(cfg.alpha_value))
    record = table.to_json_dict()
    record["weights"] = [
        [str(c * inv_fact) for c in entry.coeffs] for entry in table.entries[1:]
    ]
    records = [record]
    if cfg.format == "csv":
        # one CSV row per table row; row 0 has no weight
        records = [
            {"alpha": table.alpha, "k": k, "entry": entry, "weight": weight}
            for k, (entry, weight) in enumerate(
                zip(record["entries"], [[]] + record["weights"])
            )
        ]
    return _emit(out, cfg.format, records)


def _run_lemma3(cfg: CliConfig, out: IO[str]) -> int:
    records = (
        {
            "s": s,
            "base": str(base_t_residue(s)),
            "corrections": [
                str(correction_t_residue(s, k)) for k in range(1, 2 * s + 1)
            ],
        }
        for s in range(cfg.max_s + 1)
    )
    return _emit(out, cfg.format, records)


def _run_jseries(cfg: CliConfig, out: IO[str]) -> int:
    series = w_residue_series(cfg.alpha_value, cfg.gamma_value, cfg.order)
    record = {
        "alpha": cfg.alpha_value,
        "gamma": str(cfg.gamma_value),
        "order": cfg.order,
        "variable": series.var,
        "coefficients": [str(c) for c in series.coeffs],
    }
    return _emit(out, cfg.format, [record])


_RUNNERS = {
    "verify": _run_verify,
    "sweep": _run_grid,
    "lemma2": _run_lemma2,
    "lemma3": _run_lemma3,
    "jseries": _run_jseries,
    "bench": _run_grid,
}


def run(cfg: CliConfig, out: IO[str] | None = None) -> int:
    return _RUNNERS[cfg.subcommand](cfg, out if out is not None else sys.stdout)


def main(argv: list[str] | None = None) -> int:
    try:
        cfg = parse_config(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:  # argparse already printed usage/help
        code = exc.code
        return code if isinstance(code, int) else 2
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return run(cfg)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())
