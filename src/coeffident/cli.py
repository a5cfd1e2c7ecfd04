"""Command-line front end.

Subcommands: ``verify`` one instance by all routes, ``sweep`` a parameter
grid, ``lemma2`` / ``lemma3`` / ``jseries`` for inspecting the underlying
tables and series.  Records are emitted one per line (JSON by default,
CSV on request).

The command line is read from one table, ``_COMMANDS``.  The first word
names the subcommand; each flag after it is ``--name VALUE`` or
``--name=VALUE``, spelled in full and given at most once.  The word after
a flag is always its value, so ``--gamma -1/2,0`` works.  ``-h`` or
``--help``, alone or after a subcommand, prints a help page formatted
from the same table.

Exit status: 0 everything verified (or purely informational output),
1 some route disagreed, 2 usage error, 141 the reader closed the output
before it was all written (128 + SIGPIPE, as a shell reports it).
"""

from __future__ import annotations

import json
import math
import os
import re
import sys
from fractions import Fraction
from typing import IO, Any, Callable, Iterable, NamedTuple

from .algebra import parse_rational
from .identity import (
    MAX_JOBS,
    IdentityInstance,
    InvalidInstance,
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
    """Bad command-line input; reported on stderr with exit status 2.

    An argv that breaks the grammar (an unknown subcommand or flag, or a
    flag that is missing, repeated or without a value) carries ``usage``,
    the usage line printed before the message; a bad value carries None."""

    def __init__(self, message: str, usage: str | None = None) -> None:
        super().__init__(message)
        self.usage = usage


class _HelpRequested(Exception):
    """-h or --help: ``main`` prints the help page of ``subcommand`` (None
    for the program's own page) and exits 0."""

    def __init__(self, subcommand: str | None) -> None:
        super().__init__(subcommand)
        self.subcommand = subcommand


class CliConfig(NamedTuple):
    """Parsed, validated invocation."""

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


_INTEGER_PATTERN = re.compile(r"-?[0-9]+")


def _integer(text: str) -> int:
    """An ASCII decimal integer, optionally negative; whitespace is trimmed.
    Plain ``int`` would also take "+1", "1_0" and non-ASCII digits."""
    if not _INTEGER_PATTERN.fullmatch(text.strip()):
        raise ValueError(f"invalid int value: {text!r}")
    return int(text)


class _Flag(NamedTuple):
    """One flag of one subcommand.

    ``read`` turns its text into the ``field`` value; a ``ValueError``
    becomes UsageError("--flag: ...").  The ``_integer`` flags are read
    first, and each value must keep ``low <= value <= high``, so every
    bound is checked before any other text is read.  An optional flag
    that is not given leaves the ``CliConfig`` default.  ``metavar`` names
    the value on the help pages; by default it is the name in capitals."""

    name: str
    field: str
    read: Callable[[str], Any] = _integer
    low: int | None = None
    high: int | None = None
    help: str | None = None
    optional: bool = False
    metavar: str | None = None

    @property
    def invocation(self) -> str:
        """The flag and its value as the help pages show them: --max-s MAX_S."""
        return f"{self.name} {self.metavar or self.name[2:].upper().replace('-', '_')}"


def _ints(text: str) -> tuple[int, ...]:
    return tuple(_integer(piece) for piece in text.split(","))


def _rationals(text: str) -> tuple[Fraction, ...]:
    return tuple(parse_rational(piece) for piece in text.split(","))


def _format(text: str) -> str:
    if text not in ("json", "csv"):
        raise ValueError(f"invalid choice: {text!r} (choose from json, csv)")
    return text


_FORMAT = _Flag("--format", "format", _format, optional=True, metavar="{json,csv}")


# subcommand -> (help, flags)
_COMMANDS: dict[str, tuple[str, tuple[_Flag, ...]]] = {
    "verify": (
        "check one instance by all routes",
        (
            _Flag("--s", "s", help="outer parameter s >= 0"),
            _Flag("--alpha", "alpha", _ints, help="comma-separated integers"),
            _Flag("--gamma", "gamma", _rationals, help="comma-separated rationals p/q"),
            _Flag(
                "--poly-gamma",
                "poly_gamma",
                optional=True,
                metavar="I",
                help="also certify polynomially in gamma coordinate I",
            ),
            _FORMAT,
        ),
    ),
    "sweep": (
        "verify a whole parameter grid",
        (
            _Flag("--max-s", "max_s", low=0),
            _Flag("--max-d", "max_d", low=0),
            _Flag("--gamma-set", "gamma_set", _rationals, help="comma-separated rationals"),
            _Flag("--cap", "cap", low=1, optional=True, help="stop after this many instances"),
            _Flag("--jobs", "jobs", low=1, high=MAX_JOBS, optional=True),
            _FORMAT,
        ),
    ),
    "lemma2": (
        "print a derivative-expansion table",
        (
            _Flag(
                "--alpha",
                "alpha_value",
                low=0,
                help="derivative order alpha >= 0; the table costs about "
                "alpha^3 operations to build (over 10 s at alpha = 400)",
            ),
            _FORMAT,
        ),
    ),
    "lemma3": (
        "print base and correction residues",
        (_Flag("--max-s", "max_s", low=0), _FORMAT),
    ),
    "jseries": (
        "print one coordinate's residue series",
        (
            _Flag("--alpha", "alpha_value", low=0),
            _Flag("--gamma", "gamma_value", parse_rational, help="rational p/q"),
            _Flag("--order", "order", low=0),
            _FORMAT,
        ),
    ),
}


_DESCRIPTION = (
    "Exact verification of a multi-binomial identity by independent evaluation routes."
)
# subcommand -> {flag name: flag}
_FLAGS = {sub: {flag.name: flag for flag in flags} for sub, (_, flags) in _COMMANDS.items()}
_HELP_FLAGS = ("-h", "--help")


def parse_config(argv: list[str]) -> CliConfig:
    """Read ``argv`` by the ``_COMMANDS`` table and check every value.

    Raises UsageError on bad input, and _HelpRequested on -h or --help."""
    sub = argv[0] if argv else None
    if sub in _HELP_FLAGS:
        raise _HelpRequested(None)
    flags = _FLAGS.get(sub)
    if flags is None:
        problem = "a subcommand is required" if sub is None else f"invalid choice: {sub!r}"
        raise _grammar_error(None, f"{problem} (choose from {', '.join(_COMMANDS)})")
    given: dict[str, tuple[_Flag, str]] = {}
    tokens = iter(argv[1:])
    for token in tokens:
        name, eq, text = token.partition("=")
        flag = flags.get(name)
        if flag is None:
            if token in _HELP_FLAGS:
                raise _HelpRequested(sub)
            raise _grammar_error(sub, f"unrecognized argument: {token}")
        if not eq:
            text = next(tokens, None)
            if text is None:
                raise _grammar_error(sub, f"{name} expects a value")
        if name in given:
            raise _grammar_error(sub, f"{name} is given more than once")
        given[name] = flag, text
    missing = [name for name, flag in flags.items() if not (flag.optional or name in given)]
    if missing:
        raise _grammar_error(sub, "the following flags are required: " + ", ".join(missing))
    values = {}
    for flag, text in given.values():  # every integer and its bounds first
        if flag.read is _integer:
            values[flag.field] = value = _read(flag, text)
            if flag.high is not None and not flag.low <= value <= flag.high:
                raise UsageError(f"{flag.name} must be in {flag.low}..{flag.high}")
            if flag.low is not None and value < flag.low:
                raise UsageError(f"{flag.name} must be >= {flag.low}")
    for flag, text in given.values():
        if flag.read is not _integer:
            values[flag.field] = _read(flag, text)
    return CliConfig(sub, **values)


def _read(flag: _Flag, text: str) -> Any:
    try:
        return flag.read(text)
    except ValueError as exc:
        raise UsageError(f"{flag.name}: {exc}") from None


def _grammar_error(sub: str | None, message: str) -> UsageError:
    return UsageError(message, usage=_usage(sub))


def _fill(head: str, words: Iterable[str], width: int = 79) -> str:
    """``head`` followed by ``words``, wrapped at ``width``: a word that
    would pass it starts a new line, indented as far as ``head`` is long."""
    lines, line = [], head
    for word in words:
        if len(line) + len(word) > width and len(line) > len(head):
            lines.append(line.rstrip())
            line = " " * len(head)
        line += word + " "
    lines.append(line.rstrip())
    return "\n".join(lines)


def _usage(sub: str | None) -> str:
    """The usage line of ``sub``, or of the program when ``sub`` is None."""
    if sub is None:
        return _fill("usage: coeffident ", ["[-h]", "{" + ",".join(_COMMANDS) + "}", "..."])
    words = ["[-h]"]
    for flag in _COMMANDS[sub][1]:
        words.append(f"[{flag.invocation}]" if flag.optional else flag.invocation)
    return _fill(f"usage: coeffident {sub} ", words)


def _help(sub: str | None) -> str:
    """The help page of ``sub``, or of the program when ``sub`` is None."""
    if sub is None:
        about = _DESCRIPTION
        sections = {"subcommands:": [(name, text) for name, (text, _) in _COMMANDS.items()]}
    else:
        about, flags = _COMMANDS[sub]
        sections = {"options:": [(flag.invocation, flag.help) for flag in flags]}
    sections.setdefault("options:", []).insert(0, ("-h, --help", "show this help and exit"))
    column = 4 + max(len(left) for rows in sections.values() for left, _ in rows)
    page = [_usage(sub), "", _fill("", about.split())]
    for heading, rows in sections.items():
        page += ["", heading]
        page += [_fill(f"  {left}".ljust(column), (text or "").split()) for left, text in rows]
    return "\n".join(page)


# Record keys whose value false means a route disagreed (exit status 1).
_VERDICTS = ("all_equal", "poly_equal")


def _cell(key: str, value) -> str:
    """One CSV cell: booleans as true/false, lists joined (alpha and gamma
    with commas, everything else with semicolons), the rest as str."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        sep = "," if key in ("alpha", "gamma") else ";"
        return sep.join(str(v) for v in value)
    return str(value)


# One compact encoder for every record: json.dumps with non-default
# separators would build a new JSONEncoder per call.
_encode_json = json.JSONEncoder(separators=(",", ":")).encode


def _emit(out: IO[str], fmt: str, records: Iterable[dict]) -> int:
    """Write records one per line: compact JSON, or CSV under a header of
    the first record's keys.  Returns the exit status: 1 if some record
    holds a false verdict, else 0."""
    ok = True
    writer = None
    for record in records:
        ok = ok and all(record.get(key, True) for key in _VERDICTS)
        if fmt == "json":
            out.write(_encode_json(record) + "\n")
            continue
        if writer is None:
            import csv  # here, so that a JSON run does not pay for it
            writer = csv.writer(out, lineterminator="\n")
            writer.writerow(record.keys())
        writer.writerow([_cell(key, value) for key, value in record.items()])
    return 0 if ok else 1


def _run_verify(cfg: CliConfig, out: IO[str]) -> int:
    try:
        inst = IdentityInstance(s=cfg.s, alpha=cfg.alpha, gamma=cfg.gamma)
    except InvalidInstance as exc:
        raise UsageError(str(exc)) from None
    if cfg.poly_gamma is not None and not 0 <= cfg.poly_gamma <= inst.d:
        raise UsageError(f"--poly-gamma index {cfg.poly_gamma} outside 0..{inst.d}")
    record = verify(inst).to_json_dict()
    if cfg.poly_gamma is not None:
        lhs, rhs, equal = verify_poly_gamma(inst, cfg.poly_gamma)
        record["poly_gamma"] = cfg.poly_gamma
        record["lhs_poly"] = [str(c) for c in lhs.coeffs]
        # when the sides agree they are one polynomial, spelled once
        record["rhs_poly"] = (
            record["lhs_poly"] if rhs is lhs else [str(c) for c in rhs.coeffs]
        )
        record["poly_equal"] = equal
    return _emit(out, cfg.format, [record])


def _run_sweep(cfg: CliConfig, out: IO[str]) -> int:
    reports = sweep(cfg.max_s, cfg.max_d, cfg.gamma_set, cap=cfg.cap, jobs=cfg.jobs)
    return _emit(out, cfg.format, (report.to_json_dict() for report in reports))


def _run_lemma2(cfg: CliConfig, out: IO[str]) -> int:
    table = derivative_table(cfg.alpha_value)
    inv_fact = Fraction(1, math.factorial(cfg.alpha_value))
    record = {
        "alpha": table.alpha,
        "entries": [[str(c) for c in row] for row in table.entries],
        "weights": [[str(c * inv_fact) for c in row] for row in table.entries[1:]],
    }
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
        "variable": "t",
        "coefficients": [str(c) for c in series.coeffs],
    }
    return _emit(out, cfg.format, [record])


_RUNNERS = {
    "verify": _run_verify,
    "sweep": _run_sweep,
    "lemma2": _run_lemma2,
    "lemma3": _run_lemma3,
    "jseries": _run_jseries,
}


def run(cfg: CliConfig, out: IO[str] | None = None) -> int:
    return _RUNNERS[cfg.subcommand](cfg, out if out is not None else sys.stdout)


def main(argv: list[str] | None = None) -> int:
    try:
        return run(parse_config(sys.argv[1:] if argv is None else argv))
    except _HelpRequested as request:
        print(_help(request.subcommand))
        return 0
    except UsageError as exc:
        if exc.usage is not None:
            print(exc.usage, file=sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    try:
        status = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away.  Point stdout at devnull, so the flush at
        # interpreter exit cannot raise again, and exit as SIGPIPE would.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 141
    sys.exit(status)
