"""Seeded inputs for the benchmark workloads, and the output checks.

A workload is an endless stream of ``Call``s: one CLI invocation each,
given as the argv that ``cli.parse_config`` receives, plus the instances
its output must hold, in order.  The stream depends only on the workload
name, the seed and the size, so the same seed gives the same inputs in
every process.  The first ``batch_calls(...)`` calls are the *batch*:
the fixed piece of work behind the output digest, the memory high-water
mark and the traced replay.

Nothing here imports ``coeffident``.  The checks use their own
composition enumeration and their own closed right side, so a defect in
the package cannot hide behind code the checks share with it.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

WORKLOADS = ("small_sweep", "poly_certify")
SIZES = ("full", "tiny")
DEFAULT_SEED = 0
HELD_OUT_SEED = 1

# The acceptance sweep's gamma set; the default seed reproduces it exactly.
# Other seeds pick a set of the same shape, three nonnegative integers and
# one half-integer, so that every seed's sweep costs about the same.
ACCEPTANCE_GAMMAS = (Fraction(0), Fraction(1), Fraction(2), Fraction(1, 2))
_SMALL_INTEGERS = tuple(Fraction(n) for n in range(5))
_SMALL_HALVES = tuple(Fraction(n, 2) for n in (-1, 1, 3, 5))

# The sweep's grid (max_s, max_d, cap), and the (s, d) cells of one round
# of verify calls.  A round has an odd number of calls, so the median call
# falls inside one cell's spread rather than in the gap between two cells.
_SMALL_SWEEP = {"full": (4, 3, 5000), "tiny": (4, 3, 600)}
_POLY_CELLS = {
    "full": [(s, d) for s in range(5) for d in range(3)],
    "tiny": [(s, d) for s in range(3) for d in range(2)] + [(1, 1)],
}
# Rounds of cells in the batch of poly_certify: enough for a tail latency.
_POLY_BATCH_ROUNDS = {"full": 10, "tiny": 2}
# Rounds per second of timed calls at the baseline commit, on a shared
# two-core VM with Python 3.11.  A run's work is fixed by its seconds
# alone, not by how fast the machine happens to be while it runs.
_ROUNDS_PER_SECOND = {"small_sweep": 0.4, "poly_certify": 7.0}
_MAX_DENOMINATOR = 12

_TIME_FIELD = re.compile(r"^time_.*_us$")


@dataclass(frozen=True)
class Instance:
    s: int
    alpha: tuple[int, ...]
    gamma: tuple[Fraction, ...]


@dataclass(frozen=True)
class Call:
    argv: tuple[str, ...]
    expected: tuple[Instance, ...]
    poly_gamma: int | None = None

    @property
    def is_sweep(self) -> bool:
        return self.argv[0] == "sweep"


def _rng(workload: str, seed: int) -> random.Random:
    # str seeds are hashed with SHA-512, so the stream is the same in every
    # process whatever PYTHONHASHSEED is.
    return random.Random(f"{workload}:{seed}")


def _random_rational(rng: random.Random) -> Fraction:
    q = rng.randint(1, _MAX_DENOMINATOR)
    return Fraction(rng.randint(-2 * q, 2 * q), q)


def _random_composition(rng: random.Random, total: int, parts: int) -> tuple[int, ...]:
    """Uniform over the compositions of ``total`` into ``parts`` parts."""
    bars = sorted(rng.sample(range(total + parts - 1), parts - 1))
    edges = [-1] + bars + [total + parts - 1]
    return tuple(edges[i + 1] - edges[i] - 1 for i in range(parts))


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Lexicographic compositions, enumerated without recursion."""
    for bars in itertools.combinations(range(total + parts - 1), parts - 1):
        edges = (-1,) + bars + (total + parts - 1,)
        yield tuple(edges[i + 1] - edges[i] - 1 for i in range(parts))


def _join(values) -> str:
    return ",".join(str(v) for v in values)


def _sweep_call(max_s: int, max_d: int, gammas, cap: int) -> Call:
    grid = (
        Instance(s, alpha, gamma)
        for s in range(max_s + 1)
        for d in range(max_d + 1)
        for alpha in _compositions(2 * s + 1, d + 1)
        for gamma in itertools.product(gammas, repeat=d + 1)
    )
    expected = tuple(itertools.islice(grid, cap))
    argv = ["sweep", "--max-s", str(max_s), "--max-d", str(max_d)]
    argv += ["--gamma-set=" + _join(gammas), "--cap", str(cap), "--jobs", "1"]
    return Call(tuple(argv), expected)


def _verify_call(inst: Instance, poly_gamma: int) -> Call:
    argv = ["verify", "--s", str(inst.s), "--alpha", _join(inst.alpha)]
    argv += ["--gamma=" + _join(inst.gamma), "--poly-gamma", str(poly_gamma)]
    return Call(tuple(argv), (inst,), poly_gamma)


def small_sweep_gammas(seed: int) -> tuple[Fraction, ...]:
    if seed == DEFAULT_SEED:
        return ACCEPTANCE_GAMMAS
    rng = _rng("small_sweep", seed)
    return (*sorted(rng.sample(_SMALL_INTEGERS, 3)), rng.choice(_SMALL_HALVES))


def calls(workload: str, seed: int, size: str = "full") -> Iterator[Call]:
    """The endless call stream of one workload."""
    rng = _rng(workload, seed)
    if workload == "small_sweep":
        # The same sweep again and again: per-instance overhead on warm caches.
        max_s, max_d, cap = _SMALL_SWEEP[size]
        yield from itertools.repeat(_sweep_call(max_s, max_d, small_sweep_gammas(seed), cap))
    elif workload == "poly_certify":
        # Cells are visited round-robin, so every run holds them in the same
        # proportion and the median falls in the same place.  A call's cost
        # is set mostly by alpha at the certified coordinate, so that part
        # steps through 0..2s+1 from round to round instead of being drawn:
        # every seed then holds the same mix of heavy calls, and the tail
        # does not move with how many of them a seed happens to draw.
        for r in itertools.count():
            for s, d in _POLY_CELLS[size]:
                total = 2 * s + 1
                coordinate = rng.randrange(d + 1)
                certified = r % (total + 1) if d else total
                alpha = list(_random_composition(rng, total - certified, d)) if d else []
                alpha.insert(coordinate, certified)
                gamma = tuple(_random_rational(rng) for _ in range(d + 1))
                yield _verify_call(Instance(s, tuple(alpha), gamma), coordinate)
    else:
        raise ValueError(f"unknown workload {workload!r}")


def round_calls(workload: str, size: str = "full") -> int:
    """Calls in one round: the sweep, or one verify call per cell."""
    return len(_POLY_CELLS[size]) if workload == "poly_certify" else 1


def batch_calls(workload: str, size: str = "full") -> int:
    """Number of leading calls that form the workload's fixed batch."""
    rounds = _POLY_BATCH_ROUNDS[size] if workload == "poly_certify" else 1
    return rounds * round_calls(workload, size)


def timed_calls(workload: str, size: str, seconds: float) -> int:
    """Calls that take about ``seconds`` at the baseline: whole rounds, at
    least the batch."""
    rounds = round(seconds * _ROUNDS_PER_SECOND[workload])
    return max(rounds * round_calls(workload, size), batch_calls(workload, size))


# ---------------------------------------------------------------------------
# output checks


def _binomial(x: Fraction, b: int) -> Fraction:
    acc = Fraction(1)
    for i in range(b):
        acc *= x - i
    return acc / math.factorial(b)


def closed_rhs(inst: Instance) -> Fraction:
    """4**s * prod_i C(alpha_i + gamma_i, alpha_i), computed independently."""
    acc = Fraction(4**inst.s)
    for a, g in zip(inst.alpha, inst.gamma):
        acc *= _binomial(g + a, a)
    return acc


def _eval_poly(coeffs: list[str], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + Fraction(c)
    return acc


def record_ok(record: dict, inst: Instance, poly_gamma: int | None) -> bool:
    """One output record is right: it is about ``inst``, every route equals
    the independently computed right side, and the verdicts say so."""
    if (
        record.get("s") != inst.s
        or record.get("alpha") != list(inst.alpha)
        or record.get("gamma") != [str(g) for g in inst.gamma]
        or record.get("all_equal") is not True
    ):
        return False
    rhs = str(closed_rhs(inst))
    if any(record.get(k) != rhs for k in ("lhs_direct", "lhs_residue", "lhs_product", "rhs")):
        return False
    if poly_gamma is None:
        return "poly_equal" not in record
    lhs_poly, rhs_poly = record.get("lhs_poly"), record.get("rhs_poly")
    return (
        record.get("poly_gamma") == poly_gamma
        and record.get("poly_equal") is True
        and isinstance(rhs_poly, list)
        and lhs_poly == rhs_poly
        and len(rhs_poly) <= inst.alpha[poly_gamma] + 1
        # the certified polynomial must specialise to the point value
        and str(_eval_poly(rhs_poly, inst.gamma[poly_gamma])) == rhs
    )


def count_wrong(call: Call, lines: list[str]) -> int:
    """Instances of ``call`` whose record is missing, extra or wrong."""
    wrong = abs(len(lines) - len(call.expected))
    for line, inst in zip(lines, call.expected):
        try:
            ok = record_ok(json.loads(line), inst, call.poly_gamma)
        except (TypeError, ValueError, ZeroDivisionError, AttributeError):
            ok = False  # not JSON, not an object, or a coefficient that is not a rational
        if not ok:
            wrong += 1
    return wrong


def strip_times(line: str) -> str:
    """The record with its ``time_*_us`` fields removed, other fields kept in order."""
    record = json.loads(line)
    kept = {k: v for k, v in record.items() if not _TIME_FIELD.match(k)}
    return json.dumps(kept, separators=(",", ":"))


def stripped(lines: list[str]) -> bytes:
    """The records with timings stripped, one a line, as the digest hashes them."""
    return b"".join(strip_times(line).encode() + b"\n" for line in lines)

