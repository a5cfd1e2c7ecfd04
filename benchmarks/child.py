"""One job of the benchmark, run in a fresh interpreter.

usage: python3 -I child.py measure WORKLOAD SEED SIZE CALLS
       python3 -I child.py batch|replay WORKLOAD SEED SIZE

The modes are

* ``measure`` -- time the workload's first CALLS CLI invocations
  (``cli.parse_config`` then ``cli.run`` into an in-memory buffer),
  checking every output;
* ``batch`` -- the same for the batch alone, also returning its output;
* ``replay`` -- the traced replay of the batch, whose untraced output is
  read as JSON from stdin and compared with the replay's own.

The result is one JSON object on stdout.  The package is imported from
the checkout's ``src/`` and from nowhere else.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(HERE)]

import coeffident  # noqa: E402

if not Path(coeffident.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"coeffident imported from {coeffident.__file__}, not from {SRC}")

from coeffident import cli  # noqa: E402
from coeffident.residues import derivative_table  # noqa: E402
from coeffident.series import coefficient_ops  # noqa: E402

import workloads as W  # noqa: E402


class StampedBuffer(io.StringIO):
    """In-memory output that notes when each record is written."""

    def __init__(self) -> None:
        super().__init__()
        self.stamps: list[int] = []

    def write(self, text: str) -> int:
        n = super().write(text)
        self.stamps.append(time.perf_counter_ns())
        return n


def measure(workload: str, seed: int, size: str, n_calls: int, keep_output: bool) -> dict:
    """Time the workload's first ``n_calls`` calls, at least the batch."""
    stream = W.calls(workload, seed, size)
    n_batch = W.batch_calls(workload, size)
    n_calls = max(n_calls, n_batch)
    busy_ns = 0
    latencies: list[int] = []
    attempted = wrong = 0
    digests: dict[tuple, str] = {}
    repeats_differ = 0
    batch_digest = hashlib.sha256()
    batch_lines: list[list[str]] = []
    ops0 = coefficient_ops()
    info0 = derivative_table.cache_info()
    for i in range(n_calls):
        call = next(stream)
        out = StampedBuffer()
        t0 = time.perf_counter_ns()
        try:
            code = cli.run(cli.parse_config(list(call.argv)), out)
        except Exception:
            traceback.print_exc()
            code = None
        t1 = time.perf_counter_ns()
        busy_ns += t1 - t0
        if call.is_sweep:
            latencies += [b - a for a, b in zip([t0] + out.stamps, out.stamps)]
        else:
            latencies.append(t1 - t0)
        lines = out.getvalue().splitlines()
        if code is None:
            bad = len(call.expected)
        else:
            bad = W.count_wrong(call, lines)
            if code != 0 and bad == 0:
                bad = len(call.expected)  # an exit status that contradicts the records
        body = W.stripped(lines)
        digest = hashlib.sha256(body).hexdigest() if code is not None else ""
        if digests.setdefault(call.argv, digest) != digest:
            repeats_differ += 1
            bad = len(call.expected)
        attempted += len(call.expected)
        wrong += min(bad, len(call.expected))
        if i < n_batch:
            batch_digest.update(body)
            if keep_output:
                batch_lines.append(lines)
        if i + 1 == n_batch:
            batch_attempted, batch_wrong = attempted, wrong
            batch_ops = coefficient_ops() - ops0
            info1 = derivative_table.cache_info()
    hits = info1.hits - info0.hits
    lookups = hits + info1.misses - info0.misses
    result = {
        "calls": n_calls,
        "attempted": attempted,
        "wrong": wrong,
        "batch_attempted": batch_attempted,
        "batch_wrong": batch_wrong,
        "repeats_differ": repeats_differ,
        "busy_ns": busy_ns,
        "latencies_ns": latencies,
        "batch_digest": batch_digest.hexdigest(),
        "batch_coefficient_ops": batch_ops,
        "batch_table_hit_ratio": hits / lookups if lookups else 0.0,
    }
    if keep_output:
        result["batch_lines"] = batch_lines
    return result


def replay(workload: str, seed: int, size: str, recorded: list[list[str]]) -> dict:
    import spans

    tr = spans.Tracer()
    stream = W.calls(workload, seed, size)
    ops0 = coefficient_ops()
    info0 = derivative_table.cache_info()
    wall_ns = 0
    replayed = []
    for _ in range(W.batch_calls(workload, size)):
        call = next(stream)
        t0 = time.perf_counter_ns()
        replayed.append(spans.replay_call(tr, call.argv))
        wall_ns += time.perf_counter_ns() - t0
    info1 = derivative_table.cache_info()
    # The replay guard: every route value, and every record with its
    # timings stripped, must equal what the untraced run recorded.
    mismatched = abs(sum(map(len, replayed)) - sum(map(len, recorded)))
    for got_lines, want_lines in zip(replayed, recorded):
        for got, want in zip(got_lines, want_lines):
            g, w = json.loads(got), json.loads(want)
            if any(g[k] != w[k] for k in ("lhs_direct", "lhs_residue", "lhs_product")) or (
                W.strip_times(got) != W.strip_times(want)
            ):
                mismatched += 1
    summary = tr.summary()
    calls = summary["residues.correction_t_residue"]["calls"]
    hits = info1.hits - info0.hits
    lookups = hits + info1.misses - info0.misses
    return {
        "wall_ns": wall_ns,
        "mismatched": mismatched,
        "spans": summary,
        "counts": {
            "identity.direct_terms": tr.counts["identity.direct_terms"],
            "series.coefficient_ops": coefficient_ops() - ops0,
            "residues.correction_t_residue.calls": calls,
            "residues.correction_t_residue.nonzero_ratio": (
                tr.counts["residues.correction_t_residue.nonzero"] / calls if calls else 0.0
            ),
            "residues.derivative_table.hit_ratio": hits / lookups if lookups else 0.0,
        },
    }


def main(argv: list[str]) -> None:
    mode, workload, seed, size = argv[:4]
    if mode == "replay":
        result = replay(workload, int(seed), size, json.load(sys.stdin))
    elif mode == "batch":
        result = measure(workload, int(seed), size, 0, keep_output=True)
    else:
        result = measure(workload, int(seed), size, int(argv[4]), keep_output=False)
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
