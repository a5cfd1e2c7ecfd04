"""Benchmark of coeffident: end-to-end metrics, or a traced per-layer replay.

usage: python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

Each job runs in a fresh interpreter, one at a time: a closed loop with a
single caller, so nothing here measures the scheduler of a shared machine.

--trace 0 times set-up in fresh interpreters (import ``coeffident`` and
parse the workload's first argv; the median of several), and the
workload's CLI invocations, about S seconds of them at the baseline
spread over SUBRUNS interpreters, checking every output against an
independently computed right side.  The peak memory of the batch is
taken in one more fresh interpreter that holds nothing else.

--trace 1 runs the workload's fixed batch untraced twice, then replays it
twice with a span around each public call of the three routes, each time
in a fresh interpreter.  The replays must reproduce every recorded route
value (the replay guard) and the exact counts of the untraced runs and of
each other (the exact-count check).

The workload inputs come from --seed alone.  The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  The exit
status is not 0, and no result is printed, when a job cannot run at all,
for instance when the checkout holds no ``src/coeffident``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads as W  # noqa: E402

# A run is SUBRUNS sub-runs in fresh interpreters that make the same calls
# in the same order, so caches are in the same state at each call.  The
# calls are fixed by the workload, seed and seconds alone.  Each
# record's time is its best over the sub-runs: on a shared machine, bursts
# of contention slow some sub-runs, and the best time is the one that
# repeats.  SETUP_SAMPLES set-up probes are spread between the sub-runs.
SUBRUNS = 10
SETUP_SAMPLES = 30
# A sweep's latency sample is the mean time of this many consecutive
# records.  Per record, the tail would sit at the 99.8th percentile of a
# pass, set by a dozen records that contention slows in some runs and not
# in others.  On a shared two-core VM, the tail's spread over six seeds was
# 0.11 with chunks of 25 records and 0.085 with chunks of 50.
SWEEP_CHUNK = 50
# Every job of one run must end within this many seconds of its start.
RUN_BUDGET_S = 170
# The counts a later claim may cite; two replays must agree on them exactly.
EXACT_COUNTS = (
    "series.coefficient_ops",
    "identity.direct_terms",
    "residues.correction_t_residue.calls",
    "residues.derivative_table.hit_ratio",
)


class JobFailed(RuntimeError):
    pass


class Runner:
    def __init__(self) -> None:
        self.deadline = time.monotonic() + RUN_BUDGET_S

    def job(self, script: str, *args: str, stdin: str | None = None) -> str:
        """Run one benchmark script in a fresh, isolated interpreter."""
        cmd = [sys.executable, "-I", str(HERE / script), *args]
        try:
            proc = subprocess.run(
                cmd,
                input=stdin,
                capture_output=True,
                text=True,
                cwd=ROOT,
                timeout=max(1.0, self.deadline - time.monotonic()),
            )
        except subprocess.TimeoutExpired:
            raise JobFailed(f"{script} {' '.join(args)}: timed out") from None
        if proc.returncode != 0:
            raise JobFailed(f"{script} {' '.join(args)}: exit {proc.returncode}\n{proc.stderr}")
        if proc.stderr:
            sys.stderr.write(proc.stderr)
        return proc.stdout


def tail(samples: list[int]) -> tuple[int, float]:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 11:
        raise JobFailed(f"{n} latency samples; the tail needs at least 11")
    return sorted(samples)[n - 11], 100.0 * (n - 10) / n


def check_source(path: str) -> None:
    if not Path(path).resolve().is_relative_to(ROOT / "src"):
        raise JobFailed(f"coeffident imported from {path}, not from the checkout")


def stored_digest(workload: str, seed: int, size: str) -> str | None:
    with open(HERE / "digests.json") as fh:
        return json.load(fh).get(str(seed), {}).get(workload, {}).get(size)


def failed_instances(m: dict, want: str | None) -> int:
    """Failed instances of one job, counting every batch instance as failed
    when a digest is stored and the batch's differs from it."""
    if want is None or m["batch_digest"] == want:
        return m["wrong"]
    return m["wrong"] - m["batch_wrong"] + m["batch_attempted"]


def report_digest(got: str, want: str | None, seed: int) -> None:
    if want is None:
        print(f"digest {got} (none stored for seed {seed})")
    else:
        print(f"digest {got} ({'matches' if got == want else 'DIFFERS from'} the stored one)")


def end_to_end(runner: Runner, workload: str, seed: int, seconds: int, size: str) -> dict:
    first_argv = next(W.calls(workload, seed, size)).argv
    probe_args = (str(ROOT / "src"), *first_argv)
    runner.job("setup_probe.py", *probe_args)  # warm-up: writes the bytecode cache
    n_calls = str(W.timed_calls(workload, size, seconds / SUBRUNS))
    batch = json.dumps(
        [c.argv for c in itertools.islice(W.calls(workload, seed, size), W.batch_calls(workload, size))]
    )
    setups: list[float] = []
    subruns: list[dict] = []
    for _ in range(SUBRUNS):
        # Set-up is sampled between sub-runs, so that its median spans the run.
        for _ in range(SETUP_SAMPLES // SUBRUNS):
            seconds_taken, path = runner.job("setup_probe.py", *probe_args).split()
            check_source(path)
            setups.append(float(seconds_taken))
        subruns.append(
            json.loads(runner.job("child.py", "measure", workload, str(seed), size, n_calls))
        )
    rss_kb, records, path = runner.job("rss_probe.py", str(ROOT / "src"), stdin=batch).split()
    check_source(path)
    if int(records) != subruns[0]["batch_attempted"]:
        raise JobFailed(f"the memory probe wrote {records} records, not {subruns[0]['batch_attempted']}")

    best = [min(position) for position in zip(*(m["latencies_ns"] for m in subruns))]
    samples = best
    if W.round_calls(workload, size) == 1:  # a sweep: one sample per chunk of records
        samples = [
            sum(best[i : i + SWEEP_CHUNK]) / SWEEP_CHUNK
            for i in range(0, len(best) - SWEEP_CHUNK + 1, SWEEP_CHUNK)
        ]
    n = len(samples)
    tail_ns, tail_pct = tail(samples)
    attempted = sum(m["attempted"] for m in subruns)
    print(f"{SUBRUNS} sub-runs of {subruns[0]['calls']} calls, {subruns[0]['attempted']} instances")
    want = stored_digest(workload, seed, size)
    report_digest(subruns[0]["batch_digest"], want, seed)
    failed = sum(failed_instances(m, want) for m in subruns)
    for m in subruns:
        if m["repeats_differ"]:
            print(f"{m['repeats_differ']} repeated calls gave other output than their first run")
    # Sub-runs make the same calls, so they must give the same output.
    same = len({(m["batch_digest"], len(m["latencies_ns"])) for m in subruns}) == 1
    if not same:
        print("the sub-runs gave different outputs")
    correct = failed == 0 and same
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "inst_per_s": (subruns[0]["attempted"] / (sum(best) / 1e9), "1/s"),
        "verify_p50_ms": (statistics.median(samples) / 1e6, "ms"),
        "verify_tail_ms": (tail_ns / 1e6, "ms"),
        "peak_rss_mb": (int(rss_kb) / 1024, "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setups)} fresh interpreters",
        "inst_per_s": f"{len(best)} records over the sum of their best times",
        "verify_p50_ms": f"{n} samples from times that are each the best of {SUBRUNS}",
        "verify_tail_ms": f"p{tail_pct:.2f} of {n} samples",
        "peak_rss_mb": "VmHWM of a fresh interpreter that runs the batch alone",
    }
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit} ({notes[name]})")
    print(f"failed_frac {failed / attempted:.6g} ({failed} of {attempted})")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def per_layer(runner: Runner, workload: str, seed: int, size: str) -> dict:
    # Two untraced runs and two replays; the overhead compares the best of each.
    a, a2 = (json.loads(runner.job("child.py", "batch", workload, str(seed), size)) for _ in range(2))
    recorded = json.dumps(a["batch_lines"])
    replays = [
        json.loads(runner.job("child.py", "replay", workload, str(seed), size, stdin=recorded))
        for _ in range(2)
    ]
    want = stored_digest(workload, seed, size)
    report_digest(a["batch_digest"], want, seed)
    failed = failed_instances(a, want)
    correct = True
    mismatched = max(r["mismatched"] for r in replays)
    if mismatched:
        print(f"replay guard: {mismatched} records differ from the untraced run")
    for key in ("batch_digest", "batch_coefficient_ops", "batch_table_hit_ratio"):
        if a[key] != a2[key]:
            print(f"exact-count check: the untraced runs differ in {key}")
            correct = False
    first, second = (r["counts"] for r in replays)
    for name in EXACT_COUNTS:
        if first[name] != second[name]:
            print(f"exact-count check: {name} is {first[name]} then {second[name]}")
            correct = False
    recorded_terms = sum(
        json.loads(line)["direct_terms"] for lines in a["batch_lines"] for line in lines
    )
    for name, untraced in (
        ("series.coefficient_ops", a["batch_coefficient_ops"]),
        ("identity.direct_terms", recorded_terms),
        ("residues.derivative_table.hit_ratio", a["batch_table_hit_ratio"]),
    ):
        if first[name] != untraced:
            print(f"replay count {name} is {first[name]}, the untraced run's {untraced}")
            correct = False

    metrics: dict[str, tuple[float, str]] = {}
    for span in replays[0]["spans"]:
        stats = [r["spans"][span] for r in replays]
        metrics[f"{span}.calls"] = (stats[0]["calls"], "count")
        for key in ("total_ms", "self_ms"):
            metrics[f"{span}.{key}"] = (statistics.mean(s[key] for s in stats), "ms")
    for name, value in first.items():
        if name not in metrics:
            metrics[name] = (value, "ratio" if name.endswith("_ratio") else "count")
    # From the untraced run; the check above holds the replay to it.
    metrics["residues.derivative_table.hit_ratio"] = (a["batch_table_hit_ratio"], "ratio")
    untraced_ns = min(a["busy_ns"], a2["busy_ns"])
    replay_ns = min(r["wall_ns"] for r in replays)
    metrics["trace.overhead_frac"] = (replay_ns / untraced_ns - 1, "ratio")
    print(f"batch of {a['calls']} calls, {a['attempted']} instances; untraced {untraced_ns / 1e9:.3f} s")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    failed += mismatched
    return {
        "correct": correct and failed == 0,
        "attempted": a["attempted"],
        "failed": min(failed, a["attempted"]),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=W.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for smoke tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "coeffident" / "__init__.py").is_file():
        print(f"error: no src/coeffident under {ROOT}", file=sys.stderr)
        return 2
    size = "tiny" if args.tiny else "full"
    print(f"workload {args.workload}, seed {args.seed}, size {size}, trace {args.trace}")
    print(f"python {sys.version.split()[0]}, nproc {os.cpu_count()}")
    runner = Runner()
    try:
        if args.trace:
            result = per_layer(runner, args.workload, args.seed, size)
        else:
            result = end_to_end(runner, args.workload, args.seed, args.seconds, size)
    except JobFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
