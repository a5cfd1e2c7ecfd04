"""Smoke tests of the benchmark itself, at tiny sizes.

Run from the repository root:  python3 -m pytest benchmarks -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads as W  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(root: Path, workload: str, seed: int, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=180)


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(W.WORKLOADS)


@pytest.mark.parametrize("seed", [W.DEFAULT_SEED, W.HELD_OUT_SEED])
@pytest.mark.parametrize("workload", W.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_workload_runs_correctly_with_the_spec_metrics(workload, seed, trace):
    res = result(bench(ROOT, workload, seed, trace))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True
    assert res["failed"] == 0 and res["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {m["name"]: m["unit"] for m in spec}


def test_exact_counts_repeat_between_runs():
    names = [
        "series.coefficient_ops",
        "identity.direct_terms",
        "residues.correction_t_residue.calls",
        "residues.derivative_table.hit_ratio",
    ]
    first, second = (result(bench(ROOT, "poly_certify", W.HELD_OUT_SEED, 1)) for _ in range(2))
    assert [first["metrics"][n] for n in names] == [second["metrics"][n] for n in names]


def test_digests_are_stored_for_both_seeds():
    stored = json.loads((HERE / "digests.json").read_text())
    for seed in (W.DEFAULT_SEED, W.HELD_OUT_SEED):
        for workload in W.WORKLOADS:
            assert set(stored[str(seed)][workload]) == set(W.SIZES)


def test_strip_times_removes_only_the_time_fields():
    record = {
        "s": 1,
        "lhs_direct": "15/2",
        "time_direct_us": 12,
        "time_rhs_us": 3,
        "direct_terms": 4,
        "time_budget": 7,
        "lhs_time_us": 5,
        "all_equal": True,
    }
    stripped = json.loads(W.strip_times(json.dumps(record)))
    assert list(stripped.items()) == [
        (k, v) for k, v in record.items() if k not in ("time_direct_us", "time_rhs_us")
    ]


def test_seed_fixes_the_inputs():
    def head(workload, seed):
        stream = W.calls(workload, seed, "tiny")
        return [next(stream).argv for _ in range(8)]

    for workload in W.WORKLOADS:
        assert head(workload, 5) == head(workload, 5)
    assert head("poly_certify", 5) != head("poly_certify", 6)
    assert W.small_sweep_gammas(W.DEFAULT_SEED) == (
        Fraction(0), Fraction(1), Fraction(2), Fraction(1, 2)
    )


def test_wrong_records_are_counted():
    inst = W.Instance(1, (1, 2), (Fraction(0), Fraction(1, 2)))
    call = W.Call(("verify",), (inst,))
    rhs = str(W.closed_rhs(inst))
    good = {
        "s": inst.s,
        "alpha": list(inst.alpha),
        "gamma": [str(g) for g in inst.gamma],
        "lhs_direct": rhs,
        "lhs_residue": rhs,
        "lhs_product": rhs,
        "rhs": rhs,
        "all_equal": True,
    }
    assert W.count_wrong(call, [json.dumps(good)]) == 0
    assert W.count_wrong(call, []) == 1
    assert W.count_wrong(call, [json.dumps(good)] * 2) == 1
    assert W.count_wrong(call, [json.dumps(dict(good, lhs_product="1/3"))]) == 1
    assert W.count_wrong(call, [json.dumps(dict(good, all_equal=False))]) == 1
    assert W.count_wrong(call, ["not json", "[1]"]) == 2
    poly_call = W.Call(("verify",), (inst,), poly_gamma=0)
    certified = dict(good, poly_gamma=0, poly_equal=True, lhs_poly=[rhs], rhs_poly=[rhs])
    assert W.count_wrong(poly_call, [json.dumps(certified)]) == 0
    for bad in ({"lhs_poly": None, "rhs_poly": None}, {"lhs_poly": [7], "rhs_poly": [7]},
                {"lhs_poly": ["x"], "rhs_poly": ["x"]}, {"lhs_poly": ["1/0"], "rhs_poly": ["1/0"]}):
        assert W.count_wrong(poly_call, [json.dumps(dict(certified, **bad))]) == 1


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, "small_sweep", W.DEFAULT_SEED, 0)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
