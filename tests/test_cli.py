import csv
import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
from fractions import Fraction as F
from importlib.metadata import EntryPoint
from pathlib import Path

import pytest

try:
    import tomllib
except ModuleNotFoundError:
    tomllib = None

import coeffident.cli
import coeffident.identity as identity
from coeffident.cli import CliConfig, UsageError, main, parse_config


def run_lines(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out.splitlines(), captured.err


# --- config parsing -----------------------------------------------------------


def test_parse_verify_config():
    cfg = parse_config(["verify", "--s", "1", "--alpha", "1,2", "--gamma", "0,1/2"])
    assert cfg.subcommand == "verify"
    assert cfg.s == 1
    assert cfg.alpha == (1, 2)
    assert cfg.gamma == (F(0), F(1, 2))
    assert cfg.poly_gamma is None
    assert cfg.format == "json"


def test_parse_rejects_bad_vectors():
    with pytest.raises(UsageError):
        parse_config(["verify", "--s", "1", "--alpha", "1,x", "--gamma", "0,0"])
    with pytest.raises(UsageError):
        parse_config(["verify", "--s", "1", "--alpha", "1,2", "--gamma", "0,0.5"])
    with pytest.raises(UsageError):
        parse_config(["sweep", "--max-s", "1", "--max-d", "1", "--gamma-set", "1/0"])
    with pytest.raises(UsageError):
        parse_config(["sweep", "--max-s", "1", "--max-d", "1", "--gamma-set", "0", "--cap", "0"])
    with pytest.raises(UsageError):
        parse_config(["sweep", "--max-s", "1", "--max-d", "1", "--gamma-set", "0", "--jobs", "0"])


@pytest.mark.parametrize("sub", ["sweep"])
def test_parse_bounds_jobs(sub):
    base = [sub, "--max-s", "1", "--max-d", "1", "--gamma-set", "0"]
    cfg = parse_config(base + ["--jobs", str(identity.MAX_JOBS)])
    assert cfg.jobs == identity.MAX_JOBS
    with pytest.raises(UsageError, match="--jobs"):
        parse_config(base + ["--jobs", str(identity.MAX_JOBS + 1)])


def test_parse_config_reads_the_table():
    # one argv of each subcommand in each spelling, --flag VALUE and
    # --flag=VALUE, integer flags included
    expected = {
        "verify --s 2 --alpha 5 --gamma=-7/3 --poly-gamma 0 --format csv": CliConfig(
            "verify", format="csv", s=2, alpha=(5,), gamma=(F(-7, 3),), poly_gamma=0
        ),
        "sweep --max-s 2 --max-d 1 --gamma-set 0,1,1/2 --cap 50 --jobs 2": CliConfig(
            "sweep", jobs=2, max_s=2, max_d=1, gamma_set=(F(0), F(1), F(1, 2)), cap=50
        ),
        "lemma2 --alpha 4": CliConfig("lemma2", alpha_value=4),
        "lemma3 --max-s 6 --format csv": CliConfig("lemma3", format="csv", max_s=6),
        "jseries --alpha 3 --gamma 1/2 --order 5": CliConfig(
            "jseries", alpha_value=3, gamma_value=F(1, 2), order=5
        ),
        # the --flag=value form, integer flags included
        "verify --s=2 --alpha=1,3,1 --gamma=-1/2,0,3 --poly-gamma=1 --format=json": CliConfig(
            "verify", s=2, alpha=(1, 3, 1), gamma=(F(-1, 2), F(0), F(3)), poly_gamma=1
        ),
        "sweep --max-s=1 --max-d=2 --gamma-set=0,-1/3 --cap=40 --jobs=2": CliConfig(
            "sweep", jobs=2, max_s=1, max_d=2, gamma_set=(F(0), F(-1, 3)), cap=40
        ),
        "lemma2 --alpha=7 --format=csv": CliConfig("lemma2", format="csv", alpha_value=7),
        "lemma3 --max-s=3": CliConfig("lemma3", max_s=3),
        "jseries --alpha=2 --gamma=-1/3 --order=4": CliConfig(
            "jseries", alpha_value=2, gamma_value=F(-1, 3), order=4
        ),
    }
    for argv, cfg in expected.items():
        assert parse_config(argv.split()) == cfg, argv


def test_negative_value_after_a_space():
    # the word after a flag is always its value, even when it starts with "-"
    spaced = parse_config(["verify", "--s", "0", "--alpha", "1", "--gamma", "-1/2,0"])
    joined = parse_config(["verify", "--s", "0", "--alpha", "1", "--gamma=-1/2,0"])
    assert spaced == joined
    assert spaced.gamma == (F(-1, 2), F(0))
    cfg = parse_config(["jseries", "--alpha", "1", "--gamma", "-1/3", "--order", "2"])
    assert cfg.gamma_value == F(-1, 3)


def test_unicode_minus_accepted_in_vectors():
    cfg = parse_config(["verify", "--s", "0", "--alpha", "1", "--gamma", "−1/2"])
    assert cfg.gamma == (F(-1, 2),)


# --- verify ----------------------------------------------------------------------


def test_verify_json_output(capsys):
    code, lines, err = run_lines(
        capsys, ["verify", "--s", "1", "--alpha", "1,2", "--gamma", "0,0"]
    )
    assert code == 0
    assert err == ""
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["s"] == 1
    assert record["alpha"] == [1, 2]
    assert record["lhs_direct"] == record["lhs_residue"] == "4"
    assert record["lhs_product"] == record["rhs"] == "4"
    assert record["all_equal"] is True


def test_verify_csv_output(capsys):
    code, lines, _ = run_lines(
        capsys,
        ["verify", "--s", "1", "--alpha", "1,2", "--gamma", "0,0", "--format", "csv"],
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO("\n".join(lines))))
    assert rows[0][:9] == [
        "s", "d", "alpha", "gamma",
        "lhs_direct", "lhs_residue", "lhs_product", "rhs", "all_equal",
    ]
    assert rows[1][:9] == ["1", "1", "1,2", "0,0", "4", "4", "4", "4", "true"]


def test_verify_poly_gamma_fields(capsys):
    code, lines, _ = run_lines(
        capsys,
        ["verify", "--s", "1", "--alpha", "1,2", "--gamma", "0,0", "--poly-gamma", "1"],
    )
    assert code == 0
    record = json.loads(lines[0])
    assert record["poly_gamma"] == 1
    assert record["lhs_poly"] == record["rhs_poly"] == ["4", "6", "2"]
    assert record["poly_equal"] is True


def test_verify_deep_instance(capsys):
    d = 1200
    alpha = ",".join(["1"] + ["0"] * d)
    gamma = ",".join(["0"] * (d + 1))
    code, lines, err = run_lines(
        capsys, ["verify", "--s", "0", "--alpha", alpha, "--gamma", gamma]
    )
    assert (code, err) == (0, "")
    record = json.loads(lines[0])
    assert record["d"] == d
    assert record["all_equal"] is True


def test_verify_invalid_instance_is_usage_error(capsys):
    code, lines, err = run_lines(
        capsys, ["verify", "--s", "1", "--alpha", "1,1", "--gamma", "0,0"]
    )
    assert code == 2
    assert lines == []
    assert "2s+1" in err


def test_verify_malformed_rational(capsys):
    code, _, err = run_lines(
        capsys, ["verify", "--s", "0", "--alpha", "1", "--gamma", "1/0"]
    )
    assert code == 2
    assert "denominator" in err
    # numbers are spelled in ASCII digits with an optional "-": no "_"
    # separator, no "+" sign and no other script's digits, for integer
    # flags, integer vectors and rationals alike
    misspelled = [
        (["verify", "--s", "5", "--alpha", "1_0,1", "--gamma", "0,0"], "--alpha"),
        (["verify", "--s", "١", "--alpha", "1,2", "--gamma", "0,0"], "--s"),
        (["verify", "--s", "0", "--alpha", "1", "--gamma", "３/４"], "--gamma"),
        (["verify", "--s", "1", "--alpha=+1,2", "--gamma", "0,0"], "--alpha"),
        (["verify", "--s=+1", "--alpha", "1,2", "--gamma", "0,0"], "--s"),
        (["verify", "--s", "1", "--alpha", "1,2", "--gamma", "0,0", "--poly-gamma", "0_1"], "--poly-gamma"),
    ]
    for argv, flag in misspelled:
        code, lines, err = run_lines(capsys, argv)
        assert (code, lines) == (2, []), argv
        assert flag + ":" in err, argv


def test_verify_poly_gamma_out_of_range(capsys):
    code, _, err = run_lines(
        capsys,
        ["verify", "--s", "1", "--alpha", "1,2", "--gamma", "0,0", "--poly-gamma", "5"],
    )
    assert code == 2
    assert "poly-gamma" in err


def test_verify_poly_gamma_index_checked_before_any_route(capsys, monkeypatch):
    def no_route(inst):
        raise AssertionError("a route ran before --poly-gamma was checked")

    monkeypatch.setattr(coeffident.cli, "verify", no_route)
    code, lines, err = run_lines(
        capsys,
        ["verify", "--s", "1", "--alpha", "1,2", "--gamma", "0,0", "--poly-gamma", "5"],
    )
    assert (code, lines) == (2, [])
    assert "poly-gamma" in err


def test_verify_poly_gamma_mismatch_exits_1(capsys, monkeypatch):
    # one wrong node value, at a gamma the scalar routes never pin, must
    # flip poly_equal and the exit status while all_equal stays true
    real = identity._lhs_at_nodes

    def one_wrong_node(*args):
        nums, den = real(*args)
        nums[2] += den  # the node gamma_1 = 2, its value plus one
        return nums, den

    monkeypatch.setattr(identity, "_lhs_at_nodes", one_wrong_node)
    code, lines, _ = run_lines(
        capsys,
        ["verify", "--s", "1", "--alpha", "1,2", "--gamma", "0,1/2", "--poly-gamma", "1"],
    )
    assert code == 1
    record = json.loads(lines[0])
    assert record["all_equal"] is True
    assert record["poly_equal"] is False
    assert record["lhs_poly"] != record["rhs_poly"]


def test_verify_detects_route_mismatch(capsys, monkeypatch):
    # force a wrong right side; the exit code must flip to 1
    monkeypatch.setattr(identity, "rhs_closed", lambda inst: F(-1))
    code, lines, _ = run_lines(
        capsys, ["verify", "--s", "1", "--alpha", "1,2", "--gamma", "0,0"]
    )
    assert code == 1
    record = json.loads(lines[0])
    assert record["all_equal"] is False
    assert record["rhs"] == "-1"


# --- grammar and help ------------------------------------------------------------------


def test_unknown_flag_exits_2(capsys):
    assert main(["verify", "--bogus", "1"]) == 2
    capsys.readouterr()


def test_missing_subcommand_exits_2(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    listed = re.search(r"\{([^}]*)\}", out).group(1)
    assert listed.split(",") == ["verify", "sweep", "lemma2", "lemma3", "jseries"]


VERIFY = ["verify", "--s", "1", "--alpha", "1,2", "--gamma", "0,0"]


@pytest.mark.parametrize(
    "argv, named",
    [
        (["bench", "--max-s", "1"], "'bench'"),
        (VERIFY + ["--bogus", "1"], "--bogus"),
        (["verify", "--s", "1", "--alp", "1,2", "--gamma", "0,0"], "--alp"),  # abbreviated
        (["verify", "--s", "1", "--alpha", "1,2"], "--gamma"),
        (["verify", "--alpha", "1,2", "--gamma", "0,0", "--s"], "--s"),
        (VERIFY[:1] + ["--s", "1", "--s", "0"] + VERIFY[3:], "--s"),
    ],
    ids=["subcommand", "unknown", "abbreviated", "missing", "no-value", "repeated"],
)
def test_grammar_errors_exit_2_with_usage(capsys, argv, named):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: coeffident")
    error = captured.err.splitlines()[-1]
    assert error.startswith("error: ") and named in error


def test_value_errors_print_no_usage(capsys):
    for argv in (
        ["verify", "--s", "x", "--alpha", "1,2", "--gamma", "0,0"],
        VERIFY + ["--format", "xml"],
        ["sweep", "--max-s", "-1", "--max-d", "1", "--gamma-set", "0"],
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --") and captured.err.count("\n") == 1, argv


def test_help_after_a_subcommand_exits_0(capsys):
    for sub in ["verify", "sweep", "lemma2", "lemma3", "jseries"]:
        for flag in ["-h", "--help"]:
            assert main([sub, flag]) == 0
            out = capsys.readouterr().out
            assert out.startswith(f"usage: coeffident {sub} [-h]")
            for name in coeffident.cli._FLAGS[sub]:
                assert name in out, (sub, name)
    assert main(["-h"]) == 0
    assert capsys.readouterr().out.startswith("usage: coeffident [-h]")


def test_bench_is_not_a_subcommand(capsys):
    assert main(["bench", "--max-s", "1", "--max-d", "1", "--gamma-set", "0,1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: coeffident")
    assert "invalid choice: 'bench'" in captured.err


def help_text(capsys, argv):
    assert main(argv) == 0
    return " ".join(capsys.readouterr().out.split())


def test_help_pages_explain_cap_and_lemma2_cost(capsys):
    assert "--cap CAP stop after this many instances" in help_text(capsys, ["sweep", "--help"])
    assert "alpha^3 operations" in help_text(capsys, ["lemma2", "--help"])


# --- sweep ------------------------------------------------------------------------------


def test_sweep_json(capsys):
    code, lines, _ = run_lines(
        capsys, ["sweep", "--max-s", "1", "--max-d", "1", "--gamma-set", "0,1", "--cap", "12"]
    )
    assert code == 0
    assert len(lines) == 12
    records = [json.loads(line) for line in lines]
    assert all(r["all_equal"] for r in records)
    assert [r["s"] for r in records] == sorted(r["s"] for r in records)


def test_sweep_csv_header(capsys):
    code, lines, _ = run_lines(
        capsys,
        ["sweep", "--max-s", "0", "--max-d", "0", "--gamma-set", "1/2", "--format", "csv"],
    )
    assert code == 0
    assert lines[0].startswith("s,d,alpha,gamma,lhs_direct")
    assert len(lines) == 2


def test_sweep_deterministic_modulo_timings(capsys):
    argv = ["sweep", "--max-s", "1", "--max-d", "2", "--gamma-set", "0,1/2", "--cap", "30"]

    def normalized():
        code, lines, _ = run_lines(capsys, argv)
        assert code == 0
        out = []
        for line in lines:
            record = json.loads(line)
            for key in list(record):
                if key.startswith("time_"):
                    del record[key]
            out.append(json.dumps(record, sort_keys=True))
        return out

    assert normalized() == normalized()


def test_sweep_parallel_stream_matches_serial(capsys):
    base = ["sweep", "--max-s", "1", "--max-d", "1", "--gamma-set", "0,1", "--cap", "10"]

    def normalized(argv):
        code, lines, _ = run_lines(capsys, argv)
        assert code == 0
        out = []
        for line in lines:
            record = json.loads(line)
            for key in list(record):
                if key.startswith("time_"):
                    del record[key]
            out.append(json.dumps(record, sort_keys=True))
        return out

    assert normalized(base) == normalized(base + ["--jobs", "2"])


# --- table subcommands --------------------------------------------------------------------


def test_lemma2_json(capsys):
    # the whole record, keys in order: the table's alpha and integer rows,
    # then the weights of rows k >= 1
    code, lines, _ = run_lines(capsys, ["lemma2", "--alpha", "0"])
    assert code == 0
    assert lines == ['{"alpha":0,"entries":[["1"]],"weights":[]}']
    code, lines, _ = run_lines(capsys, ["lemma2", "--alpha", "3"])
    assert code == 0
    record = json.loads(lines[0])
    assert list(record) == ["alpha", "entries", "weights"]
    assert record == {
        "alpha": 3,
        "entries": [["6", "11", "6", "1"], ["-5", "-8", "-3"]],
        "weights": [["-5/6", "-4/3", "-1/2"]],
    }


def test_lemma2_csv(capsys):
    code, lines, _ = run_lines(capsys, ["lemma2", "--alpha", "2", "--format", "csv"])
    assert code == 0
    rows = list(csv.reader(io.StringIO("\n".join(lines))))
    assert rows[0] == ["alpha", "k", "entry", "weight"]
    assert rows[1] == ["2", "0", "2;3;1", ""]
    assert rows[2] == ["2", "1", "-1;-1", "-1/2;-1/2"]


def test_lemma3_json(capsys):
    code, lines, _ = run_lines(capsys, ["lemma3", "--max-s", "3"])
    assert code == 0
    records = [json.loads(line) for line in lines]
    assert [r["base"] for r in records] == ["1", "4", "16", "64"]
    assert records[2]["corrections"] == ["6", "0", "-2", "0"]


def test_jseries_output(capsys):
    code, lines, _ = run_lines(
        capsys, ["jseries", "--alpha", "1", "--gamma", "0", "--order", "3"]
    )
    assert code == 0
    record = json.loads(lines[0])
    assert record["coefficients"] == ["1", "3", "5", "7"]
    assert record["order"] == 3
    assert record["variable"] == "t"


def test_jseries_rejects_negative_order(capsys):
    code, _, err = run_lines(
        capsys, ["jseries", "--alpha", "1", "--gamma", "0", "--order", "-2"]
    )
    assert code == 2
    assert "order" in err


# --- one serializer ------------------------------------------------------------------------


def csv_cell(key, value):
    """The CSV form of a JSON value: true/false, lists joined (alpha and
    gamma with commas, the rest with semicolons), anything else as str."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        return ("," if key in ("alpha", "gamma") else ";").join(str(v) for v in value)
    return str(value)


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--s", "1", "--alpha", "1,2", "--gamma", "0,1/2"],
        ["verify", "--s", "2", "--alpha", "1,3,1", "--gamma=-1/2,0,3", "--poly-gamma", "1"],
        ["sweep", "--max-s", "1", "--max-d", "2", "--gamma-set=0,-1/3", "--cap", "40"],
        ["lemma3", "--max-s", "4"],
        ["jseries", "--alpha", "3", "--gamma=-1/2", "--order", "4"],
    ],
)
def test_csv_rows_are_the_json_records(capsys, argv):
    code, json_lines, _ = run_lines(capsys, argv + ["--format", "json"])
    assert code == 0
    code, csv_lines, _ = run_lines(capsys, argv + ["--format", "csv"])
    assert code == 0
    records = [json.loads(line) for line in json_lines]
    header, *rows = csv.reader(io.StringIO("\n".join(csv_lines)))
    assert len(rows) == len(records) >= 1
    for record, row in zip(records, rows):
        assert header == list(record)
        assert len(row) == len(header)
        for key, cell in zip(header, row):
            if key.startswith("time_"):  # wall clock: differs between the runs
                assert cell.isdigit()
            else:
                assert cell == csv_cell(key, record[key]), key


# --- golden output ----------------------------------------------------------------------------
#
# Each argv's stdout, with the time_*_us values blanked, and exit status,
# pinned by digest.  The help pages are pinned too: they are formatted from
# the flag table at a fixed width of 79 columns, whatever the Python version
# or terminal.

GOLDEN = [
    (["verify", "--s", "1", "--alpha", "1,2", "--gamma", "0,0"], 0, "40ef9ab56d67486d116a2c7a4cb1473e2dba3edf011608a719677eb96f70de48"),
    (["verify", "--s", "1", "--alpha", "1,2", "--gamma", "0,0", "--format", "csv"], 0, "42d86853ec4e08c4bd970521d72636d52217e7e31474ce0efdb8668d42d43ba7"),
    (["verify", "--s", "2", "--alpha", "5", "--gamma=-7/3", "--poly-gamma", "0", "--format", "csv"], 0, "746487e7aefeba1b8e36880b33229b7944d9926e46e988617b96dcda34795ad6"),
    (["verify", "--s", "2", "--alpha", "5", "--gamma=-7/3", "--poly-gamma", "0", "--format", "json"], 0, "5737b3bd53243bbc1de85182378286e1ed96a40780c118c2d1285bee555c0c7c"),
    (["sweep", "--max-s", "2", "--max-d", "1", "--gamma-set", "0,1,1/2", "--cap", "50", "--jobs", "2", "--format", "csv"], 0, "d2d2a664f2613281368f6a0fc5789d8e35e399556c28a848eafb5d9e42ddd5ca"),
    (["sweep", "--max-s", "2", "--max-d", "1", "--gamma-set", "0,1,1/2", "--cap", "50", "--jobs", "2", "--format", "json"], 0, "f84a687c2ae9178e4569643e5adb99a275bf492b943ec7fc3c5b43ddc7d3d5cf"),
    (["sweep", "--max-s", "0", "--max-d", "0", "--gamma-set=-1/2", "--jobs", "1", "--format", "json"], 0, "68ebe42a3b722ec18bd96b3e9c3177f20591adcdd4216e731fa4dd98b9dc7ed1"),
    (["sweep", "--max-s", "0", "--max-d", "0", "--gamma-set=-1/2", "--jobs", "1", "--format", "csv"], 0, "9897a6098f7529773842827935e10afc75c81dbf127976be0c4b58c7bc43763a"),
    (["lemma2", "--alpha", "4", "--format", "json"], 0, "d44d96f95ff855ddd299387f060d658b30d11e1b2c517403b1e225733c8b70e7"),
    (["lemma2", "--alpha", "4", "--format", "csv"], 0, "1872a921873fc587426d845280e099a418780c5ea2f8eff02cffcb605d506f1f"),
    (["lemma3", "--max-s", "6", "--format", "csv"], 0, "840bebee06e70c2b9d4e4fb7a5a41dcd0f52d7bb5d70c88fbefc60bd446ecc7f"),
    (["lemma3", "--max-s", "6", "--format", "json"], 0, "b1954a3fe9a20ba63647f9c7bef81aafb0487d555ce15ae281819b0c6bdb87fe"),
    (["jseries", "--alpha", "3", "--gamma", "1/2", "--order", "5", "--format", "json"], 0, "e76ac84bf4ee5a0fe33792988fe3a4e333bc3be56f33cd8f57ed9001578cc681"),
    (["jseries", "--alpha", "3", "--gamma", "1/2", "--order", "5", "--format", "csv"], 0, "75ca0f400d7e8fac67e9134c1404abf0b6f0f61b7cf1c2a036ad4d68e3a17295"),
    (["sweep", "--max-s", "1", "--max-d", "1", "--gamma-set", "0,1", "--jobs", "1", "--format", "csv"], 0, "f95e67c7bea57a6602d4cbc8ab387bc1e6dad8bcc7eada74e2e3833136f732d5"),
    (["verify", "--s", "2", "--alpha", "1,3,1", "--gamma=-1/2,0,3", "--poly-gamma", "1"], 0, "f2040d0ccbe5da9c1bdc4372e013960525605cd18dba82a683e6e2cf1b915096"),
    (["verify", "--s", "2", "--alpha", "1,3,1", "--gamma=-1/2,0,3", "--poly-gamma", "1", "--format", "csv"], 0, "3f5f1390dd8bb8e82a62194818f31606e4f0b393429014889035636aa46d9668"),
    (["lemma2", "--alpha", "0"], 0, "22f99d7842f820fe242938038328bae34957aea54b14280f770efd11bf1a3adb"),
    (["lemma2", "--alpha", "0", "--format", "csv"], 0, "609dc0a20e881f0d6f07e7bd5a36f8fa8cc8f1d6ad65b06e60e27e09a2e7298f"),
    (["lemma2", "--alpha", "1"], 0, "85e985158f2c18f247a534ed121a9435912df9f0992e4468589e30106eb7eaa7"),
    (["lemma2", "--alpha", "1", "--format", "csv"], 0, "cef2733d8f0b4b4984365b99002b56e67dbb8fa55c5c9e36ee2992767bd01d3f"),
    (["lemma2", "--alpha", "7"], 0, "e56f7d40eb40acaa6b241603a35e31bd867e5c7a2f2f9290f262281478e56410"),
    (["lemma2", "--alpha", "7", "--format", "csv"], 0, "2b00c8b66393135af87363bb6048349a086397c590cf6a4feb948b42038be011"),
    (["lemma3", "--max-s", "0"], 0, "b137e91f08ddf4d76c3880bfcf63121b6f1b939d35d605908be1cfb33a777eea"),
    (["jseries", "--alpha", "2", "--gamma=-1/3", "--order", "0"], 0, "a5abf7f2eb9f38af74d35d1a80974a202aca77d78a843e0e6908b7d456cf1664"),
    (["sweep", "--max-s", "1", "--max-d", "2", "--gamma-set", "0,1/2", "--cap", "30", "--jobs", "2"], 0, "38bc3bff1a4c9c8262b807f0e7edff14d0ef29353af840ede892afc1f79c9774"),
    (["--help"], 0, "19ed6148d53a856cf28408862d38c614d88012d6411730474508154407584aa5"),
    (["sweep", "--help"], 0, "5bcb682c9d0b6037135ae49bbd8e419579f85e89687e8245eec80b41f4b813be"),
]

TIMING_KEY = re.compile(r"time_\w+_us")


def blank_timings(text):
    """``text`` with every time_*_us value emptied: JSON values by regex,
    CSV cells by the columns whose header is time_*_us."""
    if text.startswith("{"):
        return re.sub(r'("time_\w+_us":)\d+', r"\1", text)
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        return text
    timed = [i for i, key in enumerate(rows[0]) if TIMING_KEY.fullmatch(key)]

    def written(table):
        out = io.StringIO()
        csv.writer(out, lineterminator="\n").writerows(table)
        return out.getvalue()

    assert written(rows) == text  # so the rewrite keeps every other byte
    return written(
        [rows[0]] + [["" if i in timed else c for i, c in enumerate(row)] for row in rows[1:]]
    )


@pytest.mark.parametrize("argv, code, digest", GOLDEN)
def test_output_is_pinned(capsys, argv, code, digest):
    status = main(argv)
    out = blank_timings(capsys.readouterr().out)
    assert (status, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)


# --- the `coeffident` command -------------------------------------------------------------
#
# What an installed `coeffident` script runs is the `[project.scripts]`
# declaration, `entry()` and the process exit status.  They are checked from
# the source tree; the script itself is run only where it is installed.

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
VALID_VERIFY = ["verify", "--s", "1", "--alpha", "1,2", "--gamma", "0,0"]
BAD_VECTOR = ["verify", "--s", "1", "--alpha", "1,x", "--gamma", "0,0"]


def assert_command_contract(command, **run_kwargs):
    ok = subprocess.run(command + VALID_VERIFY, capture_output=True, text=True, **run_kwargs)
    assert ok.returncode == 0, ok.stderr
    lines = ok.stdout.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["all_equal"] is True

    bad = subprocess.run(command + BAD_VECTOR, capture_output=True, text=True, **run_kwargs)
    assert bad.returncode == 2
    assert bad.stdout == ""
    assert bad.stderr.startswith("error:")


def source_env():
    """The environment of a child that imports the source this suite imports."""
    env = dict(os.environ)
    source_root = str(Path(coeffident.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [source_root, env.get("PYTHONPATH")]))
    return env


def test_entry_point_installed(tmp_path):
    if tomllib is not None:  # Python 3.10 has no tomllib
        scripts = tomllib.loads(PYPROJECT.read_text())["project"]["scripts"]
        assert scripts == {"coeffident": "coeffident.cli:entry"}
        entry_point = EntryPoint(
            name="coeffident", value=scripts["coeffident"], group="console_scripts"
        )
        assert entry_point.load() is coeffident.cli.entry

    # run the same source this suite imports, from outside the checkout
    assert_command_contract(
        [sys.executable, "-m", "coeffident"], cwd=tmp_path, env=source_env()
    )


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_closed_pipe_exits_141_quietly(tmp_path, jobs):
    # 2082 records, about 600 kB: far more than a pipe buffer holds, so
    # the sweep is still writing when the reader goes away
    argv = ["sweep", "--max-s", "3", "--max-d", "2", "--gamma-set", "0,1,2", "--jobs", jobs]
    proc = subprocess.Popen(
        [sys.executable, "-m", "coeffident", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        cwd=tmp_path,
        env=source_env(),
    )
    try:
        assert json.loads(proc.stdout.readline())["all_equal"] is True
        proc.stdout.close()
        status = proc.wait(timeout=60)
        assert (status, proc.stderr.read()) == (141, b"")
    finally:
        proc.kill()
        proc.stderr.close()


@pytest.mark.skipif(shutil.which("coeffident") is None, reason="coeffident is not installed")
def test_installed_script_on_path(tmp_path):
    assert_command_contract([shutil.which("coeffident")], cwd=tmp_path)
