"""The command line loads only what the command it runs uses.

Every ``coeffident`` call is its own process, so a module imported at
start-up is paid for by every call.  ``verify`` and ``sweep`` format their
JSON records straight from the report, so only the table commands'
(``lemma2``, ``lemma3``, ``jseries``) JSON output loads ``json``.
``multiprocessing`` is needed only by ``sweep --jobs N`` with N > 1,
``csv`` only by ``--format csv``, and ``dataclasses`` (which pulls in
``inspect``) by nothing.  The command line is read from the flag table
without ``argparse`` (or the ``gettext`` it imports for its messages).
"""

import json
import subprocess
import sys
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src"

NOT_AT_START = ("json", "multiprocessing", "dataclasses", "inspect", "csv", "argparse", "gettext")

# Each step snapshots sys.modules after it; the script imports json for its
# own output only after the last snapshot.
SCRIPT = r"""
import contextlib, io, sys

sys.path.insert(0, sys.argv[1])
loaded = {}
from coeffident import cli
loaded["import"] = sorted(sys.modules)

verify = ["verify", "--s", "1", "--alpha", "1,2", "--gamma", "0,1/2"]
cli.parse_config(verify)
loaded["parsed"] = sorted(sys.modules)
runs = {
    "verify": verify,
    "verify_poly": verify + ["--poly-gamma", "1"],
    "sweep": ["sweep", "--max-s", "1", "--max-d", "1", "--gamma-set", "0,1", "--jobs", "1"],
    "csv": verify + ["--format", "csv"],
    "lemma2": ["lemma2", "--alpha", "2"],
}
statuses, outputs = {}, {}
for step, argv in runs.items():
    with contextlib.redirect_stdout(io.StringIO()) as out:
        statuses[step] = cli.main(argv)
    outputs[step] = out.getvalue()
    loaded[step] = sorted(sys.modules)

import json
print(json.dumps({"loaded": loaded, "statuses": statuses, "outputs": outputs}))
"""


def test_cli_import_leaves_unused_modules_unloaded():
    done = subprocess.run(
        [sys.executable, "-I", "-c", SCRIPT, str(SOURCE)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    loaded, outputs = result["loaded"], result["outputs"]
    assert "coeffident.cli" in loaded["import"]  # the package was imported
    assert set(result["statuses"].values()) == {0}
    # import, parse_config and the JSON verify and sweep calls load none of them
    for step in ("import", "parsed", "verify", "verify_poly", "sweep"):
        assert [m for m in NOT_AT_START if m in loaded[step]] == [], step
    assert outputs["verify_poly"].startswith('{"s":1,')
    assert outputs["verify_poly"].endswith('"poly_equal":true}\n')
    assert len(outputs["sweep"].splitlines()) > 1
    assert outputs["csv"].startswith("s,d,alpha,gamma,")
    assert "csv" in loaded["csv"] and "json" not in loaded["csv"]
    assert outputs["lemma2"].startswith('{"alpha":2,')
    assert "json" in loaded["lemma2"]
