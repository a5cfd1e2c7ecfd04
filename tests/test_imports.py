"""Importing the command line loads only what a JSON ``verify`` call uses.

Every ``coeffident`` call is its own process, so a module imported at
start-up is paid for by every call.  ``multiprocessing`` is needed only by
``sweep --jobs N`` with N > 1, ``csv`` only by ``--format csv``, and
``dataclasses`` (which pulls in ``inspect``) by nothing.  The command line
is read from the flag table without ``argparse`` (or the ``gettext`` it
imports for its messages).
"""

import json
import subprocess
import sys
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src"

NOT_AT_START = ("multiprocessing", "dataclasses", "inspect", "csv", "argparse", "gettext")

SCRIPT = r"""
import contextlib, io, json, sys

sys.path.insert(0, sys.argv[1])
from coeffident import cli

verify = ["verify", "--s", "1", "--alpha", "1,2", "--gamma", "0,1/2"]
cli.parse_config(verify)
loaded = sorted(sys.modules)
with contextlib.redirect_stdout(io.StringIO()) as out:
    status = cli.main(verify + ["--format", "csv"])
result = {"parsed": loaded, "status": status, "csv": out.getvalue()}
print(json.dumps(dict(result, after_csv=sorted(sys.modules))))
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
    assert "coeffident.cli" in result["parsed"]  # the package was imported
    assert [m for m in NOT_AT_START if m in result["parsed"]] == []
    assert result["status"] == 0
    assert result["csv"].startswith("s,d,alpha,gamma,")
    assert "csv" in result["after_csv"]
