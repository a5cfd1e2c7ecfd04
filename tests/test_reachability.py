"""Every function in the package is reached by the command line or by a
reference witness.

A fresh interpreter imports ``coeffident`` under ``sys.settrace``, runs
every subcommand once with small inputs in JSON and in CSV (``verify``
with and without ``--poly-gamma``, ``sweep --jobs 1``, ``lemma2``,
``lemma3``, ``jseries``), the help page of the program and of each
subcommand, one grammar error, and the criterion-4 witness calls
(``w_residue_closed`` against ``nested_exp_core``, a derivative-table
row evaluated as a ``Poly``, ``rising_factorial`` on a ``Poly``).  It
lists each function defined in the package's source files that was
never entered.  Import-time calls count, and the caches start cold, so
a function reached only through a cache miss is seen.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src"

# Kept although no subcommand reaches them: the reference witnesses, and
# dunders that only a person at the prompt or a hashed container calls.
ALLOWED_PREFIXES = ("NestedSeries.",)
ALLOWED_NAMES = {
    "nested_exp_core",
    "w_residue_closed",
    "rising_factorial",
    # public single-route entry points; ``verify`` calls their counted
    # or integer forms (``_lhs_direct_counted``, ``_correction_numerators``)
    "lhs_direct",
    "inner_sum",
    "correction_polynomial",
    # read by the benchmark's replay of the product route and by __str__
    "Poly.degree",
    # the generalized binomial of the public API; the benchmark's replay of
    # the direct and product routes reads it, the program computes its
    # binomials in ints
    "binomial",
    # keeps _make and _replace from building an instance that skipped
    # validation; the program itself calls neither
    "IdentityInstance._make",
}
ALLOWED_DUNDERS = {"__repr__", "__str__", "__hash__"}

SCRIPT = r"""
import contextlib, io, json, sys, types
from pathlib import Path

package = Path(sys.argv[1]) / "coeffident"
entered = set()

def tracer(frame, event, arg):
    code = frame.f_code
    if code.co_filename.startswith(str(package)):
        entered.add((code.co_filename, code.co_firstlineno, code.co_name))

sys.settrace(tracer)
from fractions import Fraction
from coeffident import cli
from coeffident.algebra import Poly, rising_factorial
from coeffident.residues import derivative_table, w_residue_closed, w_residue_series
from coeffident.series import nested_exp_core

argvs = [
    ["verify", "--s", "2", "--alpha", "2,3", "--gamma", "1/2,-2/3"],
    ["verify", "--s", "2", "--alpha", "2,3", "--gamma", "1/2,-2/3", "--poly-gamma", "1"],
    ["sweep", "--max-s", "1", "--max-d", "1", "--gamma-set", "0,1/2", "--jobs", "1"],
    ["lemma2", "--alpha", "4"],
    ["lemma3", "--max-s", "2"],
    ["jseries", "--alpha", "2", "--gamma", "1/3", "--order", "3"],
]
for argv in argvs:
    for fmt in ("json", "csv"):
        with contextlib.redirect_stdout(io.StringIO()) as out:
            status = cli.main(argv + ["--format", fmt])
        if status != 0 or not out.getvalue():
            sys.exit(f"{argv} --format {fmt}: status {status}")
for argv in [["--help"], *([sub, "--help"] for sub in cli._COMMANDS)]:
    with contextlib.redirect_stdout(io.StringIO()) as out:
        status = cli.main(argv)
    if status != 0 or not out.getvalue().startswith("usage: coeffident"):
        sys.exit(f"{argv}: status {status}")
with contextlib.redirect_stderr(io.StringIO()) as err:
    status = cli.main(["verify", "--s", "1", "--bogus", "1"])
if status != 2 or not err.getvalue().startswith("usage: coeffident verify"):
    sys.exit(f"grammar error: status {status}")
sys.argv[1:] = ["lemma3", "--max-s", "0"]
with contextlib.redirect_stdout(io.StringIO()):
    try:
        cli.entry()
    except SystemExit as exc:
        if exc.code != 0:
            raise

for alpha in range(4):
    g = Fraction(1, 2)
    blind = nested_exp_core(g, 2 * alpha, alpha).coefficient(alpha)
    if not w_residue_series(alpha, g, 2 * alpha) == w_residue_closed(alpha, g, 2 * alpha) == blind:
        sys.exit(f"witnesses disagree at alpha = {alpha}")
table = derivative_table(3)
if table.entries[1](Fraction(1, 2)) / 6 != table.weight(1, Fraction(1, 2)):
    sys.exit("derivative-table row evaluated as a Poly")
x = Poly.indeterminate()
if rising_factorial(x + 1, 3) != (x + 1) * (x + 2) * (x + 3):
    sys.exit("rising_factorial on a Poly")
sys.settrace(None)

def functions(code, qualname):
    for const in code.co_consts:
        if isinstance(const, types.CodeType) and not const.co_name.startswith("<"):
            name = f"{qualname}.{const.co_name}" if qualname else const.co_name
            yield const, name
            yield from functions(const, name)

defined, never = 0, []
for path in sorted(package.glob("*.py")):
    module = compile(path.read_text(), str(path), "exec")
    for code, name in functions(module, ""):
        defined += 1
        if (str(path), code.co_firstlineno, code.co_name) not in entered:
            never.append(f"{path.stem}:{name}")
print(json.dumps({"defined": defined, "never": never}))
"""


def allowed(entry):
    qualname = entry.split(":", 1)[1]
    last = qualname.rsplit(".", 1)[-1]
    return (
        qualname in ALLOWED_NAMES
        or qualname.startswith(ALLOWED_PREFIXES)
        or last in ALLOWED_DUNDERS
    )


def test_every_function_is_reached():
    env = dict(os.environ, PYTHONPATH=str(SOURCE))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(SOURCE)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert result["defined"] > 100  # the walk found the package's functions
    unreached = [entry for entry in result["never"] if not allowed(entry)]
    assert unreached == [], "entered by nothing: " + ", ".join(unreached)
