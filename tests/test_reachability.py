"""Every function in the package is reached by the command line or by a
reference witness.

A fresh interpreter imports ``coeffident`` under ``sys.settrace`` (and
``threading.settrace``, for the threads of the ``--jobs`` pool), runs
every subcommand once with small inputs in JSON and in CSV (``verify``
with and without ``--poly-gamma``, ``sweep`` with one job and with two,
``lemma2``, ``lemma3``, ``jseries``), the help page of the program and
of each subcommand, one grammar error, and the reference witnesses
(``w_residue_closed`` against ``w_residue_series``, derivative-table row
0 against a ``Poly`` product, a table weight against its row evaluated
in ``Fraction`` arithmetic).  The witnesses import
nothing from the tests.  It lists each function defined in the
package's source files that was never entered.  Import-time calls
count, and the caches start cold, so a function reached only through a
cache miss is seen.

Every allowed name must name a package function that the run did not
enter; an allowance that no longer names one, or whose function is now
entered, fails the test, so the list cannot go stale.  The names kept
only for the benchmark's replay must still be used by it: a second test
reads ``benchmarks/spans.py`` (without running it) and fails when the
replay stops using one, so that name can be deleted.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src"
REPLAY = Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py"

# Kept only because the benchmark's replay uses them: it sums the direct
# route per j with ``inner_sum`` and ``binomial``, reads the product
# route's correction polynomial with ``Poly.degree`` and
# ``Poly.coefficient``, and extracts the residue route's coefficient with
# ``residue``.
BENCHMARK_ONLY = {"binomial", "inner_sum", "Poly.degree", "Poly.coefficient", "residue"}
# Kept although neither a subcommand nor a witness enters them.
ALLOWED_NAMES = BENCHMARK_ONLY | {
    # the public routes and right side; ``verify`` calls their integer
    # pair forms, ``_lhs_direct_counted``, ``_lhs_residue_pair``,
    # ``_lhs_product_pair`` and ``_rhs_closed_pair``
    "lhs_direct",
    "lhs_residue",
    "lhs_product",
    "rhs_closed",
    # the public binomial top; the routes read its integer pair, computed
    # when the instance is constructed
    "IdentityInstance.top",
    # the public op meter; ``verify`` reads its counter directly, and the
    # benchmark's harness reads it through this function
    "coefficient_ops",
    # entered only when the two sides of ``verify --poly-gamma`` disagree,
    # to build the left side's own polynomial; test_poly_gamma_uses_every_node
    # and test_verify_poly_gamma_mismatch_exits_1 enter it
    "_interpolate",
    # keeps _make and _replace from building an instance that skipped
    # validation; the program itself calls neither
    "IdentityInstance._make",
}
# dunders that only a person at the prompt calls
ALLOWED_DUNDERS = {"__repr__"}

SCRIPT = r"""
import contextlib, io, json, sys, threading, types
from pathlib import Path

package = Path(sys.argv[1]) / "coeffident"
entered = set()

def tracer(frame, event, arg):
    code = frame.f_code
    if code.co_filename.startswith(str(package)):
        entered.add((code.co_filename, code.co_firstlineno, code.co_name))

# threads too: the pool of ``sweep --jobs 2`` pickles its instances in one
threading.settrace(tracer)
sys.settrace(tracer)
from fractions import Fraction
from coeffident import cli
from coeffident.algebra import Poly
from coeffident.residues import derivative_table, w_residue_closed, w_residue_series

argvs = [
    ["verify", "--s", "2", "--alpha", "2,3", "--gamma", "1/2,-2/3"],
    ["verify", "--s", "2", "--alpha", "2,3", "--gamma", "1/2,-2/3", "--poly-gamma", "1"],
    ["sweep", "--max-s", "1", "--max-d", "1", "--gamma-set", "0,1/2", "--jobs", "1"],
    ["sweep", "--max-s", "0", "--max-d", "0", "--gamma-set", "0", "--jobs", "2"],
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
    direct, closed = w_residue_series(alpha, g, 2 * alpha), w_residue_closed(alpha, g, 2 * alpha)
    if (direct.order, direct.nums, direct.den) != (closed.order, closed.nums, closed.den):
        sys.exit(f"witnesses disagree at alpha = {alpha}")
table = derivative_table(3)
rising = Poly([1, 1]) * Poly([2, 1]) * Poly([3, 1])
if Poly(table.entries[0]).coeffs != rising.coeffs:
    sys.exit("derivative-table row 0 is not the rising factorial, as a Poly product")
half = Fraction(1, 2)
if sum(c * half**i for i, c in enumerate(table.entries[1])) / 6 != table.weight(1, half):
    sys.exit("derivative-table weight is not its row evaluated")
threading.settrace(None)
sys.settrace(None)

def functions(code, qualname):
    for const in code.co_consts:
        if isinstance(const, types.CodeType) and not const.co_name.startswith("<"):
            name = f"{qualname}.{const.co_name}" if qualname else const.co_name
            yield const, name
            yield from functions(const, name)

defined, never = [], []
for path in sorted(package.glob("*.py")):
    module = compile(path.read_text(), str(path), "exec")
    for code, name in functions(module, ""):
        defined.append(f"{path.stem}:{name}")
        if (str(path), code.co_firstlineno, code.co_name) not in entered:
            never.append(f"{path.stem}:{name}")
print(json.dumps({"defined": defined, "never": never}))
"""


def qualnames(entries):
    return {entry.split(":", 1)[1] for entry in entries}


def allowed(entry):
    qualname = entry.split(":", 1)[1]
    return qualname in ALLOWED_NAMES or qualname.rsplit(".", 1)[-1] in ALLOWED_DUNDERS


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
    # the walk found every function and class body the package's sources define
    trees = [ast.parse(path.read_text()) for path in (SOURCE / "coeffident").glob("*.py")]
    defs = (ast.FunctionDef, ast.ClassDef)
    defined = sum(isinstance(node, defs) for tree in trees for node in ast.walk(tree))
    assert len(result["defined"]) == defined > 0
    unreached = [entry for entry in result["never"] if not allowed(entry)]
    assert unreached == [], "entered by nothing: " + ", ".join(unreached)
    gone = sorted(ALLOWED_NAMES - qualnames(result["defined"]))
    assert gone == [], "allowed, but no package function: " + ", ".join(gone)
    entered = sorted(ALLOWED_NAMES - qualnames(result["never"]))
    assert entered == [], "allowed, but entered: " + ", ".join(entered)
    dunders = {name.rsplit(".", 1)[-1] for name in qualnames(result["never"])}
    stale = sorted(ALLOWED_DUNDERS - dunders)
    assert stale == [], "allowed dunders that every run enters: " + ", ".join(stale)


def test_benchmark_only_names_are_used_by_the_replay():
    tree = ast.parse(REPLAY.read_text())
    imported = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("coeffident")
        for alias in node.names
    }
    called = {
        node.func.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }
    attributes = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}

    def used(name):
        # a function is imported from the package and called; a method or
        # property is read from an imported class
        owner, _, member = name.rpartition(".")
        if owner:
            return owner in imported and member in attributes
        return name in imported and name in called

    unused = sorted(name for name in BENCHMARK_ONLY if not used(name))
    assert unused == [], "kept for the replay, which no longer uses: " + ", ".join(unused)
