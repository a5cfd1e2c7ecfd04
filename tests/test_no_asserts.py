"""Checks survive ``python -O``.

``python -O`` strips ``assert`` statements, and with them every check they
carried.  So the package has none, and its checks are run once under
``-O``: a broken correction polynomial still raises, a route that
disagrees with the right side still exits 1, and an instance outside the
hypothesis is still a usage error.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "coeffident"

BROKEN_CORRECTION = r"""
import sys
from coeffident import identity
from coeffident.identity import CorrectionInvariantError, IdentityInstance, lhs_product

if sys.flags.optimize < 1:
    sys.exit("not running under python -O")
inst = IdentityInstance(s=1, alpha=(1, 2), gamma=(0, 0))
for lam, broken in [
    (([4, 0, 2], 2, (1, 1)), "constant term"),  # 2 + u**2/2
    (([3, 0, 0, 0, 3], 3, (1, 1)), "degree"),  # 1 + u**4 at s = 1
    (([2, 1], 2, (1, 1)), "odd powers"),  # 1 + u/2
]:
    identity._correction_numerators = lambda inst, lam=lam: lam
    try:
        lhs_product(inst)
    except CorrectionInvariantError as exc:
        if broken not in str(exc):
            sys.exit(f"{lam}: {exc}")
    else:
        sys.exit(f"{lam}: no CorrectionInvariantError under python -O")
"""


def test_package_has_no_assert_statements():
    files = sorted(SOURCE.glob("*.py"))
    assert files, f"no sources found under {SOURCE}"
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements vanish under python -O: {found}"


def run_optimized(*args):
    env = dict(os.environ, PYTHONPATH=str(SOURCE.parent))
    return subprocess.run(
        [sys.executable, "-O", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )


def test_broken_correction_polynomial_raises_under_O():
    done = run_optimized("-c", BROKEN_CORRECTION)
    assert done.returncode == 0, done.stderr


ROUTE_MISMATCH = r"""
import contextlib, io, sys
from coeffident import identity
from coeffident.cli import main

if sys.flags.optimize < 1:
    sys.exit("not running under python -O")


def plus_one(real, counted):
    # the side's numerator plus one; the direct route's pair comes with
    # its count of compositions
    def route(inst):
        value = real(inst)
        if counted:
            (num, den), terms = value
            return (num + 1, den), terms
        num, den = value
        return num + 1, den

    return route


argv = ["verify", "--s", "1", "--alpha", "1,2", "--gamma", "0,1/2"]
for name in ("_lhs_direct_counted", "_lhs_residue_pair", "_lhs_product_pair", "_rhs_closed_pair"):
    real = getattr(identity, name)
    setattr(identity, name, plus_one(real, name == "_lhs_direct_counted"))
    with contextlib.redirect_stdout(io.StringIO()) as out:
        status = main(argv)
    setattr(identity, name, real)
    if status != 1 or '"all_equal":false' not in out.getvalue():
        sys.exit(f"{name} off by one: status {status} under python -O")
"""


def test_route_mismatch_exits_1_under_O():
    # the verdict is integer code, cross-multiplying the sides' pairs; it
    # must not rest on an assert
    done = run_optimized("-c", ROUTE_MISMATCH)
    assert done.returncode == 0, done.stderr


def test_instance_outside_the_hypothesis_exits_2_under_O():
    # sum(alpha) = 2, but s = 1 needs 2s + 1 = 3
    done = run_optimized(
        "-m", "coeffident", "verify", "--s", "1", "--alpha", "1,1", "--gamma", "0,0"
    )
    assert done.returncode == 2, done.stderr
    assert done.stdout == ""
    assert "2s+1 = 3" in done.stderr
