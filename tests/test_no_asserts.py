"""No ``assert`` statement in the package: ``python -O`` strips them,
and with them every check they carried."""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "coeffident"


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
