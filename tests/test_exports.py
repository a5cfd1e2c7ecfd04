"""The package's public names, and its boundary with the tests.

The blind-reference expansion and the series type it runs on live in
``tests/oracles.py``; the package must not import them back, the names
it once exported for them must stay gone, and the reference must not
borrow the package's series arithmetic.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import coeffident
from coeffident import algebra, identity, residues, series

SOURCE = Path(__file__).resolve().parents[1] / "src" / "coeffident"
TESTS = Path(__file__).resolve().parent

REMOVED = (
    "rising_factorial",
    "NestedSeries",
    "nested_exp_core",
    "rational_power",
    "NonUnitSeries",
    "IrrationalScalarPower",
    "correction_polynomial",
    "_over_common_denominator",
    "_SCALARS",
)


def test_package_exports_are_the_modules_exports():
    modules = (algebra, series, residues, identity)
    for module in (coeffident,) + modules:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert missing == [], module.__name__
    assert len(set(coeffident.__all__)) == len(coeffident.__all__)
    assert coeffident.__all__ == [name for m in modules for name in m.__all__]
    for module in modules:
        for name in module.__all__:
            assert getattr(coeffident, name) is getattr(module, name), name


def test_package_root_names_no_export_by_hand():
    # each public name is declared once, in its module's __all__; the root
    # star-imports the modules and concatenates their lists
    path = SOURCE / "__init__.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    assert ast.get_docstring(tree)
    written = set()
    for node in ast.walk(ast.Module(body=tree.body[1:], type_ignores=[])):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            written.update(node.value.replace(",", " ").split())
        elif isinstance(node, ast.Name):
            written.add(node.id)
        elif isinstance(node, ast.alias):
            written.update({node.name, node.asname} - {None})
        elif isinstance(node, ast.Attribute):
            written.add(node.attr)
    by_hand = sorted(written & set(coeffident.__all__))
    assert by_hand == [], by_hand


def absolute_imports(path):
    """"file:line name" for each absolute import in ``path``: ``import m``
    gives m, and ``from m import a`` gives m and m.a."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        yield from (f"{path.name}:{node.lineno} {name}" for name in names)


def test_package_imports_nothing_from_the_tests():
    files = sorted(SOURCE.glob("*.py"))
    assert files, f"no sources found under {SOURCE}"
    forbidden = {"tests"} | {path.stem for path in TESTS.glob("*.py")}
    assert "oracles" in forbidden
    found = [
        found
        for path in files
        for found in absolute_imports(path)
        if found.split()[1].split(".")[0] in forbidden
    ]
    assert found == [], found


def test_reference_imports_nothing_from_the_package_series():
    # the blind expansion runs on its own series type, so that it shares no
    # arithmetic with the package's TSeries, binomial_series or residue
    borrowed = {"coeffident.series"} | {f"coeffident.{name}" for name in series.__all__}
    found = [
        found
        for found in absolute_imports(TESTS / "oracles.py")
        if found.split()[1] in borrowed or found.split()[1].startswith("coeffident.series.")
    ]
    assert found == [], found


def test_removed_names_stay_removed():
    modules = [coeffident] + [
        importlib.import_module(f"coeffident.{info.name}")
        for info in pkgutil.iter_modules(coeffident.__path__)
        if info.name != "__main__"
    ]
    assert series in modules and identity in modules
    left = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in REMOVED
        if hasattr(module, name)
    ]
    assert left == [], left
    # one series type and one polynomial type, each with only the
    # operations the program and the benchmark's replay use
    dropped = ("inverse", "pow_rational", "__pow__", "__sub__", "__add__", "__radd__", "__rmul__")
    dropped += ("__call__", "__eq__", "__hash__", "scale", "constant", "one", "indeterminate")
    extra = [
        f"{cls.__name__}.{name}"
        for cls in (series.TSeries, algebra.Poly)
        for name in dropped
        if name in vars(cls)
    ]
    assert extra == [], extra
