import coeffident
from coeffident import algebra, identity, residues, series


def test_package_exports_are_the_modules_exports():
    modules = (algebra, series, residues, identity)
    for module in (coeffident,) + modules:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert missing == [], module.__name__
    assert len(set(coeffident.__all__)) == len(coeffident.__all__)
    assert set(coeffident.__all__) == set().union(*(m.__all__ for m in modules))
