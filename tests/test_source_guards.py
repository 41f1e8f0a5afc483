import ast
from pathlib import Path

import eqfactor

ENUMERATORS = {"combinations", "permutations", "product", "combinations_with_replacement"}


def itertools_enumerators(tree):
    """Names of itertools' enumerators that a module imports or reads off
    the itertools module."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "itertools":
            found |= {alias.name for alias in node.names} & ENUMERATORS
        elif (isinstance(node, ast.Attribute) and node.attr in ENUMERATORS
              and isinstance(node.value, ast.Name) and node.value.id == "itertools"):
            found.add(node.attr)
    return found


def test_only_the_oracles_enumerate_subsets():
    """Subset and partition enumeration lives in lab.py's oracles and in the
    tests, not as a second production path."""
    modules = sorted(Path(eqfactor.__file__).parent.glob("*.py"))
    assert len(modules) >= 10
    offenders = {}
    for path in modules:
        found = itertools_enumerators(ast.parse(path.read_text(), str(path)))
        if found and path.name != "lab.py":
            offenders[path.name] = sorted(found)
    assert offenders == {}
    assert itertools_enumerators(ast.parse("from itertools import accumulate, combinations")) == {"combinations"}
    assert itertools_enumerators(ast.parse("import itertools\nitertools.product(a)")) == {"product"}
