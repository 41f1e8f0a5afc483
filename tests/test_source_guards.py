import ast
import subprocess
import sys
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


# Top-level public modules that `import eqfactor.cli` loads into a bare
# interpreter (python -S) besides the interpreter's own start-up modules,
# recorded on Python 3.11 when the oracles' process pool became a lazy import.
CLI_IMPORTS = {
    "argparse", "ast", "bisect", "collections", "contextlib", "copy", "copyreg", "dataclasses", "dis", "enum",
    "eqfactor", "functools", "genericpath", "gettext", "importlib", "inspect", "itertools", "json", "keyword",
    "linecache", "math", "opcode", "operator", "os", "posixpath", "random", "re", "reprlib", "stat", "textwrap",
    "token", "tokenize", "traceback", "types", "warnings", "weakref",
}
# what `import multiprocessing` adds to them
MULTIPROCESSING_IMPORTS = {
    "array", "errno", "multiprocessing", "pickle", "select", "selectors", "signal", "socket", "struct", "threading",
}


def cli_imports(extra=""):
    """Top-level public modules that `import eqfactor.cli` (then ``extra``)
    loads into a fresh interpreter started without site packages."""
    src = str(Path(eqfactor.__file__).parent.parent)
    probe = (
        f"import sys; sys.path.insert(0, {src!r}); before = set(sys.modules)\n"
        f"import eqfactor.cli\n{extra}\n"
        "print(' '.join(sorted({m.split('.')[0] for m in set(sys.modules) - before if not m.startswith('_')})))"
    )
    out = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True, check=True).stdout
    return set(out.split())


def test_cli_import_loads_no_new_modules():
    """Start-up cost (the benchmark's setup_s) cannot creep: the CLI imports
    no module beyond the recorded set; heapq, which the first plan's shift
    step uses, is imported only when a plan needs a shift, and multiprocessing
    only when an oracle runs with jobs > 1."""
    assert cli_imports() - CLI_IMPORTS == set()
    assert cli_imports("import heapq") - CLI_IMPORTS == {"heapq"}
    assert cli_imports("import multiprocessing") - CLI_IMPORTS == MULTIPROCESSING_IMPORTS
