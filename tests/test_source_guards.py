import ast
import subprocess
import sys
from pathlib import Path

import pytest

import eqfactor
from eqfactor.graphio import dump_report, factorization_report, serialize_graph
from eqfactor.multigraph import Factorization, complete_graph

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


# the line count of src/eqfactor/*.py; a change that grows the package raises
# it and says why in CHANGES.md
SOURCE_LINES = 2962


def test_source_stays_within_its_line_count():
    modules = Path(eqfactor.__file__).parent.glob("*.py")
    assert sum(path.read_text().count("\n") for path in modules) <= SOURCE_LINES


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
# recorded on Python 3.11 when the package root and the subcommands began to
# import their modules on first use.
CLI_IMPORTS = {
    "argparse", "collections", "copyreg", "enum", "eqfactor", "functools", "genericpath", "gettext", "itertools",
    "json", "keyword", "operator", "os", "posixpath", "re", "reprlib", "stat", "types", "warnings",
}
# what `import multiprocessing` adds to them
MULTIPROCESSING_IMPORTS = {
    "array", "errno", "math", "multiprocessing", "pickle", "select", "selectors", "signal", "socket", "struct",
    "threading",
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
    no module beyond the recorded set, and the probe sees one that is added."""
    assert cli_imports() - CLI_IMPORTS == set()
    assert cli_imports("import heapq") - CLI_IMPORTS == {"heapq"}
    assert cli_imports("import multiprocessing") - CLI_IMPORTS == MULTIPROCESSING_IMPORTS


# the eqfactor modules that `import eqfactor.cli` loads, and those that one
# run of a subcommand adds to them
CLI_MODULES = {"cli", "errors", "graphio", "multigraph"}
FACTOR_MODULES = {"pipelines", "connectivity", "coloring", "orientation", "maxflow", "lab"}
EVEN_MODULES = {"parity", "matching", "lab", "orientation", "maxflow"}
COMMAND_MODULES = [
    (["analyze", "K5"], {"connectivity", "maxflow"}),
    (["orient", "K5"], {"orientation", "maxflow"}),
    (["orient", "K5", "--k", "2"], {"orientation", "maxflow"}),
    (["factor", "K5", "--k", "2"], FACTOR_MODULES),
    (["factor", "K5", "--k", "3", "--mode", "parity"], FACTOR_MODULES),
    (["factor", "K5", "--k", "2", "--mode", "regular"], FACTOR_MODULES),
    (["factor", "K5", "--k", "2", "--mode", "regular", "--r-list", "2,2"], FACTOR_MODULES),
    (["factor", "K5", "--k", "2", "--mode", "anstee"], FACTOR_MODULES),
    (["parity-factor", "K5", "--f", "0,1", "--epsilon", "0.5"], {"parity", "matching", "lab"}),
    (["even-factor", "K5", "--k", "2"], EVEN_MODULES),
    (["even-factor", "K5", "--epsilon", "0.5"], EVEN_MODULES),
    (["even-factor", "K5", "--epsilons", "0.5,0.5"], EVEN_MODULES),
    (["verify", "K5", "REPORT", "--claims", "size±1"], {"lab"}),
    (["gen", "--family", "complete", "--n", "4"], {"lab"}),
    (["oracle", "K5", "--question", "equitable", "--k", "2"], {"lab"}),
    (["oracle", "K5", "--question", "orientation", "--k", "2"], {"lab", "orientation", "maxflow"}),
    (["oracle", "K5", "--question", "parity_gf", "--f", "0,1", "--epsilon", "0.5"], {"lab", "parity", "matching"}),
]


def command_modules(argv):
    """(eqfactor modules after `import eqfactor.cli`, exit code of main(argv),
    eqfactor modules after it, whether multiprocessing got loaded, whether
    dataclasses did), in a fresh interpreter started without site packages."""
    src = str(Path(eqfactor.__file__).parent.parent)
    probe = (
        f"import contextlib, io, sys; sys.path.insert(0, {src!r})\n"
        "import eqfactor.cli\n"
        "def ours(): return sorted(m[9:] for m in sys.modules if m.startswith('eqfactor.'))\n"
        "loaded = ours()\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = eqfactor.cli.main({argv!r})\n"
        "print(repr((loaded, code, ours(), 'multiprocessing' in sys.modules, 'dataclasses' in sys.modules)))"
    )
    out = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True, check=True).stdout
    return ast.literal_eval(out)


@pytest.mark.parametrize("argv, modules", COMMAND_MODULES, ids=[" ".join(a) for a, _ in COMMAND_MODULES])
def test_each_subcommand_loads_only_its_modules(tmp_path, argv, modules):
    """A subcommand imports the modules it runs when it is dispatched; a
    one-shot call pays for nothing else, and none loads multiprocessing or
    dataclasses (which loads inspect, ast, dis and tokenize and costs about
    as much as a small solve)."""
    k5 = tmp_path / "k5.txt"
    k5.write_text(serialize_graph(complete_graph(5)))
    fz = Factorization(complete_graph(5), 2, [1, 2] * 5)
    report = tmp_path / "report.json"
    report.write_text(dump_report(factorization_report(fz, [])))
    argv = [{"K5": str(k5), "REPORT": str(report)}.get(arg, arg) for arg in argv]
    loaded, code, after, multiprocessing, dataclasses = command_modules(argv)
    assert set(loaded) == CLI_MODULES
    assert (code, set(after), multiprocessing, dataclasses) == (0, CLI_MODULES | modules, False, False)
