import ast
import importlib
import subprocess
import sys
import typing
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
# it and says why in CHANGES.md. 3284 -> 3262: every eps is read as the
# decimal it prints as, and the parity finder clamps its windows once
SOURCE_LINES = 3262


def test_source_stays_within_its_line_count():
    modules = Path(eqfactor.__file__).parent.glob("*.py")
    assert sum(path.read_text().count("\n") for path in modules) <= SOURCE_LINES


# definitions of src/eqfactor that no CLI command reaches, each with the
# reason it stays; anything else a command does not run is deleted
UNREACHED = {
    "three_factor_criterion": "acceptance criterion 3: the paper's k = 3 application",
    "tree_connectivity": "the exact tau export, whose value analyze reports through _tree_connectivity",
    "Factorization.factor_degrees": "bench/tracer.py wraps it by name (METHODS)",
    "__getattr__": "PEP 562: Python calls it for eqfactor.<name>",
    "__dir__": "PEP 562: Python calls it for dir(eqfactor)",
}


def unreached_definitions(modules):
    """Names of the module-level functions and classes, and the methods
    ("Class.method"), of the given (module name, source) pairs that the
    definitions of the cli module do not reach. Matching is by name: a
    reached body reaches every definition named by one of its Name or
    Attribute nodes. Module-level statements other than definitions run at
    import and are reached; a reached class reaches its bases, its body and
    its dunder methods, which Python calls."""
    by_name = {}  # simple name -> [(qualified name, node)]
    pending, roots = [], []
    for module, text in modules:
        for node in ast.parse(text).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                pending.append(node)
                continue
            by_name.setdefault(node.name, []).append((node.name, node))
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    by_name.setdefault(item.name, []).append((f"{node.name}.{item.name}", item))
            if module == "cli":
                roots.append(node)
    defined = {qualified for entries in by_name.values() for qualified, _ in entries}
    reached, seen = {node.name for node in roots}, set()
    pending += roots
    while pending:
        node = pending.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if isinstance(node, ast.ClassDef):
            pending += node.bases + node.decorator_list
            for item in node.body:
                if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    pending.append(item)
                elif item.name.startswith("__") and item.name.endswith("__"):
                    reached.add(f"{node.name}.{item.name}")
                    pending.append(item)
            continue
        for sub in ast.walk(node):
            name = sub.id if isinstance(sub, ast.Name) else sub.attr if isinstance(sub, ast.Attribute) else None
            for qualified, target in by_name.get(name, ()):
                reached.add(qualified)
                pending.append(target)
    return defined - reached


def test_every_definition_is_reached_from_the_cli_or_allowed():
    """Test-only API, and wrappers no command calls, do not stay in src/."""
    modules = sorted(Path(eqfactor.__file__).parent.glob("*.py"))
    found = unreached_definitions([(path.stem, path.read_text()) for path in modules])
    assert found == set(UNREACHED)
    cli = "from .m import A\ndef main():\n    return A().go()\n"
    m = """
X = helper()
def helper():
    return 1
class Base:
    pass
class A(Base):
    def __init__(self):
        self.x = 0
    def go(self):
        return 1
    def spare(self):
        return 2
class B:
    def __repr__(self):
        return ''
def unused():
    return B()
"""
    assert unreached_definitions([("cli", cli), ("m", m)]) == {"A.spare", "B", "B.__repr__", "unused"}


def annotated(module):
    """(qualified name, object) for every function and class that a module
    defines, and for the methods and property getters of its classes."""
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__ or not callable(obj):
            continue
        yield name, obj
        for attr, item in vars(obj).items() if isinstance(obj, type) else ():
            item = item.fget if isinstance(item, property) else getattr(item, "__func__", item)
            if callable(item) and getattr(item, "__module__", None) == module.__name__:
                yield f"{name}.{attr}", item


def test_every_annotation_resolves():
    """typing.get_type_hints succeeds on every function, class, method and
    property of src/: an annotation that names a class its module never
    imports reads fine as a string, and raises NameError only there."""
    failures = {}
    for path in sorted(Path(eqfactor.__file__).parent.glob("*.py")):
        module = importlib.import_module("eqfactor" if path.stem == "__init__" else f"eqfactor.{path.stem}")
        for name, obj in annotated(module):
            try:
                typing.get_type_hints(obj)
            except Exception as exc:
                failures[f"{module.__name__}.{name}"] = repr(exc)
    assert failures == {}
    probe = type(sys)("probe")
    exec("from __future__ import annotations\ndef f(x: Missing) -> int:\n    return x", probe.__dict__)
    with pytest.raises(NameError):
        typing.get_type_hints(dict(annotated(probe))["f"])


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


def compiles_at_import(tree):
    """Line numbers of the re.compile calls of a module that run when it is
    imported: every call outside a function body, the defaults and
    decorators of a function included."""
    modules = {alias.asname or alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names if alias.name == "re"}
    functions = {alias.asname or alias.name for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.module == "re"
                 for alias in node.names if alias.name == "compile"}
    found = []

    def visit(node):
        func = getattr(node, "func", None)
        if (isinstance(func, ast.Name) and func.id in functions
                or isinstance(func, ast.Attribute) and func.attr == "compile"
                and isinstance(func.value, ast.Name) and func.value.id in modules):
            found.append(node.lineno)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            children = node.decorator_list + [node.args]
        elif isinstance(node, ast.Lambda):
            children = [node.args]
        else:
            children = ast.iter_child_nodes(node)
        for child in children:
            visit(child)

    visit(tree)
    return found


def test_no_module_compiles_a_pattern_at_import():
    """A pattern compiled at import is paid by every command's start-up (the
    benchmark's setup_s; about 1 ms for the canonical graph text): src/
    compiles patterns on first use, as re.fullmatch(pattern, text) does."""
    offenders = {}
    for path in sorted(Path(eqfactor.__file__).parent.glob("*.py")):
        found = compiles_at_import(ast.parse(path.read_text(), str(path)))
        if found:
            offenders[path.name] = found
    assert offenders == {}
    for text, found in [
        ("import re\nP = re.compile('x')", [2]),
        ("import re as r\nclass A:\n    P = r.compile('x')", [3]),
        ("from re import compile as c\nP = [c('x')]", [2]),
        ("import re\ndef f(p=re.compile('x')):\n    return re.compile('y')", [2]),
        ("import re\ndef f():\n    return re.compile('x')\ng = lambda: re.compile('y')", []),
    ]:
        assert compiles_at_import(ast.parse(text)) == found


def test_the_package_requires_the_python_of_its_bulk_parser():
    """graphio.CANONICAL's possessive repeat (`*+`) compiles in re from
    Python 3.11 on; on 3.10 every parse_graph call would raise re.error, so
    pyproject.toml and the README ask for 3.11."""
    import tomllib

    from eqfactor.graphio import CANONICAL

    root = Path(__file__).parent.parent
    assert "*+" in CANONICAL
    assert tomllib.loads((root / "pyproject.toml").read_text())["project"]["requires-python"] == ">=3.11"
    assert "Requires Python >= 3.11" in (root / "README.md").read_text()


# Top-level public modules that `import eqfactor.cli` loads into a bare
# interpreter (python -S) besides the interpreter's own start-up modules,
# recorded on Python 3.11 when argparse (with gettext, os and warnings) moved
# into build_parser.
CLI_IMPORTS = {
    "collections", "copyreg", "enum", "eqfactor", "functools", "itertools", "json", "keyword", "operator", "re",
    "reprlib", "types",
}
# what `import multiprocessing` adds to them
MULTIPROCESSING_IMPORTS = {
    "array", "errno", "genericpath", "math", "multiprocessing", "os", "pickle", "posixpath", "select", "selectors",
    "signal", "socket", "stat", "struct", "threading",
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
    (["even-factor", "K5", "--k", "2"], EVEN_MODULES | {"coloring"}),
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
    dataclasses did, whether argparse did), in a fresh interpreter started
    without site packages."""
    src = str(Path(eqfactor.__file__).parent.parent)
    probe = (
        f"import contextlib, io, sys; sys.path.insert(0, {src!r})\n"
        "import eqfactor.cli\n"
        "def ours(): return sorted(m[9:] for m in sys.modules if m.startswith('eqfactor.'))\n"
        "loaded = ours()\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = eqfactor.cli.main({argv!r})\n"
        "print(repr((loaded, code, ours(), *(m in sys.modules for m in ('multiprocessing', 'dataclasses', 'argparse')))))"
    )
    out = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True, check=True).stdout
    return ast.literal_eval(out)


@pytest.mark.parametrize("argv, modules", COMMAND_MODULES, ids=[" ".join(a) for a, _ in COMMAND_MODULES])
def test_each_subcommand_loads_only_its_modules(tmp_path, argv, modules):
    """A subcommand imports the modules it runs when it is dispatched; a
    one-shot call pays for nothing else, and none loads multiprocessing,
    dataclasses (which loads inspect, ast, dis and tokenize and costs about
    as much as a small solve) or argparse, which a plain command line does
    not need."""
    k5 = tmp_path / "k5.txt"
    k5.write_text(serialize_graph(complete_graph(5)))
    fz = Factorization(complete_graph(5), 2, [1, 2] * 5)
    report = tmp_path / "report.json"
    report.write_text(dump_report(factorization_report(fz, [])))
    argv = [{"K5": str(k5), "REPORT": str(report)}.get(arg, arg) for arg in argv]
    loaded, code, after, multiprocessing, dataclasses, argparse = command_modules(argv)
    assert set(loaded) == CLI_MODULES
    assert (code, set(after), multiprocessing, dataclasses, argparse) == (0, CLI_MODULES | modules, False, False, False)


def test_a_command_line_error_loads_argparse(tmp_path):
    """The probe above sees argparse when main builds the full parser."""
    k5 = tmp_path / "k5.txt"
    k5.write_text(serialize_graph(complete_graph(5)))
    assert command_modules(["factor", str(k5), "--k", "3", "--bogus"])[1:] == (2, sorted(CLI_MODULES), False, False, True)
