"""Every name a module imports is used in that module, and every public
function, class, method, property and UPPER_CASE constant has a reader in
the program.

No linter ships with the project, so this parses each ``crancache``
module and flags imported names that no expression of the module reads,
and public definitions and constants that no expression of ``src/`` reads.
"""

import ast
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import crancache

MODULES = sorted(Path(crancache.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # "import a.b" binds "a"
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items()
            if name not in used]


def test_detector_flags_an_unused_name():
    assert unused_imports("import os\nfrom math import pi, tau\nprint(pi)\n") == [
        "line 1: os", "line 2: tau"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def private_imports(source: str) -> list[str]:
    """Underscore names taken from another ``crancache`` module: imported by
    name, or read as an attribute of a sibling module imported whole."""
    tree = ast.parse(source)
    found, siblings = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "crancache"):
            for alias in node.names:
                if alias.name.startswith("_"):
                    found.append(f"line {node.lineno}: {alias.name}")
                elif not node.module or node.module == "crancache":
                    siblings.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and isinstance(node.value, ast.Name) and node.value.id in siblings):
            found.append(f"line {node.lineno}: {node.value.id}.{node.attr}")
    return sorted(found)


def test_private_import_detector_flags_both_forms():
    source = ("from math import _private\n"
              "from .effcap import LN2, _sinr_coeffs\n"
              "from crancache.games import _wants_switch\n"
              "from . import effcap\n"
              "x = effcap._T_NODES + effcap.LN2\n"
              "y = self._dist\n")
    assert private_imports(source) == ["line 2: _sinr_coeffs", "line 3: _wants_switch",
                                       "line 5: effcap._T_NODES"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_no_private_name_of_another(path):
    # each module's underscore names are its own; the others use its public API
    assert private_imports(path.read_text()) == []


def scipy_imports(source: str) -> list[int]:
    """Lines of every import of scipy, nested ones included."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Import)
            and any(alias.name.split(".")[0] == "scipy" for alias in node.names)
            or isinstance(node, ast.ImportFrom)
            and (node.module or "").split(".")[0] == "scipy"]


def test_scipy_detector_finds_nested_imports():
    assert scipy_imports("import os\ndef f():\n    from scipy import special\n"
                         "    import scipy.integrate as si\n") == [3, 4]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_no_scipy(path):
    # numpy is the only runtime dependency, not even a lazy scipy import
    assert scipy_imports(path.read_text()) == []


def test_cli_import_leaves_scipy_out():
    # the tests use scipy as an oracle; the program needs none of it
    src = str(Path(crancache.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c",
                          "import sys, crancache.cli; "
                          "print(sorted(m for m in sys.modules if m.startswith('scipy')))"],
                         env=env, capture_output=True, text=True, check=True)
    assert run.stdout.strip() == "[]"


# Public API read only from outside src/, each with its reason.
NO_CALLER_IN_SRC = {
    "theta_cloud_from_cluster": "criterion 5 and the README derive theta_cloud = 0.6",
    "min_backhaul_rate": "criterion 5 inverts theta_cloud_from_cluster",
    "check_nash_stable": "criterion 7 and perfbench/workloads.py check stability",
}


def _loads(tree) -> list[tuple[str, ast.AST]]:
    """(name, node) of every Name and Attribute the tree reads."""
    return [(node.id if isinstance(node, ast.Name) else node.attr, node)
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))
            and isinstance(node.ctx, ast.Load)]


def unreached(sources: list[str]) -> list[str]:
    """Public top-level functions, classes and UPPER_CASE constants no Name
    or Attribute load reads, and public methods and properties no Attribute
    load reads, outside their own definition, across ``sources``.

    Reads match by name alone, so a read of any attribute of the same name
    reaches a method: ``rng.uniform(...)`` would keep a ``uniform`` method
    alive with no caller.  Give a method a name the program's other
    attribute reads do not use.
    """
    trees = [ast.parse(source) for source in sources]
    defs = []   # (qualified name, name, node, reads that count)
    for tree in trees:
        for node in tree.body:
            if isinstance(node, ast.Assign):
                defs += [(t.id, t.id, t, (ast.Name, ast.Attribute)) for t in node.targets
                         if isinstance(t, ast.Name) and t.id.isupper()
                         and not t.id.startswith("_")]
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    or node.name.startswith("_"):
                continue
            defs.append((node.name, node.name, node, (ast.Name, ast.Attribute)))
            if isinstance(node, ast.ClassDef):
                defs += [(f"{node.name}.{m.name}", m.name, m, (ast.Attribute,))
                         for m in node.body if isinstance(m, ast.FunctionDef)
                         and not m.name.startswith("_")]
    loads = [load for tree in trees for load in _loads(tree)]
    found = []
    for qualified, name, node, kinds in defs:
        own = {id(n) for n in ast.walk(node)}
        if not any(read == name and isinstance(n, kinds) and id(n) not in own
                   for read, n in loads):
            found.append(qualified)
    return sorted(found)


def test_reachability_detector_flags_unread_definitions():
    library = ("LIMIT = 3\n"
               "UNREAD = 4\n"
               "_HIDDEN = 5\n"
               "lower = 6\n"
               "def used(): pass\n"
               "def recursive(n): return recursive(n - 1)\n"
               "def _private(): pass\n"
               "class Box:\n"
               "    size = 0\n"
               "    def read(self): return self.size\n"
               "    @property\n"
               "    def shadowed(self): return 0\n"
               "    def _own(self): pass\n")
    caller = ("import lib\n"
              "from lib import used, Box\n"
              "shadowed = 1\n"
              "print(used(), Box().read(), shadowed, lib.LIMIT)\n")
    # a local variable of the same name does not reach a method
    assert unreached([library, caller]) == ["Box.shadowed", "UNREAD", "recursive"]


def test_every_public_definition_has_a_caller_in_src():
    found = unreached([path.read_text() for path in MODULES])
    assert found == sorted(NO_CALLER_IN_SRC)


def _tracer_module():
    """``perfbench/tracer.py`` loaded from its file, without putting
    ``perfbench`` on the import path."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_finds_every_name_it_wraps():
    # the benchmark's tracer wraps program functions by name and its
    # allocation check replaces cli.run_algorithm with a wrapper of this
    # signature; a src/ edit that drops or reshapes one must fail here
    import crancache.cli as cli
    original = cli.run_algorithm
    tracer = _tracer_module().Tracer("crancache").install()
    try:
        assert cli.run_algorithm is not original
    finally:
        tracer.uninstall()
    assert cli.run_algorithm is original
    assert tracer.absent == []
    assert list(inspect.signature(cli.run_algorithm).parameters) == [
        "instance", "algorithm", "scenario"]
