"""Every name a module imports is used in that module.

No linter ships with the project, so this parses each ``crancache``
module (the package ``__init__``, which re-exports, aside) and flags
imported names that no expression of the module reads.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import crancache

MODULES = sorted(p for p in Path(crancache.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


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
