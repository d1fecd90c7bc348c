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
