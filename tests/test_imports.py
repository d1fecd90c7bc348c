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


def test_cli_import_leaves_scipy_integrate_out():
    # the tests use scipy.integrate as an oracle; the program needs none of it
    src = str(Path(crancache.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c",
                          "import sys, crancache.cli; "
                          "print('scipy.integrate' in sys.modules)"],
                         env=env, capture_output=True, text=True, check=True)
    assert run.stdout.strip() == "False"
