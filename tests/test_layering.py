"""How the library's modules may import one another."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import setloss

PACKAGE = Path(setloss.__file__).parent


def test_no_module_imports_a_private_name_of_a_sibling():
    # A private name is its module's own business: a module that needs
    # another's helper gets it from a shared home such as `errors`.
    # `from . import _blas` and `from ._backend import backend` name a
    # module, not a private name inside one, and stay allowed.
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level and node.module:
                found += [f"{path.relative_to(PACKAGE)}:{node.lineno} {alias.name}"
                          for alias in node.names if alias.name.startswith("_")]
    assert found == []


def test_training_does_not_load_the_lattice_checker():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(PACKAGE.parent), os.environ.get("PYTHONPATH")) if p))
    code = "import sys, setloss.trainer; print('setloss.submodcheck' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
