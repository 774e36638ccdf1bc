"""Runtime dependencies stay the standard library, numpy and scipy."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).parents[1] / "src" / "poselift"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "scipy", "poselift"}


def imported_packages(tree: ast.AST) -> set:
    """Top-level package of every absolute import in `tree`."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.add(node.module.split(".")[0])
    return out


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_source_imports_only_stdlib_numpy_and_scipy(path):
    assert imported_packages(ast.parse(path.read_text(), str(path))) - ALLOWED == set()


def test_the_guard_sees_every_import_form():
    tree = ast.parse("import a.b, c\nfrom d.e import f\nfrom . import g\nfrom .h import i\n"
                     "def j():\n    import k\n")
    assert imported_packages(tree) == {"a", "c", "d", "k"}


def loaded_after_importing_every_module(prefixes: tuple) -> str:
    """The loaded modules starting with one of `prefixes`, printed by a fresh
    interpreter after importing every poselift module."""
    modules = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")
    probe = (f"import sys; sys.path.insert(0, {str(SRC.parent)!r})\n"
             f"import poselift\nfrom poselift import {', '.join(modules)}\n"
             f"print(sorted(m for m in sys.modules if m.startswith({prefixes!r})))")
    return subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          check=True).stdout


def test_importing_every_module_leaves_scipy_optimize_unloaded():
    # only iso.calibrate needs scipy.optimize, and it imports it when called
    assert loaded_after_importing_every_module(("scipy.optimize",)) == "[]\n"


def test_importing_every_module_loads_no_pool_of_workers():
    # iso.refine_many starts plain threads (numpy loads threading anyway);
    # neither executor package is loaded
    assert loaded_after_importing_every_module(("concurrent.futures", "multiprocessing")) \
        == "[]\n"
