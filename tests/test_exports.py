"""Every name a module exports in ``__all__`` exists, so ``import *`` works,
no module imports a name it never uses (no linter ships with the repo), the
package imports nothing from the tests, whose oracles stay outside it,
scipy is loaded only by the commands that solve, and the process pool's
modules only by a sweep that runs cells in a pool."""

import ast
import importlib.util
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import levyaug
from levyaug import Example, poisson_family
from levyaug.dataio import write_dataset

# The test-only oracles, outside the package, are held to the same checks.
MODULES = ["levyaug"] + sorted(m.name for m in pkgutil.iter_modules(levyaug.__path__, "levyaug."))
MODULES.append("oracles")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ lists missing names {missing}"


def _unused_imports(source: str) -> list[str]:
    """Names a module imports and never uses.  ``from __future__`` imports,
    names listed in ``__all__`` and lines marked ``# noqa`` are exempt."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa" not in lines[alias.lineno - 1]:
                    imported[(alias.asname or alias.name).split(".")[0]] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else []
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


SOURCES = sorted(p for p in Path(levyaug.__file__).parent.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", SOURCES + [Path(__file__).with_name("oracles.py"),
                                             Path(__file__).with_name("conftest.py")],
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    unused = _unused_imports(path.read_text(encoding="utf-8"))
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_unused_import_guard_flags_an_orphan():
    assert _unused_imports("import math\nimport os\nos.getcwd()\n") == ["math (line 1)"]
    assert _unused_imports("import math  # noqa: F401\n__all__ = ['x']\nfrom a import x\n") == []


# The test-only modules: the oracles and conftest helpers, and every test file.
TEST_MODULES = {"tests"} | {p.stem for p in Path(__file__).parent.glob("*.py")}


@pytest.mark.parametrize("path", SOURCES + [Path(levyaug.__file__)], ids=lambda p: p.name)
def test_no_module_imports_from_tests(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    imported += [node.module for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.module and node.level == 0]
    assert not [m for m in imported if m.split(".")[0] in TEST_MODULES]


def test_the_oracles_are_not_part_of_the_package():
    assert not hasattr(levyaug, "oracles")
    assert importlib.util.find_spec("levyaug.oracles") is None


# scipy costs about half a second to import, and only the solvers use it;
# the process pool's modules only a sweep with more than one job uses.
# Every module imports them inside the functions that call them.
_SCIPY = ("scipy",)
_POOL = ("concurrent", "multiprocessing")


def _import_time_imports(source: str, roots) -> list[int]:
    """Lines that import a package named in ``roots`` (or one of its
    modules) when the module itself is imported: every such import outside
    a function body."""
    found = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            names = []
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom) and child.level == 0:
                names = [child.module]
            if any(name.split(".")[0] in roots for name in names):
                found.append(child.lineno)
            visit(child)

    visit(ast.parse(source))
    return found


@pytest.mark.parametrize("path", SOURCES + [Path(levyaug.__file__)], ids=lambda p: p.name)
def test_no_module_imports_scipy_at_import_time(path):
    lines = _import_time_imports(path.read_text(encoding="utf-8"), _SCIPY)
    assert not lines, f"{path.name} imports scipy at module level, line(s) {lines}"


@pytest.mark.parametrize("path", SOURCES + [Path(levyaug.__file__)], ids=lambda p: p.name)
def test_no_module_imports_the_process_pool_at_import_time(path):
    lines = _import_time_imports(path.read_text(encoding="utf-8"), _POOL)
    assert not lines, f"{path.name} imports the process pool at module level, line(s) {lines}"


def test_import_time_scipy_guard_flags_module_level_imports_only():
    source = (
        "import numpy\nimport scipy.sparse\n"
        "if True:\n    from scipy.optimize import minimize\n"
        "def f():\n    from scipy.special import gammaln\n    return gammaln\n"
        "from concurrent.futures import ProcessPoolExecutor\nimport multiprocessing as mp\n"
        "def g():\n    import multiprocessing\n    from concurrent import futures\n"
    )
    assert _import_time_imports(source, _SCIPY) == [2, 4]
    assert _import_time_imports(source, _POOL) == [8, 9]


_SCIPY_LOADS = """
import sys

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

import levyaug
assert not scipy_modules(), ("import levyaug", scipy_modules())
from levyaug.cli import main
assert not scipy_modules(), ("import levyaug.cli", scipy_modules())
data, pseudo, model = sys.argv[1:]
assert main(["thin", "--input", data, "--output", pseudo, "--alpha", "0.5", "-B", "2"]) == 0
assert not scipy_modules(), ("levyaug thin", scipy_modules())
assert main(["train", "--pseudo", pseudo, "--originals", data, "--out", model,
             "--ridge-lambda", "0.1"]) == 0
assert "scipy.optimize" in scipy_modules(), "levyaug train did not load scipy"
"""


def test_scipy_is_loaded_by_the_commands_that_solve_only(tmp_path):
    g = np.random.default_rng(5)
    examples = [Example(x=g.poisson(3.0, size=3), y=1 + i % 2, t=9.0) for i in range(12)]
    data = tmp_path / "data.csv"
    write_dataset(data, poisson_family(3), examples)
    args = [str(data), str(tmp_path / "pseudo.csv"), str(tmp_path / "model.txt")]
    env = dict(os.environ, PYTHONPATH=str(Path(levyaug.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-c", _SCIPY_LOADS, *args], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr


_POOL_LOADS = """
import sys
from levyaug.cli import main

def pooled():
    return "multiprocessing" in sys.modules

assert not pooled(), "import levyaug.cli"
data, pseudo, model, sweep = sys.argv[1:]
assert main(["thin", "--input", data, "--output", pseudo, "--alpha", "0.5", "-B", "2"]) == 0
assert main(["train", "--pseudo", pseudo, "--originals", data, "--out", model,
             "--ridge-lambda", "0.1"]) == 0
assert not pooled(), "levyaug thin and train"
assert main(["simulate", "--spec", "gauss", "--out", sweep, "--alphas", "1", "--n-grid", "20",
             "--replicates", "2", "-B", "2", "--lambdas", "1.0,0.1", "--jobs", "2"]) == 0
assert pooled(), "levyaug simulate --jobs 2 ran no pool"
"""


def test_the_process_pool_is_loaded_by_pooled_sweeps_only(tmp_path):
    g = np.random.default_rng(5)
    examples = [Example(x=g.poisson(3.0, size=3), y=1 + i % 2, t=9.0) for i in range(12)]
    data = tmp_path / "data.csv"
    write_dataset(data, poisson_family(3), examples)
    args = [str(data)] + [str(tmp_path / name) for name in ("pseudo.csv", "model.txt", "s.csv")]
    env = dict(os.environ, PYTHONPATH=str(Path(levyaug.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-c", _POOL_LOADS, *args], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
