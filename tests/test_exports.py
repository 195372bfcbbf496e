"""Every name a module exports in ``__all__`` exists, so ``import *`` works,
no module imports a name it never uses (no linter ships with the repo), and
the package imports nothing from the tests, whose oracles stay outside it."""

import ast
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import levyaug

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


@pytest.mark.parametrize("path", SOURCES + [Path(__file__).with_name("oracles.py")],
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
