"""Every name a module exports in ``__all__`` exists, so ``import *`` works."""

import importlib
import pkgutil

import pytest

import levyaug

MODULES = ["levyaug"] + sorted(m.name for m in pkgutil.iter_modules(levyaug.__path__, "levyaug."))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ lists missing names {missing}"
