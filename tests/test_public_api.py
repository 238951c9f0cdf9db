"""Every exported name resolves.

A name left in an ``__all__`` after its definition was deleted would only
fail at ``from ... import *`` time; this test makes it fail here.
"""

import importlib
import pkgutil

import pytest

import sphere_equilibria

MODULES = [sphere_equilibria] + [
    importlib.import_module(f"sphere_equilibria.{info.name}")
    for info in pkgutil.iter_modules(sphere_equilibria.__path__)]


@pytest.mark.parametrize("module", [m for m in MODULES if hasattr(m, "__all__")],
                         ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{module.__name__}.__all__ names missing objects: {missing}"
