import importlib
import pkgutil

import pytest

import covqec

MODULES = ["covqec"] + [f"covqec.{m.name}" for m in pkgutil.iter_modules(covqec.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(name)
    missing = [attr for attr in getattr(mod, "__all__", ()) if not hasattr(mod, attr)]
    assert not missing, f"{name}.__all__ names undefined attributes: {missing}"
