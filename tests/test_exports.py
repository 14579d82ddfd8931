import importlib
import pkgutil

import pytest

import genfrac

MODULES = ["genfrac"] + sorted(
    f"genfrac.{info.name}" for info in pkgutil.iter_modules(genfrac.__path__)
)


@pytest.mark.parametrize("name", MODULES)
def test_exports_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing
