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


def test_package_all_joins_the_submodule_lists():
    names = genfrac.__all__
    assert len(names) == len(set(names))
    submodules = [name for name in MODULES[1:] if name != "genfrac.cli"]
    assert names == [n for name in submodules for n in importlib.import_module(name).__all__]
    assert all(hasattr(genfrac, n) for n in names)
