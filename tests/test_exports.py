"""Every name a kgonal module exports in __all__ exists in that module."""

import importlib
import pkgutil

import pytest

import kgonal

# kgonal.__main__ runs the command line on import, and exports nothing
MODULES = ["kgonal"] + sorted(
    info.name
    for info in pkgutil.iter_modules(kgonal.__path__, prefix="kgonal.")
    if info.name != "kgonal.__main__"
)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", None)
    assert exported is not None, f"{name} has no __all__"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
