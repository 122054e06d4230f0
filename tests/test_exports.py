"""Every name a kgonal module exports in __all__ exists, and code in the package reads it."""

import ast
import importlib
import pathlib
import pkgutil

import pytest

import kgonal

# kgonal.__main__ runs the command line on import, and exports nothing
MODULES = ["kgonal"] + sorted(
    info.name
    for info in pkgutil.iter_modules(kgonal.__path__, prefix="kgonal.")
    if info.name != "kgonal.__main__"
)

UNREAD_EXPORTS = {
    # the package version, for whoever installs it
    "kgonal": {"__version__"},
    # printed by the setup probe of perfbench/run.py; goes when the
    # package writes its own benchmark records (ROADMAP item 1)
    "kgonal.kernels": {"BACKEND"},
}


def _names_read() -> set[str]:
    """Every name that code under src/kgonal loads, reads as an attribute or imports."""
    read = set()
    for path in pathlib.Path(kgonal.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return read


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", None)
    assert exported is not None, f"{name} has no __all__"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


@pytest.mark.parametrize("name", MODULES)
def test_all_names_have_a_reader_in_the_package(name):
    # no production helper that only tests call; a string, a docstring
    # included, reads nothing
    exported = set(importlib.import_module(name).__all__)
    allowed = UNREAD_EXPORTS.get(name, set())
    assert allowed <= exported, f"stale exceptions for {name}: {sorted(allowed - exported)}"
    unread = sorted(exported - allowed - _names_read())
    assert not unread, f"{name}.__all__ names nothing in src/kgonal reads: {unread}"
