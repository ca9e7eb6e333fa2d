"""Every public name of the package resolves.

A deletion that leaves a name behind in a module's __all__, or in the
imports of selfdual/__init__.py, fails here rather than at a user's import.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import selfdual

MODULES = sorted(m.name for m in pkgutil.iter_modules(selfdual.__path__))


def package_imports() -> list[tuple[str, str]]:
    """(module, name) for every `from .module import name` of __init__.py."""
    tree = ast.parse(Path(selfdual.__file__).read_text(encoding="utf-8"))
    return [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    mod = importlib.import_module(f"selfdual.{name}")
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []


def test_package_imports_are_exported():
    imports = package_imports()
    assert imports
    stale = [
        f"{module}.{name}"
        for module, name in imports
        if name not in importlib.import_module(f"selfdual.{module}").__all__
    ]
    assert stale == []
