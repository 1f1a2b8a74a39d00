"""The public names the package lists all exist.

A stale entry in a module's __all__ imports cleanly and only fails at
`from module import *`; a name the package re-exports should be one its
module still lists as public.
"""

import ast
import importlib
import pathlib
import pkgutil

import pytest

import manifold_svrg

MODULES = sorted(m.name for m in pkgutil.iter_modules(manifold_svrg.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    module = importlib.import_module(f"manifold_svrg.{name}")
    public = getattr(module, "__all__", [])
    assert len(set(public)) == len(public), f"{name}.__all__ repeats a name"
    assert [n for n in public if not hasattr(module, n)] == []


def _package_exports():
    """(module, name) for every name the package's __init__ imports from a module."""
    tree = ast.parse(pathlib.Path(manifold_svrg.__file__).read_text())
    return [(node.module, alias.asname or alias.name)
            for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


def test_package_exports_resolve():
    exports = _package_exports()
    assert exports
    for module_name, name in exports:
        module = importlib.import_module(f"manifold_svrg.{module_name}")
        assert getattr(manifold_svrg, name) is getattr(module, name)
        # a re-exported name is public in its module too (errors lists none)
        if hasattr(module, "__all__"):
            assert name in module.__all__, f"{module_name}.{name} is exported but not in __all__"
