"""The public names the package lists all exist, and a run reaches each.

A stale entry in a module's __all__ imports cleanly and only fails at
`from module import *`; a name the package re-exports should be one its
module still lists as public.  A public name that only the tests call
belongs with the tests (tests/oracles.py), not in the package.
"""

import ast
import enum
import importlib
import inspect
import pathlib
import pkgutil

import pytest

import manifold_svrg
from manifold_svrg import cli

MODULES = sorted(m.name for m in pkgutil.iter_modules(manifold_svrg.__path__))
ROOT = pathlib.Path(__file__).resolve().parents[1]

# no run reaches the data-file entry points, but they are where a user's
# data enters the package and is checked, so they stay public
DATA_FILE_ENTRIES = {"pca_load", "mc_load_observations", "mc_save_observations"}


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


# defaulted keyword parameters and dataclass fields of every __all__ name,
# plus the CLI flags; a change that adds or removes a knob updates this
OPTION_BUDGET = 49


def _defaulted(obj):
    """Names of obj's parameters (or dataclass fields) that have a default."""
    if not callable(obj) or isinstance(obj, enum.EnumMeta):
        return []
    return [p.name for p in inspect.signature(obj).parameters.values()
            if p.default is not p.empty]


def test_option_budget():
    options = {}
    for m in MODULES:
        module = importlib.import_module(f"manifold_svrg.{m}")
        for name in getattr(module, "__all__", []):
            params = _defaulted(getattr(module, name))
            if params:
                options[f"{m}.{name}"] = params
    parser = cli._parser()
    flags = set()
    for argv in (["run"], ["tune", "--grid", "1"]):
        flags |= set(vars(parser.parse_args(argv))) - {"command", "func"}
    count = sum(map(len, options.values()))
    listing = "".join(f"\n  {name}: {', '.join(params)}" for name, params in options.items())
    assert count + len(flags) == OPTION_BUDGET, (
        f"{count} options, {len(flags)} flags{listing}\n  flags: {', '.join(sorted(flags))}")


def _references(paths, imports):
    """Identifiers the files read as a name or an attribute, and with
    imports set, the names they import."""
    seen = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                seen.add(node.id)
            elif isinstance(node, ast.Attribute):
                seen.add(node.attr)
            elif imports and isinstance(node, (ast.Import, ast.ImportFrom)):
                seen.update(alias.name for alias in node.names)
    return seen


def test_every_public_name_is_reached():
    # reached: read by the package's own code (so by a run or the CLI), or
    # used by the benchmark in perfbench/; the __all__ strings and the
    # package's re-exports in __init__ do not count
    package = sorted((ROOT / "src" / "manifold_svrg").glob("*.py"))
    reached = (_references([p for p in package if p.name != "__init__.py"], imports=False)
               | _references(sorted((ROOT / "perfbench").glob("*.py")), imports=True))
    public = {name for m in MODULES
              for name in getattr(importlib.import_module(f"manifold_svrg.{m}"), "__all__", [])}
    assert public - reached == DATA_FILE_ENTRIES
