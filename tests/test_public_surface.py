"""The public names the package lists all exist, and a run reaches each.

A stale entry in a module's __all__ imports cleanly and only fails at
`from module import *`; a name the package re-exports should be one its
module still lists as public.  A public name that only the tests call
belongs with the tests (tests/oracles.py), not in the package.  Every
public entry that takes a count checks it by one rule, with one message.
"""

import ast
import enum
import importlib
import inspect
import pathlib
import pkgutil
import re

import numpy as np
import pytest

import manifold_svrg
from manifold_svrg import cli
from manifold_svrg.harness import ExperimentSpec
from manifold_svrg.optimizers import SvrgConfig
from manifold_svrg.problems import (McInstance, PcaInstance, mc_generate,
                                    mc_load_observations, pca_generate, pca_load)

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


_DATA = np.arange(48.0).reshape(6, 8) ** 1.5


def _spec(**kw):
    return ExperimentSpec(**{"d": 10, "n": 20, "r": 1, **kw})


# "<entry>-<count>": the entry called with that count set to v, the other
# arguments valid; root holds a .npy data file and an observation file
COUNT_ENTRIES = {
    "PcaInstance-r": lambda v, root: PcaInstance(_DATA, v),
    "pca_generate-d": lambda v, root: pca_generate(v, 8, 1, 0),
    "pca_generate-n": lambda v, root: pca_generate(6, v, 1, 0),
    "pca_generate-r": lambda v, root: pca_generate(6, 8, v, 0),
    "pca_load-r": lambda v, root: pca_load(root / "a.npy", v),
    "McInstance-d": lambda v, root: McInstance(v, 2, 1, [0, 1], [0, 1], [1.0, 2.0]),
    "McInstance-n": lambda v, root: McInstance(2, v, 1, [0, 1], [0, 1], [1.0, 2.0]),
    "McInstance-r": lambda v, root: McInstance(2, 2, v, [0, 1], [0, 1], [1.0, 2.0]),
    "mc_generate-d": lambda v, root: mc_generate(v, 30, 1, 10.0, 0),
    "mc_generate-n": lambda v, root: mc_generate(20, v, 1, 10.0, 0),
    "mc_generate-r": lambda v, root: mc_generate(20, 30, v, 10.0, 0),
    "mc_load_observations-d": lambda v, root: mc_load_observations(root / "obs.txt", 1, d=v),
    "mc_load_observations-n": lambda v, root: mc_load_observations(root / "obs.txt", 1, n=v),
    **{f"SvrgConfig-{k}": lambda v, root, k=k: SvrgConfig(**{k: v})
       for k in ("K", "batch", "max_epochs", "r")},
    **{f"ExperimentSpec-{k}": lambda v, root, k=k: _spec(**{k: v})
       for k in ("d", "n", "r", "max_epochs", "runs", "inner_k")},
}


@pytest.fixture(scope="module")
def data_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("counts")
    np.save(root / "a.npy", _DATA)
    (root / "obs.txt").write_text("1 1 2.5\n2 2 -1.0\n")
    return root


@pytest.mark.parametrize("bad", [2.5, True, 0], ids=["fraction", "bool", "zero"])
@pytest.mark.parametrize("entry", COUNT_ENTRIES)
def test_one_count_rule(entry, bad, data_root):
    # a fraction is not truncated and a bool is no count: each is refused
    # where it enters, with the message of check_count
    make = COUNT_ENTRIES[entry]
    make(2, data_root)
    name = entry.rsplit("-", 1)[1]
    message = f"{name} must be an integer of at least 1, got {bad}"
    with pytest.raises(ValueError, match=re.escape(message)):
        make(bad, data_root)


# defaulted keyword parameters and dataclass fields of every __all__ name,
# plus the CLI flags; a change that adds or removes a knob updates this
OPTION_BUDGET = 48


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
