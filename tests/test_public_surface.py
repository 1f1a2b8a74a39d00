"""The public names the package lists all exist, and a run reaches each.

A stale entry in a module's __all__ imports cleanly and only fails at
`from module import *`; a name the package re-exports should be one its
module still lists as public.  A public name that only the tests call
belongs with the tests (tests/oracles.py), not in the package.  Every
public entry that takes a count checks it by one rule, with one message,
and every one that takes a real number does the same.
"""

import ast
import importlib
import math
import pathlib
import pkgutil
import re

import numpy as np
import pytest

import manifold_svrg
from manifold_svrg.harness import ExperimentSpec
from manifold_svrg.manifold import nu_of_rho
from manifold_svrg.optimizers import Fixed, SvrgConfig, Theorem1, gamma_fn, theorem1_schedule
from manifold_svrg.problems import (McInstance, PcaInstance, ProblemConstants, check_cond,
                                    mc_generate, mc_load_observations, pca_generate, pca_load)
from source_lines import public_options

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
    "pca_generate-seed": lambda v, root: pca_generate(6, 8, 1, v),
    "pca_load-r": lambda v, root: pca_load(root / "a.npy", v),
    "McInstance-d": lambda v, root: McInstance(v, 2, 1, [0, 1], [0, 1], [1.0, 2.0]),
    "McInstance-n": lambda v, root: McInstance(2, v, 1, [0, 1], [0, 1], [1.0, 2.0]),
    "McInstance-r": lambda v, root: McInstance(2, 2, v, [0, 1], [0, 1], [1.0, 2.0]),
    "mc_generate-d": lambda v, root: mc_generate(v, 30, 1, 10.0, 0),
    "mc_generate-n": lambda v, root: mc_generate(20, v, 1, 10.0, 0),
    "mc_generate-r": lambda v, root: mc_generate(20, 30, v, 10.0, 0),
    "mc_generate-seed": lambda v, root: mc_generate(20, 30, 1, 10.0, v),
    "mc_load_observations-d": lambda v, root: mc_load_observations(root / "obs.txt", 1, d=v),
    "mc_load_observations-n": lambda v, root: mc_load_observations(root / "obs.txt", 1, n=v),
    "theorem1_schedule-n": lambda v, root: theorem1_schedule(v, 0.5, 1.0, L=2.0, C=2.0, L1=1.0,
                                                            L2=0.5, r=2, nu=1.0),
    "theorem1_schedule-r": lambda v, root: theorem1_schedule(1000, 0.5, 1.0, L=2.0, C=2.0,
                                                            L1=1.0, L2=0.5, r=v, nu=1.0),
    "gamma_fn-i": lambda v, root: gamma_fn(0.5, v),
    **{f"SvrgConfig-{k}": lambda v, root, k=k: SvrgConfig(**{k: v})
       for k in ("K", "batch", "max_epochs", "r")},
    **{f"ExperimentSpec-{k}": lambda v, root, k=k: _spec(**{k: v})
       for k in ("d", "n", "r", "max_epochs", "runs", "inner_k")},
}
# an entry's lower bound, where it is not 1
COUNT_LOWS = {"pca_generate-seed": 0, "mc_generate-seed": 0}


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
    # where it enters, with the message of check_count, and so is the
    # integer one below the entry's bound ("zero" is -1 for a seed)
    make = COUNT_ENTRIES[entry]
    make(2, data_root)
    name = entry.rsplit("-", 1)[1]
    low = COUNT_LOWS.get(entry, 1)
    bad = low - 1 if bad == 0 else bad
    message = f"{name} must be an integer of at least {low}, got {bad}"
    with pytest.raises(ValueError, match=re.escape(message)):
        make(bad, data_root)


# "<entry>-<field>": (the entry called with that field set to v and the
# other arguments valid, the field's interval, a valid value, the values
# just outside the interval).  An entry returns what it stores, or its result
_BELOW = math.nextafter(0.0, -1.0)
_MU = "[0, 0.6666666666666666]"
REAL_ENTRIES = {
    "Fixed-tau": (lambda v: Fixed(v).tau, "[0, inf)", 1, (_BELOW,)),
    "Theorem1-mu": (lambda v: Theorem1(v, 1.0).mu, _MU, 0, (_BELOW, math.nextafter(2 / 3, 1))),
    "Theorem1-kappa": (lambda v: Theorem1(0.5, v).kappa, "(0, inf)", 2, (0.0,)),
    "theorem1_schedule-mu": (lambda v: theorem1_schedule(1000, v, 1.0, L=2.0, C=2.0, L1=1.0,
                                                         L2=0.5, r=2, nu=1.0).tau,
                             _MU, 0, (_BELOW, math.nextafter(2 / 3, 1))),
    "SvrgConfig-rho": (lambda v: SvrgConfig(rho=v).rho, "[0, inf)", 1, (_BELOW,)),
    "SvrgConfig-grad_tol": (lambda v: SvrgConfig(grad_tol=v).grad_tol, "[0, inf)", 0, (_BELOW,)),
    "ProblemConstants-L": (lambda v: ProblemConstants(v, 1.0).L, "(0, inf)", 2, (0.0,)),
    "ProblemConstants-C": (lambda v: ProblemConstants(1.0, v).C, "(0, inf)", 2, (0.0,)),
    "check_cond-cond": (check_cond, "[1, inf)", 10, (math.nextafter(1.0, 0.0),)),
    "mc_generate-cond": (lambda v: mc_generate(20, 30, 2, v, 0).M_true, "[1, inf)", 10,
                         (math.nextafter(1.0, 0.0),)),
    "nu_of_rho-rho": (nu_of_rho, "[0, inf)", 1, (_BELOW,)),
    # the spec's floats are refused by their owners' checks, with the
    # field's own interval: rho and grad_tol by SvrgConfig's
    "ExperimentSpec-rho": (lambda v: _spec(rho=v).rho, "[0, inf)", 1, (_BELOW,)),
    "ExperimentSpec-batch_frac": (lambda v: _spec(batch_frac=v).batch_frac, "(0, 1]", 1,
                                  (0.0, math.nextafter(1.0, 2.0))),
    "ExperimentSpec-grad_tol": (lambda v: _spec(grad_tol=v).grad_tol, "[0, inf)", 0, (_BELOW,)),
    "ExperimentSpec-cond": (lambda v: _spec(cond=v).cond, "[1, inf)", 10,
                            (math.nextafter(1.0, 0.0),)),
}


@pytest.mark.parametrize("bad", [True, "0.1", None, math.nan, math.inf, "outside"])
@pytest.mark.parametrize("entry", REAL_ENTRIES)
def test_one_real_rule(entry, bad):
    # a bool is no real number, a str or None is no number, NaN and an
    # infinity never make a step: each is refused where it enters, with the
    # message of check_real and the field's interval, as is a value just
    # outside that interval
    make, interval, valid, outside = REAL_ENTRIES[entry]
    name = entry.rsplit("-", 1)[1]
    message = f"^{name} must be a real number in {re.escape(interval)}, got "
    for value in outside if bad == "outside" else (bad,):
        with pytest.raises(ValueError, match=message):
            make(value)
    # an int, a numpy float32 and a float64 are taken as the float they are
    for value in (valid, np.float32(valid), np.float64(valid)):
        stored = make(value)
        if np.ndim(stored) == 0:
            assert type(stored) is float, (entry, type(value))


def _isfinite_uses():
    """(module file, enclosing def) of each math.isfinite in the package."""
    uses = set()

    def visit(node, where, path):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Attribute) and child.attr == "isfinite"
                    and isinstance(child.value, ast.Name) and child.value.id == "math"
                    or isinstance(child, ast.ImportFrom) and child.module == "math"
                    and "isfinite" in (alias.name for alias in child.names)):
                uses.add((path.name, where))
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.ClassDef)) else where
            visit(child, inner, path)

    for path in sorted((ROOT / "src" / "manifold_svrg").glob("*.py")):
        visit(ast.parse(path.read_text()), None, path)
    return uses


def test_finite_real_checked_once():
    # a scalar's finiteness is part of the real rule, written only in
    # check_real; the observation loader keeps its own per-line check,
    # which names the file line and raises NonFiniteInput
    assert _isfinite_uses() == {("errors.py", "check_real"),
                                ("problems.py", "mc_load_observations")}


# defaulted keyword parameters and dataclass fields of every __all__ name,
# plus the CLI flags; a change that adds or removes a knob updates this
OPTION_BUDGET = 48


def test_option_budget():
    options, flags = public_options()
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
