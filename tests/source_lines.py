"""Print total and code lines per module of `src/` and `tests/`, and the
count of public options.

Run from the repository root, or name another tree's root:

    python tests/source_lines.py [ROOT]

Each `.py` file under `ROOT/src` and `ROOT/tests` gets one
`path total code` line, and each directory a `total` line.  A code line is
non-blank, not a comment and not inside a docstring (the string that opens
a module, class or function body).  The last line is the option count that
`tests/test_public_surface.py::test_option_budget` pins, of ROOT's package.

To compare with a git revision of this repository in one command,

    python tests/source_lines.py --against REV

unpacks REV's `src/` and `tests/` with `git archive` into a temporary
directory and prints REV's counts, this tree's counts, and then, for every
line whose numbers differ, this tree's numbers minus REV's.
"""

import argparse
import ast
import contextlib
import enum
import importlib
import inspect
import io
import os
import pkgutil
import re
import subprocess
import sys
import tarfile
import tempfile
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@contextlib.contextmanager
def unpacked(rev, *paths):
    """A temporary directory holding the git revision rev's paths, as `git archive` writes them."""
    archive = subprocess.run(["git", "archive", rev, *paths], cwd=ROOT,
                             stdout=subprocess.PIPE, check=True).stdout
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp)
        yield tmp


def line_counts(path):
    """(total lines, code lines) of one Python file."""
    with open(path, encoding="utf-8") as f:
        source = f.read()
    lines = source.splitlines()
    skip = {i for i, line in enumerate(lines, 1) if not line.strip()}
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT and not lines[tok.start[0] - 1][:tok.start[1]].strip():
            skip.add(tok.start[0])
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            doc = node.body[0]
            skip.update(range(doc.lineno, doc.end_lineno + 1))
    return len(lines), len(lines) - len(skip)


def _defaulted(obj):
    """Names of obj's parameters (or dataclass fields) that have a default."""
    if not callable(obj) or isinstance(obj, enum.EnumMeta):
        return []
    return [p.name for p in inspect.signature(obj).parameters.values()
            if p.default is not p.empty]


def public_options():
    """The importable package's public options: a dict from each `__all__`
    name with defaulted keyword parameters or dataclass fields to their
    names, and the set of `bench run` and `bench tune` flags."""
    import manifold_svrg
    from manifold_svrg import cli
    options = {}
    for m in sorted(mod.name for mod in pkgutil.iter_modules(manifold_svrg.__path__)):
        module = importlib.import_module(f"manifold_svrg.{m}")
        for name in getattr(module, "__all__", []):
            params = _defaulted(getattr(module, name))
            if params:
                options[f"{m}.{name}"] = params
    parser = cli._parser()
    flags = set()
    for argv in (["run"], ["tune", "--grid", "1"]):
        flags |= set(vars(parser.parse_args(argv))) - {"command", "func"}
    return options, flags


def main(root):
    for top in ("src", "tests"):
        total = code = 0
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(root, top))):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(".py"):
                    path = os.path.join(dirpath, name)
                    n, c = line_counts(path)
                    total, code = total + n, code + c
                    print(os.path.relpath(path, root), n, c)
        print(f"{top} total {total} {code}")
    sys.path.insert(0, os.path.join(root, "src"))
    options, flags = public_options()
    count = sum(map(len, options.values()))
    print(f"options {count + len(flags)} ({count} defaulted, {len(flags)} flags)")


def _counts(root):
    """This script's output for root, from a fresh interpreter, so that
    root's package is the one whose options it counts."""
    return subprocess.run([sys.executable, os.path.abspath(__file__), root],
                          stdout=subprocess.PIPE, text=True, check=True).stdout


def against(rev):
    """Print rev's counts, this tree's, and this tree's minus rev's where they differ."""
    with unpacked(rev, "src", "tests") as tmp:
        old = _counts(tmp)
    new = _counts(ROOT)
    print(f"# {rev}\n{old}# this tree\n{new}# this tree - {rev}")
    # each line's label (a path, "src total", "options") and its numbers
    old, new = ({m[1]: [int(n) for n in re.findall(r"\d+", m[2])]
                 for m in re.finditer(r"^(\S+(?: total)?) (.*)$", text, re.M)}
                for text in (old, new))
    for label in dict.fromkeys([*old, *new]):
        before, after = old.get(label, [0, 0]), new.get(label, [0, 0])
        if before != after:
            print(label, *(f"{b - a:+d}" for a, b in zip(before, after)))


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="source and test line counts, and options")
    parser.add_argument("root", nargs="?", default=".", help="the tree to count")
    parser.add_argument("--against", metavar="REV",
                        help="compare with the git revision REV's src/ and tests/")
    args = parser.parse_args()
    against(args.against) if args.against else main(args.root)
