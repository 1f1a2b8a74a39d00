"""Print total and code lines per module of `src/` and `tests/`, and the
count of public options.

Run from the repository root, or name another tree's root:

    python tests/source_lines.py [ROOT]

Each `.py` file under `ROOT/src` and `ROOT/tests` gets one
`path total code` line, and each directory a `total` line.  A code line is
non-blank, not a comment and not inside a docstring (the string that opens
a module, class or function body).  The last line is the option count that
`tests/test_public_surface.py::test_option_budget` pins, of ROOT's package.
"""

import ast
import enum
import importlib
import inspect
import io
import os
import pkgutil
import sys
import tokenize


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


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else ".")
