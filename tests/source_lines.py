"""Print total and code lines per module of `src/` and `tests/`.

Run from the repository root, or name another tree's root:

    python tests/source_lines.py [ROOT]

Each `.py` file under `ROOT/src` and `ROOT/tests` gets one
`path total code` line, and each directory a `total` line.  A code line is
non-blank, not a comment and not inside a docstring (the string that opens
a module, class or function body).
"""

import ast
import io
import os
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


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else ".")
