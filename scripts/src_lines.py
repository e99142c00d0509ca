#!/usr/bin/env python3
"""Count the lines of the package source: total, docstring and code lines per module and for all of src/.

A docstring line is a line of a module, class or function docstring.  A code
line is a line outside every docstring that is neither blank nor a comment
only.  So total = docstring + code + blank and comment-only lines, and a line
target can name code and docstrings apart.

  python scripts/src_lines.py            # src/zetatower
  python scripts/src_lines.py path/to/pkg
"""

import argparse
import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "zetatower"


def line_counts(source: str) -> tuple:
    """(total, docstring, code) lines of one module's source."""
    lines = source.splitlines()
    doc = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                doc.update(range(first.lineno, first.end_lineno + 1))
    code = sum(1 for i, line in enumerate(lines, 1) if i not in doc and line.strip() and not line.strip().startswith("#"))
    return len(lines), len(doc), code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("package", nargs="?", default=str(PACKAGE), help="directory of the modules to count")
    root = Path(ap.parse_args(argv).package)
    counts = {path.stem: line_counts(path.read_text(encoding="utf-8")) for path in sorted(root.glob("*.py"))}
    print(f"{'module':<16} {'total':>6} {'doc':>6} {'code':>6}")
    for name, row in [*counts.items(), ("all", tuple(map(sum, zip(*counts.values()))))]:
        print(f"{name:<16} {row[0]:>6} {row[1]:>6} {row[2]:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
