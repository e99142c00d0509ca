#!/usr/bin/env python3
"""Count the lines of the package source: total, docstring and code lines per module and for all of src/.

A docstring line is a line of a module, class or function docstring.  A code
line is a line outside every docstring that is neither blank nor a comment
only.  So total = docstring + code + blank and comment-only lines, and a line
target can name code and docstrings apart.

The code column is a digest of the statements: the first 12 hex digits of the
sha256 of ast.dump of the module with every docstring removed.  Comments never
reach the tree, so an edit to docstrings or comments keeps it and an edit to a
statement changes it.  The digest of all/ is that of its modules' digests in
module order.

  python scripts/src_lines.py            # src/zetatower
  python scripts/src_lines.py path/to/pkg
"""

import argparse
import ast
import hashlib
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "zetatower"


def _docstring(node):
    """The docstring statement of a module, class or function node, else None."""
    if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
        first = node.body[0]
        if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
            return first
    return None


def _sha12(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


def line_counts(source: str) -> tuple:
    """(total, docstring, code) lines of one module's source."""
    lines = source.splitlines()
    doc = set()
    for node in ast.walk(ast.parse(source)):
        first = _docstring(node)
        if first is not None:
            doc.update(range(first.lineno, first.end_lineno + 1))
    code = sum(1 for i, line in enumerate(lines, 1) if i not in doc and line.strip() and not line.strip().startswith("#"))
    return len(lines), len(doc), code


def code_digest(source: str) -> str:
    """The first 12 hex digits of the sha256 of ast.dump of the source with its docstrings removed."""
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if _docstring(node) is not None:
            del node.body[0]
    return _sha12(ast.dump(tree))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("package", nargs="?", default=str(PACKAGE), help="directory of the modules to count")
    root = Path(ap.parse_args(argv).package)
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(root.glob("*.py"))}
    rows = {name: (*line_counts(source), code_digest(source)) for name, source in sources.items()}
    totals = tuple(map(sum, zip(*(row[:3] for row in rows.values()))))
    rows["all"] = (*totals, _sha12("".join(row[3] for row in rows.values())))
    print(f"{'module':<24} {'total':>6} {'doc':>6} {'code':>6} {'digest':>12}")
    for name, row in rows.items():
        print(f"{name:<24} {row[0]:>6} {row[1]:>6} {row[2]:>6} {row[3]:>12}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
