"""Count the code lines of each Python module of a source tree.

    python3 tools/code_lines.py src/hybridec

prints one line per module, the count and the path, then their total, as
wc -l does.  A code line holds a token that is neither a comment nor part
of a docstring (the string statement that opens a module, class or
function body): blank lines, comment lines and docstring lines do not
count.  Arguments may be directories, whose *.py files are read at any
depth in sorted order, or single files.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENDMARKER}


def docstring_spans(tree: ast.AST) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """(start, end) positions, (line, column), of every docstring in tree."""
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                spans.append(((first.lineno, first.col_offset),
                              (first.end_lineno, first.end_col_offset)))
    return spans


def code_lines(path: Path) -> int:
    """The number of lines of the module at path that hold a code token."""
    with tokenize.open(path) as fh:
        source = fh.read()
    spans = docstring_spans(ast.parse(source, str(path)))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in LAYOUT or any(a <= token.start and token.end <= b for a, b in spans):
            continue
        lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not argv:
        print("usage: code_lines.py PATH...", file=sys.stderr)
        return 2
    modules = [module for arg in map(Path, argv)
               for module in (sorted(arg.rglob("*.py")) if arg.is_dir() else [arg])]
    total = 0
    for module in modules:
        count = code_lines(module)
        total += count
        print(f"{count:7d} {module}")
    print(f"{total:7d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
