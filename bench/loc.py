"""Code lines of each module under ``src/shiftlab``, and their total.

    python3 bench/loc.py [DIR]

A code line is a physical line that holds at least one real token (not a
comment, a blank line or pure indentation), minus the lines of docstrings:
the string literal that is the first statement of a module, class or
function.  A token that spans lines, such as a triple-quoted string that is
not a docstring, counts every line it covers.  The count is a measure, not
a gate: it tells a change that simplifies from one that only reformats.
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SKIP = {tokenize.ENCODING, tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: str) -> int:
    """The number of code lines of one Python file."""
    with open(path, "rb") as f:
        source = f.read()
    lines: set[int] = set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type not in SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source, path)))


def main(argv: list[str]) -> int:
    top = argv[0] if argv else os.path.join(ROOT, "src", "shiftlab")
    total = 0
    for name in sorted(os.listdir(top)):
        if name.endswith(".py"):
            n = code_lines(os.path.join(top, name))
            total += n
            print(f"{n:6d}  {name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
