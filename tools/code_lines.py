"""Count the code lines of Python files.

A code line holds at least one token other than a comment or a newline;
the lines of module, class and function docstrings do not count. Run

    python tools/code_lines.py src/multistage/

to print the count of every ``.py`` file under the given files and
directories, then the total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(source: str) -> set[int]:
    """Line numbers (from 1) covered by docstrings."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, DOCUMENTED) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Number of lines that hold a token other than a comment or a newline,
    docstrings excluded."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in SKIPPED:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(source))


def python_files(args: list[str]) -> list[Path]:
    files = []
    for arg in args:
        p = Path(arg)
        files += sorted(p.rglob("*.py")) if p.is_dir() else [p]
    return files


def main(argv: list[str]) -> int:
    if not argv:
        sys.stderr.write("usage: python tools/code_lines.py PATH [PATH ...]\n")
        return 2
    total = 0
    for file in python_files(argv):
        count = code_lines(file.read_text())
        total += count
        print(f"{count:6d}  {file}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
