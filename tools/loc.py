"""Count the source lines of ``src/plcword``: all lines, and code lines.

Prints one line per module, then the total.

Code lines leave out blank lines, comment-only lines and the lines of
docstrings (the string that opens a module, class or function body).
Run from anywhere: ``python tools/loc.py``.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "plcword"
NON_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENDMARKER,
}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers of the docstrings of a module and its classes and functions."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(text: str) -> tuple[int, int]:
    """(lines, code lines) of one Python source text."""
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in NON_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code - docstring_lines(ast.parse(text)))


def main() -> None:
    lines = code = 0
    for path in sorted(SOURCE.glob("*.py")):
        file_lines, file_code = count(path.read_text(encoding="utf-8"))
        print(f"  {path.name}: {file_lines:,} lines, {file_code:,} code lines")
        lines += file_lines
        code += file_code
    print(f"src/plcword: {lines:,} lines, {code:,} code lines")


if __name__ == "__main__":
    main()
