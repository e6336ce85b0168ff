"""Count the code lines of the qhermite package.

A code line is a line of src/qhermite/*.py that holds a token other than a
comment or a docstring (the string that opens a module, class or function
body).  Blank lines, comment lines and docstring lines do not count; a
statement that spans several lines counts each of them.

    python tools/code_lines.py [PACKAGE_DIR]

prints each module's count and then the total.  PACKAGE_DIR defaults to
src/qhermite next to this script's directory.
"""
from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set:
    """Line numbers of every module, class and function docstring in tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Lines of source that hold a token other than a comment or a docstring."""
    docstrings = _docstring_lines(ast.parse(source))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def count_package(package: Path) -> dict:
    """Code lines of each module of package, by file name, in name order."""
    return {path.name: code_lines(path.read_text()) for path in sorted(package.glob("*.py"))}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    package = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "qhermite"
    counts = count_package(package)
    width = max(map(len, counts), default=0)
    for name, count in counts.items():
        print(f"{name:<{width}}  {count:5d}")
    print(f"{'total':<{width}}  {sum(counts.values()):5d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
