"""Print the code lines of each Python module under a directory, and the total.

A line counts when it holds a token outside comments and docstrings: blank
lines, comment lines and the lines of a module's, class's or function's
docstring do not count, and a statement spread over three lines counts
three times.  A string that is not a docstring counts on every line it
spans.

Usage, from the repository root::

    python tools/src_lines.py [DIR]

``DIR`` defaults to the ``src`` directory of the checkout that holds this
script.  Each module is printed as its path relative to ``DIR`` and its
count, then ``total``.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

# Tokens that are layout, not code.
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def docstring_starts(tree) -> set:
    """The ``(line, column)`` of every module, class and function docstring."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.lineno, first.col_offset))
    return starts


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold a token outside comments
    and docstrings."""
    docstrings = docstring_starts(ast.parse(source))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in _LAYOUT or (token.type == tokenize.STRING
                                     and token.start in docstrings):
            continue
        lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src"
    total = 0
    for path in sorted(root.rglob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{path.relative_to(root).as_posix()}  {count}")
    print(f"total  {total}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
