"""The per-candidate products stay ``ndarray.dot`` calls.

On the 2-3 element operands of a stencil phase or a damped inverse, the
``@`` operator's matmul gufunc costs about twice a ``.dot`` call, with the
same bits.  The suite times nothing, so this test keeps the operator from
creeping back into those functions unnoticed.
"""

import ast
import tokenize
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "lmcorrect"

HOT_FUNCTIONS = [
    ("corrections.py", "correction_series"),
    ("linalg.py", "SvdFactors.damped_apply"),
    ("linalg.py", "SvdFactors.damped_apply_batch"),
]


def line_span(path, qualname):
    """First and last line of a module-level function or a method."""
    scope = ast.parse(path.read_text())
    for name in qualname.split("."):
        scope = next((node for node in scope.body
                      if isinstance(node, (ast.ClassDef, ast.FunctionDef))
                      and node.name == name), None)
        assert scope is not None, f"{qualname} not found in {path.name}"
    return scope.lineno, scope.end_lineno


def matmul_lines(path, first, last):
    """Lines in ``first..last`` holding an ``@`` or ``@=`` operator token."""
    with tokenize.open(path) as source:
        return [tok.start[0] for tok in tokenize.generate_tokens(source.readline)
                if tok.type == tokenize.OP and tok.string in ("@", "@=")
                and first <= tok.start[0] <= last]


@pytest.mark.parametrize("filename,qualname", HOT_FUNCTIONS)
def test_hot_path_products_use_dot(filename, qualname):
    path = PACKAGE / filename
    assert matmul_lines(path, *line_span(path, qualname)) == []
