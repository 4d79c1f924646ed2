"""Every vector norm in the package is ``math.hypot`` over the entries.

A norm taken as the square root of a squared sum underflows to 0 for tiny
vectors and overflows for huge ones; ``math.hypot`` does neither.  This
source scan keeps ``sqrt``, ``vecdot`` and ``linalg.norm`` out of the
package, so no second norm creeps back in unnoticed.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "lmcorrect"

FORBIDDEN = {"sqrt", "vecdot", "linalg.norm"}


def used_names(tree):
    """``(line, name)`` for every name, attribute and ``from`` import in ``tree``.

    An attribute also yields its last two dotted parts, such as
    ``linalg.norm``, and a ``from`` import its module's last part joined to
    the imported name.
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute):
            yield node.lineno, node.attr
            yield node.lineno, ".".join(ast.unparse(node).split(".")[-2:])
        elif isinstance(node, ast.ImportFrom):
            module = (node.module or "").rpartition(".")[2]
            for alias in node.names:
                yield node.lineno, alias.name
                yield node.lineno, f"{module}.{alias.name}"


def test_no_squared_norm_in_the_package():
    found = [(path.name, line, name)
             for path in sorted(PACKAGE.glob("*.py"))
             for line, name in used_names(ast.parse(path.read_text()))
             if name in FORBIDDEN]
    assert found == []


def test_the_scan_sees_each_spelling():
    source = ("from math import sqrt\nfrom numpy.linalg import norm\n"
              "a = np.sqrt(np.vecdot(v, v))\nb = np.linalg.norm(v)\n")
    names = {name for _, name in used_names(ast.parse(source))}
    assert FORBIDDEN <= names
