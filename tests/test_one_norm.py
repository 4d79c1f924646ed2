"""Every vector norm in the package is ``linalg._norm``, ``math.hypot`` over
the entries.

A norm taken as the square root of a squared sum underflows to 0 for tiny
vectors and overflows for huge ones; ``math.hypot`` does neither.  These
source scans keep ``sqrt``, ``vecdot`` and ``linalg.norm`` out of the
package, ``math.hypot`` inside one function and ``.tolist()`` out of
``corrections.py``, so no second norm or per-entry walk creeps back in
unnoticed.  The value tests pin what the norm must keep at m = 1000
residuals, whatever computes it.
"""

import ast
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from lmcorrect.linalg import _norm, finite_norm

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


def test_math_hypot_is_in_one_function():
    # Every norm goes through linalg._norm, so a faster norm for large m is
    # one function body to change, and no caller picks a path.
    uses = [(path.name, line) for path in sorted(PACKAGE.glob("*.py"))
            for line, name in used_names(ast.parse(path.read_text()))
            if name == "hypot"]
    linalg = ast.parse((PACKAGE / "linalg.py").read_text())
    norm = next(node for node in ast.walk(linalg)
                if isinstance(node, ast.FunctionDef) and node.name == "_norm")
    assert uses
    assert all(name == "linalg.py" and norm.lineno <= line <= norm.end_lineno
               for name, line in uses), uses


M = 1000


def test_tiny_entries_do_not_read_zero_at_m_1000():
    v = np.full(M, 1e-170)
    exact = 1e-170 * math.sqrt(M)
    for norm in (_norm(v), finite_norm(v, (M,), "v")[1]):
        assert norm > 0.0
        assert abs(norm - exact) <= 2 * math.ulp(exact)


def test_huge_entries_do_not_overflow_at_m_1000():
    v = np.full(M, 1e300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        norm = finite_norm(v, (M,), "v")[1]
    assert math.isfinite(norm)
    assert abs(norm - 1e300 * math.sqrt(M)) <= 2 * math.ulp(norm)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_finite_norm_rejects_one_non_finite_entry_at_m_1000(bad):
    v = np.ones(M)
    v[M // 2] = bad
    with pytest.raises(ValueError, match="^v must be finite$"):
        finite_norm(v, (M,), "v")


def test_finite_norm_is_inf_unwarned_beyond_float64():
    v = np.full(M, 1.7e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        arr, norm = finite_norm(v, (M,), "v")
    assert norm == math.inf
    assert np.array_equal(arr, v)


def test_finite_norm_checks_the_shape_first():
    with pytest.raises(ValueError, match=r"^v has shape \(3,\), expected \(2,\)$"):
        finite_norm([1.0, math.nan, 2.0], (2,), "v")


def tolist_calls(tree):
    """Lines of every ``.tolist()`` call in ``tree``."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "tolist"]


def test_the_stencil_walks_entries_only_through_the_norm():
    # corrections.py turns no array into a list, so each per-entry pass of
    # the stencil goes through _norm, the one body a large-m norm edits.
    assert tolist_calls(ast.parse("a = v.tolist()\nb = f(x).tolist()[0]\n")) == [1, 2]
    assert tolist_calls(ast.parse((PACKAGE / "corrections.py").read_text())) == []
