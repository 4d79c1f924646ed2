"""Every vector norm in the package is ``linalg._norm``, ``math.hypot`` over
the entries, or its row-block sibling ``linalg._norms``, which gives each
row the same bits.

A norm taken as the square root of a squared sum underflows to 0 for tiny
vectors and overflows for huge ones; ``math.hypot`` does neither.  These
source scans keep ``sqrt``, ``vecdot`` and ``linalg.norm`` out of the
package, ``math.hypot`` inside those two functions and ``.tolist()`` out of
``corrections.py``, so no other norm or per-entry walk creeps back in
unnoticed.  The value tests pin what the norm must keep at m = 1000
residuals, whatever computes it.
"""

import ast
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from lmcorrect.linalg import _norm, _norms, finite_norm

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


NORM_BODIES = ("_norm", "_norms")


def test_math_hypot_is_in_one_function():
    # Every norm goes through linalg._norm or its row-block sibling
    # linalg._norms, so a faster norm for large m is two function bodies to
    # change, and no caller picks a path.
    uses = [(path.name, line) for path in sorted(PACKAGE.glob("*.py"))
            for line, name in used_names(ast.parse(path.read_text()))
            if name == "hypot"]
    linalg = ast.parse((PACKAGE / "linalg.py").read_text())
    bodies = {node.name: range(node.lineno, node.end_lineno + 1)
              for node in linalg.body
              if isinstance(node, ast.FunctionDef) and node.name in NORM_BODIES}
    assert sorted(bodies) == sorted(NORM_BODIES)
    inside = {body: [line for name, line in uses if name == "linalg.py" and line in lines]
              for body, lines in bodies.items()}
    assert all(inside.values()), inside
    assert all(name == "linalg.py" and any(line in lines for lines in bodies.values())
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


def _rows(m):
    """Rows of every kind ``_norms`` must keep: zeros, -0.0, tiny, huge,
    inf and nan entries, each row alone and mixed with the others."""
    kinds = [0.0, -0.0, 1e-170, -1e300, math.inf, math.nan]
    rows = [np.full(m, value) for value in kinds]
    rows += [np.resize([1.0, -0.0, 1e-170], m), np.resize([1e300, -1e300, 3.0], m),
             np.resize([1e-170, 1e300], m), np.resize([2.0, math.inf, math.nan], m),
             np.resize([-math.inf, 1e-170], m), np.resize([math.nan, 0.0], m)]
    rng = np.random.default_rng(m)
    rows += [rng.standard_normal(m) * 10.0 ** rng.integers(-170, 300, m)]
    return np.array(rows)


@pytest.mark.parametrize("m", [2, 1000])
def test_row_block_norms_have_the_bits_of_each_rows_norm(m):
    block = _rows(m)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        norms = _norms(block)
    assert type(norms) is list and len(norms) == len(block)
    for norm, row in zip(norms, block):
        expected = _norm(row)
        assert type(norm) is float
        assert (math.isnan(norm) and math.isnan(expected)
                or norm.hex() == expected.hex()), (norm, expected)
