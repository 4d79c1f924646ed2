"""``SvdFactors`` is the one owner of a step's Jacobian.

It checks J's finiteness, keeps J and bounds it by its largest singular
value; the stencil base reads J and that bound from it.  This source scan
keeps a second finiteness check or norm of J from creeping back into
another module unnoticed.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "lmcorrect"

# Calls that check finiteness or measure a size.
CHECKS = {"as_finite", "finite_norm", "_norm", "isfinite", "norm", "hypot",
          "reduce", "max", "abs"}

# How a Jacobian is spelled: its usual names, as a variable or an attribute,
# the problem's ``jacobian`` callable, and the name a check reports.
JACOBIAN = {"J", "Jt", "jacobian"}


def mentions_jacobian(node) -> bool:
    return any(isinstance(sub, ast.Name) and sub.id in JACOBIAN
               or isinstance(sub, ast.Attribute) and sub.attr in JACOBIAN
               or isinstance(sub, ast.Constant) and sub.value in JACOBIAN
               for sub in ast.walk(node))


def jacobian_checks(tree):
    """Lines of every checking call whose callee or arguments name a Jacobian."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            if name in CHECKS and mentions_jacobian(node):
                yield node.lineno


def test_only_linalg_checks_or_measures_a_jacobian():
    found = {path.name: sorted(set(jacobian_checks(ast.parse(path.read_text()))))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert found.pop("linalg.py")  # SvdFactors' screen and its as_finite
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_the_scan_sees_each_spelling():
    source = ('as_finite(J, J.shape, "jacobian")\n'
              "gain = _norm(J.ravel())\n"
              "ok = np.isfinite(factors.J).all()\n"
              "size = np.linalg.norm(base.Jt)\n"
              "top = np.maximum.reduce(np.abs(problem.jacobian(x)))\n"
              "top = J.max()\n"
              "size = _norm(f0)\n")
    assert sorted(set(jacobian_checks(ast.parse(source)))) == [1, 2, 3, 4, 5, 6]
