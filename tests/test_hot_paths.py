"""The hot paths keep their cheap forms.

On the 2-3 element operands of a stencil phase or a damped inverse, the
``@`` operator's matmul gufunc costs about twice a ``.dot`` call, with the
same bits, and entering an ``np.errstate`` costs more than the arithmetic it
guards.  The suite times nothing, so these tests keep the operator and the
errstate from creeping back into those paths unnoticed.  The one
``np.matmul`` call, phase 1's models for a whole sweep, is there because
its stacked items keep each row's ``.dot`` bits, which a flat product does not.
"""

import ast
import tokenize
from pathlib import Path

import numpy as np
import pytest

from helpers import count_errstates
from lmcorrect.corrections import PHASES
from lmcorrect.linalg import SvdFactors
from lmcorrect.optimizer import LambdaSchedule, OptimizerConfig, step
from lmcorrect.problems import valley_problem

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "lmcorrect"

HOT_FUNCTIONS = [
    ("corrections.py", "CorrectionSeries.step"),
    ("corrections.py", "correction_series"),
    ("corrections.py", "stencil_base"),
    ("linalg.py", "SvdFactors.__init__"),
    ("linalg.py", "SvdFactors._scale_rows"),
    ("linalg.py", "SvdFactors._apply"),
    ("linalg.py", "SvdFactors.damped_apply"),
    ("linalg.py", "SvdFactors.damped_apply_batch"),
    ("optimizer.py", "step"),
    ("problems.py", "valley_problem"),
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


def test_an_order_one_valley_step_enters_no_errstate(monkeypatch):
    # The screens in SvdFactors, its scale rows and products, and step pass
    # on every sweep of the K = 1e5 valley from (pi, e), so none enters an
    # errstate; a zero damping fails the rows' screen, so Gauss-Newton's
    # sweep does.
    # Its corrections then read the zero row that the sweep kept, as every
    # correction reads its damping's row, and enter none.
    problem = valley_problem(1e5)
    x = np.array([np.pi, np.e])
    f0 = problem.evaluator(x)
    entered = count_errstates(monkeypatch)
    for order in (1, 2, 3, 4):
        for centre, errstates in ((1.0, 0), (0.0, 1)):
            del entered[:]
            _, _, record = step(x, problem, LambdaSchedule(centre),
                                OptimizerConfig(order=order), f0=f0)
            assert record.accepted and len(entered) == errstates


@pytest.mark.parametrize("order", [2, 3, 4])
def test_the_stacked_model_product_keeps_each_rows_dot_bits(order):
    # Phase 1's models for a sweep come from one np.matmul over (n, k, p)
    # offsets and the transposed view J.T; each of its items must equal that
    # row's own offsets.dot(J.T), bit for bit, as a candidate formed it
    # alone.  Valley Jacobians at K = 1e2 to 1e8, at (pi, e) and at random
    # points, over sweeps centred at 1e-6, 1 and 1e6.
    rng = np.random.default_rng(31)
    mult = np.array(PHASES[order][0][0], dtype=float)[:, :1]
    points = [np.array([np.pi, np.e])] + list(rng.uniform(-3.0, 3.0, size=(20, 2)))
    for K in (1e2, 1e4, 1e6, 1e7, 1e8):
        problem = valley_problem(K)
        for x in points:
            J = problem.jacobian(x)
            factors = SvdFactors(J)
            for centre in (1e-6, 1.0, 1e6):
                c1s = -factors.damped_apply_batch(LambdaSchedule(centre).grid(),
                                                  problem.evaluator(x))
                offsets = c1s[:, None] * mult
                stacked = np.matmul(offsets, J.T)
                for row, item in zip(offsets, stacked):
                    assert row.dot(J.T).tobytes() == item.tobytes()
