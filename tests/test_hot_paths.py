"""The hot paths keep their cheap forms.

On the 2-3 element operands of a stencil phase or a damped inverse, the
``@`` operator's matmul gufunc costs about twice a ``.dot`` call, with the
same bits, and entering an ``np.errstate`` costs more than the arithmetic it
guards.  The suite times nothing, so these tests keep the operator and the
errstate from creeping back into those paths unnoticed.  The block products
of a sweep, each phase's offsets, linear models and weighted defects and
both products of the block apply ``SvdFactors.damped_apply``, are stacked
``np.matmul`` calls: each of their items keeps its row's own ``.dot``
bits, which a flat product over the block does not.
"""

import ast
import tokenize
from pathlib import Path

import numpy as np
import pytest

from helpers import count_errstates
from lmcorrect.corrections import PHASES, STENCIL_EVALUATIONS
from lmcorrect.linalg import SvdFactors
from lmcorrect.optimizer import LambdaSchedule, OptimizerConfig, step
from lmcorrect.problems import Problem, valley_problem

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "lmcorrect"

HOT_FUNCTIONS = [
    ("corrections.py", "CorrectionSeries.step"),
    ("corrections.py", "correction_series"),
    ("corrections.py", "stencil_base"),
    ("corrections.py", "_stencil_base"),
    ("corrections.py", "_series_block"),
    ("linalg.py", "_norms"),
    ("linalg.py", "_dampings"),
    ("linalg.py", "SvdFactors.__init__"),
    ("linalg.py", "SvdFactors._scale_rows"),
    ("linalg.py", "SvdFactors.damped_apply"),
    ("linalg.py", "SvdFactors.damped_apply_batch"),
    ("optimizer.py", "step"),
    ("problems.py", "valley_problem"),
    ("problems.py", "PolynomialProblem.evaluator"),
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
    # sweep does.  Each phase's block apply then reuses the sweep's rows,
    # the zero row included, and enters none.  At orders 2-4 the sweep
    # centred at 1 runs again with its eighth candidate's phase-1 residuals
    # beyond 2 _BOUND: the phase's whole-block screen fails, and the
    # per-row test that truncates that candidate enters no errstate either.
    valley = valley_problem(1e5)
    x = np.array([np.pi, np.e])
    f0 = valley.evaluator(x)
    calls, beyond = [], set()

    def evaluator(p):
        calls.append(p.tobytes())
        f = valley.evaluator(p)
        return f + 1e307 if p.tobytes() in beyond else f

    problem = Problem(2, 2, evaluator, valley.jacobian)
    entered = count_errstates(monkeypatch)
    for order in (1, 2, 3, 4):
        for centre, errstates in ((0.0, 1), (1.0, 0)):
            del entered[:], calls[:]
            _, _, record = step(x, problem, LambdaSchedule(centre),
                                OptimizerConfig(order=order), f0=f0)
            assert record.accepted and len(entered) == errstates
        if order > 1:  # the block made the phase-1 calls row by row
            points, evaluations = len(PHASES[order][0][0]), STENCIL_EVALUATIONS[order]
            beyond = set(calls[7 * points:8 * points])
            _, _, record = step(x, problem, LambdaSchedule(1.0),
                                OptimizerConfig(order=order), f0=f0)
            beyond = set()
            assert record.accepted and entered == []
            assert record.f_evaluations == 21 * (evaluations + 1) - (evaluations - points)


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


def _stacked_cases():
    """``(J, x, c1s)`` of sweeps: valley Jacobians at K = 1e2 to 1e8 at (pi,
    e) and random points, random ``(m, p)`` Jacobians of MGH size (m up to
    40) and of m = 1000, p = 8, each over sweeps centred at 1e-6, 1 and 1e6."""
    rng = np.random.default_rng(32)
    points = [np.array([np.pi, np.e])] + list(rng.uniform(-3.0, 3.0, size=(4, 2)))
    for K in (1e2, 1e4, 1e6, 1e7, 1e8):
        problem = valley_problem(K)
        for x in points:
            yield problem.jacobian(x), x, problem.evaluator(x)
    for m, p in ((3, 2), (5, 4), (10, 10), (13, 6), (20, 4), (31, 9), (40, 7),
                 (1000, 8)):
        for _ in range(3):
            J = rng.normal(size=(m, p)) * 10.0 ** rng.uniform(-3, 3, size=p)
            yield J, rng.normal(size=p), rng.normal(size=m)


def _sweeps():
    for J, x, f0 in _stacked_cases():
        factors = SvdFactors(J)
        for centre in (1e-6, 1.0, 1e6):
            lams = LambdaSchedule(centre).grid()
            yield factors, x, lams, -factors.damped_apply_batch(lams, f0)


@pytest.mark.parametrize("order", [3, 4])
def test_the_later_phases_stacked_products_keep_each_rows_dot_bits(order):
    # Phases 2+ form every row's offsets from its known directions, and
    # their linear models, as stacked np.matmul calls over the block; each
    # item must equal that row's own mult.dot(known) and offsets.dot(J.T),
    # bit for bit.  The directions past c1 are corrections-sized rows.
    rng = np.random.default_rng(order)
    for factors, x, lams, c1s in _sweeps():
        n, p = c1s.shape
        directions = np.empty((n, order - 1, p))
        directions[:, 0] = c1s
        scales = rng.uniform(-0.3, 0.3, size=(n, order - 2, 1))
        directions[:, 1:] = c1s[:, None] * scales
        for known, (points, _) in enumerate(PHASES[order][1:], start=2):
            mult = np.ascontiguousarray(np.array(points, dtype=float)[:, :known])
            offsets = np.matmul(mult, directions[:, :known])
            models = np.matmul(offsets, factors.J.T)
            for row in range(n):
                alone = mult.dot(directions[row, :known])
                assert alone.tobytes() == offsets[row].tobytes()
                assert alone.dot(factors.J.T).tobytes() == models[row].tobytes()


@pytest.mark.parametrize("order", [2, 3, 4])
def test_the_weighted_defects_keep_each_rows_dot_bits(order):
    # Each phase weights every row's defects so far in one stacked
    # np.matmul; each item must equal that row's own weights.dot(defects).
    rng = np.random.default_rng(10 + order)
    for J, _, _ in _stacked_cases():
        m = len(J)
        defects = rng.normal(size=(21, STENCIL_EVALUATIONS[order], m)) * 10.0 ** (
            rng.uniform(-8, 8, size=(21, 1, 1)))
        end = 0
        for points, weights in PHASES[order]:
            end += len(points)
            weights = np.array(weights, dtype=float)
            block = np.matmul(weights, defects[:, :end])
            for row in range(21):
                alone = weights.dot(defects[row, :end])
                assert alone.tobytes() == block[row].tobytes()


def test_both_products_of_the_block_apply_keep_each_rows_dot_bits():
    # damped_apply projects every row on U and maps every scaled row back
    # through Vt in two stacked np.matmul calls; each item must equal that
    # row's own Ut.dot(v) and w.dot(Vt), and the block apply's row the
    # one-row product (scale * Ut.dot(v)).dot(Vt).
    rng = np.random.default_rng(33)
    for factors, _, lams, c1s in _sweeps():
        vs = rng.normal(size=(len(lams), len(factors.J))) * 10.0 ** (
            rng.uniform(-8, 8, size=(len(lams), 1)))
        projected = np.matmul(vs[:, None], factors.U)
        rows = factors._scale_rows(lams)[1]
        mapped = np.matmul(projected * rows[:, None], factors.Vt)
        applied = factors.damped_apply(lams, vs)
        for row, v in enumerate(vs):
            alone = factors.Ut.dot(v)
            assert alone.tobytes() == projected[row, 0].tobytes()
            scaled = rows[row] * alone
            assert scaled.dot(factors.Vt).tobytes() == mapped[row, 0].tobytes()
            assert scaled.dot(factors.Vt).tobytes() == applied[row].tobytes()
