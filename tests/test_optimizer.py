import collections
import csv
import inspect
import io
import itertools
import math
import re
import sys
import warnings
import zlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.exceptions import ComplexWarning

from helpers import (
    count_errstates,
    counting_problem,
    evaluator_failing_at,
    four_exponential_fit,
    jacobian_raising_from,
    nan_jacobian_below,
)
from lmcorrect import optimizer
from lmcorrect.cli import write_trace_csv
from lmcorrect.linalg import _BOUND, SvdFactors, _norm
from lmcorrect.corrections import (
    PHASES,
    STENCIL_EVALUATIONS,
    StencilEvaluationError,
    correction_series,
    stencil_base,
)
from lmcorrect.optimizer import (
    GRID_BASE,
    LambdaSchedule,
    OptimizerConfig,
    StepFailureError,
    run,
    step,
)
from lmcorrect.problems import (
    Problem,
    affine_problem,
    default_affine_problem,
    valley_problem,
)

START = np.array([np.pi, np.e])

def test_lambda_grid_shape():
    schedule = LambdaSchedule(lambda_old=3.0)
    grid = schedule.grid()
    assert len(grid) == 21
    assert grid[10] == 3.0                      # centre is lambda_old
    assert grid[20] / 3.0 == GRID_BASE          # max up-shift exactly 10^4
    assert grid[0] == 3.0 * GRID_BASE**-1.0     # max down-shift exactly 10^-4
    # log-symmetric around the centre
    for n in range(1, 11):
        assert grid[10 + n] * grid[10 - n] == pytest.approx(9.0, rel=1e-12)
    assert np.all(np.diff(grid) > 0)
    # Exactly the per-entry formula, for any centre inside the clamp.
    for lam in (3.0, 1e-300, 7.3e12):
        assert LambdaSchedule(lambda_old=lam).grid().tolist() == [
            lam * GRID_BASE ** ((n / 10.0) ** 3) for n in range(-10, 11)
        ]


@pytest.mark.parametrize("centre", [math.nan, -1.0, math.inf, True, "1", None],
                         ids=["nan", "negative", "inf", "True", "str", "None"])
def test_a_centre_that_is_not_a_damping_is_rejected_at_construction(centre):
    # Each was taken: from (pi, e) on the K = 100 valley, nan called the
    # Jacobian before the sweep raised "damping must be non-negative", -1.0
    # and inf swept the clamp's end grids, centred at 1.4e-302 and 7.0e301,
    # True swept as 1, and "1" raised TypeError.  The rule is
    # start_damping's, before any call.
    problem, counter = counting_problem(valley_problem(100.0))
    jacobian = mock.Mock(wraps=problem.jacobian)
    with pytest.raises(ValueError, match=re.escape(
            f"lambda_old must be non-negative and finite, got {centre!r}")):
        step(START, Problem(2, 2, problem.evaluator, jacobian), LambdaSchedule(centre),
             OptimizerConfig(), f0=valley_problem(100.0).evaluator(START))
    assert counter["evals"] == jacobian.call_count == 0
    for centre in (0.0, 5e-324, np.float64(2.0), 3):
        assert LambdaSchedule(centre).lambda_old == centre


@pytest.mark.parametrize("centre", [
    math.nan, -1.0, -5e-324, True, np.True_, np.float64(math.nan), np.float64(-1.0),
    np.float64(math.inf), "1", None, 1j,
], ids=["nan", "negative", "-5e-324", "True", "np.True_", "np.nan", "np.negative",
        "np.inf", "str", "None", "complex"])
def test_a_centre_set_after_construction_is_checked_by_the_grid(centre):
    # Set after construction, a centre got past the rule: from (pi, e) on
    # the K = 100 valley -1.0 swept at 1.42e-306 and was accepted, True
    # swept as 1, and nan failed inside the sweep, after the Jacobian call.
    # grid() raises the construction's error, and step reads the grid
    # before any call.
    problem, counter = counting_problem(valley_problem(100.0))
    jacobian = mock.Mock(wraps=problem.jacobian)
    schedule = LambdaSchedule(1.0)
    schedule.lambda_old = centre
    message = re.escape(f"lambda_old must be non-negative and finite, got {centre!r}")
    with pytest.raises(ValueError, match=message):
        schedule.grid()
    with pytest.raises(ValueError, match=message):
        step(START, Problem(2, 2, problem.evaluator, jacobian), schedule,
             OptimizerConfig(), f0=valley_problem(100.0).evaluator(START))
    assert counter["evals"] == jacobian.call_count == 0


def test_a_centre_set_after_construction_keeps_the_constructed_grid():
    # A float inf, which the rejection floor may set, is clamped to the top
    # centre R / 10^4; every other damping sweeps the grid a schedule
    # constructed at it sweeps, and a step from it takes no other path.
    problem = valley_problem(100.0)
    f0 = problem.evaluator(START)
    for centre, constructed in ((math.inf, _BOUND / GRID_BASE), (0.0, 0.0), (-0.0, 0.0),
                                (5e-324, 5e-324), (np.float64(2.0), 2.0), (3, 3.0),
                                (1.7e308, 1.7e308)):
        schedule = LambdaSchedule(1.0)
        schedule.lambda_old = centre
        expected = LambdaSchedule(constructed)
        assert schedule.grid().tobytes() == expected.grid().tobytes()
        outcomes = [step(START, problem, s, OptimizerConfig(), f0=f0)
                    for s in (schedule, expected)]
        assert repr(outcomes[0]) == repr(outcomes[1])
        assert schedule.lambda_old == expected.lambda_old


def test_zero_centred_schedule_stays_at_zero():
    # Every grid factor times 0 is 0: the grid is the one damping [0], and
    # neither an accepted nor a rejected sweep moves the centre off 0.
    schedule = LambdaSchedule(0.0)
    assert schedule.grid().tolist() == [0.0]
    problem = valley_problem(1.0)
    _, _, record = step(START, problem, schedule, OptimizerConfig(),
                        f0=problem.evaluator(START))
    assert record.accepted and record.chosen_lambda == 0.0
    assert schedule.lambda_old == 0.0
    # A constant residual: the undamped endpoint is no better.
    f0 = np.array([1.0, 1.0])
    flat = Problem(2, 2, lambda x: f0.copy(), lambda x: np.eye(2), name="flat")
    _, _, record = step(np.zeros(2), flat, schedule, OptimizerConfig(), f0=f0)
    assert not record.accepted and record.chosen_lambda == 0.0
    assert schedule.lambda_old == 0.0
    assert schedule.grid().tolist() == [0.0]


def test_zero_centred_step_sweeps_one_candidate():
    # The schedule, not the config's start damping, picks the grid: one
    # order-4 candidate costs its 8 stencil calls and its endpoint, not
    # 21 x 9.
    problem, counter = counting_problem(valley_problem(1e6))
    f0 = problem.evaluator(START)
    counter["evals"] = 0
    _, _, record = step(START, problem, LambdaSchedule(0.0),
                        OptimizerConfig(order=4), f0=f0)
    assert record.f_evaluations == counter["evals"] == 9
    assert record.chosen_lambda == 0.0


@pytest.mark.parametrize("order", [1, 2])
def test_affine_problem_one_undamped_step(order):
    problem = default_affine_problem()
    config = OptimizerConfig(order=order, start_damping=0.0)
    result = run(np.array([5.0, -3.0]), problem, config)
    assert result.converged
    assert result.iterations == 1
    assert result.residual_norm <= 1e-12
    assert result.trajectory[0].chosen_lambda == 0.0


def test_tiny_residual_is_not_taken_for_zero():
    # |f(0)| = 2.24e-170: its squared norm underflowed to 0, so the run
    # reported convergence at iteration 0 under a tolerance of 1e-200.
    A = 1e-170 * np.array([[2.0, 1.0], [1.0, 3.0]])
    problem = affine_problem(A, 1e-170 * np.array([1.0, 2.0]))
    tol = 1e-200
    config = OptimizerConfig(convergence_tol=tol, start_damping=0.0)
    result = run(np.zeros(2), problem, config)
    assert result.iterations >= 1
    assert result.residual_norm == math.hypot(*problem.evaluator(result.x))
    assert result.converged == (result.residual_norm <= tol)


@pytest.mark.parametrize("order,x0,b,iterations", [
    *(pytest.param(order, 0.0, 1.7e308, 3, id=str(order)) for order in (2, 3, 4)),
    *(pytest.param(order, 1.79765e308, np.finfo(float).max - 1e303, iterations,
                   id=f"x-near-max-{order}")
      for order, iterations in ((1, 2), (2, 2), (3, 2), (4, 2))),
])
def test_a_first_step_near_float64s_maximum_skips_the_stencil(order, x0, b,
                                                              iterations):
    # From x = 0 the first c1 is about (1.7e308, 0).  At order 4 the stencil
    # point 1.5 c1 overflowed: numpy warned (an error under the suite's
    # filter) and the evaluator ran at an infinite point.  From x near
    # float64's maximum, a c1 of about 3.3e303 left too little headroom:
    # x + 1.5 c1 overflowed the same way.  Such a step's series now
    # truncates before its stencil, so its endpoint is x + c1; so does every
    # series from an x beyond the stencil's bound, R = 2^1016, about 7.0e305.
    problem = affine_problem(np.eye(2), np.array([b, 0.0]))
    points = []
    watched = Problem(2, 2, lambda x: points.append(x) or problem.evaluator(x),
                      problem.jacobian)
    result = run(np.array([x0, 0.0]), watched,
                 OptimizerConfig(order=order, convergence_tol=1.0))
    assert result.converged and result.iterations == iterations
    assert result.trajectory[0].truncated == (order > 1)
    assert result.f_evaluations == len(points)
    assert all(np.isfinite(x).all() for x in points)


@pytest.mark.parametrize("order,f_evaluations", [(1, (9, 4, 5)), (2, (9, 4, 5))])
def test_an_endpoint_beyond_float64s_maximum_is_not_evaluated(order, f_evaluations):
    # From x = (1.5e308, 0) on f = diag(0.5, 1) x - b, the small dampings'
    # x + c1 overflow.  Those candidates are skipped without an evaluator
    # call, where 45 calls used to go to infinite points (64 evaluations in
    # all), with an overflow warning.  Beyond the stencil's bound x runs no
    # stencil, so order 2 costs what order 1 does.
    b = np.array([1.5e308, 0.0])
    affine = affine_problem(np.diag([0.5, 1.0]), b)
    points = []
    problem = Problem(2, 2, lambda x: points.append(x.copy()) or affine.evaluator(x),
                      affine.jacobian)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = run(b.copy(), problem, OptimizerConfig(order=order, max_iterations=3))
    assert caught == []
    assert all(np.isfinite(x).all() for x in points)
    assert result.termination == "max_iterations"
    assert all(record.accepted for record in result.trajectory)
    assert tuple(r.f_evaluations for r in result.trajectory) == f_evaluations
    assert result.f_evaluations == len(points) == 1 + sum(f_evaluations)


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("centre", [0.0, 1e-300])
def test_the_live_set_is_the_same_through_either_mask(order, centre, monkeypatch):
    # f = x - b on J = I from x = 0: every c1 is b exactly (at damping 0, or
    # below eps), and its largest entry lies one ulp above the bound under
    # which step takes every candidate as live.  Raising the bound by one
    # ulp moves the same step onto that fast path: the same record, point
    # and residual, and one errstate fewer, the exact mask's.
    limit = optimizer._BOUND
    b = np.array([np.nextafter(limit, np.inf), -1.0])
    problem = affine_problem(np.eye(2), b)
    config = OptimizerConfig(order=order)
    entered = count_errstates(monkeypatch)
    outcomes = []
    for step_limit in (limit, np.nextafter(limit, np.inf)):
        monkeypatch.setattr(optimizer, "_BOUND", step_limit)
        schedule, before = LambdaSchedule(centre), len(entered)
        x, f, record = step(np.zeros(2), problem, schedule, config, f0=-b)
        outcomes.append((x.tobytes(), f.tobytes(), record, schedule.lambda_old,
                         len(entered) - before))
    exact, fast = outcomes
    assert exact[:4] == fast[:4]
    assert exact[2].accepted and exact[2].residual_norm == 0.0
    assert exact[4] == fast[4] + 1


@pytest.mark.parametrize("order", [1, 2])
def test_a_base_point_beyond_the_bound_takes_the_exact_mask(order):
    # Every c1 lies within the bound, about 1e296 to 1e300, but x sits at
    # float64's maximum, so every x + c1 overflows: the step takes the
    # exact mask, calls no evaluator and fails, with no overflow warning.
    x = np.array([np.finfo(float).max, 0.0])
    problem, counter = counting_problem(Problem(
        2, 2, lambda x: np.array([-1e300, x[1]]), lambda x: np.eye(2)))
    with pytest.raises(StepFailureError, match="no finite candidate") as info:
        step(x, problem, LambdaSchedule(1.0), OptimizerConfig(order=order),
             f0=np.array([-1e300, 0.0]))
    assert info.value.evaluations == counter["evals"] == 0


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_a_step_builds_one_stencil_base_for_its_live_candidates(order, monkeypatch):
    # Orders 2-4 check x, f0 and J once per step and hand their norms to
    # _stencil_base, which builds one base on the step's whole sweep, its
    # c1s and dampings, one row per grid index, and each live candidate's
    # series reads its own grid index's row; order 1 runs no series and
    # builds none.  From x = (1.5e308, 0) on f = diag(0.5, 1) x - b the
    # small dampings' x + c1 overflow, so only some candidates are live,
    # and the evaluator sees only the live candidates' endpoints x + c1.
    b = np.array([1.5e308, 0.0])
    affine = affine_problem(np.diag([0.5, 1.0]), b)
    points = []

    def recording(point):
        points.append(point.copy())
        return affine.evaluator(point)

    problem = Problem(2, 2, recording, affine.jacobian)
    x, f0 = b.copy(), affine.evaluator(b)
    stencil_base, correction_series = optimizer._stencil_base, optimizer.correction_series
    bases, calls = [], []

    def counting_base(*args, **kwargs):
        bases.append(stencil_base(*args, **kwargs))
        return bases[-1]

    def counting_series(base, row, **kwargs):
        calls.append((base, row))
        return correction_series(base, row, **kwargs)

    monkeypatch.setattr(optimizer, "_stencil_base", counting_base)
    monkeypatch.setattr(optimizer, "correction_series", counting_series)
    schedule = LambdaSchedule(1.0)
    grid = schedule.grid()
    c1s = -SvdFactors(problem.jacobian(x)).damped_apply_batch(grid, f0)
    with np.errstate(over="ignore"):
        ends = x + c1s
    live = np.isfinite(ends).all(axis=1)
    assert 0 < live.sum() < len(c1s)
    step(x, problem, schedule, OptimizerConfig(order=order), f0=f0)
    if order == 1:
        assert bases == [] and calls == []
    else:
        assert len(bases) == 1 and all(base is bases[0] for base, _ in calls)
        assert np.array_equal(bases[0].c1s, c1s)
        assert np.array_equal(bases[0].lams, grid)
        assert [row for _, row in calls] == np.flatnonzero(live).tolist()
    assert np.array_equal(points, ends[live])


@pytest.mark.parametrize("order,evaluations", [(1, 20), (2, 23), (3, 32), (4, 44)])
def test_a_partly_live_sweep_computes_its_scale_rows_once(order, evaluations,
                                                          monkeypatch):
    # From x = 0 on f = diag(1e-10, 1) x - (2e300, 1), the smallest damping
    # of a sweep centred at 1e-14 gives an x + c1 that overflows, so 20 of
    # the 21 candidates are live.  The base's rows are the whole sweep, so
    # every phase's block apply reuses the sweep's scale rows: one
    # computation of all 21 per step, at every order.
    computed = []
    scale_rows = SvdFactors._scale_rows

    def counting(self, lams, *sweep):
        lam_list, rows = scale_rows(self, lams, *sweep)
        computed.append(len(lam_list))
        return lam_list, rows

    monkeypatch.setattr(SvdFactors, "_scale_rows", counting)
    problem = affine_problem(np.diag([1e-10, 1.0]), np.array([2e300, 1.0]))
    x = np.zeros(2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, _, record = step(x, problem, LambdaSchedule(1e-14),
                            OptimizerConfig(order=order), f0=problem.evaluator(x))
    assert computed == [21]
    assert record.f_evaluations == evaluations and record.accepted


def _order_one_model(problem, x, grid, f0):
    """The order-1 step's endpoints and record by its rule: every ``x +
    c1`` finite and evaluated, the first least norm leading."""
    c1s = -SvdFactors(problem.jacobian(x)).damped_apply_batch(grid, f0)
    ends = x + c1s
    norms = [_norm(problem.evaluator(end)) for end in ends]
    best = norms.index(min(norms))
    assert norms[best] < _norm(f0)
    return ends, optimizer.IterationRecord(
        chosen_lambda=grid.tolist()[best], residual_norm=norms[best],
        step_norm=_norm(c1s[best]), corrections_norms=(_norm(c1s[best]),),
        f_evaluations=len(grid), accepted=True)


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_a_sweep_past_the_products_bound_screens_its_candidates_by_reduction(order):
    # On f = diag(1, 1e-300) x - (1e6, 1) from x = 0 the bound |f0| (1 /
    # s_min + 1) is about 1e306, past R, yet every c1 entry is at most R:
    # the largest-|c1| reduction keeps all 21 candidates live, in grid
    # order, with the record bits of the order-1 rule.  On a J of rank one
    # 1 / s_min is inf, so a Gauss-Newton sweep and a positive one both
    # fail the bound and fall back to the reduction; the Gauss-Newton
    # sweep's rank warning points at step.
    for A, b, centre in ((np.diag([1.0, 1e-300]), np.array([1e6, 1.0]), 1.0),
                         (np.array([[1.0, 0.0], [2.0, 0.0]]), np.array([1.0, 3.0]), 0.0),
                         (np.array([[1.0, 0.0], [2.0, 0.0]]), np.array([1.0, 3.0]), 1.0)):
        problem, x = affine_problem(A, b), np.zeros(2)
        f0, grid, factors = problem.evaluator(x), LambdaSchedule(centre).grid(), SvdFactors(A)
        assert _norm(f0) * (float(factors.inv_s[-1]) + 1.0) >= _BOUND
        rows, calls = [], []

        def counting_series(base, row, **kwargs):
            rows.append(row)
            return correction_series(base, row, **kwargs)

        def evaluator(point):
            calls.append(point.copy())
            return problem.evaluator(point)

        with mock.patch.object(optimizer, "correction_series", counting_series), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            new_x, _, record = step(x, Problem(2, 2, evaluator, problem.jacobian),
                                    LambdaSchedule(centre), OptimizerConfig(order=order),
                                    f0=f0)
        assert [str(w.message) for w in caught] == (
            ["rank-deficient Jacobian at zero damping; returning the minimum-norm "
             "solution"] if centre == 0.0 else [])
        lines, first = inspect.getsourcelines(step)
        for w in caught:
            assert w.filename == optimizer.__file__
            assert first < w.lineno < first + len(lines)
        assert rows == ([] if order == 1 else list(range(len(grid))))
        if order == 1:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                ends, expected = _order_one_model(problem, x, grid, f0)
            assert np.array(calls).tobytes() == ends.tobytes()
            assert repr(record) == repr(expected)
            assert new_x.tobytes() == ends[grid.tolist().index(record.chosen_lambda)].tobytes()
        assert record.accepted


@pytest.mark.parametrize("order", [1, 4])
def test_the_steps_sweep_has_the_bits_of_the_public_batch(order, monkeypatch):
    # step hands damped_apply_batch its checked grid and f0's norm, and the
    # sweep it gets has the bits of the public call on the same grid and
    # f0: on the valley at K = 1e2 and 1e5, on the 1e-170 affine problem
    # (a zero-centred sweep too) and on the m = 1000 fit.
    batch, sweeps = SvdFactors.damped_apply_batch, []

    def recording(self, lams, v, *checked):
        sweeps.append((self.J.copy(), lams.copy(), v.copy(), checked,
                       batch(self, lams, v, *checked)))
        return sweeps[-1][-1]

    monkeypatch.setattr(SvdFactors, "damped_apply_batch", recording)
    fit, fit_start = four_exponential_fit()
    tiny = affine_problem(1e-170 * np.array([[2.0, 1.0], [1.0, 3.0]]),
                          1e-170 * np.array([1.0, 2.0]))
    cases = [(valley_problem(K), START, centre) for K in (1e2, 1e5)
             for centre in (1e-6, 1.0, 1e6)]
    cases += [(tiny, np.zeros(2), centre) for centre in (0.0, 1e-300, 1.0)]
    cases += [(fit, fit_start, centre) for centre in (1e-2, 1.0, 1e2)]
    for problem, x, centre in cases:
        del sweeps[:]
        step(x, problem, LambdaSchedule(centre), OptimizerConfig(order=order),
             f0=problem.evaluator(x))
        [(J, lams, v, checked, rows)] = sweeps
        assert checked  # the checked grid and norm, not the public checks
        assert lams.tobytes() == LambdaSchedule(centre).grid().tobytes()
        assert rows.tobytes() == batch(SvdFactors(J), lams, v).tobytes()


def _faulty(problem: Problem) -> Problem:
    """The problem whose evaluator, by the CRC-32 of a point's bytes, raises
    at one point in 16, returns a residual beyond 2 _BOUND at another and
    one 1e8 times too large, which makes a correction wild, at a third."""
    def evaluator(point):
        fate = zlib.crc32(point.tobytes()) % 16
        if fate == 0:
            raise FloatingPointError("injected")
        f = problem.evaluator(point)
        return f + 1e307 if fate == 1 else f * 1e8 if fate == 2 else f

    return Problem(problem.input_dim, problem.output_dim, evaluator,
                   problem.jacobian, name=problem.name)


def _endpoint_cases():
    """``(problem, x, centre, faulty)`` of steps: the valley at K = 1e6 and
    1e7 from (pi, e) and two points of its order-2 run; the MGH problems (m
    up to 40) at their standard starts; the m = 1000 four-exponential fit;
    and f = diag(1e6, 1e-6) x + (0, 1e292), whose small dampings' c1 lie
    past the step limit: each plainly and through :func:`_faulty`.  Then,
    plainly, the affine map whose small dampings' x + c1 overflow, and,
    through :func:`_faulty`, a decoupled map from x = (-0.0, 0.5), whose c1
    has a -0.0 entry.  A faulty case keeps its plain residual at x, the
    step's f0."""
    from test_mgh import PROBLEMS

    cases = []
    for K in (1e6, 1e7):
        valley = valley_problem(K)
        cases.append((valley, START, 1.0))
        for iterations in (5, 50):
            result = run(START, valley, OptimizerConfig(order=2,
                                                        max_iterations=iterations))
            cases.append((valley, result.x, result.trajectory[-1].chosen_lambda))
    cases += [(make(), np.array(start, dtype=float), 1.0)
              for make, start in PROBLEMS.values()]
    fit, start = four_exponential_fit()
    cases += [(fit, start, centre) for centre in (1e-2, 1.0, 1e2)]
    cases.append((affine_problem(np.diag([1e6, 1e-6]), np.array([0.0, 1e292])),
                  np.array([-0.0, 0.0]), 1e-11))
    cases = [case + (faulty,) for faulty in (False, True) for case in cases]
    b = np.array([1.5e308, 0.0])
    cases.append((affine_problem(np.diag([0.5, 1.0]), b), b.copy(), 1.0, False))
    decoupled = Problem(2, 2, lambda x: np.array([x[0], x[1] + x[1] ** 2]),
                        lambda x: np.diag([1.0, 1.0 + 2.0 * x[1]]))
    cases.append((decoupled, np.array([-0.0, 0.5]), 1.0, True))
    return cases


@pytest.mark.parametrize("order", [2, 3, 4])
def test_every_endpoint_is_x_plus_its_series_step(order):
    # A step takes a candidate's endpoint from its base's block, or a
    # one-term one from x + c1s; each must have the bits of x + series.step,
    # the series being correction_series on a base of the step's own sweep,
    # for every live candidate whose series did not raise, in grid order,
    # after all the stencil calls.  The winner's step_norm is the norm of
    # its series.step, and its x that endpoint.  The cases hold full
    # series, ones truncated after c1 and mid-series, ones that raise, ones
    # past the step limit, candidates that are not live, and -0.0 step
    # entries at -0.0 entries of x.
    seen = collections.Counter()
    for plain, x, centre, faulty in _endpoint_cases():
        problem, calls = _faulty(plain) if faulty else plain, []

        def evaluator(point, problem=problem):
            calls.append(point.copy())
            return problem.evaluator(point)

        f0, factors = plain.evaluator(x), SvdFactors(plain.jacobian(x))
        lams = LambdaSchedule(centre).grid()
        c1s = -factors.damped_apply_batch(lams, f0)
        with np.errstate(over="ignore"):
            live = np.flatnonzero(np.isfinite(x + c1s).all(axis=1)).tolist()
        base = stencil_base(x, f0, factors, problem.evaluator, c1s, lams)
        stencil_calls, expected = 0, {}
        for row in live:
            try:
                series = correction_series(base, row, order=order)
            except StencilEvaluationError as exc:
                stencil_calls += exc.evaluations
                seen["raised"] += 1
                continue
            stencil_calls += series.evaluation_count
            expected[row] = series, x + series.step
            kept = len(series.corrections)
            seen["past the limit" if series.evaluation_count == 0 else
                 "full" if kept == order else "after c1" if kept == 1
                 else "mid-series"] += 1
            seen["-0.0"] += int(np.sum(np.signbit(x) & np.signbit(series.step)
                                       & (x == 0) & (series.step == 0)))
        try:
            x_new, _, record = step(x, Problem(problem.input_dim, problem.output_dim,
                                               evaluator, problem.jacobian),
                                    LambdaSchedule(centre), OptimizerConfig(order=order),
                                    f0=f0)
        except StepFailureError:
            record = None
        assert len(calls) == stencil_calls + len(expected)
        assert [point.tobytes() for point in calls[stencil_calls:]] == [
            end.tobytes() for _, end in expected.values()]
        if record is not None and record.accepted:
            series, end = expected[lams.tolist().index(record.chosen_lambda)]
            assert record.step_norm == _norm(series.step)
            assert x_new.tobytes() == end.tobytes()
            seen["winners"] += 1
    assert min(seen[fate] for fate in ("full", "after c1", "raised",
                                       "past the limit", "-0.0", "winners")) > 0
    assert (seen["mid-series"] > 0) == (order > 2)


def test_gauss_newton_survives_a_singular_jacobian():
    # J has two equal rows everywhere, so no exact inverse exists; the
    # minimum-norm step still drives the residual to zero.
    problem = Problem(2, 2,
                      lambda x: np.full(2, x[0] ** 2 + x[1] - 1.0),
                      lambda x: np.array([[2.0 * x[0], 1.0]] * 2), name="twin")
    config = OptimizerConfig(order=2, start_damping=0.0)
    with pytest.warns(RuntimeWarning, match="rank-deficient"):
        result = run(np.array([2.0, 0.0]), problem, config)
    assert result.converged and result.iterations == 3


def test_run_counts_include_every_pass_and_records_match():
    result = run(START, valley_problem(100.0), OptimizerConfig(order=2))
    assert result.converged
    assert result.iterations == len(result.trajectory)
    assert result.trajectory[-1].residual_norm <= 1e-9
    assert result.residual_norm == result.trajectory[-1].residual_norm

    # |f| = x^2 + 1 bottoms out at 1: this run rejects its second iteration
    # and its last five.  The trace numbers rows by trajectory position.
    problem = Problem(1, 1, lambda x: np.array([x[0] ** 2 + 1.0]),
                      lambda x: np.array([[2.0 * x[0]]]), name="stuck")
    result = run(np.ones(1), problem, OptimizerConfig(order=1))
    assert [r.accepted for r in result.trajectory] == (
        [True, False] + [True] * 3 + [False] * 5)
    buf = io.StringIO()
    write_trace_csv(buf, result, order=1)
    rows = list(csv.DictReader(io.StringIO(buf.getvalue())))
    assert [int(row["iteration"]) for row in rows] == list(
        range(1, result.iterations + 1))
    assert [float(row["lambda"]) for row in rows] == [
        r.chosen_lambda for r in result.trajectory]
    assert int(rows[-1]["f_evals_cumulative"]) == result.f_evaluations


def test_accepted_residuals_strictly_decrease():
    result = run(START, valley_problem(1000.0), OptimizerConfig(order=1))
    accepted = [r.residual_norm for r in result.trajectory if r.accepted]
    assert all(b < a for a, b in zip(accepted, accepted[1:]))


def test_deterministic_trajectories():
    a = run(START, valley_problem(100.0), OptimizerConfig(order=3))
    b = run(START, valley_problem(100.0), OptimizerConfig(order=3))
    assert a.iterations == b.iterations
    assert np.array_equal(a.x, b.x)
    assert a.trajectory == b.trajectory


def test_evaluation_accounting_per_iteration():
    per_candidate = {1: 1, 2: 2, 3: 5, 4: 9}  # stencil points + endpoint
    for order, expected in per_candidate.items():
        problem, counter = counting_problem(valley_problem(10.0))
        result = run(START, problem, OptimizerConfig(order=order))
        assert result.converged
        for record in result.trajectory:
            assert record.f_evaluations == 21 * expected
        assert counter["evals"] == result.f_evaluations
        assert result.f_evaluations == 1 + 21 * expected * result.iterations


@pytest.mark.parametrize("order,fails", [
    pytest.param(1, lambda x: x[0] < 2.0, id="order1"),
    pytest.param(3, lambda x: np.max(np.abs(x)) > 3.0, id="order3"),
    pytest.param(4, lambda x: x[0] < 1.0, id="order4"),
])
def test_failed_evaluator_calls_are_counted(order, fails):
    # Endpoint and stencil calls that raise still cost an evaluation.
    valley = valley_problem(10.0)
    calls = {"n": 0}

    def evaluator(x):
        calls["n"] += 1
        if fails(x):
            raise FloatingPointError("outside the model's domain")
        return valley.evaluator(x)

    problem = Problem(2, 2, evaluator, valley.jacobian, name="partial")
    _, _, record = step(START, problem, LambdaSchedule(),
                        OptimizerConfig(order=order), f0=valley.evaluator(START))
    assert record.f_evaluations == calls["n"]


def test_step_failure_is_chained_to_the_first_failed_call():
    def evaluator(x):
        raise FloatingPointError("outside the model's domain")

    problem = Problem(2, 2, evaluator, lambda x: np.eye(2), name="broken")
    for order in (1, 2, 3, 4):
        with pytest.raises(StepFailureError) as info:
            step(np.zeros(2), problem, LambdaSchedule(),
                 OptimizerConfig(order=order), f0=np.array([1.0, 1.0]))
        # Every candidate failed, and each is named by its grid index.
        assert list(info.value.causes) == list(range(21))
        cause = info.value.__cause__
        assert cause is info.value.causes[0]
        if order > 1:
            # Every stencil fails first; its error keeps the evaluator's.
            assert isinstance(cause, StencilEvaluationError)
            cause = cause.__cause__
        assert isinstance(cause, FloatingPointError)


def test_step_failure_causes_are_in_sweep_order():
    # Order 2 on f(p) = (1, 1) + p, so J = I, no correction moves a step,
    # and each candidate's one stencil point and its endpoint are both
    # -(1, 1) / (1 + lam): a point's first call is its stencil, its second
    # its endpoint.  Candidate 5's stencil raises, candidate 2's endpoint
    # raises and every other endpoint is nan, so the step fails, naming
    # the two causes in grid order, whichever call came first.
    grid = LambdaSchedule().grid()
    seen = collections.Counter()

    def evaluator(p):
        idx = int(np.argmin(np.abs(p[0] + 1.0 / (1.0 + grid))))
        seen[idx] += 1
        if (idx, seen[idx]) in ((5, 1), (2, 2)):
            raise FloatingPointError(f"candidate {idx}")
        return np.array([1.0, 1.0]) + p if seen[idx] == 1 else np.full(2, np.nan)

    problem = Problem(2, 2, evaluator, lambda x: np.eye(2), name="flat")
    with pytest.raises(StepFailureError) as info:
        step(np.zeros(2), problem, LambdaSchedule(), OptimizerConfig(order=2),
             f0=np.array([1.0, 1.0]))
    causes = info.value.causes
    assert list(causes) == [2, 5]
    assert info.value.__cause__ is causes[2]
    assert type(causes[2]) is FloatingPointError
    assert type(causes[5]) is StencilEvaluationError
    assert info.value.evaluations == sum(seen.values()) == 2 * 21 - 1


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_accepted_residual_survives_a_reused_output_buffer(order):
    # The evaluator writes every residual into one array and returns it, so
    # each later candidate overwrites the one before.
    valley = valley_problem(100.0)
    buffer = np.empty(2)

    def evaluator(x):
        buffer[:] = valley.evaluator(x)
        return buffer

    problem = Problem(2, 2, evaluator, valley.jacobian, name="one-buffer")
    x_new, f_new, record = step(START, problem, LambdaSchedule(),
                                OptimizerConfig(order=order),
                                f0=valley.evaluator(START))
    assert record.accepted
    assert f_new is not buffer
    assert np.array_equal(f_new, valley.evaluator(x_new))
    assert record.residual_norm == math.hypot(*f_new)
    # A whole run: the start residual and every f0 a step reads, rejected
    # steps included, are the run's own arrays, so the run is the plain
    # evaluator's, record for record.  At orders 2-4 the stencil's linear
    # model f0 + J a used to read an f0 that later calls had overwritten.
    config = OptimizerConfig(order=order)
    reused, plain = run(START, problem, config), run(START, valley, config)
    assert reused.trajectory == plain.trajectory
    assert (reused.iterations, reused.f_evaluations, reused.termination) == (
        plain.iterations, plain.f_evaluations, plain.termination)
    assert reused.x.tobytes() == plain.x.tobytes()


@pytest.mark.parametrize("order", [1, 2])
def test_wrong_shaped_residual_is_rejected(order):
    # A length-1 residual would broadcast silently into a candidate's row
    # and compete.  Each call fails instead, as one that raises does: every
    # candidate is dropped at its first call (order 1's endpoint, order 2's
    # stencil point x + c1), and the step fails naming the shape.
    problem, counter = counting_problem(Problem(
        2, 2, lambda x: np.array([0.5]), lambda x: np.eye(2), name="short"))
    shape = "residual has shape (1,), expected (2,)"
    with pytest.raises(StepFailureError) as info:
        step(np.zeros(2), problem, LambdaSchedule(),
             OptimizerConfig(order=order), f0=np.array([1.0, 1.0]))
    assert str(info.value).startswith("no finite candidate endpoint at x=[0. 0.]: ")
    assert str(info.value).endswith(shape)
    assert info.value.evaluations == counter["evals"] == 21
    causes = info.value.causes
    assert list(causes) == list(range(21))
    assert info.value.__cause__ is causes[0]
    for exc in causes.values():
        if order == 2:
            assert type(exc) is StencilEvaluationError and exc.evaluations == 1
            exc = exc.__cause__
        assert type(exc) is ValueError and str(exc) == shape


@pytest.mark.parametrize("order,iterations,evaluations", [
    (1, 47, 988), (2, 14, 588), (3, 10, 1050), (4, 8, 1506),
])
def test_a_misshaped_residual_mid_run_fails_only_its_call(order, iterations,
                                                         evaluations):
    # One evaluator call returns a length-3 residual: an endpoint at order
    # 1, a stencil point at orders 2-4.  It drops its candidate, as the same
    # call raising does, and the run keeps going: both runs are alike record
    # for record, and every call is counted.  The call is the one at the
    # point that the 300th call reached when each candidate made its calls
    # together: a step now makes every stencil call, phase by phase, before
    # its endpoint calls, and reaches that point at call 298, 289 or 228 at
    # orders 2, 3 and 4.
    call = {1: 300, 2: 298, 3: 289, 4: 228}[order]
    results = []
    for fault in (np.ones(3), FloatingPointError("injected")):
        problem, counter = counting_problem(
            evaluator_failing_at(valley_problem(100.0), call, fault))
        result = run(START, problem, OptimizerConfig(order=order))
        assert result.termination == "converged"
        assert (result.iterations, result.f_evaluations) == (iterations, evaluations)
        assert result.f_evaluations == counter["evals"]
        results.append(result)
    assert results[0].trajectory == results[1].trajectory


@pytest.mark.parametrize("order,evaluations", [(1, 85), (2, 169)])
def test_a_misshaped_jacobian_mid_run_returns_the_trajectory(order, evaluations):
    # The 5th Jacobian has shape (3, 2): that step fails before any
    # evaluator call, chained from the shape's ValueError, and the run
    # returns its 4 iterations, as when that call raises.
    valley, calls = valley_problem(100.0), []

    def jacobian(x):
        calls.append(x)
        return np.ones((3, 2)) if len(calls) == 5 else valley.jacobian(x)

    problem, counter = counting_problem(
        Problem(2, 2, valley.evaluator, jacobian, name="tall-5th"))
    result = run(START, problem, OptimizerConfig(order=order))
    assert result.termination == "step_failure"
    assert result.iterations == len(result.trajectory) == 4
    assert str(result.failure) == "jacobian has shape (3, 2), expected (2, 2)"
    assert type(result.failure.__cause__) is ValueError
    assert result.failure.evaluations == 0
    assert result.f_evaluations == counter["evals"] == evaluations
    assert result.residual_norm == result.trajectory[-1].residual_norm
    raising = run(START, jacobian_raising_from(valley, 5, ZeroDivisionError()),
                  OptimizerConfig(order=order))
    assert raising.trajectory == result.trajectory
    assert raising.f_evaluations == evaluations


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_nonfinite_residuals_truncate_instead_of_raising(order):
    # The evaluator returns inf below y = 0 instead of raising; stencil
    # points there truncate their series like an overlong correction would.
    valley = valley_problem(100.0)

    def evaluator(x):
        return np.array([np.inf, 0.0]) if x[1] < 0.0 else valley.evaluator(x)

    problem = Problem(2, 2, evaluator, valley.jacobian, name="half-plane")
    result = run(START, problem, OptimizerConfig(order=order))
    assert result.converged


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_nonfinite_everywhere_fails_the_step_like_order_one(order):
    # Every candidate endpoint lies outside the ball.  An inf residual there
    # fails the step.  The finite 1e308 has a finite norm although its
    # square overflows, so the iteration is rejected, without a warning,
    # and the damping escalates.  Stencil defects that large truncate.
    valley = valley_problem(100.0)
    f0 = valley.evaluator(START)
    for value in (np.inf, 1e308):
        def evaluator(x):
            if np.linalg.norm(x - START) > 0.5:
                return np.array([value, 0.0])
            return valley.evaluator(x)

        problem = Problem(2, 2, evaluator, valley.jacobian, name="ball")
        schedule = LambdaSchedule()
        config = OptimizerConfig(order=order)
        if not np.isfinite(value):
            with pytest.raises(StepFailureError):
                step(START, problem, schedule, config, f0=f0)
            continue
        x_new, f_new, record = step(START, problem, schedule, config, f0=f0)
        assert not record.accepted
        assert x_new is START and f_new is f0
        assert schedule.lambda_old == GRID_BASE
        assert record.residual_norm == np.linalg.norm(f0)


def test_huge_finite_start_residual_keeps_a_finite_norm():
    # |f| = sqrt(2) * 1e200 everywhere: its square overflows, yet the start
    # and endpoint norms stay finite, so the step is rejected (no endpoint
    # is smaller), not failed, and no warning is raised.
    f0 = np.array([1e200, 1e200])
    problem = Problem(2, 2, lambda x: f0.copy(), lambda x: np.eye(2),
                      name="plateau")
    x0, schedule = np.zeros(2), LambdaSchedule()
    x_new, _, record = step(x0, problem, schedule, OptimizerConfig(), f0=f0)
    assert not record.accepted and x_new is x0
    assert schedule.lambda_old == GRID_BASE
    assert record.residual_norm == pytest.approx(np.sqrt(2.0) * 1e200, rel=1e-15)


@pytest.mark.parametrize("order", [1, 2])
def test_huge_steps_keep_finite_norms(order):
    # f(x) = x + 1e200 (1, 1): the first step is about 1.4e200 long, so its
    # square overflows.  Step and correction norms stay finite, with no
    # overflow warning, and the run still converges.
    shift = np.array([1e200, 1e200])
    problem = Problem(2, 2, lambda x: x + shift, lambda x: np.eye(2),
                      name="shifted")
    result = run(np.zeros(2), problem, OptimizerConfig(order=order))
    assert result.converged
    first = result.trajectory[0]
    # The grid's smallest damping, 1e-4, wins: c1 = -f0 / (1 + 1e-4).
    assert first.step_norm == pytest.approx(np.sqrt(2.0) * 1e200 / 1.0001,
                                            rel=1e-12)
    assert first.corrections_norms[0] == pytest.approx(first.step_norm,
                                                       rel=1e-12)
    assert len(first.corrections_norms) == order
    assert all(np.isfinite(r.corrections_norms).all() and np.isfinite(r.step_norm)
               for r in result.trajectory)


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_jacobian_whose_square_overflows_still_steps(order):
    # At K = 1e307 the valley Jacobian's largest singular value, about
    # 6.4e307, squares to inf.  Its direction must still be taken, with no
    # overflow warning: the first step moves and the residual falls.  The
    # valley direction's singular value, about 6, lies far below eps * s_max,
    # and keeping it keeps the run stepping: it no longer stalls within 10
    # iterations, so the cap of 50 ends it (a full run takes about 5000).
    problem = valley_problem(1e307)
    start_norm = math.hypot(*problem.evaluator(START))
    result = run(START, problem, OptimizerConfig(order=order, max_iterations=50))
    first = result.trajectory[0]
    assert first.accepted and first.step_norm > 0.0
    assert result.residual_norm < start_norm
    assert result.termination == "max_iterations"


def test_valley_direction_is_kept_where_the_stock_svd_loses_it():
    # The K = 1e16 order-4 run stalled here at |f| = 1.55: LAPACK returned
    # the valley's singular value, about 1.9 (cond(J) is about 1e16), as 0,
    # so no step followed the valley and every candidate was rejected.
    problem = valley_problem(1e16)
    x0 = np.array([0.8980502919813091, 0.8064943269277146])
    start_norm = math.hypot(*problem.evaluator(x0))
    result = run(x0, problem, OptimizerConfig(order=4, max_iterations=50))
    assert result.termination == "max_iterations"
    assert sum(r.accepted for r in result.trajectory) >= 45
    assert result.residual_norm < 0.97 * start_norm


@pytest.mark.parametrize("order,iterations,f_evaluations", [
    (1, 5, 6),
    (4, 2, 19),
])
def test_gauss_newton_stops_at_its_first_rejection(order, iterations,
                                                   f_evaluations):
    # Gauss-Newton, start damping 0, stalls on the K = 1e6 valley.  With no
    # damping to escalate, a rejected sweep would repeat exactly, so the run
    # ends there.
    config = OptimizerConfig(order=order, start_damping=0.0)
    result = run(START, valley_problem(1e6), config)
    assert not result.converged
    assert (result.iterations, result.f_evaluations) == (iterations, f_evaluations)
    assert [r.accepted for r in result.trajectory] == (
        [True] * (iterations - 1) + [False])
    # The rejected record reports the damping it tried, not a grid centre
    # that no undamped sweep reads.
    assert result.trajectory[-1].chosen_lambda == 0.0


def _winning_index(evaluator, order):
    problem = Problem(2, 2, evaluator, lambda x: np.eye(2), name="flat")
    schedule = LambdaSchedule()
    grid = schedule.grid()
    _, _, record = step(np.zeros(2), problem, schedule,
                        OptimizerConfig(order=order), f0=np.array([1.0, 1.0]))
    assert record.accepted
    return list(grid).index(record.chosen_lambda)


@pytest.mark.parametrize("order", [1, 2, 4])
def test_ties_go_to_the_lowest_grid_index(order):
    # Every endpoint has the same residual, so all 21 candidates tie.
    assert _winning_index(lambda x: np.array([0.5, 0.0]), order) == 0


@pytest.mark.parametrize("order", [1, 2, 4])
def test_ties_skip_nonfinite_candidates(order):
    # The first-order endpoints -f0 / (1 + lam) of candidates 0-6 lie at
    # |x| >= 0.9, where the residual is nan; candidate 7 is the first finite.
    def evaluator(x):
        if np.linalg.norm(x) >= 0.9:
            return np.full(2, np.nan)
        return np.array([0.5, 0.0])

    assert _winning_index(evaluator, order) == 7


@pytest.mark.parametrize("order", [1, 2, 3, 4])
@settings(derandomize=True, database=None, deadline=None, max_examples=10)
@given(data=st.data())
def test_exact_ties_at_random_grid_indices_go_to_the_lowest(order, data):
    # Endpoint residuals tie exactly at random grid indices: the same two
    # entries, negated or not, have bit-identical norms (swapped ones need
    # not, since the norm may fuse a multiply-add).  Every other
    # endpoint's residual is longer or non-finite.  The lowest tied index
    # wins.  The map is affine at every stencil point, so no correction
    # truncates: the step makes all 21 candidates' S stencil calls, phase
    # by phase, and then their endpoint calls in grid order, so call n
    # (from 0) is an endpoint when n >= 21 S.
    ties = data.draw(st.sets(st.integers(0, 20), min_size=2))
    a, b = data.draw(st.floats(0.01, 0.7)), data.draw(st.floats(0.0, 0.7))
    tied = st.sampled_from([(a, b), (-a, b), (a, -b), (-a, -b)])
    longer = st.floats(1.001, 100.0).map(lambda k: (k * a, k * b))
    nonfinite = st.sampled_from([(math.nan, 0.0), (0.0, -math.inf)])
    rows = [data.draw(tied if idx in ties else longer | nonfinite)
            for idx in range(21)]
    stencil = 21 * STENCIL_EVALUATIONS[order]
    calls = itertools.count()

    def evaluator(p):
        call = next(calls)
        if call < stencil:
            return np.array([1.0, 1.0]) + p
        return np.array(rows[call - stencil])

    assert _winning_index(evaluator, order) == min(ties)
    assert next(calls) == stencil + 21


@pytest.mark.parametrize("K,order,iterations,f_evaluations", [
    (100.0, 1, 47, 988),
    (100.0, 2, 14, 589),
    (100.0, 3, 10, 1051),
    (100.0, 4, 8, 1513),
    (1e4, 4, 18, 3403),
    (1e6, 4, 41, 7750),
])
def test_pinned_valley_counts(K, order, iterations, f_evaluations):
    # Exact counts, not a band: a change to the sweep's arithmetic must not
    # flip a single argmin on these runs.
    result = run(START, valley_problem(K), OptimizerConfig(order=order))
    assert result.converged
    assert (result.iterations, result.f_evaluations) == (iterations, f_evaluations)


def test_lambda_carries_between_iterations():
    schedule = LambdaSchedule()
    problem = valley_problem(100.0)
    x, f0 = START, problem.evaluator(START)
    x1, f1, rec1 = step(x, problem, schedule, OptimizerConfig(order=1), f0=f0)
    assert rec1.accepted
    assert schedule.lambda_old == rec1.chosen_lambda
    grid = schedule.grid()
    _, _, rec2 = step(x1, problem, schedule, OptimizerConfig(order=1), f0=f1)
    assert rec2.chosen_lambda in grid


def test_rejection_escalates_damping_and_stalls():
    # |f|^2 = (x^2 + 1)^2 has a non-root stationary point at x = 0: no
    # candidate can improve, so the run must escalate and then abort.
    problem = Problem(1, 1, lambda x: np.array([x[0] ** 2 + 1.0]),
                      lambda x: np.array([[2.0 * x[0]]]), name="stuck")
    result = run(np.zeros(1), problem, OptimizerConfig(order=1, max_iterations=50))
    assert not result.converged
    assert result.iterations == 5  # consecutive-rejection abort
    assert all(not r.accepted for r in result.trajectory)
    assert all(r.step_norm == 0.0 for r in result.trajectory)
    lambdas = [r.chosen_lambda for r in result.trajectory]
    assert lambdas == [GRID_BASE ** (k + 1) for k in range(5)]
    assert np.array_equal(result.x, np.zeros(1))
    assert (result.termination, result.failure) == ("stalled", None)


def _rejected_step(s_max, centre, order):
    """One step on a constant residual, so no candidate improves, with
    J = diag(s_max, s_max / 2); its record and the schedule after it."""
    f0 = np.array([1.0, 1.0])
    J = np.diag([s_max, 0.5 * s_max])
    flat = Problem(2, 2, lambda x: f0.copy(), lambda x: J.copy(), name="flat")
    schedule = LambdaSchedule(centre)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, _, record = step(np.zeros(2), flat, schedule, OptimizerConfig(order=order),
                            f0=f0)
    assert not record.accepted
    return record, schedule


@pytest.mark.parametrize("order", [1, 2, 3, 4])
@pytest.mark.parametrize("s_max,centre", [(1e10, 1.0), (1e10, 1e-150), (1e4, 1e-3),
                                          (1.0, 1.0), (1e4, 1e5)])
def test_a_rejected_sweep_recentres_at_the_floor_of_j(order, s_max, centre):
    # After a rejected positive sweep the centre is the larger of the top
    # damping tried and 2^-52 s_max^2, where damping starts to matter to J's
    # largest direction; the record still names the top damping.
    record, schedule = _rejected_step(s_max, centre, order)
    top = float(LambdaSchedule(centre).grid()[-1])
    floor = 2.0**-52 * float(SvdFactors(np.diag([s_max, 0.5 * s_max])).s[0]) ** 2
    assert record.chosen_lambda == top
    assert schedule.lambda_old == max(top, floor)
    assert (schedule.lambda_old == floor) == (floor > top)


@pytest.mark.parametrize("order", [1, 4])
def test_a_floor_whose_square_overflows_clamps_the_next_grid_unwarned(order):
    # 2^-52 s_max^2 is inf at s_max = 1e200, in Python floats, so nothing
    # warns; the grid clamps the centre to its top, R / 10^4.
    record, schedule = _rejected_step(1e200, 1.0, order)
    assert record.chosen_lambda == GRID_BASE
    assert schedule.lambda_old == math.inf
    assert schedule.grid().tolist() == LambdaSchedule(1.7e308).grid().tolist()
    assert schedule.grid()[10] == _BOUND / GRID_BASE


@pytest.mark.parametrize("order", [1, 4])
def test_a_floor_that_underflows_leaves_the_top_damping(order):
    # 2^-52 s_max^2 is 0 at s_max = 1e-170: the centre is the top damping.
    record, schedule = _rejected_step(1e-170, 1e-100, order)
    assert record.chosen_lambda == schedule.lambda_old == float(
        LambdaSchedule(1e-100).grid()[-1])


@pytest.mark.parametrize("order", [1, 4])
def test_a_rejected_gauss_newton_sweep_stays_at_zero(order):
    # The floor is for a positive centre only: 0 stays Gauss-Newton.
    record, schedule = _rejected_step(1e10, 0.0, order)
    assert record.chosen_lambda == schedule.lambda_old == 0.0
    assert schedule.grid().tolist() == [0.0]


def test_lambda_floor_prevents_underflow():
    # A long endgame can keep choosing the grid minimum, 10^-4 times the
    # centre.  The schedule carries each win as is, and grid() clamps the
    # centre, so after repeated bottom wins every sweep still lies within
    # [1/R, R]: it bottoms out at about 1.4e-306 and never underflows to 0.
    schedule = LambdaSchedule(lambda_old=1e-299)
    problem = valley_problem(1.0)
    x, f0 = START, problem.evaluator(START)
    bottoms = []
    for _ in range(6):
        grid = schedule.grid()
        assert grid.min() >= 1.0 / _BOUND and grid.max() <= _BOUND
        x, f0, record = step(x, problem, schedule, OptimizerConfig(order=1), f0=f0)
        assert record.accepted and record.chosen_lambda == grid[0]
        assert schedule.lambda_old == grid[0]
        bottoms.append(grid[0])
    assert bottoms[0] == 1e-299 * GRID_BASE**-1.0
    assert bottoms[2:] == bottoms[1:-1]  # the clamped bottom: a fixed point
    assert 1.0 / _BOUND <= bottoms[-1] < 1.5e-306
    assert schedule.grid().min() >= 1.0 / _BOUND


def test_max_iterations_censors_run():
    result = run(START, valley_problem(1e6), OptimizerConfig(order=1, max_iterations=40))
    assert not result.converged
    assert result.iterations == 40
    assert (result.termination, result.failure) == ("max_iterations", None)


def test_converged_start_needs_no_iterations():
    result = run(np.zeros(2), valley_problem(1e4), OptimizerConfig(order=4))
    assert result.converged and result.iterations == 0
    assert result.f_evaluations == 1
    assert (result.termination, result.failure) == ("converged", None)


def test_nonfinite_start_rejected():
    with pytest.raises(ValueError):
        run(np.array([np.nan, 0.0]), valley_problem(1.0), OptimizerConfig())


@pytest.mark.parametrize("x0,shape", [
    (np.ones(3), r"\(3,\)"),
    (np.ones((1, 2)), r"\(1, 2\)"),
])
def test_wrong_shaped_start_rejected(x0, shape):
    with pytest.raises(ValueError, match=shape + r", expected \(2,\)"):
        run(x0, valley_problem(1.0), OptimizerConfig())


@pytest.mark.parametrize("start_damping", [
    pytest.param(0.0, id="gauss_newton"),
    pytest.param(1.0, id="levenberg_marquardt"),
])
def test_nonfinite_start_residual_rejected(start_damping):
    problem = Problem(2, 2, lambda x: np.array([np.nan, 0.0]), lambda x: np.eye(2),
                      name="nan")
    config = OptimizerConfig(start_damping=start_damping)
    with pytest.raises(ValueError, match="starting residual must be finite"):
        run(np.zeros(2), problem, config)
    with pytest.raises(ValueError, match="f0 must be finite"):
        step(np.zeros(2), problem, LambdaSchedule(start_damping),
             config, f0=np.array([np.inf, 0.0]))


def test_wrong_shaped_start_residual_rejected():
    # Checked up front, so a ValueError before any Jacobian call, not a
    # step failure as a later misshaped residual is.
    calls = []
    problem = Problem(2, 2, lambda x: np.ones(3),
                      lambda x: calls.append(x) or np.eye(2), name="long")
    with pytest.raises(ValueError, match=r"^starting residual has shape \(3,\), "
                       r"expected \(2,\)$"):
        run(np.zeros(2), problem, OptimizerConfig())
    assert calls == []


def test_step_rejects_wrong_shaped_f0():
    with pytest.raises(ValueError, match=r"shape \(3,\), expected \(2,\)"):
        step(START, valley_problem(1.0), LambdaSchedule(), OptimizerConfig(),
             f0=np.ones(3))


def test_step_names_a_wrong_shaped_f0():
    with pytest.raises(ValueError, match=r"^f0 has shape \(3,\), expected \(2,\)$"):
        step(START, valley_problem(1.0), LambdaSchedule(), OptimizerConfig(),
             f0=np.ones(3))


@pytest.mark.parametrize("x", [np.ones(3), np.ones((1, 2)), np.float64(1.0)],
                         ids=["long", "row", "scalar"])
def test_step_rejects_wrong_shaped_x(x):
    # Rejected like run's start point, before the Jacobian is called.
    def jacobian(x):
        raise AssertionError("the Jacobian was called")

    problem = Problem(2, 2, lambda x: np.ones(2), jacobian, name="no-jacobian")
    shape = re.escape(str(np.shape(x)))
    with pytest.raises(ValueError, match=rf"x has shape {shape}, "
                                         r"expected \(2,\)"):
        step(x, problem, LambdaSchedule(), OptimizerConfig(), f0=np.ones(2))


@pytest.mark.parametrize("order", [1, 2])
def test_step_rejects_a_nonfinite_x(order):
    # A nan x evaluated 21 non-finite points at order 1 (42 at order 2),
    # then raised StepFailureError.  It is now rejected up front, before
    # the Jacobian or the evaluator is called.
    calls = []

    def evaluator(x):
        calls.append("evaluator")
        return x - np.array([1.0, 2.0])

    def jacobian(x):
        calls.append("jacobian")
        return np.eye(2)

    problem = Problem(2, 2, evaluator, jacobian)
    for x in ([np.nan, 0.0], [0.0, np.inf], [-np.inf, np.nan]):
        with pytest.raises(ValueError, match="^x must be finite$"):
            step(np.array(x), problem, LambdaSchedule(1.0),
                 OptimizerConfig(order=order), f0=np.ones(2))
    assert calls == []


def test_step_rejects_wrong_shaped_jacobian():
    # A Jacobian call that returns the wrong shape fails the step, as one
    # that raises does, before any evaluator call.
    problem, counter = counting_problem(Problem(
        2, 2, lambda x: np.ones(2), lambda x: np.ones((3, 2)), name="tall"))
    with pytest.raises(StepFailureError,
                       match=r"^jacobian has shape \(3, 2\), expected \(2, 2\)$") as info:
        step(np.zeros(2), problem, LambdaSchedule(), OptimizerConfig(),
             f0=np.ones(2))
    assert type(info.value.__cause__) is ValueError
    assert info.value.evaluations == counter["evals"] == 0
    assert info.value.causes == {}


@pytest.mark.parametrize("output,error", [
    (object(), TypeError), ("abc", ValueError), ([10**400, 0], OverflowError),
], ids=["object", "string", "huge-int"])
def test_an_output_that_is_not_numeric_fails_its_call(output, error):
    # An output that float64 cannot hold fails its call as a wrong shape
    # does: a Jacobian's fails the step with the conversion's own message,
    # and an evaluator's drops its candidate.
    problem = Problem(2, 2, lambda x: np.ones(2), lambda x: output, name="odd")
    with pytest.raises(StepFailureError) as info:
        step(np.zeros(2), problem, LambdaSchedule(), OptimizerConfig(),
             f0=np.ones(2))
    assert type(info.value.__cause__) is error
    assert str(info.value) == str(info.value.__cause__)
    problem = Problem(2, 2, lambda x: output, lambda x: np.eye(2), name="odd")
    with pytest.raises(StepFailureError) as info:
        step(np.zeros(2), problem, LambdaSchedule(), OptimizerConfig(),
             f0=np.ones(2))
    assert list(info.value.causes) == list(range(21))
    assert type(info.value.__cause__) is error


def test_step_failure_when_everything_is_nonfinite():
    problem = Problem(2, 2,
                      lambda x: np.full(2, np.nan),
                      lambda x: np.eye(2), name="nan")
    schedule = LambdaSchedule()
    with pytest.raises(StepFailureError):
        step(np.zeros(2), problem, schedule, OptimizerConfig(order=1),
             f0=np.array([1.0, 1.0]))


def test_config_validation():
    # 2.0 and True compare equal to supported orders; only ints are orders.
    for order in (5, 0, 2.0, True, "2"):
        with pytest.raises(ValueError):
            OptimizerConfig(order=order)
    assert OptimizerConfig(order=np.int64(3)).order == 3
    # Only an integer >= 1 is an iteration cap: nan ran no iteration, 2.5
    # ran three and True one.
    for max_iterations in (0, -3, math.nan, 2.5, 3.0, True, "5", None):
        with pytest.raises(ValueError, match="max_iterations must be an integer"):
            OptimizerConfig(max_iterations=max_iterations)
    assert OptimizerConfig(max_iterations=np.int64(7)).max_iterations == 7
    # inf would report a run converged at any residual.
    for tol in (0.0, -1e-9, math.inf, math.nan):
        with pytest.raises(ValueError, match="positive and finite"):
            OptimizerConfig(convergence_tol=tol)
    assert OptimizerConfig(convergence_tol=1e300).convergence_tol == 1e300
    # A damping is a number: a name such as "cholesky" is no start damping.
    with pytest.raises(ValueError, match="start_damping"):
        OptimizerConfig(start_damping="cholesky")


def test_config_rejects_a_bool_tolerance():
    # True compares as 1 and was taken for a tolerance of 1.
    for tol in (True, np.bool_(True)):
        with pytest.raises(ValueError, match="convergence_tol must be positive"):
            OptimizerConfig(convergence_tol=tol)


@pytest.mark.parametrize("start_damping", [
    -1, math.nan, math.inf, True, False, np.bool_(True), "1", None])
def test_config_rejects_a_start_damping_that_is_no_finite_number(start_damping):
    # A bool compares as 0 or 1 and is turned away, as convergence_tol does.
    with pytest.raises(ValueError, match="start_damping must be non-negative"):
        OptimizerConfig(start_damping=start_damping)


@pytest.mark.parametrize("start_damping", [0, 0.0, np.float64(2.0), 1e300])
def test_config_takes_any_finite_non_negative_start_damping(start_damping):
    assert OptimizerConfig(start_damping=start_damping).start_damping is start_damping


def test_run_centres_its_first_sweep_on_the_start_damping():
    # The grid spans the centre times [1e-4, 1e4], so the first winner lies
    # there too.
    result = run(START, valley_problem(1e4),
                 OptimizerConfig(max_iterations=1, start_damping=1e-3))
    assert 1e-3 * 1e-4 <= result.trajectory[0].chosen_lambda <= 1e-3 * 1e4


SINGULAR = affine_problem(np.array([[1.0, 1.0], [1.0, 1.0]]), np.array([1.0, 2.0]))


@pytest.mark.parametrize("problem,order,tiny,huge", [
    pytest.param(valley_problem(100.0), 1, ("converged", 31, 652), ("stalled", 5, 106),
                 id="valley-1"),
    pytest.param(valley_problem(100.0), 2, ("converged", 7, 295),
                 ("stalled", 5, 211), id="valley-2"),
    pytest.param(SINGULAR, 1, ("stalled", 8, 169), ("stalled", 5, 106),
                 id="singular-1"),
    pytest.param(SINGULAR, 2, ("stalled", 8, 337), ("stalled", 5, 211),
                 id="singular-2"),
])
@pytest.mark.parametrize("start_damping", [5e-324, 1e-310, 1e300, 1.7e308])
def test_every_damping_stays_within_the_range_bound(problem, order, tiny, huge,
                                                    start_damping):
    # The grid's centre is clamped, so every damping lies within [1/R, R],
    # up to one rounding.  A huge start used to overflow the grid (an
    # overflow warning, then chosen_lambda = inf), and a tiny one to
    # underflow it to 0: a silent Gauss-Newton run, which on the singular
    # problem warned of rank deficiency and stalled after 2 iterations.  A
    # start of 5e-324 or 1e-310 now sweeps as the clamped bottom centre,
    # and its first rejected sweep recentres at least at 2^-52 s_max^2;
    # 1e300 and 1.7e308 reach the clamped top within three sweeps, and the
    # suite's filter turns any warning into an error.
    counted, counter = counting_problem(problem)
    result = run(START, counted, OptimizerConfig(order=order,
                                                 start_damping=start_damping))
    expected = tiny if start_damping < 1.0 else huge
    assert (result.termination, result.iterations, result.f_evaluations) == expected
    assert result.f_evaluations == counter["evals"]
    low, high = np.nextafter(1.0 / _BOUND, 0.0), np.nextafter(_BOUND, math.inf)
    assert all(low <= r.chosen_lambda <= high for r in result.trajectory)


def test_reference_iteration_counts_shallow_valley():
    # Reference counts for this benchmark: 8 (order 1) and 18 (order 4 at
    # K = 10^4); allow the documented max(25%, 3) reproduction band.
    res1 = run(START, valley_problem(1.0), OptimizerConfig(order=1))
    assert res1.converged and abs(res1.iterations - 8) <= 3
    res4 = run(START, valley_problem(1e4), OptimizerConfig(order=4))
    assert res4.converged and abs(res4.iterations - 18) <= max(3, 0.25 * 18)


def test_higher_order_never_slower_shallow():
    iters = {}
    for order in (1, 2, 3, 4):
        iters[order] = run(START, valley_problem(100.0),
                           OptimizerConfig(order=order)).iterations
    assert iters[1] >= iters[2] >= iters[3] >= iters[4]


def test_quadratic_endgame_is_short():
    result = run(START, valley_problem(1e4), OptimizerConfig(order=2))
    tail = [r for r in result.trajectory if r.residual_norm < 0.1]
    assert 0 < len(tail) <= 6


def _near_the_float64_maximum(kind):
    if kind == "tanh":
        M, b = 1.7e308, 1.5e308
        return Problem(2, 2, lambda x: np.array([M * np.tanh(x[0]) - b, x[1]]),
                       lambda x: np.array([[M / np.cosh(x[0]) ** 2, 0.0],
                                           [0.0, 1.0]])), 1e290
    return affine_problem(1e10 * np.eye(2), [1.5e308, 0.0]), 1e-9


@pytest.mark.parametrize("kind,counts", [
    ("tanh", [(8, 169), (8, 169), (8, 169), (8, 169)]),
    ("affine", [(2, 43), (2, 64), (2, 127), (2, 211)]),
])
def test_a_linear_model_near_float64s_maximum_never_overflows(kind, counts):
    # At order 4, J a reached past float64's maximum at the stencil point
    # 1.5 c1: numpy warned in the model's product (and, on the affine
    # problem, in the evaluator and the defect's subtraction), and on the
    # tanh problem the run stalled after 9 iterations and 1492 evaluations
    # at |f| = 2e292.  Such a c1 now truncates its series before any
    # stencil evaluation, and every order converges at finite points with
    # no warning (an error under the suite's filter).  On the tanh problem
    # f0 starts beyond the stencil's bound and s_max stays above 6e304, where
    # 3001 s_max overflows and the step limit is 0, so every series
    # truncates at c1 and orders 2-4 cost what order 1 does.
    problem, tol = _near_the_float64_maximum(kind)
    for order, (iterations, evaluations) in enumerate(counts, start=1):
        points = []
        watched = Problem(2, 2, lambda x: points.append(x.copy())
                          or problem.evaluator(x), problem.jacobian)
        result = run(np.zeros(2), watched,
                     OptimizerConfig(order=order, convergence_tol=tol))
        assert result.termination == "converged"
        assert (result.iterations, result.f_evaluations) == (iterations, evaluations)
        assert len(points) == evaluations
        assert all(np.isfinite(x).all() for x in points)


def test_nonfinite_jacobian_fails_the_step():
    # A non-finite Jacobian is a numerical outcome, not a contract violation:
    # step raises StepFailureError before any evaluator call, as it does on
    # a wrong shape (test_step_rejects_wrong_shaped_jacobian).
    problem = nan_jacobian_below(valley_problem(100.0), 10.0)
    with pytest.raises(StepFailureError,
                       match="jacobian must be finite") as info:
        step(START, problem, LambdaSchedule(), OptimizerConfig(order=2),
             f0=problem.evaluator(START))
    assert info.value.evaluations == 0
    assert isinstance(info.value.__cause__, ValueError)


def test_nonfinite_jacobian_mid_run_returns_the_trajectory():
    # The K = 100 valley from (pi, e) crosses y = 2 after three order-2
    # iterations, and the Jacobian is nan beyond: the run returns what it has.
    problem, counter = counting_problem(
        nan_jacobian_below(valley_problem(100.0), 2.0))
    result = run(START, problem, OptimizerConfig(order=2))
    assert result.termination == "step_failure"
    assert isinstance(result.failure, StepFailureError)
    assert not result.converged
    assert result.iterations == len(result.trajectory) == 3
    assert all(r.accepted for r in result.trajectory)
    assert result.f_evaluations == counter["evals"] == 1 + 3 * 21 * 2
    assert result.x[1] < 2.0
    assert result.residual_norm == result.trajectory[-1].residual_norm


def test_raising_jacobian_fails_the_step():
    error = ZeroDivisionError("division by zero")
    problem, counter = counting_problem(
        jacobian_raising_from(valley_problem(100.0), 1, error))
    with pytest.raises(StepFailureError, match="jacobian failed") as info:
        step(START, problem, LambdaSchedule(), OptimizerConfig(order=2),
             f0=valley_problem(100.0).evaluator(START))
    assert info.value.__cause__ is error
    assert info.value.evaluations == counter["evals"] == 0


@pytest.mark.parametrize("order", [1, 2])
def test_raising_jacobian_mid_run_returns_the_trajectory(order):
    # From its sixth call the Jacobian raises: the run keeps the five
    # iterations before it, and counts every evaluator call.
    error = ZeroDivisionError("division by zero")
    problem, counter = counting_problem(
        jacobian_raising_from(valley_problem(1e6), 6, error))
    result = run(START, problem, OptimizerConfig(order=order))
    assert result.termination == "step_failure"
    assert result.iterations == len(result.trajectory) == 5
    assert isinstance(result.failure, StepFailureError)
    assert result.failure.__cause__ is error
    assert result.failure.evaluations == 0
    assert result.f_evaluations == counter["evals"] == 1 + sum(
        r.f_evaluations for r in result.trajectory)
    assert result.residual_norm == result.trajectory[-1].residual_norm


@pytest.mark.parametrize("problem,start_damping,termination", [
    (valley_problem(1e6), 1.0, "converged"),
    (Problem(2, 2, lambda x: np.ones(2), lambda x: np.eye(2), name="flat"),
     0.0, "stalled"),
    (Problem(2, 2, lambda x: np.ones(2), lambda x: np.full((2, 2), np.nan),
             name="nan-jacobian"), 1.0, "step_failure"),
], ids=["converged-at-start", "stalled", "step-failure"])
def test_result_x_is_not_the_callers_start_array(problem, start_damping,
                                                 termination):
    # No iteration is accepted, so the result's x is the start point's
    # value, in an array of its own.
    x0 = np.zeros(2)
    result = run(x0, problem, OptimizerConfig(start_damping=start_damping))
    assert result.termination == termination
    assert not any(r.accepted for r in result.trajectory)
    assert not np.shares_memory(result.x, x0)
    x0[0] = 1.0
    assert result.x.tolist() == [0.0, 0.0]


def test_failed_step_is_counted_and_returned():
    # Every residual is nan after the first iteration's 43 calls: the second
    # sweep fails, and the run returns after one iteration, still charging
    # the failed sweep's 21 x 2 calls.
    valley = valley_problem(100.0)
    calls = {"n": 0}

    def evaluator(x):
        calls["n"] += 1
        return valley.evaluator(x) if calls["n"] <= 43 else np.full(2, np.nan)

    problem = Problem(2, 2, evaluator, valley.jacobian, name="expiring")
    result = run(START, problem, OptimizerConfig(order=2))
    assert result.termination == "step_failure"
    assert str(result.failure).startswith("no finite candidate endpoint")
    assert result.failure.evaluations == 42
    assert result.iterations == 1
    assert result.f_evaluations == calls["n"] == 1 + 42 + 42


def test_svd_failure_ends_the_run(monkeypatch):
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    problem, counter = counting_problem(valley_problem(100.0))
    monkeypatch.setattr(np.linalg, "svd", no_convergence)
    result = run(START, problem, OptimizerConfig(order=3))
    assert result.termination == "step_failure"
    # One failure type for a step: the SVD's error is its cause.
    assert isinstance(result.failure, StepFailureError)
    assert isinstance(result.failure.__cause__, np.linalg.LinAlgError)
    assert str(result.failure) == "SVD did not converge"
    assert result.failure.evaluations == 0
    assert result.iterations == 0
    assert result.f_evaluations == counter["evals"] == 1
    assert np.array_equal(result.x, START)


FAULTS = ("raise", "nan", "inf", "shape")
# A Jacobian fault: one non-finite entry, every entry scaled by 1e300, so
# that the squares of its singular values overflow, or a (3, 2) shape.
JACOBIAN_FAULTS = ("nan", "inf", "-inf", "huge", "shape")
# The cause that a failed evaluator call leaves, by fault.
FAULT_CAUSES = {"raise": FloatingPointError, "shape": ValueError}


@pytest.mark.parametrize("order", [1, 2, 3, 4])
@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(data=st.data())
def test_counts_equal_calls_under_injected_failures(order, data):
    # Evaluator calls fail at random: they raise, return nan or inf in one
    # component, or return a length-3 residual.  From a random call on,
    # every call may fail, and a random Jacobian may have a nan or +-inf
    # entry, singular values whose squares overflow, or shape (3, 2).  The
    # run always returns, and every charge equals the calls made: per
    # series, per step and per run.  A step makes every candidate's stencil
    # calls in its first series call, so each call's candidate is found from
    # the bytes of its point: the points that candidate's own corrections
    # give.  A failed step names, by grid index, every candidate whose
    # evaluator call raised or was misshaped.
    stencil = STENCIL_EVALUATIONS[order]
    last_call = 1 + 2 * 21 * (stencil + 1)
    faults = data.draw(st.dictionaries(st.integers(2, last_call),
                                       st.sampled_from(FAULTS), max_size=40))
    cutoff = data.draw(st.none() | st.integers(2, last_call))
    cutoff_fault = data.draw(st.sampled_from(FAULTS))
    bad_jacobian = data.draw(st.none() | st.integers(1, 2))
    jacobian_fault = data.draw(st.sampled_from(JACOBIAN_FAULTS))

    valley = valley_problem(100.0)
    calls = {"evaluator": 0, "jacobian": 0}
    failed = []  # per evaluator call: the cause it leaves, or None
    points = []  # per evaluator call: the bytes of its point

    def evaluator(x):
        calls["evaluator"] += 1
        n = calls["evaluator"]
        points.append(x.tobytes())
        fault = faults.get(n) or (cutoff_fault if cutoff and n >= cutoff else None)
        failed.append(FAULT_CAUSES.get(fault))
        if fault == "raise":
            raise FloatingPointError("injected")
        if fault == "shape":
            return np.ones(3)
        value = valley.evaluator(x)
        if fault is not None:
            value[n % 2] = np.nan if fault == "nan" else np.inf
        return value

    def jacobian(x):
        calls["jacobian"] += 1
        J = valley.jacobian(x)
        if calls["jacobian"] == bad_jacobian:
            if jacobian_fault == "huge":
                return J * 1e300
            if jacobian_fault == "shape":
                return np.ones((3, 2))
            J[1, 0] = float(jacobian_fault)
        return J

    # Per series (the bytes of the calls it made, the calls charged,
    # truncated or None if it raised, the bytes of its candidate's charged
    # points), and per step (calls made, calls charged, its series); the
    # causes of each failed step against those expected from its calls.
    series_log, step_log, causes_log = [], [], []
    correction_series = optimizer.correction_series
    blocks = {}  # per base: the base, kept alive, and its blocks of corrections

    def row_points(base, row, count):
        """The bytes of the row's first ``count`` stencil points, from its
        corrections as each phase forms them."""
        known_rows = [base.c1s[row]] + [block[row] for block in blocks[id(base)][1]]
        found = []
        for known, (keys, _) in enumerate(PHASES[order], start=1):
            if len(found) >= count:
                break
            mult = np.ascontiguousarray(np.array(keys, dtype=float)[:, :known])
            offsets = mult.dot(np.array(known_rows[:known]))
            found += [(base.x + a).tobytes() for a in offsets]
        return found[:count]

    def logged_series(base, row, **kwargs):
        before = calls["evaluator"]
        if id(base) not in blocks:  # the step's first series runs every row
            blocks[id(base)] = base, []

            def recording(lams, vs):
                blocks[id(base)][1].append(base.apply(lams, vs))
                return blocks[id(base)][1][-1]

            run_base = base._replace(apply=recording)  # the same results dict
        else:
            run_base = base
        try:
            series = correction_series(run_base, row, **kwargs)
        except StencilEvaluationError as exc:
            charged = row_points(base, row, exc.evaluations)
            assert charged[-1] == exc.point.tobytes()
            series_log.append((points[before:], exc.evaluations, None, charged))
            raise
        series_log.append((points[before:], series.evaluation_count, series.truncated,
                           row_points(base, row, series.evaluation_count)))
        return series

    def logged_step(*args, **kwargs):
        before, first = calls["evaluator"], len(series_log)
        try:
            result = step(*args, **kwargs)
        except StepFailureError as exc:
            step_log.append((calls["evaluator"] - before, exc.evaluations,
                             series_log[first:]))
            causes_log.append((exc, expected_causes(before, series_log[first:])))
            raise
        step_log.append((calls["evaluator"] - before, result[2].f_evaluations,
                         series_log[first:]))
        return result

    def expected_causes(before, series_of_step):
        # The valley's 21 first-order directions are finite, so every
        # candidate runs its series; their stencil calls come first, and
        # then each candidate, in grid order, evaluates its endpoint unless
        # its series raised.
        if before == calls["evaluator"]:
            return {}
        assert order == 1 or len(series_of_step) == 21
        before += sum(len(made) for made, _, _, _ in series_of_step)
        expected = {}
        for idx in range(21):
            if order > 1 and series_of_step[idx][2] is None:
                expected[idx] = StencilEvaluationError
                continue
            if failed[before]:
                expected[idx] = failed[before]
            before += 1
        assert before == calls["evaluator"]
        return expected

    problem = Problem(2, 2, evaluator, jacobian, name="faulty")
    with mock.patch.object(optimizer, "correction_series", logged_series), \
            mock.patch.object(optimizer, "step", logged_step):
        result = run(START, problem, OptimizerConfig(order=order, max_iterations=2))

    assert result.f_evaluations == calls["evaluator"]
    assert (result.failure is None) == (result.termination != "step_failure")
    phase_ends = set(itertools.accumulate(
        len(points) for points, _ in PHASES.get(order, ())))
    for made, charged, series_of_step in step_log:
        assert charged == made
        # Each candidate is charged its stencil calls, plus its endpoint
        # unless its stencil raised.  A nan Jacobian fails before any call.
        if order == 1:
            assert charged in (0, 21)
        else:
            assert charged == sum(c + (t is not None) for _, c, t, _ in series_of_step)
        # The stencil calls are the charged points of the step's candidates.
        assert collections.Counter(
            point for made, _, _, _ in series_of_step for point in made
        ) == collections.Counter(
            point for _, _, _, charged in series_of_step for point in charged)
        for _, series_charged, truncated, charged_points in series_of_step:
            assert series_charged == len(charged_points)
            if truncated is False:
                assert series_charged == stencil
            elif truncated:
                # Truncation skips whole phases: the charge is the stencil
                # less the points skipped, so it ends a phase.
                assert series_charged in phase_ends
    for exc, expected in causes_log:
        assert list(exc.causes) == list(expected)
        assert all(type(exc.causes[idx]) is kind for idx, kind in expected.items())
        if exc.causes:
            assert exc.__cause__ is next(iter(exc.causes.values()))


@pytest.mark.parametrize("order,iterations,evaluations", [
    (1, 82, 1723), (2, 20, 841), (3, 11, 1156), (4, 11, 2080),
])
def test_a_four_exponential_fit_at_m_1000_keeps_its_counts(order, iterations,
                                                           evaluations):
    # A realistic size: every order converges, in the counts pinned here.
    fit, x0 = four_exponential_fit()
    problem, counter = counting_problem(fit)
    result = run(x0, problem, OptimizerConfig(order=order))
    assert result.termination == "converged"
    assert (result.iterations, result.f_evaluations) == (iterations, evaluations)
    assert counter["evals"] == evaluations


class _Residual(np.ndarray):
    """An ndarray subclass: a residual of it is converted as any other."""


# Per kind of residual: a call's residual of that kind, from its float64
# one, and the same residual as float64.
_RESIDUALS = {
    "list": (np.ndarray.tolist, lambda f: f),
    "int": (lambda f: f.astype(np.int64), lambda f: f.astype(np.int64).astype(float)),
    "bool": (lambda f: f.astype(bool), lambda f: f.astype(bool).astype(float)),
    "float32": (lambda f: f.astype(np.float32),
                lambda f: f.astype(np.float32).astype(float)),
    "object": (lambda f: f.astype(object), lambda f: f),
    "big-endian": (lambda f: f.astype(">f8"), lambda f: f),
    "subclass": (lambda f: f.view(_Residual), lambda f: f),
}

# Where a residual is converted: at every stencil point or every endpoint.
_CALLERS = {"stencil point": "_series_block", "endpoint": "step"}


def _converting(problem, convert, caller):
    """``problem``, whose evaluator passes every residual it returns to the
    function named ``caller`` through ``convert``, and the list of those
    calls."""
    converted = []

    def evaluator(x):
        f = problem.evaluator(x)
        if sys._getframe(1).f_code.co_name != caller:
            return f
        converted.append(x.tobytes())
        return convert(f)

    return Problem(2, 2, evaluator, problem.jacobian, name=problem.name), converted


def _step_bits(problem, order):
    """One step from (pi, e): its new x and f0 as bytes, the f0's dtype and
    the record."""
    x, f, record = step(START, problem, LambdaSchedule(1.0), OptimizerConfig(order=order),
                        f0=problem.evaluator(START))
    return x.tobytes(), f.tobytes(), f.dtype, repr(record)


@pytest.mark.parametrize("kind", list(_RESIDUALS))
@pytest.mark.parametrize("order,where", [(1, "endpoint")] + [
    (order, where) for order in (2, 3, 4) for where in _CALLERS])
def test_a_residual_of_another_type_gives_the_bits_of_its_float64_form(order, where,
                                                                       kind):
    # A residual that is a list, an int, bool, float32, big-endian float64
    # or object ndarray or an ndarray subclass, at every stencil point or at
    # every endpoint, gives the bits of the same residual as float64: every
    # record of a run, its x and counts, and a step's outcome, whose new f0
    # is float64.
    outcomes = []
    for convert in _RESIDUALS[kind]:
        problem, converted = _converting(valley_problem(100.0), convert, _CALLERS[where])
        result = run(START, problem, OptimizerConfig(order=order, max_iterations=6))
        assert converted
        outcomes.append((repr(result.trajectory), result.x.tobytes(),
                         result.f_evaluations, result.termination,
                         _step_bits(problem, order), converted))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][4][2] == np.float64


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_a_complex_residual_fails_its_call_as_its_float64_conversion_does(order):
    # Under the suite's error filter np.asarray(r, dtype=float) raises
    # ComplexWarning on a complex residual r, and a complex residual fails
    # its call with that error: a StencilEvaluationError chained from it at
    # a stencil point, an entry of causes at an endpoint.
    with pytest.raises(ComplexWarning) as conversion:
        np.asarray(valley_problem(100.0).evaluator(START).astype(complex), dtype=float)
    for where, caller in list(_CALLERS.items())[order == 1:]:
        problem, converted = _converting(valley_problem(100.0),
                                         lambda f: f.astype(complex), caller)
        with pytest.raises(StepFailureError) as info:
            step(START, problem, LambdaSchedule(1.0), OptimizerConfig(order=order),
                 f0=valley_problem(100.0).evaluator(START))
        assert list(info.value.causes) == list(range(21)) and len(converted) == 21
        for cause in info.value.causes.values():
            if where == "stencil point":
                assert type(cause) is StencilEvaluationError
                assert cause.evaluations == 1
                cause = cause.__cause__
            assert type(cause) is ComplexWarning
            assert str(cause) == str(conversion.value)
