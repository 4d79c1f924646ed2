import numpy as np
import pytest

from helpers import counting_problem
from lmcorrect.corrections import StencilEvaluationError
from lmcorrect.optimizer import (
    GRID_BASE,
    INVERSE_VARIANTS,
    LambdaSchedule,
    OptimizerConfig,
    StepFailureError,
    run,
    step,
)
from lmcorrect.problems import Problem, default_affine_problem, valley_problem

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
    # Exactly the per-entry formula, for any centre.
    for lam in (3.0, 1e-300, 7.3e12):
        assert LambdaSchedule(lambda_old=lam).grid().tolist() == [
            lam * GRID_BASE ** ((n / 10.0) ** 3) for n in range(-10, 11)
        ]


def test_affine_problem_one_undamped_step():
    problem = default_affine_problem()
    config = OptimizerConfig(order=1, inverse_variant="gauss_newton")
    result = run(np.array([5.0, -3.0]), problem, config)
    assert result.converged
    assert result.iterations == 1
    assert result.residual_norm <= 1e-12


@pytest.mark.parametrize("variant", ["gauss_newton"])
def test_affine_single_candidate_variants(variant):
    problem = default_affine_problem()
    config = OptimizerConfig(order=2, inverse_variant=variant)
    result = run(np.array([2.0, 2.0]), problem, config)
    assert result.converged and result.iterations == 1


def test_gauss_newton_survives_a_singular_jacobian():
    # J has two equal rows everywhere, so no exact inverse exists; the
    # minimum-norm step still drives the residual to zero.
    problem = Problem(2, 2,
                      lambda x: np.full(2, x[0] ** 2 + x[1] - 1.0),
                      lambda x: np.array([[2.0 * x[0], 1.0]] * 2), name="twin")
    config = OptimizerConfig(order=2, inverse_variant="gauss_newton")
    with pytest.warns(RuntimeWarning, match="rank-deficient"):
        result = run(np.array([2.0, 0.0]), problem, config)
    assert result.converged and result.iterations == 3


def test_run_counts_include_every_pass_and_records_match():
    result = run(START, valley_problem(100.0), OptimizerConfig(order=2))
    assert result.converged
    assert result.iterations == len(result.trajectory)
    assert [r.iteration for r in result.trajectory] == list(
        range(1, result.iterations + 1)
    )
    assert result.trajectory[-1].residual_norm <= 1e-9
    assert result.residual_norm == result.trajectory[-1].residual_norm


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
        cause = info.value.__cause__
        if order > 1:
            # Every stencil fails first; its error keeps the evaluator's.
            assert isinstance(cause, StencilEvaluationError)
            cause = cause.__cause__
        assert isinstance(cause, FloatingPointError)


@pytest.mark.parametrize("order", [1, 2])
def test_wrong_shaped_residual_is_rejected(order):
    # A length-1 residual would broadcast silently into a candidate's row.
    problem = Problem(2, 2, lambda x: np.array([0.5]), lambda x: np.eye(2),
                      name="short")
    with pytest.raises(ValueError, match=r"shape \(1,\), expected \(2,\)"):
        step(np.zeros(2), problem, LambdaSchedule(),
             OptimizerConfig(order=order), f0=np.array([1.0, 1.0]))


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


def test_lambda_floor_prevents_underflow():
    # A long endgame can keep choosing the grid minimum; the carried value
    # must bottom out above zero or the next sweep would be degenerate.
    schedule = LambdaSchedule(lambda_old=1e-299)
    assert np.all(schedule.grid() > 0)
    problem = valley_problem(1.0)
    f0 = problem.evaluator(START)
    _, _, record = step(START, problem, schedule, OptimizerConfig(order=1), f0=f0)
    assert record.accepted
    assert schedule.lambda_old >= 1e-300
    assert np.all(schedule.grid() > 0)


def test_max_iterations_censors_run():
    result = run(START, valley_problem(1e6), OptimizerConfig(order=1, max_iterations=40))
    assert not result.converged
    assert result.iterations == 40


def test_converged_start_needs_no_iterations():
    result = run(np.zeros(2), valley_problem(1e4), OptimizerConfig(order=4))
    assert result.converged and result.iterations == 0
    assert result.f_evaluations == 1


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


@pytest.mark.parametrize("variant", INVERSE_VARIANTS)
def test_nonfinite_start_residual_rejected(variant):
    problem = Problem(2, 2, lambda x: np.array([np.nan, 0.0]), lambda x: np.eye(2),
                      name="nan")
    config = OptimizerConfig(inverse_variant=variant)
    with pytest.raises(ValueError, match="starting residual must be finite"):
        run(np.zeros(2), problem, config)
    with pytest.raises(ValueError, match="f0 must be finite"):
        step(np.zeros(2), problem, LambdaSchedule(), config,
             f0=np.array([np.inf, 0.0]))


def test_wrong_shaped_start_residual_rejected():
    problem = Problem(2, 2, lambda x: np.ones(3), lambda x: np.eye(2), name="long")
    with pytest.raises(ValueError, match=r"shape \(3,\), expected \(2,\)"):
        run(np.zeros(2), problem, OptimizerConfig())


def test_step_rejects_wrong_shaped_f0():
    with pytest.raises(ValueError, match=r"shape \(3,\), expected \(2,\)"):
        step(START, valley_problem(1.0), LambdaSchedule(), OptimizerConfig(),
             f0=np.ones(3))


def test_step_rejects_wrong_shaped_jacobian():
    problem = Problem(2, 2, lambda x: np.ones(2), lambda x: np.ones((3, 2)),
                      name="tall")
    with pytest.raises(ValueError, match=r"shape \(3, 2\), expected \(2, 2\)"):
        step(np.zeros(2), problem, LambdaSchedule(), OptimizerConfig(),
             f0=np.ones(2))


def test_step_failure_when_everything_is_nonfinite():
    problem = Problem(2, 2,
                      lambda x: np.full(2, np.nan),
                      lambda x: np.eye(2), name="nan")
    schedule = LambdaSchedule()
    with pytest.raises(StepFailureError):
        step(np.zeros(2), problem, schedule, OptimizerConfig(order=1),
             f0=np.array([1.0, 1.0]))


def test_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(order=5)
    with pytest.raises(ValueError):
        OptimizerConfig(max_iterations=0)
    with pytest.raises(ValueError):
        OptimizerConfig(convergence_tol=0.0)
    with pytest.raises(ValueError):
        OptimizerConfig(inverse_variant="cholesky")


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
