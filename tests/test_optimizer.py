import numpy as np
import pytest

from helpers import counting_problem
from lmcorrect.optimizer import (
    GRID_BASE,
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


def test_affine_problem_one_undamped_step():
    problem = default_affine_problem()
    config = OptimizerConfig(order=1, inverse_variant="gauss_newton")
    result = run(np.array([5.0, -3.0]), problem, config)
    assert result.converged
    assert result.iterations == 1
    assert result.residual_norm <= 1e-12


@pytest.mark.parametrize("variant", ["newton", "gauss_newton"])
def test_affine_single_candidate_variants(variant):
    problem = default_affine_problem()
    config = OptimizerConfig(order=2, inverse_variant=variant)
    result = run(np.array([2.0, 2.0]), problem, config)
    assert result.converged and result.iterations == 1


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
