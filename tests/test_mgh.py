"""Problems of the Moré-Garbow-Hillstrom test set.

Moré, Garbow & Hillstrom, "Testing unconstrained optimization software"
(ACM TOMS 7, 1981), define each problem analytically, with a standard
start.  Each Jacobian here is analytic and checked against central
differences; each run is pinned at orders 1-4 from the standard start:
the zero-residual problems converge, the nonzero-residual ones stall at
their local minimum, and Wood's convergence is an expected failure.
"""

import math

import numpy as np
import pytest

from helpers import counting_problem, finite_difference_jacobian
from lmcorrect.optimizer import OptimizerConfig, run
from lmcorrect.problems import Problem


def rosenbrock() -> Problem:
    def evaluator(x):
        x1, x2 = x.tolist()
        return np.array([10.0 * (x2 - x1 * x1), 1.0 - x1])

    def jacobian(x):
        x1, _ = x.tolist()
        return np.array([[-20.0 * x1, 10.0], [-1.0, 0.0]])

    return Problem(2, 2, evaluator, jacobian, name="rosenbrock")


def powell_singular() -> Problem:
    # The Jacobian is singular at the solution, x = 0.
    r5, r10 = math.sqrt(5.0), math.sqrt(10.0)

    def evaluator(x):
        x1, x2, x3, x4 = x.tolist()
        return np.array([x1 + 10.0 * x2, r5 * (x3 - x4), (x2 - 2.0 * x3) ** 2,
                         r10 * (x1 - x4) ** 2])

    def jacobian(x):
        x1, x2, x3, x4 = x.tolist()
        a, b = 2.0 * (x2 - 2.0 * x3), 2.0 * r10 * (x1 - x4)
        return np.array([[1.0, 10.0, 0.0, 0.0], [0.0, 0.0, r5, -r5],
                         [0.0, a, -2.0 * a, 0.0], [b, 0.0, 0.0, -b]])

    return Problem(4, 4, evaluator, jacobian, name="powell_singular")


def helical_valley() -> Problem:
    # theta is MGH's: atan(x2 / x1) / (2 pi), plus 0.5 for x1 < 0; on x1 = 0
    # it takes the limit from x1 > 0, 0.25 sign(x2).
    def theta(x1, x2):
        if x1 == 0.0:
            return math.copysign(0.25, x2)
        return math.atan(x2 / x1) / (2.0 * math.pi) + (0.5 if x1 < 0.0 else 0.0)

    def evaluator(x):
        x1, x2, x3 = x.tolist()
        return np.array([10.0 * (x3 - 10.0 * theta(x1, x2)),
                         10.0 * (math.hypot(x1, x2) - 1.0), x3])

    def jacobian(x):
        x1, x2, _ = x.tolist()
        r2, r = x1 * x1 + x2 * x2, math.hypot(x1, x2)
        d = 100.0 / (2.0 * math.pi * r2)
        return np.array([[d * x2, -d * x1, 10.0], [10.0 * x1 / r, 10.0 * x2 / r, 0.0],
                         [0.0, 0.0, 1.0]])

    return Problem(3, 3, evaluator, jacobian, name="helical_valley")


def box_3d(m: int = 10) -> Problem:
    t = 0.1 * np.arange(1, m + 1)
    shift = np.exp(-t) - np.exp(-10.0 * t)

    def evaluator(x):
        x1, x2, x3 = x.tolist()
        return np.exp(-t * x1) - np.exp(-t * x2) - x3 * shift

    def jacobian(x):
        x1, x2, _ = x.tolist()
        return np.stack([-t * np.exp(-t * x1), t * np.exp(-t * x2), -shift], axis=1)

    return Problem(3, m, evaluator, jacobian, name="box_3d")


def beale() -> Problem:
    y = (1.5, 2.25, 2.625)

    def evaluator(x):
        x1, x2 = x.tolist()
        return np.array([y[i] - x1 * (1.0 - x2 ** (i + 1)) for i in range(3)])

    def jacobian(x):
        x1, x2 = x.tolist()
        return np.array([[x2 ** (i + 1) - 1.0, (i + 1) * x1 * x2 ** i]
                         for i in range(3)])

    return Problem(2, 3, evaluator, jacobian, name="beale")


def brown_badly_scaled() -> Problem:
    def evaluator(x):
        x1, x2 = x.tolist()
        return np.array([x1 - 1e6, x2 - 2e-6, x1 * x2 - 2.0])

    def jacobian(x):
        x1, x2 = x.tolist()
        return np.array([[1.0, 0.0], [0.0, 1.0], [x2, x1]])

    return Problem(2, 3, evaluator, jacobian, name="brown_badly_scaled")


def powell_badly_scaled() -> Problem:
    def evaluator(x):
        x1, x2 = x.tolist()
        return np.array([1e4 * x1 * x2 - 1.0,
                         math.exp(-x1) + math.exp(-x2) - 1.0001])

    def jacobian(x):
        x1, x2 = x.tolist()
        return np.array([[1e4 * x2, 1e4 * x1], [-math.exp(-x1), -math.exp(-x2)]])

    return Problem(2, 2, evaluator, jacobian, name="powell_badly_scaled")


def extended_rosenbrock(p: int = 10) -> Problem:
    # Rosenbrock on each pair (x_2i-1, x_2i): a block-diagonal Jacobian.
    def evaluator(x):
        odd, even = x[0::2], x[1::2]
        f = np.empty(p)
        f[0::2] = 10.0 * (even - odd * odd)
        f[1::2] = 1.0 - odd
        return f

    def jacobian(x):
        J, i = np.zeros((p, p)), np.arange(0, p, 2)
        J[i, i], J[i, i + 1], J[i + 1, i] = -20.0 * x[0::2], 10.0, -1.0
        return J

    return Problem(p, p, evaluator, jacobian, name="extended_rosenbrock")


def discrete_boundary_value(p: int = 10) -> Problem:
    # A two-point boundary value problem, discretised on t_i = i h with
    # h = 1 / (p + 1) and x_0 = x_{p+1} = 0: a tridiagonal Jacobian.
    h = 1.0 / (p + 1)
    t = h * np.arange(1, p + 1)

    def evaluator(x):
        pad = np.concatenate(([0.0], x, [0.0]))
        return 2.0 * x - pad[:-2] - pad[2:] + 0.5 * h * h * (x + t + 1.0) ** 3

    def jacobian(x):
        J, i = np.diag(2.0 + 1.5 * h * h * (x + t + 1.0) ** 2), np.arange(p - 1)
        J[i, i + 1] = J[i + 1, i] = -1.0
        return J

    return Problem(p, p, evaluator, jacobian, name="discrete_boundary_value")


def discrete_boundary_value_start(p: int = 10):
    t = 1.0 / (p + 1) * np.arange(1, p + 1)  # the problem's t_i
    return tuple((t * (t - 1.0)).tolist())


def broyden_tridiagonal(p: int = 10) -> Problem:
    def evaluator(x):
        pad = np.concatenate(([0.0], x, [0.0]))
        return (3.0 - 2.0 * x) * x - pad[:-2] - 2.0 * pad[2:] + 1.0

    def jacobian(x):
        J, i = np.diag(3.0 - 4.0 * x), np.arange(p - 1)
        J[i, i + 1], J[i + 1, i] = -2.0, -1.0
        return J

    return Problem(p, p, evaluator, jacobian, name="broyden_tridiagonal")


def penalty_1(p: int = 4) -> Problem:
    r = math.sqrt(1e-5)

    def evaluator(x):
        return np.append(r * (x - 1.0), x.dot(x) - 0.25)

    def jacobian(x):
        return np.vstack([r * np.eye(p), 2.0 * x])

    return Problem(p, p + 1, evaluator, jacobian, name="penalty_1")


def brown_dennis(m: int = 20) -> Problem:
    t = np.arange(1, m + 1) / 5.0
    et, st, ct = np.exp(t), np.sin(t), np.cos(t)

    def evaluator(x):
        x1, x2, x3, x4 = x.tolist()
        return (x1 + t * x2 - et) ** 2 + (x3 + x4 * st - ct) ** 2

    def jacobian(x):
        x1, x2, x3, x4 = x.tolist()
        a, b = 2.0 * (x1 + t * x2 - et), 2.0 * (x3 + x4 * st - ct)
        return np.stack([a, a * t, b, b * st], axis=1)

    return Problem(4, m, evaluator, jacobian, name="brown_dennis")


def freudenstein_roth() -> Problem:
    def evaluator(x):
        x1, x2 = x.tolist()
        return np.array([-13.0 + x1 + ((5.0 - x2) * x2 - 2.0) * x2,
                         -29.0 + x1 + ((x2 + 1.0) * x2 - 14.0) * x2])

    def jacobian(x):
        _, x2 = x.tolist()
        return np.array([[1.0, (10.0 - 3.0 * x2) * x2 - 2.0],
                         [1.0, (3.0 * x2 + 2.0) * x2 - 14.0]])

    return Problem(2, 2, evaluator, jacobian, name="freudenstein_roth")


def jennrich_sampson(m: int = 10) -> Problem:
    i = np.arange(1.0, m + 1.0)

    def evaluator(x):
        x1, x2 = x.tolist()
        return 2.0 + 2.0 * i - (np.exp(i * x1) + np.exp(i * x2))

    def jacobian(x):
        x1, x2 = x.tolist()
        return np.stack([-i * np.exp(i * x1), -i * np.exp(i * x2)], axis=1)

    return Problem(2, m, evaluator, jacobian, name="jennrich_sampson")


def wood() -> Problem:
    r10, r90 = math.sqrt(10.0), math.sqrt(90.0)

    def evaluator(x):
        x1, x2, x3, x4 = x.tolist()
        return np.array([10.0 * (x2 - x1 * x1), 1.0 - x1, r90 * (x4 - x3 * x3),
                         1.0 - x3, r10 * (x2 + x4 - 2.0), (x2 - x4) / r10])

    def jacobian(x):
        x1, _, x3, _ = x.tolist()
        return np.array([[-20.0 * x1, 10.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0],
                         [0.0, 0.0, -2.0 * r90 * x3, r90], [0.0, 0.0, -1.0, 0.0],
                         [0.0, r10, 0.0, r10], [0.0, 1.0 / r10, 0.0, -1.0 / r10]])

    return Problem(4, 6, evaluator, jacobian, name="wood")


# Per problem: its standard start and, at orders 1-4, (iterations,
# evaluations) of a converged run with the default configuration.
CASES = {
    "rosenbrock": (rosenbrock, (-1.2, 1.0),
                   ((18, 379), (2, 85), (2, 211), (2, 379))),
    "powell_singular": (powell_singular, (3.0, -1.0, 0.0, 1.0),
                        ((17, 358), (12, 505), (11, 1156), (9, 1702))),
    "helical_valley": (helical_valley, (-1.0, 0.0, 0.0),
                       ((12, 253), (7, 295), (6, 631), (6, 1135))),
    "box_3d": (box_3d, (0.0, 10.0, 20.0),
               ((6, 127), (4, 169), (3, 316), (3, 568))),
    "beale": (beale, (1.0, 1.0),
              ((7, 148), (5, 211), (4, 421), (5, 946))),
    "brown_badly_scaled": (brown_badly_scaled, (1.0, 1.0),
                           ((14, 295), (14, 589), (14, 1437), (14, 2558))),
    "powell_badly_scaled": (powell_badly_scaled, (0.0, 1.0),
                            ((86, 1807), (21, 883), (13, 1366), (11, 2080))),
    # p = m = 10; its blocks are decoupled, and the counts are Rosenbrock's.
    "extended_rosenbrock": (extended_rosenbrock, (-1.2, 1.0) * 5,
                            ((18, 379), (2, 85), (2, 211), (2, 379))),
    # p = m = 10, both tridiagonal.
    "discrete_boundary_value": (discrete_boundary_value,
                                discrete_boundary_value_start(),
                                ((2, 43), (2, 85), (2, 211), (2, 379))),
    "broyden_tridiagonal": (broyden_tridiagonal, (-1.0,) * 10,
                            ((5, 106), (3, 127), (3, 316), (2, 379))),
}

# Nonzero-residual problems: per problem, its standard start, |f| at its
# local minimum (scipy's least_squares with method="lm" reaches the same
# value from the same start) and (iterations, evaluations) at orders 1-4
# of a run that stalls there.  Stationarity is not a stop rule yet:
# ROADMAP item 5 will make these runs end "stationary".
STALLED = {
    "freudenstein_roth": (freudenstein_roth, (0.5, -2.0), 6.998875,
                          ((21, 442), (22, 925), (20, 2101), (20, 3761))),
    "jennrich_sampson": (jennrich_sampson, (0.3, 0.4), 11.15178,
                         ((12, 253), (11, 463), (11, 1154), (13, 2446))),
    # p = 4, m = 5 and m = 20: both stall at the published minimum, and item
    # 5's stop rule will make both end "stationary" there too.
    "penalty_1": (penalty_1, (1.0, 2.0, 3.0, 4.0), 0.004743393,
                  ((32, 673), (16, 673), (14, 1471), (13, 2458))),
    "brown_dennis": (brown_dennis, (25.0, 5.0, -5.0, -1.0), 292.9543,
                     ((32, 673), (34, 1429), (33, 3466), (35, 6610))),
}

WOOD_START = (-3.0, -1.0, -3.0, -1.0)

# Every problem here, with its standard start.
PROBLEMS = {name: case[:2] for name, case in {**CASES, **STALLED}.items()}
PROBLEMS["wood"] = (wood, WOOD_START)


@pytest.mark.parametrize("name", PROBLEMS)
def test_jacobian_matches_central_differences(name):
    make, start = PROBLEMS[name]
    problem = make()
    rng = np.random.default_rng(list(name.encode()))
    # A step of 1e-4 (1 + |x_j|): at 1e-6 the rounding of Brown's residuals,
    # about 1e6, reaches 1e-5 of its Jacobian's scale.  Each entry must
    # match to 1e-6 of itself, so a 0.1% error in any one of them fails.
    for x in (np.array(start), np.array(start) + rng.uniform(-0.5, 0.5, len(start))):
        J = problem.jacobian(x)
        assert J.shape == (problem.output_dim, problem.input_dim)
        fd = finite_difference_jacobian(problem, x, rel_step=1e-4)
        assert (np.abs(J - fd) <= 1e-6 * np.abs(J) + 1e-9 * max(1.0, np.abs(J).max())).all()


@pytest.mark.parametrize("order", [1, 2, 3, 4])
@pytest.mark.parametrize("name", CASES)
def test_standard_start_converges(name, order):
    make, start, counts = CASES[name]
    problem, counter = counting_problem(make())
    result = run(np.array(start), problem, OptimizerConfig(order=order))
    assert result.converged
    assert result.f_evaluations == counter["evals"]
    assert (result.iterations, result.f_evaluations) == counts[order - 1]


@pytest.mark.parametrize("order", [1, 2, 3, 4])
@pytest.mark.parametrize("name", STALLED)
def test_nonzero_residual_start_stalls_at_the_local_minimum(name, order):
    make, start, norm, counts = STALLED[name]
    problem, counter = counting_problem(make())
    result = run(np.array(start), problem, OptimizerConfig(order=order))
    assert result.termination == "stalled"
    assert result.residual_norm == pytest.approx(norm, rel=1e-6)
    assert result.f_evaluations == counter["evals"]
    assert (result.iterations, result.f_evaluations) == counts[order - 1]


@pytest.mark.xfail(strict=True, reason="the damping escalation stalls Wood at "
                   "a point that is not stationary (CHANGES.md FOUND line)")
@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_wood_converges_from_the_standard_start(order):
    # scipy's least_squares with method="lm" reaches |f| = 0 in 70
    # evaluations.  Every order stalls instead, at |f| = 2.7847 / 2.6369 /
    # 2.5088 / 2.4383 after 967 / 1975 / 4936 / 8884 evaluations, where
    # |J^T f| / (s_max |f|) is 0.03-0.07: the winning damping walks down to
    # 1e-148..1e-168, and the five rejected sweeps that end the run raise it
    # only 10^20.
    result = run(np.array(WOOD_START), wood(), OptimizerConfig(order=order))
    assert result.converged
