"""Problems of the Moré-Garbow-Hillstrom test set.

Moré, Garbow & Hillstrom, "Testing unconstrained optimization software"
(ACM TOMS 7, 1981), define each problem analytically, with a standard
start.  Each Jacobian here is analytic and checked against central
differences; each run is pinned at orders 1-4 from the standard start:
the zero-residual problems converge, the nonzero-residual ones stall at
their local minimum, and Wood converges too.  Jennrich-Sampson is pinned
from 10 x0 as well.
"""

import functools
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

    return Problem(2, 2, evaluator, jacobian)


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

    return Problem(4, 4, evaluator, jacobian)


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

    return Problem(3, 3, evaluator, jacobian)


def box_3d(m: int = 10) -> Problem:
    t = 0.1 * np.arange(1, m + 1)
    shift = np.exp(-t) - np.exp(-10.0 * t)

    def evaluator(x):
        x1, x2, x3 = x.tolist()
        return np.exp(-t * x1) - np.exp(-t * x2) - x3 * shift

    def jacobian(x):
        x1, x2, _ = x.tolist()
        return np.stack([-t * np.exp(-t * x1), t * np.exp(-t * x2), -shift], axis=1)

    return Problem(3, m, evaluator, jacobian)


def beale() -> Problem:
    y = (1.5, 2.25, 2.625)

    def evaluator(x):
        x1, x2 = x.tolist()
        return np.array([y[i] - x1 * (1.0 - x2 ** (i + 1)) for i in range(3)])

    def jacobian(x):
        x1, x2 = x.tolist()
        return np.array([[x2 ** (i + 1) - 1.0, (i + 1) * x1 * x2 ** i]
                         for i in range(3)])

    return Problem(2, 3, evaluator, jacobian)


def brown_badly_scaled() -> Problem:
    def evaluator(x):
        x1, x2 = x.tolist()
        return np.array([x1 - 1e6, x2 - 2e-6, x1 * x2 - 2.0])

    def jacobian(x):
        x1, x2 = x.tolist()
        return np.array([[1.0, 0.0], [0.0, 1.0], [x2, x1]])

    return Problem(2, 3, evaluator, jacobian)


def powell_badly_scaled() -> Problem:
    def evaluator(x):
        x1, x2 = x.tolist()
        return np.array([1e4 * x1 * x2 - 1.0,
                         math.exp(-x1) + math.exp(-x2) - 1.0001])

    def jacobian(x):
        x1, x2 = x.tolist()
        return np.array([[1e4 * x2, 1e4 * x1], [-math.exp(-x1), -math.exp(-x2)]])

    return Problem(2, 2, evaluator, jacobian)


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

    return Problem(p, p, evaluator, jacobian)


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

    return Problem(p, p, evaluator, jacobian)


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

    return Problem(p, p, evaluator, jacobian)


def penalty_1(p: int = 4) -> Problem:
    r = math.sqrt(1e-5)

    def evaluator(x):
        return np.append(r * (x - 1.0), x.dot(x) - 0.25)

    def jacobian(x):
        return np.vstack([r * np.eye(p), 2.0 * x])

    return Problem(p, p + 1, evaluator, jacobian)


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

    return Problem(4, m, evaluator, jacobian)


def freudenstein_roth() -> Problem:
    def evaluator(x):
        x1, x2 = x.tolist()
        return np.array([-13.0 + x1 + ((5.0 - x2) * x2 - 2.0) * x2,
                         -29.0 + x1 + ((x2 + 1.0) * x2 - 14.0) * x2])

    def jacobian(x):
        _, x2 = x.tolist()
        return np.array([[1.0, (10.0 - 3.0 * x2) * x2 - 2.0],
                         [1.0, (3.0 * x2 + 2.0) * x2 - 14.0]])

    return Problem(2, 2, evaluator, jacobian)


def jennrich_sampson(m: int = 10) -> Problem:
    i = np.arange(1.0, m + 1.0)

    def evaluator(x):
        x1, x2 = x.tolist()
        return 2.0 + 2.0 * i - (np.exp(i * x1) + np.exp(i * x2))

    def jacobian(x):
        x1, x2 = x.tolist()
        return np.stack([-i * np.exp(i * x1), -i * np.exp(i * x2)], axis=1)

    return Problem(2, m, evaluator, jacobian)


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

    return Problem(4, 6, evaluator, jacobian)


def biggs_exp6(m: int = 13) -> Problem:
    t = 0.1 * np.arange(1, m + 1)
    y = np.exp(-t) - 5.0 * np.exp(-10.0 * t) + 3.0 * np.exp(-4.0 * t)

    def evaluator(x):
        # A trial point far from the start overflows an exponential: its
        # residual is then not finite, unwarned, and fails only its call.
        x1, x2, x3, x4, x5, x6 = x.tolist()
        with np.errstate(over="ignore", invalid="ignore"):
            return (x3 * np.exp(-t * x1) - x4 * np.exp(-t * x2)
                    + x6 * np.exp(-t * x5) - y)

    def jacobian(x):
        x1, x2, x3, x4, x5, x6 = x.tolist()
        e1, e2, e5 = np.exp(-t * x1), np.exp(-t * x2), np.exp(-t * x5)
        return np.stack([-t * x3 * e1, t * x4 * e2, e1, -e2, -t * x6 * e5, e5],
                        axis=1)

    return Problem(6, m, evaluator, jacobian)


def watson(p: int) -> Problem:
    # m = 31: 29 residuals at t_i = i / 29, then x1 and x2 - x1^2 - 1.
    t = np.arange(1, 30) / 29.0
    powers = t[:, None] ** np.arange(p)  # t_i^(j-1), j = 1..p

    def evaluator(x):
        inner = powers.dot(x)
        slope = powers[:, :-1].dot(np.arange(1, p) * x[1:])
        return np.concatenate((slope - inner * inner - 1.0,
                               [x[0], x[1] - x[0] * x[0] - 1.0]))

    def jacobian(x):
        inner = powers.dot(x)
        J = np.zeros((31, p))
        J[:29, 1:] = np.arange(1, p) * powers[:, :-1]
        J[:29] -= 2.0 * inner[:, None] * powers
        J[29, 0], J[30, 0], J[30, 1] = 1.0, -2.0 * x[0], 1.0
        return J

    return Problem(p, 31, evaluator, jacobian)


def penalty_2(p: int = 4) -> Problem:
    # m = 2p: x1 - 0.2, the p - 1 paired exponentials less y_i, the p - 1
    # single ones less exp(-0.1), and the weighted sum of squares less 1.
    r = math.sqrt(1e-5)
    i = np.arange(2, p + 1)
    y = np.exp(i / 10.0) + np.exp((i - 1) / 10.0)
    weights = np.arange(p, 0, -1.0)

    def evaluator(x):
        e = np.exp(x / 10.0)
        return np.concatenate(([x[0] - 0.2], r * (e[1:] + e[:-1] - y),
                               r * (e[1:] - math.exp(-0.1)),
                               [weights.dot(x * x) - 1.0]))

    def jacobian(x):
        de, k = r * np.exp(x / 10.0) / 10.0, np.arange(p - 1)
        J = np.zeros((2 * p, p))
        J[0, 0] = 1.0
        J[1 + k, k + 1], J[1 + k, k] = de[1:], de[:-1]
        J[p + k, k + 1] = de[1:]
        J[-1] = 2.0 * weights * x
        return J

    return Problem(p, 2 * p, evaluator, jacobian)


def chebyquad(p: int) -> Problem:
    # m = p: the mean of the shifted Chebyshev polynomial T_i(2 x_j - 1) over
    # the x_j, less its integral over [0, 1], -1 / (i^2 - 1) for even i.
    integral = np.array([0.0 if i % 2 else -1.0 / (i * i - 1) for i in range(1, p + 1)])

    def values(x):
        """T_i(2 x_j - 1) and its x-derivative, rows i = 1..p."""
        y = 2.0 * x - 1.0
        T, dT = [np.ones(p), y], [np.zeros(p), np.full(p, 2.0)]
        for _ in range(2, p + 1):
            T.append(2.0 * y * T[-1] - T[-2])
            dT.append(4.0 * T[-2] + 2.0 * y * dT[-1] - dT[-2])
        return np.array(T[1:]), np.array(dT[1:])

    def evaluator(x):
        return values(x)[0].mean(axis=1) - integral

    def jacobian(x):
        return values(x)[1] / p

    return Problem(p, p, evaluator, jacobian)


def chebyquad_start(p: int):
    return tuple((np.arange(1, p + 1) / (p + 1)).tolist())


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
    # p = 6, m = 13.
    "biggs_exp6": (biggs_exp6, (1.0, 2.0, 1.0, 1.0, 1.0, 1.0),
                   ((61, 1282), (23, 967), (17, 1734), (17, 3083))),
    # p = m = 7, where Chebyquad has a zero residual.
    "chebyquad_7": (functools.partial(chebyquad, 7), chebyquad_start(7),
                    ((6, 127), (4, 169), (3, 316), (3, 568))),
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
    # Penalty II (p = 4, m = 8), Watson (p = 6 and 9, m = 31) and Chebyquad
    # (p = m = 8 and 10) stall at the published minimum.  There |J^T f| /
    # (s_max |f|) is 1.7e-13 to 1.3e-8 (tools/mgh_table.py prints it), and
    # Chebyquad 10's 1.3e-8 at order 1 is above scipy's default gtol, 1e-8.
    "penalty_2": (penalty_2, (0.5,) * 4, 0.003062073,
                  ((95, 1996), (25, 1051), (23, 2416), (21, 3970))),
    "watson_6": (functools.partial(watson, 6), (0.0,) * 6, 0.04782959,
                 ((20, 421), (23, 967), (14, 1471), (17, 3214))),
    "watson_9": (functools.partial(watson, 9), (0.0,) * 9, 0.001183115,
                 ((17, 358), (18, 757), (16, 1681), (17, 3214))),
    "chebyquad_8": (functools.partial(chebyquad, 8), chebyquad_start(8), 0.05930324,
                    ((33, 694), (34, 1429), (35, 3648), (34, 6295))),
    "chebyquad_10": (functools.partial(chebyquad, 10), chebyquad_start(10), 0.0806471,
                     ((22, 463), (21, 883), (22, 2291), (23, 4286))),
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
    # about 1e6, reaches 1e-5 of its Jacobian's scale.  Chebyquad's shifted
    # Chebyshev polynomials of degree up to 10 have third derivatives up to
    # about 5e5, so their central differences need 1e-6.  Each entry must
    # match to 1e-6 of itself, so a 0.1% error in any one of them fails.
    step = 1e-6 if name.startswith("chebyquad") else 1e-4
    for x in (np.array(start), np.array(start) + rng.uniform(-0.5, 0.5, len(start))):
        J = problem.jacobian(x)
        assert J.shape == (problem.output_dim, problem.input_dim)
        fd = finite_difference_jacobian(problem, x, rel_step=step)
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


# Wood's (iterations, evaluations) from its standard start, by order.
WOOD_COUNTS = {1: (68, 1429), 2: (56, 2353), 3: (54, 5671), 4: (53, 10018)}


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_wood_converges_from_the_standard_start(order):
    # scipy's least_squares with method="lm" reaches |f| = 0 in 70
    # evaluations.  The winning damping walks down to 1e-148..1e-168, and
    # a rejected sweep used to raise it only 10^4: five of them stalled every
    # order at a point that is not stationary, |f| = 2.4-2.8.  A rejected
    # sweep now recentres at least at 2^-52 s_max^2, where damping starts to
    # matter to J's largest direction, and every order converges.
    problem, counter = counting_problem(wood())
    result = run(np.array(WOOD_START), problem, OptimizerConfig(order=order))
    assert result.converged
    assert result.f_evaluations == counter["evals"]
    assert (result.iterations, result.f_evaluations) == WOOD_COUNTS[order]


# Jennrich-Sampson from 10 x0, by order: (iterations, evaluations).
JENNRICH_SAMPSON_10X = {1: (49, 1030), 2: (39, 1639), 3: (40, 4159), 4: (37, 6994)}


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_jennrich_sampson_from_ten_times_its_start_stalls(order):
    # Moré, Garbow & Hillstrom also start each problem from 10 x0.  There
    # exp(i x) overflows at some candidates; the evaluator silences the
    # warning, which the suite's error filter would otherwise turn into a
    # failed call, and returns -inf entries.  At orders 2 and 3 a sweep at
    # a damping of about 1e-100 has every endpoint non-finite.  No call
    # fails, so it is a rejection, not a step failure: the damping
    # escalates, and every order stalls at the same |f| = 16.1115.
    problem = jennrich_sampson()

    def evaluator(x):
        with np.errstate(over="ignore"):
            return problem.evaluator(x)

    silenced, counter = counting_problem(
        Problem(2, 10, evaluator, problem.jacobian))
    result = run(10.0 * np.array([0.3, 0.4]), silenced, OptimizerConfig(order=order))
    assert result.termination == "stalled" and result.failure is None
    assert result.residual_norm == pytest.approx(16.111492486242643, rel=1e-9)
    assert result.f_evaluations == counter["evals"]
    assert (result.iterations, result.f_evaluations) == JENNRICH_SAMPSON_10X[order]
