"""End-to-end acceptance suite for the benchmark reproduction.

Each test prints one ``[PASS]``/``[FAIL]`` line (run with ``pytest -s -v`` to
see them) and then asserts.  Expensive optimizer runs are shared through
module-scoped fixtures; every tolerance is pinned here, not computed.
"""

import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

from helpers import (
    counting_problem,
    criterion_6_runs,
    gauss_newton_inverse,
    partition_shape_counts,
    phase_row_mismatches,
)
from lmcorrect.cli import ConvergenceTable, TableCell, fit_power_laws
from lmcorrect.corrections import (
    PHASES,
    STENCIL_EVALUATIONS,
    correction_series,
    stencil_base,
)
from lmcorrect.faadibruno import derivative_terms
from lmcorrect.linalg import SvdFactors
from lmcorrect.optimizer import OptimizerConfig, run
from lmcorrect.problems import valley_problem

START = np.array([np.pi, np.e])

# Reference iteration counts for the anisotropic-valley benchmark, first
# through fourth order; reproduction band is max(25%, 3 iterations).
REFERENCE_ITERATIONS = {
    1: (8, 6, 5, 5),
    10: (15, 8, 6, 5),
    100: (47, 16, 9, 8),
    1000: (196, 30, 18, 11),
    10000: (880, 68, 24, 18),
}
REFERENCE_EXPONENTS = {1: 0.660, 2: 0.392, 3: 0.265, 4: 0.203}

# Exact (iterations, f_evaluations) of the 34 valley cells the fixtures run,
# orders 1-4 by K (None where no fixture runs the cell).  A speed-up keeps
# them; a change that moves them says so.
PINNED_VALLEY_COUNTS = {
    1: ((8, 169), (5, 211), (5, 526), (4, 757)),
    10: ((14, 295), (7, 295), (6, 631), (6, 1135)),
    100: ((47, 988), (14, 589), (10, 1051), (8, 1513)),
    1000: ((194, 4075), (30, 1261), (17, 1786), (12, 2269)),
    10000: ((876, 18397), (67, 2815), (27, 2836), (18, 3403)),
    1e5: ((4024, 84505), (159, 6679), (47, 4936), (26, 4915)),
    1e6: ((18647, 391588), (390, 16381), (83, 8716), (41, 7750)),
    1e7: (None, (968, 40657), (163, 17116), (68, 12853)),
    1e8: (None, (2423, 101767), (310, 32551), (108, 20413)),
}
# Criterion 6's exact totals over its 200 polynomial solves.
PINNED_POLYNOMIAL_TOTALS = {"iterations": 631, "f_evaluations": 75568}

# Pure c1-direction defect weights that the PHASES rows of orders 3 and 4
# fold in: order 3 samples f_nl at offsets (1/2, 1), order 4 at (1/2, 1, 3/2).
# Each tuple maps those f_nl values to one derivative f^(k)[c1 x k]: the
# weights times ``taylor_weight_matrix(offsets, ...)`` give the identity.
ORDER3_OFFSETS = (Fraction(1, 2), Fraction(1))
ORDER3_WEIGHTS = (
    (Fraction(16), Fraction(-2)),      # f^(2)[c1,c1]
    (Fraction(-48), Fraction(12)),     # f^(3)[c1,c1,c1]
)
ORDER4_OFFSETS = (Fraction(1, 2), Fraction(1), Fraction(3, 2))
ORDER4_WEIGHTS = (
    (Fraction(24), Fraction(-6), Fraction(8, 9)),      # f^(2)[c1,c1]
    (Fraction(-120), Fraction(48), Fraction(-8)),      # f^(3)[c1,c1,c1]
    (Fraction(192), Fraction(-96), Fraction(64, 3)),   # f^(4)[c1 x 4]
)

# Defect values below this multiple of eps * |f| are rounding noise and are
# excluded from slope fits (at least three points always remain).
NOISE_FLOOR_FACTOR = 1e3


def taylor_weight_matrix(offsets, n_derivatives: int):
    """Rows ``[a^2/2!, a^3/3!, ...]`` of the nonlinear-defect Taylor system.

    Row ``i`` holds the exact coefficients with which the pure derivative
    values ``f^(k+2)[c1 ...]`` enter ``f_nl(x + a_i c1)``, Fraction-exact.
    """
    rows = []
    for a in offsets:
        a = Fraction(a)
        fact = 2
        row = []
        power = a * a
        for k in range(n_derivatives):
            row.append(power / fact)
            power *= a
            fact *= k + 3
        rows.append(row)
    return rows


def report(number, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")
    return ok


def reproduction_band(reference):
    return max(3.0, 0.25 * reference)


@dataclass(frozen=True)
class TimedRuns:
    iterations: dict        # (K, order) -> iterations
    converged: dict         # (K, order) -> bool
    wall: dict              # (K, order) -> seconds
    f_evaluations: dict     # (K, order) -> residual evaluations


def _run_cells(cells, max_iterations=20000):
    iterations, converged, wall, f_evaluations = {}, {}, {}, {}
    for K, order in cells:
        t0 = time.perf_counter()
        result = run(START, valley_problem(K),
                     OptimizerConfig(order=order, max_iterations=max_iterations))
        wall[(K, order)] = time.perf_counter() - t0
        iterations[(K, order)] = result.iterations
        converged[(K, order)] = result.converged
        f_evaluations[(K, order)] = result.f_evaluations
    return TimedRuns(iterations, converged, wall, f_evaluations)


@pytest.fixture(scope="module")
def shallow_runs():
    cells = [(K, order) for K in REFERENCE_ITERATIONS for order in (1, 2, 3, 4)]
    return _run_cells(cells)


@pytest.fixture(scope="module")
def deep_runs():
    cells = [(1e5, 1), (1e6, 1)]
    cells += [(K, order) for order in (2, 3, 4) for K in (1e5, 1e6, 1e7, 1e8)]
    return _run_cells(cells)


def test_criterion_1_shallow_table_reproduction(shallow_runs):
    mismatches = []
    for K, refs in REFERENCE_ITERATIONS.items():
        for order, ref in zip((1, 2, 3, 4), refs):
            mine = shallow_runs.iterations[(K, order)]
            if not shallow_runs.converged[(K, order)]:
                mismatches.append(f"K={K} order={order}: unconverged")
            elif abs(mine - ref) > reproduction_band(ref):
                mismatches.append(f"K={K} order={order}: {mine} vs {ref}")
    monotone = all(
        shallow_runs.iterations[(K, o)] >= shallow_runs.iterations[(K, o + 1)]
        for K in REFERENCE_ITERATIONS
        for o in (1, 2, 3)
    )
    elapsed = sum(shallow_runs.wall.values())
    ok = not mismatches and monotone and elapsed < 10.0
    detail = (
        f"20 table cells within max(25%, 3) of reference, order-dominance "
        f"{'held' if monotone else 'VIOLATED'}, {elapsed:.1f}s"
        + (f"; mismatches: {mismatches}" if mismatches else "")
    )
    assert report(1, ok, detail)


def test_criterion_2_deep_valley(deep_runs):
    n2 = deep_runs.iterations[(1e6, 2)]
    n4 = deep_runs.iterations[(1e6, 4)]
    n1 = deep_runs.iterations[(1e6, 1)]
    elapsed = deep_runs.wall[(1e6, 1)] + deep_runs.wall[(1e6, 2)] + deep_runs.wall[(1e6, 4)]
    ok = (
        300 <= n2 <= 500
        and deep_runs.converged[(1e6, 2)]
        and 30 <= n4 <= 60
        and deep_runs.converged[(1e6, 4)]
        and n1 > 10_000
        and elapsed < 60.0
    )
    detail = (
        f"K=1e6: order2={n2} (want 300-500), order4={n4} (want 30-60), "
        f"order1={n1} (>10000), {elapsed:.1f}s"
    )
    assert report(2, ok, detail)


def test_valley_cells_keep_their_exact_counts(shallow_runs, deep_runs):
    counts = {
        cell: (runs.iterations[cell], runs.f_evaluations[cell])
        for runs in (shallow_runs, deep_runs)
        for cell in runs.iterations
    }
    pinned = {
        (K, order): pair
        for K, row in PINNED_VALLEY_COUNTS.items()
        for order, pair in enumerate(row, start=1)
        if pair is not None
    }
    assert len(counts) == len(pinned) == 34
    assert counts == pinned


def test_criterion_3_power_law_exponents(shallow_runs, deep_runs):
    cells = [
        TableCell(K, order, runs.iterations[(K, order)], runs.converged[(K, order)])
        for runs, pairs in (
            (shallow_runs, [(10000, 1)]),
            (deep_runs, [(1e5, 1), (1e6, 1)]),
            (deep_runs, [(K, o) for o in (2, 3, 4) for K in (1e6, 1e7, 1e8)]),
        )
        for K, order in pairs
    ]
    K_values = tuple(sorted({c.K for c in cells}))
    table = ConvergenceTable(K_values, (1, 2, 3, 4), tuple(cells))
    fits = {f.order: f for f in fit_power_laws(table)}
    deviations = {
        order: abs(fits[order].exponent - ref)
        for order, ref in REFERENCE_EXPONENTS.items()
    }
    exponents = [fits[o].exponent for o in (1, 2, 3, 4)]
    ordered = all(a > b for a, b in zip(exponents, exponents[1:]))
    ok = (
        all(fits[o].available for o in (1, 2, 3, 4))
        and all(d <= 0.08 for d in deviations.values())
        and ordered
    )
    detail = ", ".join(
        f"order{o}={fits[o].exponent:.3f} (ref {REFERENCE_EXPONENTS[o]:.3f})"
        for o in (1, 2, 3, 4)
    ) + f"; strictly decreasing: {ordered}"
    assert report(3, ok, detail)


def test_criterion_4_taylor_order_slopes():
    problem = valley_problem(1.0)
    x = START
    f0 = problem.evaluator(x)
    J = problem.jacobian(x)
    inv = gauss_newton_inverse(J)
    newton_step = -inv(f0)
    floor = NOISE_FLOOR_FACTOR * np.finfo(float).eps * np.linalg.norm(f0)
    eps_grid = 10.0 ** np.arange(-3.0, -0.9, 0.5)
    slopes = {}
    for order in (1, 2, 3, 4):
        defects = []
        for eps in eps_grid:
            series = correction_series(
                stencil_base(x, f0, SvdFactors(J), problem.evaluator,
                             (eps * newton_step)[None], [0.0]), 0, order=order,
            )
            end = x + series.step
            defects.append(
                float(np.linalg.norm(problem.evaluator(end) - (1 - eps) * f0))
            )
        defects = np.asarray(defects)
        keep = defects > floor
        assert keep.sum() >= 3
        slopes[order] = float(
            np.polyfit(np.log10(eps_grid[keep]), np.log10(defects[keep]), 1)[0]
        )
    ok = all(abs(slopes[n] - (n + 1)) <= 0.3 for n in (1, 2, 3, 4))
    detail = ", ".join(
        f"order{n}: slope {slopes[n]:.2f} (want {n + 1}±0.3)" for n in (1, 2, 3, 4)
    )
    assert report(4, ok, detail)


def test_criterion_5_term_generation_oracle():
    t0 = time.perf_counter()
    bell = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203, 7: 877, 8: 4140}
    ok = True
    for n in range(1, 9):
        oracle = partition_shape_counts(n)
        terms = derivative_terms(n)
        by_shape = {(t.f_order, t.x_orders): t.coefficient for t in terms}
        ok = ok and by_shape == oracle
        ok = ok and sum(t.coefficient for t in terms) == bell[n]
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    assert report(
        5, ok, f"term multisets match set-partition enumeration for n<=8, "
               f"coefficient sums are Bell numbers, {elapsed:.2f}s"
    )


def test_criterion_6_polynomial_residuals_driven_to_zero():
    t0 = time.perf_counter()
    failures = []
    runs = 0
    totals = dict.fromkeys(PINNED_POLYNOMIAL_TOTALS, 0)
    for problem, x0, config in criterion_6_runs():
        result = run(x0, problem, config)
        runs += 1
        totals["iterations"] += result.iterations
        totals["f_evaluations"] += result.f_evaluations
        if not (result.converged and result.residual_norm <= config.convergence_tol):
            failures.append((runs - 1, config.order))
    elapsed = time.perf_counter() - t0
    ok = not failures and totals == PINNED_POLYNOMIAL_TOTALS and elapsed < 5.0
    detail = (
        f"{runs} seeded polynomial runs reached 1e-10 relative residual in "
        f"{totals['iterations']} iterations and {totals['f_evaluations']} "
        f"evaluations (want {PINNED_POLYNOMIAL_TOTALS['iterations']} and "
        f"{PINNED_POLYNOMIAL_TOTALS['f_evaluations']}), {elapsed:.1f}s"
        + (f"; failures: {failures}" if failures else "")
    )
    assert report(6, ok, detail)


def test_criterion_7_stencil_weight_identities():
    ok = True
    matrix3 = taylor_weight_matrix(ORDER3_OFFSETS, 2)
    for target, weights in enumerate(ORDER3_WEIGHTS):
        products = [sum(w * matrix3[i][col] for i, w in enumerate(weights))
                    for col in range(2)]
        ok = ok and products == [int(col == target) for col in range(2)]
    matrix4 = taylor_weight_matrix(ORDER4_OFFSETS, 3)
    for target, weights in enumerate(ORDER4_WEIGHTS):
        products = [sum(w * matrix4[i][col] for i, w in enumerate(weights))
                    for col in range(3)]
        ok = ok and products == [int(col == target) for col in range(3)]
    # The solver reads only the folded PHASES rows: each must equal its
    # order-n identity exactly, in rationals.
    bad_rows = {order: phase_row_mismatches(PHASES[order], order)
                for order in (2, 3, 4)}
    ok = ok and sorted(PHASES) == [2, 3, 4] and not any(bad_rows.values())
    assert report(
        7, ok, "exact-rational Taylor products confirm the two-point pair and "
               "all three three-point weight triples; every PHASES row of "
               "orders 2-4 equals its correction identity"
               + (f"; mismatched rows: {bad_rows}" if any(bad_rows.values()) else "")
    )


def test_criterion_8_evaluation_count_audit():
    ok = True
    details = []
    for order in (2, 3, 4):
        problem, counter = counting_problem(valley_problem(10.0))
        x = START
        f0 = problem.evaluator(x)
        J = problem.jacobian(x)
        inv = gauss_newton_inverse(J)
        c1 = -0.3 * inv(f0)
        counter["evals"] = 0
        series = correction_series(stencil_base(x, f0, SvdFactors(J), problem.evaluator,
                                                c1[None], [0.0]), 0, order=order)
        expected = STENCIL_EVALUATIONS[order]
        ok = ok and series.evaluation_count == expected == counter["evals"]
        details.append(f"order{order}: {series.evaluation_count}")
        # full sweep: 21 candidates x (stencil + endpoint) per iteration
        problem, counter = counting_problem(valley_problem(10.0))
        result = run(START, problem, OptimizerConfig(order=order))
        per_iter = 21 * (expected + 1)
        ok = ok and all(r.f_evaluations == per_iter for r in result.trajectory)
        ok = ok and counter["evals"] == 1 + per_iter * result.iterations
    assert report(
        8, ok, "new stencil evaluations per candidate: "
               + ", ".join(details) + " (want 1, 4, 8); per-iteration totals match"
    )
