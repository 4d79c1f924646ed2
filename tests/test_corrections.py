import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from helpers import analytic_correction_series, counting_problem, relative_difference
from lmcorrect.corrections import (
    ORDER3_OFFSETS,
    ORDER3_WEIGHTS,
    ORDER4_OFFSETS,
    ORDER4_WEIGHTS,
    PHASES,
    STENCIL_EVALUATIONS,
    StencilEvaluationError,
    correction_series,
    taylor_weight_matrix,
)
from lmcorrect.faadibruno import correction_identity_terms
from lmcorrect.linalg import SvdFactors
from lmcorrect.problems import polynomial_problem, valley_problem

def make_context(problem, x, scale=0.5):
    """Base-point data and a Gauss-Newton step scaled into the trust region."""
    x = np.asarray(x, dtype=float)
    f0 = problem.evaluator(x)
    J = problem.jacobian(x)
    factors = SvdFactors(J)
    inv = lambda v: factors.damped_apply(0.0, v)
    c1 = -scale * inv(f0)
    return x, f0, J, inv, c1


# -- affine maps: every correction vanishes ----------------------------------


@pytest.mark.parametrize("order", [2, 3, 4])
def test_affine_corrections_vanish(order):
    poly = polynomial_problem(1, 3, seed=0)
    x, f0, J, inv, c1 = make_context(poly.as_problem(), [0.4, -0.2, 0.9])
    series = correction_series(x, f0, J, inv, poly.evaluator, c1, order)
    assert not series.truncated
    assert len(series.corrections) == order
    for c in series.corrections[1:]:
        assert np.linalg.norm(c) <= 1e-14 * np.linalg.norm(f0)


# -- hand-computed example ----------------------------------------------------


def hand_problem():
    def f(p):
        return np.array([p[0] + p[1] ** 2, p[1]])

    def J(p):
        return np.array([[1.0, 2.0 * p[1]], [0.0, 1.0]])

    return f, J


def test_order2_hand_example():
    # f(x,y) = (x + y^2, y) from (0,1): Newton step (1,-1), then the single
    # stencil point gives c2 = (-1,0) and the corrected step lands on the
    # root (0,0) exactly.
    f, Jf = hand_problem()
    x = np.array([0.0, 1.0])
    f0, J = f(x), Jf(x)
    inv = SvdFactors(J).newton_apply
    c1 = -inv(f0)
    assert np.allclose(c1, [1.0, -1.0])
    _, c2 = correction_series(x, f0, J, inv, f, c1, 2).corrections
    assert np.allclose(c2, [-1.0, 0.0], atol=1e-14)
    end = x + c1 + c2
    assert np.allclose(end, [0.0, 0.0], atol=1e-14)
    assert np.allclose(f(end), 0.0, atol=1e-14)


def test_order3_hand_example_c3_vanishes():
    # Same map: the third derivative is zero and f^(2)[c1, c2] = 0 because
    # c2 has no second component, so c3 = 0.
    f, Jf = hand_problem()
    x = np.array([0.0, 1.0])
    f0, J = f(x), Jf(x)
    inv = SvdFactors(J).newton_apply
    c1 = -inv(f0)
    _, c2, c3 = correction_series(x, f0, J, inv, f, c1, 3).corrections
    assert np.allclose(c2, [-1.0, 0.0], atol=1e-12)
    assert np.linalg.norm(c3) <= 1e-12


# -- stencil vs analytic tensors ----------------------------------------------


@pytest.mark.parametrize("seed", range(5))
def test_order2_stencil_exact_on_quadratics(seed):
    poly = polynomial_problem(2, 2, seed=seed)
    x, f0, J, inv, c1 = make_context(poly.as_problem(), [0.5, -0.3])
    _, c2 = correction_series(x, f0, J, inv, poly.evaluator, c1, 2).corrections
    analytic = -0.5 * inv(poly.derivative_contraction(x, 2, c1, c1))
    assert relative_difference(c2, analytic) <= 1e-12


@pytest.mark.parametrize("order,degree", [(3, 2), (3, 3), (4, 2), (4, 3), (4, 4)])
def test_c2_stencil_exact_at_higher_orders(order, degree):
    # Orders 3 and 4 fold the pure c1-direction weights into their c2 row,
    # which must still be exact on every polynomial up to the order; compare
    # at |c1| = 1e-2, where cancellation noise is visible.
    for seed in range(5):
        poly = polynomial_problem(degree, 3, seed=seed)
        x, f0, J, inv, c1 = make_context(poly.as_problem(), [0.3, -0.2, 0.1])
        c1 *= 1e-2 / np.linalg.norm(c1)
        series = correction_series(x, f0, J, inv, poly.evaluator, c1, order)
        analytic = -0.5 * inv(poly.derivative_contraction(x, 2, c1, c1))
        assert relative_difference(series.corrections[1], analytic) <= 1e-9


@pytest.mark.parametrize("order", [2, 3, 4])
@pytest.mark.parametrize("seed", range(5))
def test_series_matches_identity_contractions_on_quadratics(order, seed):
    # On a degree-2 map every stencil formula is exact, so the whole series
    # must agree with corrections computed from the exact derivative tensors
    # through the order-n identities.
    poly = polynomial_problem(2, 3, seed=seed)
    x, f0, J, inv, c1 = make_context(poly.as_problem(), [0.3, -0.4, 0.2])
    series = correction_series(x, f0, J, inv, poly.evaluator, c1, order)
    oracle = analytic_correction_series(poly, x, inv, c1, order)
    assert len(series.corrections) == order
    for got, want in zip(series.corrections, oracle):
        assert relative_difference(got, want) <= 1e-10


# -- evaluation accounting -----------------------------------------------------


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_new_evaluation_counts(order):
    problem, counter = counting_problem(valley_problem(1.0))
    x, f0, J, inv, c1 = make_context(problem, [np.pi, np.e], scale=0.3)
    counter["evals"] = 0
    series = correction_series(x, f0, J, inv, problem.evaluator, c1, order)
    assert series.evaluation_count == STENCIL_EVALUATIONS[order]
    assert counter["evals"] == STENCIL_EVALUATIONS[order]


# -- stencil weight algebra ----------------------------------------------------


def test_order4_weight_triples_annihilate_off_target_columns():
    matrix = taylor_weight_matrix(ORDER4_OFFSETS, 3)
    for target, weights in enumerate(ORDER4_WEIGHTS):
        products = [
            sum(w * matrix[i][col] for i, w in enumerate(weights))
            for col in range(3)
        ]
        expected = [Fraction(int(col == target)) for col in range(3)]
        assert products == expected


def test_order3_weight_pairs_annihilate_off_target_columns():
    matrix = taylor_weight_matrix(ORDER3_OFFSETS, 2)
    for target, weights in enumerate(ORDER3_WEIGHTS):
        products = [
            sum(w * matrix[i][col] for i, w in enumerate(weights))
            for col in range(2)
        ]
        assert products == [Fraction(int(col == target)) for col in range(2)]


def exact_weight(w):
    """The rational a float table weight stands for (small denominators)."""
    exact = Fraction(w).limit_denominator(100)
    assert float(exact) == w
    return exact


def defect_monomials(multipliers, max_grade):
    """Taylor terms of f_nl at ``x + q1 c1 + q2 c2 + q3 c3``.

    Maps ``(k, sorted direction indices)`` for f^(k)[c_i ...] to its exact
    coefficient, keeping monomials whose grade (index sum) is <= max_grade.
    """
    used = [(i, Fraction(q)) for i, q in enumerate(multipliers, start=1) if q]
    terms = {}
    for k in range(2, max_grade + 1):
        for picks in itertools.product(used, repeat=k):
            indices = tuple(sorted(i for i, _ in picks))
            if sum(indices) <= max_grade:
                coeff = math.prod(q for _, q in picks) / math.factorial(k)
                terms[(k, indices)] = terms.get((k, indices), 0) + coeff
    return terms


@pytest.mark.parametrize("order", [2, 3, 4])
def test_phase_rows_match_correction_identities(order):
    # Each weight row must equal -1/n! times the rest terms of the order-n
    # identity on every monomial up to the scheme order, exactly.
    points = []
    for n, (added, weights) in enumerate(PHASES[order], start=2):
        assert all(not any(q[n - 1:]) for q in added)  # only known directions
        points += added
        assert len(weights) == len(points)
        got = {}
        for w, q in zip(weights, points):
            for key, coeff in defect_monomials(q, order).items():
                got[key] = got.get(key, 0) + exact_weight(w) * coeff
        lead, rest = correction_identity_terms(n)
        want = {(t.f_order, t.c_orders): -t.coefficient / lead.coefficient
                for t in rest}
        assert {key: v for key, v in got.items() if v} == want
    assert len(points) == len(set(points)) == STENCIL_EVALUATIONS[order]
    assert STENCIL_EVALUATIONS[order] == {2: 1, 3: 4, 4: 8}[order]


# -- pathway defect scaling ----------------------------------------------------


def pathway_defect(problem, x, order, eps):
    x = np.asarray(x, dtype=float)
    f0 = problem.evaluator(x)
    J = problem.jacobian(x)
    inv = SvdFactors(J).newton_apply
    c1 = -eps * inv(f0)
    series = correction_series(x, f0, J, inv, problem.evaluator, c1, order)
    end = x + series.step
    return float(np.linalg.norm(problem.evaluator(end) - (1.0 - eps) * f0))


@pytest.mark.parametrize("order,expected", [(1, 2.0), (2, 3.0)])
def test_defect_slope_low_orders(order, expected):
    problem = valley_problem(1.0)
    x = [np.pi, np.e]
    eps = 10.0 ** np.arange(-3.0, -0.9, 0.5)
    defects = np.array([pathway_defect(problem, x, order, e) for e in eps])
    slope = np.polyfit(np.log10(eps), np.log10(defects), 1)[0]
    assert abs(slope - (order + 1)) <= 0.3


# -- failure handling ----------------------------------------------------------


def test_wild_correction_truncates_series():
    poly = polynomial_problem(2, 2, seed=4)
    x, f0, J, _, c1 = make_context(poly.as_problem(), [0.5, 0.5])
    blow_up = lambda v: 1e9 * v  # stands in for a damped inverse near-singular J
    series = correction_series(x, f0, J, blow_up, poly.evaluator, c1, 3)
    assert series.truncated
    assert len(series.corrections) == 1
    assert np.array_equal(series.step, c1)


@pytest.mark.parametrize("order,evaluated", [(2, 1), (3, 2), (4, 3)])
def test_nonfinite_defect_truncates_series(order, evaluated):
    # The residual is inf beyond |x| = 0.5: x + c1 and 1.5 c1 lie outside,
    # x + c1 / 2 inside, so the first phase ends in a non-finite defect.
    def evaluator(p):
        return np.array([np.inf, 0.0]) if np.linalg.norm(p) > 0.5 else p + 1.0

    x, f0, J = np.zeros(2), np.ones(2), np.eye(2)
    c1 = np.array([-0.4, -0.4])
    series = correction_series(x, f0, J, SvdFactors(J).newton_apply, evaluator,
                               c1, order)
    assert series.truncated
    assert series.evaluation_count == evaluated
    assert np.array_equal(series.step, c1)


def test_stencil_error_carries_offset():
    def evaluator(p):
        raise FloatingPointError("boom")

    x = np.zeros(2)
    f0 = np.ones(2)
    J = np.eye(2)
    inv = SvdFactors(J).newton_apply
    with pytest.raises(StencilEvaluationError) as info:
        correction_series(x, f0, J, inv, evaluator, np.array([0.1, 0.1]), 2)
    err = info.value
    assert err.offset_key == (Fraction(1), Fraction(0), Fraction(0))
    assert np.allclose(err.point, [0.1, 0.1])
    assert err.evaluations == 1


def test_invalid_order_rejected():
    poly = polynomial_problem(2, 2, seed=4)
    x, f0, J, inv, c1 = make_context(poly.as_problem(), [0.5, 0.5])
    with pytest.raises(ValueError):
        correction_series(x, f0, J, inv, poly.evaluator, c1, 5)

