import functools
import itertools
import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (
    analytic_correction_series,
    broadcast_correction_series,
    count_errstates,
    counting_problem,
    damped,
    derivative_contraction,
    gauss_newton_inverse,
    phase_row_mismatches,
    relative_difference,
)
from lmcorrect import corrections
from lmcorrect.corrections import (
    PHASES,
    CorrectionSeries,
    STENCIL_EVALUATIONS,
    WILD_CORRECTION_FACTOR,
    StencilEvaluationError,
    correction_series,
    stencil_base,
)
from lmcorrect.linalg import _BOUND, SvdFactors, _norm, as_finite
from lmcorrect.optimizer import LambdaSchedule
from lmcorrect.problems import Problem, polynomial_problem, valley_problem

def make_context(problem, x, scale=0.5):
    """Base-point data, J's factors and a Gauss-Newton step scaled into the
    trust region."""
    x = np.asarray(x, dtype=float)
    f0 = problem.evaluator(x)
    factors = SvdFactors(problem.jacobian(x))
    inv = damped(factors, 0.0)
    c1 = -scale * inv(f0)
    return x, f0, factors, inv, c1


# The one damping of a one-row Gauss-Newton base, whose inverse is inv.
GN = [0.0]


class _RowwiseFactors(SvdFactors):
    """SvdFactors whose ``damped_apply`` maps each row through ``inverse``."""

    __slots__ = ("inverse",)

    def damped_apply(self, lams, vs):
        return np.array([self.inverse(v) for v in vs])


def factors_applying(J, inverse):
    """The factors of ``J``, with ``inverse`` standing in for its damped
    inverse on each row of a base's block."""
    factors = _RowwiseFactors(J)
    factors.inverse = inverse
    return factors


# -- affine maps: every correction vanishes ----------------------------------


@pytest.mark.parametrize("order", [2, 3, 4])
def test_affine_corrections_vanish(order):
    poly = polynomial_problem(1, 3, seed=0)
    x, f0, factors, inv, c1 = make_context(poly.as_problem(), [0.4, -0.2, 0.9])
    series = correction_series(
        stencil_base(x, f0, factors, poly.evaluator, c1[None], GN), 0, order=order)
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
    inv = gauss_newton_inverse(J)
    c1 = -inv(f0)
    assert np.allclose(c1, [1.0, -1.0])
    base = stencil_base(x, f0, SvdFactors(J), f, c1[None], GN)
    _, c2 = correction_series(base, 0, order=2).corrections
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
    inv = gauss_newton_inverse(J)
    c1 = -inv(f0)
    _, c2, c3 = correction_series(stencil_base(x, f0, SvdFactors(J), f, c1[None], GN),
                                  0, order=3).corrections
    assert np.allclose(c2, [-1.0, 0.0], atol=1e-12)
    assert np.linalg.norm(c3) <= 1e-12


# -- stencil vs analytic tensors ----------------------------------------------


@pytest.mark.parametrize("seed", range(5))
def test_order2_stencil_exact_on_quadratics(seed):
    poly = polynomial_problem(2, 2, seed=seed)
    x, f0, factors, inv, c1 = make_context(poly.as_problem(), [0.5, -0.3])
    base = stencil_base(x, f0, factors, poly.evaluator, c1[None], GN)
    _, c2 = correction_series(base, 0, order=2).corrections
    analytic = -0.5 * inv(derivative_contraction(poly, x, 2, c1, c1))
    assert relative_difference(c2, analytic) <= 1e-12


@pytest.mark.parametrize("order,degree", [(3, 2), (3, 3), (4, 2), (4, 3), (4, 4)])
@settings(derandomize=True, database=None, deadline=None)
@given(
    seed=st.integers(0, 999),
    dim=st.sampled_from([2, 3]),
    direction=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3).filter(
        lambda u: max(map(abs, u[:2])) >= 0.1),
)
def test_c2_stencil_exact_at_higher_orders(order, degree, seed, dim, direction):
    # Orders 3 and 4 fold the pure c1-direction weights into their c2 row,
    # which must still be exact on every polynomial up to the order; compare
    # at |c1| = 1e-2, where cancellation noise is visible.
    poly = polynomial_problem(degree, dim, seed=seed)
    x, f0, factors, inv, _ = make_context(poly.as_problem(), [0.3, -0.2, 0.1][:dim])
    u = np.array(direction[:dim]) / np.linalg.norm(direction[:dim])
    # That noise, about eps |f0| / |c1|^2 against f''[u, u], reaches c2
    # through the inverse, which amplifies it by up to 1 / s_min.  The
    # relative comparison means something only where |J^+ f''[u, u]|, twice
    # |c2_unit|, is at least |f0| / (3 s_min); about 2% of draws fall short.
    c2_unit = -0.5 * inv(derivative_contraction(poly, x, 2, u, u))
    s_min = factors.s[-1]
    assume(np.linalg.norm(f0) <= 6.0 * s_min * np.linalg.norm(c2_unit))
    c1 = 1e-2 * u
    series = correction_series(
        stencil_base(x, f0, factors, poly.evaluator, c1[None], GN), 0, order=order)
    analytic = -0.5 * inv(derivative_contraction(poly, x, 2, c1, c1))
    assert relative_difference(series.corrections[1], analytic) <= 1e-9


@pytest.mark.parametrize("order", [2, 3, 4])
@pytest.mark.parametrize("seed", range(5))
@settings(derandomize=True, database=None, deadline=None, max_examples=20)
@given(
    block=st.integers(0, 199),
    dim=st.sampled_from([2, 3]),
    direction=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3).filter(
        lambda u: max(map(abs, u[:2])) >= 0.1),
)
def test_series_matches_identity_contractions_on_quadratics(order, seed, block,
                                                            dim, direction):
    # On a degree-2 map every stencil formula is exact, so the whole series,
    # c3 and c4 included, must agree with corrections computed from the
    # exact derivative tensors through the order-n identities.  Each id
    # draws its polynomial seeds from one residue mod 5, so the five seed
    # ids cover 0-999 without overlap.
    poly = polynomial_problem(2, dim, seed=seed + 5 * block)
    x, f0, factors, inv, _ = make_context(poly.as_problem(), [0.3, -0.4, 0.2][:dim])
    u = np.array(direction[:dim]) / np.linalg.norm(direction[:dim])
    c1 = 0.5 * u
    oracle = analytic_correction_series(poly, x, inv, c1, order)
    sizes = [np.linalg.norm(c) / np.linalg.norm(c1) for c in oracle[1:]]
    # A near-singular J makes some correction wild, beyond
    # WILD_CORRECTION_FACTOR |c1|, and the series then truncates by design;
    # about 6% of draws.  The stencils' rounding noise reaches each c_n at
    # a level set by |f0| and the inverse, not by |c_n|, so a correction
    # below 1e-4 |c1| is compared mostly with noise; about 0.03% of draws.
    assume(max(sizes) <= WILD_CORRECTION_FACTOR / 2 and min(sizes) >= 1e-4)
    series = correction_series(
        stencil_base(x, f0, factors, poly.evaluator, c1[None], GN), 0, order=order)
    assert not series.truncated
    assert len(series.corrections) == order
    for got, want in zip(series.corrections, oracle):
        assert relative_difference(got, want) <= 1e-10


@pytest.mark.parametrize("order", [2, 3, 4])
@pytest.mark.parametrize("degree", [3, 4])
@settings(derandomize=True, database=None, deadline=None, max_examples=10)
@given(
    seed=st.integers(0, 999),
    dim=st.sampled_from([2, 3]),
    direction=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3).filter(
        lambda u: max(map(abs, u[:2])) >= 0.1),
)
def test_top_correction_error_is_of_the_next_order(order, degree, seed, dim,
                                                   direction):
    # On cubics and quartics the stencils are no longer exact, but the last
    # correction's error against the identity contractions is O(|c1|^(n+1)),
    # one order above c_n itself, as in criterion 4.  So its ratio to
    # |c1|^(n+1) stays bounded as |c1| halves from 0.1 to 0.00625: the last
    # ratio is at most 1.5 times the largest before it, where an
    # O(|c1|^n) error would double it at every halving.  Ratios may still
    # rise toward their limit (the largest last step seen is 1.23 over 6000
    # draws) or dip first where higher terms cancel at the larger |c1|.
    poly = polynomial_problem(degree, dim, seed=seed)
    x, f0, factors, inv, _ = make_context(poly.as_problem(), [0.3, -0.2, 0.1][:dim])
    u = np.array(direction[:dim]) / np.linalg.norm(direction[:dim])
    ratios = []
    for h in 0.1 / 2.0 ** np.arange(5):
        series = correction_series(
            stencil_base(x, f0, factors, poly.evaluator, (h * u)[None], GN), 0,
            order=order)
        # A near-singular J makes some correction wild, beyond
        # WILD_CORRECTION_FACTOR |c1|, and the series truncates by design;
        # about 1-2% of draws.
        assume(not series.truncated)
        oracle = analytic_correction_series(poly, x, inv, h * u, order)
        error = np.linalg.norm(series.corrections[-1] - oracle[-1])
        ratios.append(error / h ** (order + 1))
    assert ratios[-1] <= 1.5 * max(ratios[:-1])


# -- evaluation accounting -----------------------------------------------------


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_new_evaluation_counts(order):
    problem, counter = counting_problem(valley_problem(1.0))
    x, f0, factors, inv, c1 = make_context(problem, [np.pi, np.e], scale=0.3)
    counter["evals"] = 0
    series = correction_series(stencil_base(x, f0, factors, problem.evaluator,
                                            c1[None], GN), 0, order=order)
    assert series.evaluation_count == STENCIL_EVALUATIONS[order]
    assert counter["evals"] == STENCIL_EVALUATIONS[order]


# -- stencil weight algebra ----------------------------------------------------


@pytest.mark.parametrize("order", [2, 3, 4])
def test_phase_rows_match_correction_identities(order):
    # Each weight row must equal -1/n! times the rest terms of the order-n
    # identity on every monomial up to the scheme order, exactly, using only
    # the directions known by its phase.
    assert phase_row_mismatches(PHASES[order], order) == []
    points = [q for added, _ in PHASES[order] for q in added]
    assert len(points) == len(set(points)) == STENCIL_EVALUATIONS[order]
    assert STENCIL_EVALUATIONS[order] == {2: 1, 3: 4, 4: 8}[order]


# -- pathway defect scaling ----------------------------------------------------


def pathway_defect(problem, x, order, eps):
    x = np.asarray(x, dtype=float)
    f0 = problem.evaluator(x)
    J = problem.jacobian(x)
    inv = gauss_newton_inverse(J)
    c1 = -eps * inv(f0)
    series = correction_series(stencil_base(x, f0, SvdFactors(J), problem.evaluator,
                                            c1[None], GN), 0, order=order)
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


# -- correction norms ------------------------------------------------------------


def test_norms_are_within_one_ulp_at_any_magnitude():
    # Each recorded norm is a float neighbour of the exact one: the exact sum
    # of squares lies strictly between the squares of the norm's two float
    # neighbours.  Squaring first read 0 for the tiny vectors and overflowed
    # for the huge ones.
    rng = np.random.default_rng(29)
    vectors = [rng.normal(size=dim) * 10.0 ** rng.uniform(-300, 300)
               for dim in (1, 2, 3, 5) for _ in range(50)]
    vectors += [np.array([3e-170, 4e-170]), np.array([1e308, -1e308, 1e308]),
                np.zeros(3)]
    norms = CorrectionSeries(tuple(vectors), 0).norms()
    for v, norm in zip(vectors, norms):
        square = sum(Fraction(entry) ** 2 for entry in v.tolist())
        below = math.nextafter(norm, -math.inf)
        above = math.nextafter(norm, math.inf)
        assert below < 0.0 or Fraction(below) ** 2 < square, v
        assert square < Fraction(above) ** 2, v
    assert norms[-3] == 5e-170 and norms[-1] == 0.0


# -- failure handling ----------------------------------------------------------


def test_wild_correction_truncates_series():
    poly = polynomial_problem(2, 2, seed=4)
    x, f0, factors, _, c1 = make_context(poly.as_problem(), [0.5, 0.5])
    # Stands in for a damped inverse near-singular J.
    blow_up = factors_applying(factors.J, lambda v: 1e9 * v)
    base = stencil_base(x, f0, blow_up, poly.evaluator, c1[None], GN)
    series = correction_series(base, 0, order=3)
    assert series.truncated
    assert len(series.corrections) == 1
    assert np.array_equal(series.step, c1)


@pytest.mark.parametrize("order,evaluated", [(2, 1), (3, 2), (4, 3)])
def test_nonfinite_defect_truncates_series(order, evaluated):
    # The residual is inf, or finite but large enough that the weighted sum
    # of defects would overflow, beyond |x| = 0.5: x + c1 and 1.5 c1 lie
    # outside, x + c1 / 2 inside, so the first phase ends in such a defect.
    for value in (np.inf, 1e308):
        def evaluator(p):
            return np.array([value, 0.0]) if np.linalg.norm(p) > 0.5 else p + 1.0

        x, f0, J = np.zeros(2), np.ones(2), np.eye(2)
        c1 = np.array([-0.4, -0.4])
        series = correction_series(stencil_base(x, f0, SvdFactors(J), evaluator,
                                                c1[None], GN), 0, order=order)
        assert series.truncated
        assert series.evaluation_count == evaluated
        assert np.array_equal(series.step, c1)


def _series_of_residuals(residual, order, m=2, inverse_apply=None):
    """A series whose defects are exactly the residuals: x, f0 and J are 0.

    ``residual(n)`` gives the n-th evaluator call's value (from 1), of
    length ``m``.  The default inverse rejects non-finite input, as
    ``damped_apply`` does, so a defect that slips past the guard raises
    instead of truncating.
    """
    calls = []

    def evaluator(p):
        calls.append(p)
        return residual(len(calls))

    if inverse_apply is None:
        inverse_apply = lambda v: 1e-3 * as_finite(v, (m,), "v")[:2]
    base = stencil_base(np.zeros(2), np.zeros(m),
                        factors_applying(np.zeros((m, 2)), inverse_apply),
                        evaluator, np.array([[1.0, 1.0]]), GN)
    series = correction_series(base, 0, order=order)
    assert series.evaluation_count == len(calls)
    assert all(np.isfinite(p).all() for p in calls)
    return series


# Residuals of magnitude up to this truncate nothing, and one ulp beyond truncates.
RESIDUAL_BOUND = 2 * _BOUND
BEYOND = np.nextafter(RESIDUAL_BOUND, np.inf)


@pytest.mark.parametrize("order,phase", [
    (2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3),
])
def test_defect_guard_truncates_in_every_phase(order, phase):
    # One point of the phase returns a bad value in one entry, the first,
    # one mid-block or the last: the series stops after the phase, charged
    # exactly the calls made, and keeps the corrections of the phases before
    # it.  At m = 1000 as at m = 2, nothing warns (an error under the
    # suite's filter).
    sizes = [len(points) for points, _ in PHASES[order]]
    first, end = sum(sizes[:phase - 1]), sum(sizes[:phase])
    for m in (2, 1000):
        def good(n):
            return 0.1 * n * np.cos(np.arange(m))

        clean = _series_of_residuals(good, order, m)
        assert not clean.truncated
        assert clean.evaluation_count == STENCIL_EVALUATIONS[order]
        for bad in (np.nan, np.inf, -np.inf, BEYOND, -BEYOND):
            for entry in sorted({0, m // 2, m - 1}):
                for target in range(first + 1, end + 1):
                    def residual(n):
                        value = good(n)
                        if n == target:
                            value[entry] = bad
                        return value

                    series = _series_of_residuals(residual, order, m)
                    assert series.truncated
                    assert series.evaluation_count == end
                    assert len(series.corrections) == phase
                    for kept, expected in zip(series.corrections,
                                              clean.corrections):
                        assert np.array_equal(kept, expected)


@pytest.mark.parametrize("order", [2, 3, 4])
def test_defects_at_the_limit_do_not_truncate(order):
    # Every phase's residual block has norm exactly 2 _BOUND, here the
    # defects' too: one entry of +-2 _BOUND, or four of +-_BOUND spread over
    # the block.  Every weighted sum stays finite, so every phase reaches the
    # inverse.  Four entries one ulp beyond _BOUND, each far within 2 _BOUND,
    # give a norm one ulp beyond it, and the first phase truncates.
    sizes = [len(points) for points, _ in PHASES[order]]
    for m in (2, 1000):
        seen = []

        def inverse(v):
            seen.append(v)
            return 1e-308 * v[:2]

        def residuals(count, top):
            rows = []
            for k in sizes:
                flat = np.zeros(k * m)
                flat[np.linspace(0, k * m - 1, count).astype(int)] = (
                    top * (-1.0) ** np.arange(count))
                rows.extend(flat.reshape(k, m))
            return lambda n: rows[n - 1].copy()

        layouts = [(1, RESIDUAL_BOUND), (1, -RESIDUAL_BOUND)]
        if min(sizes) * m >= 4:
            layouts += [(4, _BOUND), (4, -_BOUND)]
        for count, top in layouts:
            assert math.hypot(*[top] * count) == RESIDUAL_BOUND
            series = _series_of_residuals(residuals(count, top), order, m, inverse)
            assert not series.truncated
            assert series.evaluation_count == STENCIL_EVALUATIONS[order]
        assert len(seen) == len(layouts) * (order - 1)
        assert all(np.isfinite(v).all() for v in seen)
        if sizes[0] * m >= 4:
            top = np.nextafter(_BOUND, np.inf)
            assert math.hypot(*[top] * 4) == BEYOND
            series = _series_of_residuals(residuals(4, top), order, m, inverse)
            assert series.truncated and len(series.corrections) == 1
            assert series.evaluation_count == sizes[0]
            assert len(seen) == len(layouts) * (order - 1)


def test_inverse_overflow_truncates_series():
    # The defect at x + c1, (0, 1e303), is within the residual bound, but the
    # inverse at damping 1e-30 scales it by about 1 / s_min = 1e10: the
    # correction is inf and the series truncates, without an overflow
    # warning (an error under the suite's error filter).
    J = np.diag([1.0, 1e-10])
    factors = SvdFactors(J)

    def evaluator(p):
        return np.array([p[0], 1e-10 * p[1] + 1e303 * p[1] ** 2])

    x, c1 = np.zeros(2), np.array([-1.0, -1.0])
    series = correction_series(stencil_base(x, evaluator(x), factors, evaluator,
                                            c1[None], [1e-30]), 0, order=2)
    assert series.truncated
    assert series.evaluation_count == 1
    assert np.array_equal(series.step, c1)


def _limit(J):
    """The step limit over J's largest singular value, as its factors hold it."""
    return _BOUND / (corrections._REACH * max(1.0, float(SvdFactors(J).s[0])))


def test_the_step_limit_reads_the_largest_singular_value():
    # s_max = |J|_2 bounds |J a| by s_max |a| and is at most |J|_F, so the
    # limit over s_max is at least the one over |J|_F, by at most sqrt(rank).
    # The base reads s_max from the factors and J itself from them too.
    rng = np.random.default_rng(7)
    for m, p, scale in ((2, 2, 0.1), (2, 2, 10.0), (3, 2, 1e3), (1000, 8, 1.0)):
        J = scale * rng.normal(size=(m, p))
        factors = SvdFactors(J)
        base = stencil_base(np.zeros(p), np.zeros(m), factors, None, np.zeros((1, p)),
                            GN)
        s_max = np.linalg.norm(J, 2)
        frobenius = _BOUND / (corrections._REACH * max(1.0, np.linalg.norm(J)))
        assert base.x_limit == _limit(J) == pytest.approx(
            _BOUND / (corrections._REACH * max(1.0, s_max)), rel=1e-14)
        assert frobenius <= base.x_limit * (1 + 1e-14)
        assert base.x_limit <= frobenius * math.sqrt(p) * (1 + 1e-14)
        assert len(base.f0) == m and np.shares_memory(base.Jt, J)


@pytest.mark.parametrize("order", [2, 3, 4])
def test_c1_beyond_the_step_limit_truncates_before_any_evaluation(order):
    # At order 4 the point 1.5 c1 of c1 = (1.5e308, 0) overflowed: numpy
    # warned (an error under the suite's filter) and the series truncated
    # after 3 evaluations, one at an infinite point.  A c1 longer than
    # _BOUND / (_REACH max(1, s_max)) now truncates at once; one at the
    # limit runs every phase.
    J = np.eye(2)
    limit = _limit(J)
    assert limit == _BOUND / corrections._REACH  # s_max = 1
    for c1, evaluated in (([1.5e308, 0.0], 0),
                          ([np.nextafter(limit, np.inf), 0.0], 0),
                          ([limit, 0.0], STENCIL_EVALUATIONS[order])):
        points = []
        base = stencil_base(np.zeros(2), np.zeros(2), SvdFactors(J),
                            lambda p: points.append(p) or p, np.array([c1]), GN)
        assert base.x_limit == limit
        series = correction_series(base, 0, order=order)
        assert series.truncated == (evaluated == 0)
        assert series.evaluation_count == len(points) == evaluated
        assert all(np.isfinite(p).all() for p in points)
        assert np.array_equal(series.step, c1)


@pytest.mark.parametrize("order", [2, 3, 4])
def test_a_base_point_near_float64s_maximum_shrinks_the_step_limit(order):
    # An x of norm _BOUND keeps the limit, on an axis or slanted (its norm
    # rounded to at most _BOUND), and its stencil runs at finite points.  A
    # norm one ulp beyond, or sqrt(2) _BOUND from entries each within it,
    # and no c1 runs its stencil, not even 0, so no point near float64's
    # maximum reaches the evaluator.  A nan x is rejected.
    J = np.eye(2)
    limit = _limit(J)
    slant = np.array([0.6, -0.8]) * np.nextafter(_BOUND, 0)
    assert math.hypot(*slant) <= _BOUND
    for x, evaluated in ((np.array([_BOUND, 0.0]), STENCIL_EVALUATIONS[order]),
                         (np.array([0.0, -_BOUND]), STENCIL_EVALUATIONS[order]),
                         (slant, STENCIL_EVALUATIONS[order]),
                         (np.array([np.nextafter(_BOUND, np.inf), 0.0]), 0),
                         (np.array([_BOUND, -_BOUND]), 0),
                         (np.array([0.0, -np.finfo(float).max]), 0)):
        for c1 in ([limit, 0.0], [0.0, -limit], [0.0, 0.0]):
            points = []
            base = stencil_base(x, np.zeros(2), SvdFactors(J),
                                lambda p: points.append(p) or p - x, np.array([c1]), GN)
            assert base.x_limit == (limit if evaluated else -math.inf)
            series = correction_series(base, 0, order=order)
            assert series.truncated == (evaluated == 0)
            assert series.evaluation_count == len(points) == evaluated
            assert all(np.isfinite(p).all() for p in points)
            assert not evaluated or np.isfinite(x + series.step).all()
    with pytest.raises(ValueError, match="^x must be finite$"):
        stencil_base(np.array([np.nan, 0.0]), np.zeros(2), SvdFactors(J), None,
                     np.zeros((1, 2)), GN)


@pytest.mark.parametrize("order", [2, 3, 4])
def test_a_large_jacobian_or_residual_shrinks_the_step_limit(order):
    # The linear model f0 + J a stays within 2 _BOUND as x + a does: c1 gets
    # _BOUND over _REACH times s_max, 2 sqrt(2) here (J is 2 sqrt(2) times a
    # rotation), or times 1 for a J of norm below 1.  A longer c1 truncates
    # at once; one at the limit runs every phase with no warning (an error
    # under the suite's filter).  An f0 entry beyond _BOUND runs no stencil.
    big, reach = np.finfo(float).max, corrections._REACH
    rotation = np.array([[2.0, 2.0], [2.0, -2.0]])
    turned = _limit(rotation)
    assert turned == pytest.approx(_BOUND / (reach * 2 * math.sqrt(2)), rel=1e-15)
    for J, f0, limit in ((rotation, np.zeros(2), turned),
                         (rotation, np.array([0.0, -_BOUND]), turned),
                         (np.diag([0.25, 0.5]), np.array([_BOUND, 0.0]),
                          _BOUND / reach),
                         (np.eye(2), np.array([0.0, big / 2]), -math.inf)):
        tries = ((([0.0, np.nextafter(limit, np.inf)], 0),
                  ([0.0, limit], STENCIL_EVALUATIONS[order]))
                 if limit > 0 else (([0.0, 1.0], 0), ([0.0, 0.0], 0)))
        for c1, evaluated in tries:
            points = []
            base = stencil_base(np.zeros(2), f0, SvdFactors(J),
                                lambda p: points.append(p) or f0 + J.dot(p),
                                np.array([c1]), GN)
            assert base.x_limit == limit
            series = correction_series(base, 0, order=order)
            assert series.truncated == (evaluated == 0)
            assert series.evaluation_count == len(points) == evaluated


def test_a_jacobian_that_is_not_finite_is_rejected():
    # A zero c1 on J = [[inf, 0], [0, 1]] formed 0 * inf in the model's
    # product, which warned.  A base takes J from its factors, which reject
    # it.  A finite J whose largest singular value overflows is taken, with
    # a limit of 0: only a zero c1 runs its stencil, and its model is 0.  So
    # is one whose s_max times _REACH overflows, past about 6e304.
    big = np.finfo(float).max
    for J in ([[np.inf, 0.0], [0.0, 1.0]], [[1.0, 0.0], [np.nan, 1.0]]):
        with pytest.raises(ValueError, match="^jacobian must be finite$"):
            SvdFactors(np.array(J))
    for J in (np.array([[big, big], [0.0, 1.0]]), np.diag([1e305, 1.0])):
        factors = SvdFactors(J)
        assert float(factors.s[0]) * corrections._REACH == math.inf
        base = stencil_base(np.zeros(2), np.zeros(2), factors, lambda p: J.dot(p),
                            np.array([[1e-300, 0.0], [0.0, 0.0]]), [1.0, 1.0])
        assert base.x_limit == 0.0
        assert correction_series(base, 0, order=2).truncated
        series = correction_series(base, 1, order=2)
        assert not series.truncated and series.evaluation_count == 1


@pytest.mark.parametrize("order", [2, 3, 4])
def test_a_defect_beyond_float64s_range_truncates_unwarned(order):
    # The model was -1e308 + 1 in the first component, and the stencil's
    # residual 1.7e308 there: the defect overflowed in numpy's subtraction.
    # An f0 beyond _BOUND now runs no stencil, and at f0 = -_BOUND the
    # residual, beyond 2 _BOUND, truncates after the first phase before any
    # defect is formed.
    J = np.eye(2)
    for f0, evaluated in (([-1e308, 0.0], 0),
                          ([-_BOUND, 0.0], len(PHASES[order][0][0]))):
        base = stencil_base(np.zeros(2), np.array(f0), SvdFactors(J),
                            lambda p: np.array([1.7e308, 0.0]), np.array([[1.0, 0.0]]),
                            GN)
        series = correction_series(base, 0, order=order)
        assert series.truncated and len(series.corrections) == 1
        assert series.evaluation_count == evaluated


def test_the_doubled_model_limit_bounds_every_stencil_offset():
    # From x and f0 of norm _BOUND (slanted ones rounded to at most it) and
    # a c1 at the step limit, every point the stencil evaluates has norm
    # within 2 _BOUND, its offset a within _REACH |c1|, and its linear model
    # f0 + J a within 2 _BOUND, with no warning (an error under the suite's
    # filter).  The residual bends the model by up to a quarter, so later
    # corrections are not zero.
    J = np.array([[2.0, 2.0], [2.0, -2.0]])
    top = np.nextafter(_BOUND, 0)
    for x, f0 in ((np.array([0.6, -0.8]) * top, np.array([-0.8, 0.6]) * top),
                  (np.array([-_BOUND, 0.0]), np.array([0.0, _BOUND]))):
        assert max(math.hypot(*x), math.hypot(*f0)) <= _BOUND
        limit = stencil_base(x, f0, SvdFactors(J), None, np.zeros((1, 2)), GN).x_limit
        assert limit == _limit(J)  # _BOUND / (_REACH 2 sqrt(2))
        # (-0.6, 0.8) times the limit itself rounds to a norm one ulp above it.
        slant = np.array([-0.6, 0.8]) * np.nextafter(limit, 0)
        assert math.hypot(*slant) <= limit
        for order, c1 in itertools.product(
                (2, 3, 4), (np.array([0.0, limit]), slant)):
            c1_norm = math.hypot(*c1)  # np.linalg.norm squares, and overflows
            points = []

            def evaluator(p):
                points.append(p.copy())
                a = p - x
                bend = 1 - 0.25 * math.tanh(math.hypot(*a) / c1_norm)
                return f0 + J.dot(a) * bend

            base = stencil_base(x, f0, SvdFactors(J), evaluator, c1[None], GN)
            series = correction_series(base, 0, order=order)
            assert len(series.corrections) > 1
            assert any(np.any(c) for c in series.corrections[1:])
            assert len(points) == series.evaluation_count > 0
            for p in points:
                a = p - x
                assert math.hypot(*p) <= 2 * _BOUND
                assert math.hypot(*a) <= corrections._REACH * c1_norm
                assert math.hypot(*(f0 + J.dot(a))) <= 2 * _BOUND


def test_step_limit_bounds_every_offset_and_step():
    # Later corrections pass the wild bound, so each stencil offset and each
    # summed step reaches at most _REACH times |c1|, at most _BOUND over
    # max(1, s_max): every point, model entry and endpoint from x and f0
    # within _BOUND lies within 2 _BOUND, each defect within 4 _BOUND, and
    # 4 _BOUND times the largest absolute weight-row sum is at most float64's
    # maximum, exactly.
    wild = Fraction(WILD_CORRECTION_FACTOR)
    reach = max(
        max(1 + (order - 1) * wild,
            *(abs(Fraction(m[0])) + wild * sum(abs(Fraction(k)) for k in m[1:])
              for points, _ in phases for m in points))
        for order, phases in PHASES.items())
    assert reach == corrections._REACH == 3001
    weight = max(sum(abs(Fraction(w)) for w in weights)
                 for phases in PHASES.values() for _, weights in phases)
    assert 42 < weight <= Fraction(127, 3)  # 127/3 with 4/3 and 4/9 as floats
    assert 4 * Fraction(_BOUND) * weight <= Fraction(np.finfo(float).max)
    assert _BOUND == 2.0**1016


def test_stencil_error_carries_offset():
    def evaluator(p):
        raise FloatingPointError("boom")

    x = np.zeros(2)
    f0 = np.ones(2)
    J = np.eye(2)
    base = stencil_base(x, f0, SvdFactors(J), evaluator, np.array([[0.1, 0.1]]), GN)
    with pytest.raises(StencilEvaluationError) as info:
        correction_series(base, 0, order=2)
    err = info.value
    assert err.offset_key == (Fraction(1), Fraction(0), Fraction(0))
    assert np.allclose(err.point, [0.1, 0.1])
    assert err.evaluations == 1
    # The point is a copy, which no array of the base's shares.
    assert not any(np.shares_memory(err.point, array)
                   for array in (base.x, base.c1s))


@pytest.mark.parametrize("order,call,key", [(2, 1, (1, 0, 0)), (3, 3, (0, 1, 0)),
                                            (4, 7, (0, 0, 1))])
@pytest.mark.parametrize("length", [1, 3])
def test_a_misshaped_stencil_residual_fails_its_call(order, call, key, length):
    # A residual of the wrong shape fails its evaluator call as one that
    # raises does: StencilEvaluationError with the point's offset key and the
    # calls so far, chained from the shape's ValueError.  Length 1 would
    # broadcast into the defect row unseen.
    problem = valley_problem(100.0)
    calls = []

    def evaluator(p):
        calls.append(p)
        return np.ones(length) if len(calls) == call else problem.evaluator(p)

    x = np.array([math.pi, math.e])
    base = stencil_base(x, problem.evaluator(x), SvdFactors(problem.jacobian(x)),
                        evaluator, np.array([[-0.01, 0.02]]), GN)
    with pytest.raises(StencilEvaluationError) as info:
        correction_series(base, 0, order=order)
    err = info.value
    assert (err.offset_key, err.evaluations) == (key, call) and len(calls) == call
    assert type(err.__cause__) is ValueError
    shape = f"residual has shape ({length},), expected (2,)"
    assert str(err.__cause__) == shape
    assert str(err) == f"residual evaluation failed at stencil offset {key}: {shape}"


def test_invalid_order_rejected():
    poly = polynomial_problem(2, 2, seed=4)
    x, f0, factors, inv, c1 = make_context(poly.as_problem(), [0.5, 0.5])
    # 2.0 and True compare equal to supported orders; only ints are orders.
    # A plain int skips the type checks, which the others still take.
    for order in (5, 0, 2.0, True, np.bool_(True), "2", None):
        with pytest.raises(ValueError):
            correction_series(
                stencil_base(x, f0, factors, poly.evaluator, c1[None], GN), 0,
                order=order)
    for order in (np.int64(2), np.int64(3)):
        assert len(correction_series(
            stencil_base(x, f0, factors, poly.evaluator, c1[None], GN), 0,
            order=order).corrections) == order


def test_series_fields_cannot_be_assigned():
    series = CorrectionSeries((np.ones(2), np.ones(2)), 1)
    for field, value in (("corrections", ()), ("evaluation_count", 0),
                         ("truncated", True)):
        with pytest.raises(AttributeError):
            setattr(series, field, value)
    assert series.step.tolist() == [2.0, 2.0] and not series.truncated


def test_a_series_step_sums_left_to_right():
    # Float addition is not associative: over (1e16, 1, -1e16, 1) the left
    # to right sum is 1.0, while a pairwise sum, (c1 + c2) + (c3 + c4), and
    # a right to left one, c1 + (c2 + (c3 + c4)), are 0.0.  The second
    # column is the first negated.  A step endpoint's bits rest on this one
    # order, which no comparison of two sums of the same order would see.
    c1, c2, c3, c4 = np.array([[1e16, 1.0, -1e16, 1.0], [-1e16, -1.0, 1e16, -1.0]]).T
    step = CorrectionSeries((c1, c2, c3, c4), 8).step
    assert step.tobytes() == (((c1 + c2) + c3) + c4).tobytes()
    assert step.tolist() == [1.0, -1.0]
    assert ((c1 + c2) + (c3 + c4)).tolist() == (c1 + (c2 + (c3 + c4))).tolist() == [0, 0]
    three = CorrectionSeries((c1, c2, c3), 4).step
    assert three.tobytes() == ((c1 + c2) + c3).tobytes()
    alone = CorrectionSeries((c1,), 0).step
    assert alone.tobytes() == c1.tobytes() and alone is not c1


def test_a_series_step_of_negative_zeros_is_negative_zero():
    # -0.0 + -0.0 is -0.0, but a sum started from 0, as Python's is, gives +0.0.
    for count in (1, 2, 3, 4):
        terms = tuple(np.full(3, -0.0) for _ in range(count))
        step = CorrectionSeries(terms, 0).step
        assert np.signbit(step).all() and not step.any()
        assert not np.signbit(sum(terms)).any()


def _random_cubic(rng, m, p):
    """A cubic map R^p -> R^m and its Jacobian, from random tensors."""
    A = rng.normal(size=(m, p))
    B = rng.normal(size=(m, p, p))
    C = rng.normal(size=(m, p, p, p))

    def evaluator(x):
        return (A.dot(x) + np.einsum("ijk,j,k->i", B, x, x)
                + np.einsum("ijkl,j,k,l->i", C, x, x, x))

    return evaluator


def _failing_at(n, evaluator):
    """``evaluator``, except that its n-th call (from 1) raises."""
    calls = []

    def failing(q):
        calls.append(q)
        if len(calls) == n:
            raise FloatingPointError("boom")
        return evaluator(q)

    return failing


def _outcome(series_fn, *args, **kwargs):
    """A series run as comparable bytes and counts, and how it ended.

    The end is "full", "range", "wild" or "raised"; a CorrectionSeries says
    "truncated" for either guard.
    """
    try:
        result = series_fn(*args, **kwargs)
    except StencilEvaluationError as err:
        return (err.offset_key, err.evaluations, err.point.tobytes()), "raised"
    if isinstance(result, CorrectionSeries):
        result = (result.corrections, result.evaluation_count,
                  "truncated" if result.truncated else None)
    corrections, evaluations, stop = result
    return ([c.tobytes() for c in corrections], evaluations,
            stop is not None), stop or "full"


def test_stencil_arithmetic_matches_broadcast_reference():
    # Random Jacobians with condition numbers up to 1e12 and dampings from
    # 1e-14 to 1e2: every correction has the bytes of the broadcast
    # reference, with its evaluation count and truncation flag.  Residuals
    # of about 1e306 truncate on the residual bound or on a wild correction,
    # and an evaluator that raises fails at the same point in both.
    rng = np.random.default_rng(2024)
    ends = []
    for trial in range(240):
        order = 2 + trial % 3
        p = int(rng.integers(2, 4))
        m = p + int(rng.integers(0, 2))
        U = np.linalg.qr(rng.normal(size=(m, p)))[0]
        V = np.linalg.qr(rng.normal(size=(p, p)))[0]
        s = np.geomspace(1.0, 10.0 ** -rng.uniform(0, 12), p)
        J = (U * s).dot(V.T)
        cubic = _random_cubic(rng, m, p)
        kind = trial % 4
        if kind == 2:  # huge residuals, some beyond 2 _BOUND
            make = lambda: lambda q: 1e306 * np.exp(3.0 * np.tanh(cubic(q)))
        elif kind == 3:
            fail_at = int(rng.integers(1, STENCIL_EVALUATIONS[order] + 1))
            make = lambda: _failing_at(fail_at, cubic)
        else:
            make = lambda: cubic
        x = rng.normal(size=p)
        f0 = cubic(x)
        factors = SvdFactors(J)
        lam = 10.0 ** rng.uniform(-14, 2)
        factors.damped_apply_batch([lam, 2.0 * lam], f0)
        apply = damped(factors, lam)
        c1 = -10.0 ** rng.uniform(-3, 0) * apply(f0)
        got, _ = _outcome(correction_series,
                          stencil_base(x, f0, factors, make(), c1[None], [lam]), 0,
                          order=order)
        want, end = _outcome(broadcast_correction_series, x, f0, J, apply,
                             make(), c1, order)
        assert got == want
        ends.append(end)
    for end, least in (("range", 10), ("wild", 10), ("raised", 20), ("full", 40)):
        assert ends.count(end) >= least, (end, ends.count(end))


@pytest.mark.parametrize("c1s,message", [
    ([[np.inf, 0.0]], r"^c1 must be finite$"),
    ([[np.nan, 0.0]], r"^c1 must be finite$"),
    ([[0.1, 0.0, 0.0]], r"^c1 has shape \(1, 3\), expected \(n, 2\)$"),
    (0.1, r"^c1 has shape \(\), expected \(n, 2\)$"),
    ([[[0.1, 0.0]]], r"^c1 has shape \(1, 1, 2\), expected \(n, 2\)$"),
    ([[0.1, 0.0], [np.nan, 0.0]], r"^c1 must be finite$"),
    ([[0.1, 0.0], [0.2, 0.0], [0.0, -np.inf]], r"^c1 must be finite$"),
    ([0.1, 0.0], r"^c1 has shape \(2,\), expected \(n, 2\)$"),
], ids=["c10", "c11", "c12", "0.1", "c14", "nan-in-row-1", "inf-in-row-2",
        "one-d-c1"])
def test_bad_first_step_rejected_before_any_evaluation(c1s, message):
    # The base checks its whole block of first steps before any series
    # runs: a non-finite entry in any row, not only the first, and a block
    # that is not 2-D with p columns, a single step c1 among them (c1[None]
    # is its one-row block).
    problem, counter = counting_problem(valley_problem(100.0))
    x = np.array([np.pi, np.e])
    f0 = problem.evaluator(x)
    J = problem.jacobian(x)
    counter["evals"] = 0
    with pytest.raises(ValueError, match=message):
        correction_series(stencil_base(x, f0, SvdFactors(J), problem.evaluator,
                                       np.array(c1s),
                                       [0.0] * max(1, np.ndim(c1s) and len(c1s))),
                          0, order=3)
    assert counter["evals"] == 0


@pytest.mark.parametrize("order", [2, 3, 4])
def test_a_private_base_truncates_a_nan_and_an_overflowing_row_at_c1(order):
    # The private base leaves c1's finiteness to its callers: a row whose
    # c1 is nan, or whose x + c1 overflows, lies past x_limit, so its series
    # is its c1, truncated, with no evaluator call and no warning.  Every
    # other row's series has the bits of a base on the finite rows alone,
    # whose dampings are not the sweep's.  The public base rejects the nan.
    def residual(point):
        return np.array([point[1] ** 2 - 1.0, point[1] ** 3 + point[1] - 0.5])

    def jacobian(point):
        return np.array([[0.0, 2.0 * point[1]], [0.0, 3.0 * point[1] ** 2 + 1.0]])

    seen = []

    def evaluator(point):
        seen.append(point.copy())
        return residual(point)

    x = np.array([2.0**1000, 1.5])  # within _BOUND, so the stencils run
    f0 = residual(x)
    factors = SvdFactors(jacobian(x))
    lams = np.array([1e-3, 0.1, 1.0, 10.0, 1e3])
    c1s = -factors.damped_apply_batch(lams, f0)
    c1s[1] = np.nan
    c1s[3] = np.finfo(float).max, 0.0
    with np.errstate(over="ignore"):
        assert not np.isfinite(x + c1s[3]).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        base = corrections._stencil_base(x, f0, _norm(x), _norm(f0), factors,
                                         evaluator, c1s, lams)
        got = [correction_series(base, row, order=order) for row in range(5)]
    assert all(np.isfinite(point).all() for point in seen)
    for row in (1, 3):
        (c1,), evaluations, truncated = got[row]
        assert np.array_equal(c1, c1s[row], equal_nan=True)
        assert evaluations == 0 and truncated
    finite = [0, 2, 4]
    alone = stencil_base(x, f0, SvdFactors(jacobian(x)), residual, c1s[finite],
                         lams[finite])
    for row, want in zip(finite, (correction_series(alone, k, order=order)
                                  for k in range(3))):
        assert got[row].evaluation_count == want.evaluation_count
        assert got[row].truncated == want.truncated
        assert len(got[row].corrections) == len(want.corrections) > 1
        for a, b in zip(got[row].corrections, want.corrections):
            assert np.array_equal(a, b)
    assert len(seen) == sum(series.evaluation_count for series in got)
    with pytest.raises(ValueError, match=r"^c1 must be finite$"):
        stencil_base(x, f0, factors, evaluator, c1s, lams)


def test_a_failed_point_is_a_copy_and_its_row_runs_again_unchanged():
    # The point a failure reports is a copy, so a caller that changes it
    # leaves the base as it was.  The failed row's next series raises its
    # stored error again, and the other row matches its series on a fresh
    # base.
    problem = valley_problem(1e6)
    x = np.array([np.pi, np.e])
    f0, J = problem.evaluator(x), problem.jacobian(x)
    factors = SvdFactors(J)
    lams = np.array([1.0, 1e3])
    c1s = -factors.damped_apply_batch(lams, f0)
    for order in (2, 3, 4):
        base = stencil_base(x, f0, factors, _failing_at(1, problem.evaluator), c1s,
                            lams)
        with pytest.raises(StencilEvaluationError) as caught:
            correction_series(base, 0, order=order)
        error = caught.value
        point = error.point
        np.testing.assert_array_equal(point, x + 0.5 * c1s[0] if order > 2
                                      else x + c1s[0])
        assert not any(np.shares_memory(point, array)
                       for array in (base.x, base.c1s))
        point[:] = np.nan
        with pytest.raises(StencilEvaluationError) as again:
            correction_series(base, 0, order=order)
        assert again.value is error and error.evaluations == 1
        fresh = stencil_base(x, f0, factors, problem.evaluator, c1s[1:], lams[1:])
        assert _series_bytes(correction_series(base, 1, order=order)) == (
            _series_bytes(correction_series(fresh, 0, order=order)))


@pytest.mark.parametrize("bad,shapes", [
    (lambda f0, J: (f0[0], J), r"\(\), expected \(2,\)"),
    (lambda f0, J: (np.append(f0, 1.0), J), r"\(3,\), expected \(2,\)"),
    (lambda f0, J: (f0, np.vstack([J, J[:1]])), r"\(2,\), expected \(3,\)"),
], ids=["scalar-f0", "long-f0", "tall-J"])
def test_bad_f0_or_jacobian_rejected_before_any_evaluation(bad, shapes):
    # The same guard as a bad c1: an f0 whose shape is not (m,) for the
    # factored J's (m, p) raises as_shape's message before the evaluator is
    # called, instead of blaming the evaluator.
    problem, counter = counting_problem(valley_problem(100.0))
    x = np.array([np.pi, np.e])
    f0, J = bad(problem.evaluator(x), problem.jacobian(x))
    c1 = np.array([0.1, 0.0])
    counter["evals"] = 0
    for order in (1, 3):
        with pytest.raises(ValueError, match=f"^f0 has shape {shapes}$"):
            correction_series(stencil_base(x, f0, SvdFactors(J), problem.evaluator,
                                           c1[None], GN), 0, order=order)
    assert counter["evals"] == 0


def _series_bytes(series):
    return ([c.tobytes() for c in series.corrections], series.evaluation_count,
            series.truncated)


def test_series_on_one_base_match_fresh_bases_and_share_no_memory():
    # A step runs every candidate's series on one base, whose first series
    # of an order runs every row: no row may read another's values, and no
    # correction past c1 may be a view of the base's arrays.  On the K = 1e6
    # valley the steps stretched 100-fold truncate at orders 3 and 4;
    # orders alternate on the one base.
    problem = valley_problem(1e6)
    x = np.array([np.pi, np.e])
    f0, J = problem.evaluator(x), problem.jacobian(x)
    factors = SvdFactors(J)
    lams = np.geomspace(1e-8, 1e8, 9)
    c1s = -factors.damped_apply_batch(lams, f0)
    steps = [(lam, stretch * c1) for stretch in (1.0, 100.0)
             for lam, c1 in zip(lams.tolist(), c1s)]
    shared = stencil_base(x, f0, factors, problem.evaluator,
                          np.array([c1 for _, c1 in steps]), np.tile(lams, 2))
    arrays = (shared.x, shared.f0, shared.c1s)
    truncated = 0
    for order in (2, 4, 3, 2, 4, 3):
        for row, (lam, c1) in enumerate(steps):
            got = correction_series(shared, row, order=order)
            fresh = stencil_base(x, f0, factors, problem.evaluator, c1[None], [lam])
            assert _series_bytes(got) == _series_bytes(
                correction_series(fresh, 0, order=order))
            assert not any(np.shares_memory(c, array)
                           for c in got.corrections[1:] for array in arrays)
            truncated += got.truncated
    assert sorted(shared.series) == [2, 3, 4]
    assert 0 < truncated < 6 * len(steps)


def _digest_polynomials(order):
    """The polynomial problems and starts that the trajectory digest solves
    at ``order`` (``tools/trajectory_digest.py``)."""
    for degree in range(1, order + 1):
        for i in range(20):
            poly = polynomial_problem(degree, 2 + (i % 2), seed=i * 7 + degree)
            x0 = 0.25 * np.random.default_rng(1000 + i).normal(size=poly.input_dim)
            yield poly.as_problem(), x0


@pytest.mark.parametrize("order", [2, 3, 4])
def test_a_sweep_base_gives_each_row_its_one_row_series(order):
    # A step runs every phase for all 21 candidates of its sweep at once;
    # each candidate's series must have the bytes, count and flag of its
    # series on a one-row base of its own c1 and damping.  Sweeps centred
    # at 1e-4, 1 and 1e4 on the valley at K = 1e6 and 1e7 and on the
    # digest's polynomial problems, as solved and stretched 1e4-fold, so
    # that some series truncate at a wild correction.
    cases = [(valley_problem(K), np.array([np.pi, np.e])) for K in (1e6, 1e7)]
    cases += list(_digest_polynomials(order))
    full = truncated = 0
    for problem, x in cases:
        f0, factors = problem.evaluator(x), SvdFactors(problem.jacobian(x))
        for centre, stretch in itertools.product((1e-4, 1.0, 1e4), (1.0, 1e4)):
            lams = LambdaSchedule(centre).grid()
            c1s = -stretch * factors.damped_apply_batch(lams, f0)
            sweep = stencil_base(x, f0, factors, problem.evaluator, c1s, lams)
            for row, lam in enumerate(lams.tolist()):
                got = correction_series(sweep, row, order=order)
                alone = stencil_base(x, f0, factors, problem.evaluator, c1s[row][None],
                                     [lam])
                assert _series_bytes(got) == _series_bytes(
                    correction_series(alone, 0, order=order))
                full += not got.truncated
                truncated += got.truncated
    assert full > 1000 and truncated > 500


@pytest.mark.parametrize("order", [2, 3, 4])
def test_sweep_rows_past_the_step_limit_stay_out_of_the_block(order, monkeypatch):
    # Every other row of the K = 1e6 valley's sweep is stretched to norm
    # 1e302, beyond the step limit: those return their c1, truncated, with
    # no evaluation, and the others match their one-row series.  No stencil
    # product overflows, so nothing warns (an error under the suite's
    # filter), no errstate is entered and every point the evaluator sees is
    # finite.
    problem = valley_problem(1e6)
    x = np.array([np.pi, np.e])
    f0, factors = problem.evaluator(x), SvdFactors(problem.jacobian(x))
    lams = LambdaSchedule(1.0).grid()
    c1s = -factors.damped_apply_batch(lams, f0)
    c1s[::2] *= 1e302 / np.linalg.norm(c1s[::2], axis=1)[:, None]
    points = []

    def evaluator(p):
        points.append(p.copy())
        return problem.evaluator(p)

    entered = count_errstates(monkeypatch)
    sweep = stencil_base(x, f0, factors, evaluator, c1s, lams)
    assert sweep.x_limit < 1e302
    for row, lam in enumerate(lams.tolist()):
        got = correction_series(sweep, row, order=order)
        if row % 2 == 0:
            assert got.truncated and got.evaluation_count == 0
            assert len(got.corrections) == 1
            assert np.array_equal(got.corrections[0], c1s[row])
        else:
            alone = stencil_base(x, f0, factors, evaluator, c1s[row][None], [lam])
            assert _series_bytes(got) == _series_bytes(
                correction_series(alone, 0, order=order))
    assert len(points) == 2 * 10 * STENCIL_EVALUATIONS[order]
    assert all(np.isfinite(p).all() for p in points)
    assert entered == []


@pytest.mark.parametrize("row", [-1, 2, 1.0, True, np.bool_(False), "0", None])
def test_a_bad_row_is_rejected_before_any_evaluation(row):
    # A row is an integer index into the base's block, counted from 0: a
    # negative one would read from the end, and a float or bool is no row.
    problem, counter = counting_problem(valley_problem(100.0))
    x = np.array([np.pi, np.e])
    f0, J = problem.evaluator(x), problem.jacobian(x)
    base = stencil_base(x, f0, SvdFactors(J), problem.evaluator,
                        np.array([[0.1, 0.0], [0.0, 0.1]]), [0.0, 0.0])
    counter["evals"] = 0
    for order in (1, 3):
        with pytest.raises(ValueError, match=r"^row must be an integer in \[0, 1\]"):
            correction_series(base, row, order=order)
    assert counter["evals"] == 0
    series = correction_series(base, np.int64(1), order=3)
    assert series.evaluation_count == 4
    assert np.array_equal(series.corrections[0], [0.0, 0.1])


def test_order_is_keyword_only():
    poly = polynomial_problem(2, 2, seed=4)
    x, f0, factors, inv, c1 = make_context(poly.as_problem(), [0.5, 0.5])
    base = stencil_base(x, f0, factors, poly.evaluator, c1[None], GN)
    with pytest.raises(TypeError):
        correction_series(base, 0, 2)
    assert len(correction_series(base, 0, order=2).corrections) == 2


@pytest.mark.parametrize("x,shape", [(np.float64(0.5), r"\(\)"),
                                     (np.zeros((1, 2)), r"\(1, 2\)")],
                         ids=["0-d", "2-d"])
def test_a_base_point_that_is_not_a_vector_is_rejected(x, shape):
    with pytest.raises(ValueError, match=rf"^x has shape {shape}, expected \(2,\)$"):
        stencil_base(x, np.zeros(2), SvdFactors(np.eye(2)), lambda p: p,
                     np.zeros((1, 2)), GN)


class _RecordingFactors(SvdFactors):
    """SvdFactors that keep every block their ``damped_apply`` is given."""

    __slots__ = ("blocks",)

    def damped_apply(self, lams, vs):
        self.blocks.append(np.array(vs))
        return super().damped_apply(lams, vs)


@pytest.mark.parametrize("order", [2, 3, 4])
def test_every_fate_in_one_block_matches_its_one_row_base(order):
    # One sweep base whose rows meet every fate: a row that passes, one
    # past x_limit, one whose residual block is beyond 2 _BOUND, one whose
    # correction is wild, one whose residual is nan and one whose evaluator
    # raises, each at its phase-1 points.  Every row has the bytes, count
    # and flag of its own one-row base, and a raised row its evaluations and
    # point.  Nothing warns (an error under the suite's filter), and no nan
    # or inf of a row that stopped reaches a later phase: every point is
    # finite, and so is every block that the inverse is given.
    x, J = np.zeros(2), np.array([[2.0, 0.5], [0.5, 1.0]])
    points = []

    def evaluator(p):
        points.append(p.copy())
        if p[0] > 40.0:
            return np.array([1e307, 0.0])  # beyond 2 _BOUND
        if p[1] > 40.0:
            return np.array([0.0, 1e10])  # a defect that makes c2 wild
        if p[0] < -40.0:
            return np.array([np.nan, 0.0])
        if p[1] < -40.0:
            raise FloatingPointError("boom")
        return J.dot(p) + 0.1 * p * p

    fates = {"full": [0.1, -0.2], "limit": [1e303, 0.0], "range": [100.0, 0.0],
             "wild": [0.0, 100.0], "nan": [-100.0, 0.0], "raised": [0.0, -100.0]}
    c1s = np.array(list(fates.values()) * 2)  # every fate twice, in turn
    lams = np.repeat([1e-3, 1.0], len(fates))

    def factors():
        made = _RecordingFactors(J)
        made.blocks = []
        return made

    sweep_factors = factors()
    sweep = stencil_base(x, evaluator(x), sweep_factors, evaluator, c1s, lams)
    assert 1e3 < sweep.x_limit < 1e303
    first = len(PHASES[order][0][0])
    counts = {"full": STENCIL_EVALUATIONS[order], "limit": 0, "range": first,
              "wild": first, "nan": first, "raised": 1}
    for row, fate in enumerate(list(fates) * 2):
        got, end = _outcome(correction_series, sweep, row, order=order)
        alone = stencil_base(x, evaluator(x), factors(), evaluator, c1s[row][None],
                             lams[row:row + 1])
        assert (got, end) == _outcome(correction_series, alone, 0, order=order)
        assert end == {"full": "full", "raised": "raised"}.get(fate, "truncated")
        assert got[1] == counts[fate], fate
    assert all(np.isfinite(p).all() for p in points)
    assert len(sweep_factors.blocks) == order - 1
    assert all(np.isfinite(block).all() for block in sweep_factors.blocks)


@pytest.mark.parametrize("order,phase", [(2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3)])
def test_a_row_beyond_2r_leaves_the_other_rows_as_they_are_without_it(order, phase,
                                                                      monkeypatch):
    # One row of the K = 1e6 valley's sweep meets a residual beyond 2 _BOUND
    # at every point of one phase, so the phase's whole-block screen fails
    # and the per-row test decides: that row truncates there, and every
    # other row has the outcome, and the evaluator the calls, of the same
    # sweep without that row.  No errstate is entered.
    problem = valley_problem(1e6)
    x = np.array([np.pi, np.e])
    f0, factors = problem.evaluator(x), SvdFactors(problem.jacobian(x))
    lams = LambdaSchedule(1.0).grid()
    c1s = -factors.damped_apply_batch(lams, f0)
    hot, seen, calls = 7, [], []

    def recording(p):
        seen.append(p.tobytes())
        return problem.evaluator(p)

    correction_series(stencil_base(x, f0, factors, recording, c1s[hot][None],
                                   lams[hot:hot + 1]), 0, order=order)
    end = sum(len(points) for points, _ in PHASES[order][:phase])
    assert len(seen) >= end  # the row reaches the phase on its own
    beyond = set(seen[end - len(PHASES[order][phase - 1][0]):end])

    def evaluator(p):
        calls.append(p.tobytes())
        f = problem.evaluator(p)
        return f + 1e307 if p.tobytes() in beyond else f

    entered = count_errstates(monkeypatch)

    def outcomes(rows):
        del calls[:]
        base = stencil_base(x, f0, factors, evaluator, c1s[rows], lams[rows])
        return [_outcome(correction_series, base, i, order=order)
                for i in range(len(rows))], list(calls)

    others = [row for row in range(len(lams)) if row != hot]
    (every, every_calls), (without, without_calls) = (
        outcomes(list(range(len(lams)))), outcomes(others))
    (corrections, evaluations, truncated), stop = every[hot]
    assert (len(corrections), evaluations, truncated, stop) == (phase, end, True,
                                                               "truncated")
    assert [every[row] for row in others] == without
    assert [call for call in every_calls if call not in seen[:end]] == without_calls
    assert len(every_calls) == len(without_calls) + end
    assert entered == []


@pytest.mark.parametrize("order", [3, 4])
def test_a_failed_call_skips_exactly_the_rest_of_its_row(order):
    # Each phase walks its points row by row, point by point.  A call that
    # fails at point k of a row's phase leaves that row's later points
    # uncalled, in the phase and in every later one, so the next call is
    # the next row's first point: the calls are the clean sweep's, in its
    # order, less exactly those, and every other row keeps its series.
    # Rows 0, 7 and 20 alone, and rows 7 and 8 together, fail at each point
    # of each phase in turn; a row that failed in an earlier phase is
    # skipped at its first point.
    problem = valley_problem(1e4)
    x = np.array([np.pi, np.e])
    f0, factors = problem.evaluator(x), SvdFactors(problem.jacobian(x))
    lams = LambdaSchedule(1.0).grid()
    c1s = -factors.damped_apply_batch(lams, f0)
    calls, failing = [], set()

    def evaluator(p):
        calls.append(p.tobytes())
        if calls[-1] in failing:
            raise FloatingPointError("boom")
        return problem.evaluator(p)

    def sweep():
        del calls[:]
        base = stencil_base(x, f0, factors, evaluator, c1s, lams)
        return ([_outcome(correction_series, base, row, order=order) for row in range(21)],
                list(calls))

    clean, clean_calls = sweep()
    # Each clean call's phase, row and point, in call order.
    where = [(phase, row, k) for phase, (points, _) in enumerate(PHASES[order])
             for row in range(21) for k in range(len(points))]
    assert len(set(clean_calls)) == len(clean_calls) == len(where)
    assert all(end == "full" for _, end in clean)
    for rows in ([0], [7], [20], [7, 8]):
        for phase, (points, _) in enumerate(PHASES[order]):
            first = sum(len(earlier) for earlier, _ in PHASES[order][:phase])
            for k, key in enumerate(points):
                failing = {clean_calls[where.index((phase, row, k))] for row in rows}
                outcomes, got = sweep()
                assert got == [call for call, (p, row, i) in zip(clean_calls, where)
                               if row not in rows or (p, i) <= (phase, k)]
                for row in range(21):
                    if row in rows:
                        (offset, evaluations, point), end = outcomes[row]
                        assert (offset, evaluations, end) == (key, first + k + 1, "raised")
                        assert point in failing
                    else:
                        assert outcomes[row] == clean[row]
