"""Shared test oracles, independent of the implementation paths they check."""

import itertools
import math
from fractions import Fraction

import numpy as np

from lmcorrect.corrections import (
    PHASES,
    WILD_CORRECTION_FACTOR,
    StencilEvaluationError,
)
from lmcorrect.faadibruno import correction_identity_terms
from lmcorrect.linalg import _BOUND, SvdFactors, as_finite
from lmcorrect.optimizer import OptimizerConfig
from lmcorrect.problems import Problem, polynomial_problem


def set_partitions(items):
    """Brute-force enumeration of all set partitions of ``items``.

    Recursive first-element placement: independent of the differentiation
    recurrence it cross-checks.
    """
    items = list(items)
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for partial in set_partitions(rest):
        for i in range(len(partial)):
            yield partial[:i] + [[head] + partial[i]] + partial[i + 1 :]
        yield [[head]] + partial


def partition_shape_counts(n):
    """Map (block_count, sorted block sizes) -> number of partitions of {1..n}."""
    counts = {}
    for partition in set_partitions(range(n)):
        key = (len(partition), tuple(sorted(len(block) for block in partition)))
        counts[key] = counts.get(key, 0) + 1
    return counts


def damped(factors, lam):
    """The inverse ``v -> (J^T J + lam I)^{-1} J^T v`` of ``factors``: its
    ``damped_apply`` on the one-row block of ``v``."""
    lams = np.array([lam], dtype=float)
    return lambda v: factors.damped_apply(lams, np.asarray(v)[None])[0]


def gauss_newton_inverse(J):
    """Zero-damping inverse ``v -> (J^T J)^{-1} J^T v`` from one SVD of ``J``.

    On a square nonsingular ``J`` this is Newton's step ``J^{-1} v``.
    """
    return damped(SvdFactors(J), 0.0)


def counting_problem(problem: Problem):
    """Wrap a problem so every residual evaluation increments a counter."""
    counter = {"evals": 0}

    def evaluator(x):
        counter["evals"] += 1
        return problem.evaluator(x)

    wrapped = Problem(problem.input_dim, problem.output_dim, evaluator,
                      problem.jacobian, name=problem.name)
    return wrapped, counter


def count_errstates(monkeypatch) -> list:
    """Record the settings of every ``np.errstate`` the library enters.

    numpy's own functions hold their own reference to errstate, so only
    calls spelled ``np.errstate`` are recorded, each as its keyword dict.
    """
    entered, errstate = [], np.errstate

    def counting(**settings):
        entered.append(settings)
        return errstate(**settings)

    monkeypatch.setattr(np, "errstate", counting)
    return entered


def nan_jacobian_below(problem: Problem, y_limit):
    """The 2-D problem with a nan Jacobian wherever ``x[1] < y_limit``."""
    def jacobian(x):
        return np.full((2, 2), np.nan) if x[1] < y_limit else problem.jacobian(x)

    return Problem(2, 2, problem.evaluator, jacobian, name=problem.name)


def jacobian_raising_from(problem: Problem, call: int, error: Exception):
    """The problem whose Jacobian raises ``error`` from its ``call``-th call on."""
    calls = {"n": 0}

    def jacobian(x):
        calls["n"] += 1
        if calls["n"] >= call:
            raise error
        return problem.jacobian(x)

    return Problem(problem.input_dim, problem.output_dim, problem.evaluator,
                   jacobian, name=problem.name)


def evaluator_failing_at(problem: Problem, call: int, fault):
    """The problem whose ``call``-th evaluator call raises ``fault``, if it is
    an exception, else returns it."""
    calls = {"n": 0}

    def evaluator(x):
        calls["n"] += 1
        if calls["n"] != call:
            return problem.evaluator(x)
        if isinstance(fault, Exception):
            raise fault
        return fault

    return Problem(problem.input_dim, problem.output_dim, evaluator,
                   problem.jacobian, name=problem.name)


def analytic_correction_series(poly, x, inverse_apply, c1, order):
    """Corrections from exact tensor contractions via the order-n identities.

    Independent of the finite-difference stencils: each c_n comes from the
    collected identity terms evaluated with the polynomial problem's exact
    derivative tensors.
    """
    cs = [np.asarray(c1, dtype=float)]
    for n in range(2, order + 1):
        lead, rest = correction_identity_terms(n)
        total = np.zeros(poly.output_dim)
        for term in rest:
            vectors = [cs[k - 1] for k in term.x_orders]
            total = total + float(term.coefficient) * derivative_contraction(
                poly, x, term.f_order, *vectors
            )
        cs.append(-inverse_apply(total) / float(lead.coefficient))
    return cs


def derivative_contraction(poly, x, order: int, *vectors) -> np.ndarray:
    """Exact ``f^(order)[v_1, ..., v_order]`` of a PolynomialProblem at ``x``."""
    if order != len(vectors):
        raise ValueError("need exactly `order` direction vectors")
    x = np.asarray(x, dtype=float)
    vs = [np.asarray(v, dtype=float) for v in vectors]
    out = np.zeros(poly.output_dim)
    if order == 1:
        return poly.jacobian(x) @ vs[0]
    if order == 2:
        u, v = vs
        if poly.B is not None:
            out += 2.0 * np.einsum("ijk,j,k->i", poly.B, u, v)
        if poly.C is not None:
            out += 6.0 * np.einsum("ijkl,j,k,l->i", poly.C, x, u, v)
        if poly.D is not None:
            out += 12.0 * np.einsum("ijklm,j,k,l,m->i", poly.D, x, x, u, v)
        return out
    if order == 3:
        u, v, w = vs
        if poly.C is not None:
            out += 6.0 * np.einsum("ijkl,j,k,l->i", poly.C, u, v, w)
        if poly.D is not None:
            out += 24.0 * np.einsum("ijklm,j,k,l,m->i", poly.D, x, u, v, w)
        return out
    if order == 4:
        u, v, w, z = vs
        if poly.D is not None:
            out += 24.0 * np.einsum("ijklm,j,k,l,m->i", poly.D, u, v, w, z)
        return out
    raise ValueError(f"derivative order must be in [1, 4], got {order}")


def broadcast_correction_series(x, f0, J, inverse_apply, evaluator, c1, order):
    """``correction_series``'s stencil arithmetic on broadcast vectors.

    The bitwise reference for the stencil phases: each phase forms its
    points as ``x + offsets`` and its linear model as ``offsets.dot(J.T) +
    f0``, adding the vectors ``x`` and ``f0`` to every row of the phase's
    block.  Inputs are taken as valid.  Returns ``(corrections,
    evaluations, stop)``, where ``stop`` is ``None`` for a full series, else
    ``"range"`` (a phase's residual block of norm beyond ``2 _BOUND``) or
    ``"wild"`` for the guard that truncated it; a failing evaluator call
    raises StencilEvaluationError.
    """
    x, f0, J, c1 = (np.asarray(a, dtype=float) for a in (x, f0, J, c1))
    directions = np.empty((order, c1.shape[0]))
    directions[0] = c1
    corrections, rows = [c1], []
    wild_bound = WILD_CORRECTION_FACTOR * math.hypot(*c1.tolist())
    for known, (keys, weights) in enumerate(PHASES[order], start=1):
        mult = np.ascontiguousarray(np.array(keys, dtype=float)[:, :known])
        offsets = mult.dot(directions[:known])
        points = x + offsets
        block = []
        for key, point in zip(keys, points):
            try:
                block.append(np.asarray(evaluator(point), dtype=float))
            except Exception as exc:
                raise StencilEvaluationError(key, point, exc,
                                             len(rows) + len(block) + 1) from exc
        block = np.array(block)
        rows.extend(block)
        if not math.hypot(*block.ravel().tolist()) <= 2 * _BOUND:
            return tuple(corrections), len(rows), "range"
        rows[-len(block):] = block - (offsets.dot(J.T) + f0)
        c = inverse_apply(np.array(weights, dtype=float).dot(np.array(rows)))
        if not math.hypot(*c.tolist()) <= wild_bound:
            return tuple(corrections), len(rows), "wild"
        directions[known] = c
        corrections.append(c)
    return tuple(corrections), len(rows), None


def criterion_6_runs():
    """Acceptance criterion 6's 200 seeded polynomial solves, in order, as
    ``(problem, x0, config)``: orders 1-4, degrees 1 to the order, and 20
    runs per cell on 2 or 3 unknowns from a seeded start of scale 0.25,
    each to 1e-10 of its start residual norm in at most 200 iterations."""
    for order in (1, 2, 3, 4):
        for degree in range(1, order + 1):
            for i in range(20):
                poly = polynomial_problem(degree, 2 + (i % 2), seed=i * 7 + degree)
                problem = poly.as_problem()
                x0 = 0.25 * np.random.default_rng(1000 + i).normal(size=poly.input_dim)
                start_norm = float(np.linalg.norm(problem.evaluator(x0)))
                yield problem, x0, OptimizerConfig(
                    order=order, max_iterations=200, convergence_tol=1e-10 * start_norm)


def four_exponential_fit():
    """A zero-residual fit of a sum of 4 exponentials: p = 8, m = 1000.

    Parameters are the amplitudes a1..a4, then the rates k1..k4, of
    ``sum_i a_i exp(-k_i t)`` on ``t = linspace(0, 10, 1000)``; the data come
    from rates ``geomspace(0.1, 3, 4)`` and amplitudes ``linspace(1, 0.5, 4)``,
    and the start scales the amplitudes by 0.7 and the rates by 1.6.
    Returns the problem and the start.
    """
    t = np.linspace(0.0, 10.0, 1000)
    amplitudes, rates = np.linspace(1.0, 0.5, 4), np.geomspace(0.1, 3.0, 4)
    data = (amplitudes[:, None] * np.exp(-rates[:, None] * t)).sum(axis=0)

    def evaluator(x):
        return (x[:4, None] * np.exp(-x[4:, None] * t)).sum(axis=0) - data

    def jacobian(x):
        decays = np.exp(-x[4:, None] * t)
        return np.hstack([decays.T, (-x[:4, None] * t * decays).T])

    problem = Problem(8, 1000, evaluator, jacobian, name="four-exponentials")
    return problem, np.concatenate([0.7 * amplitudes, 1.6 * rates])


def finite_difference_jacobian(problem: Problem, x, rel_step: float = 1e-6) -> np.ndarray:
    """Central-difference Jacobian, the test-time oracle for analytic ones."""
    x = as_finite(x, (problem.input_dim,), "x")
    J = np.zeros((problem.output_dim, problem.input_dim))
    for j in range(problem.input_dim):
        h = rel_step * (1.0 + abs(x[j]))
        xp, xm = x.copy(), x.copy()
        xp[j] += h
        xm[j] -= h
        J[:, j] = (problem.evaluator(xp) - problem.evaluator(xm)) / (2.0 * h)
    return J


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


def phase_row_mismatches(phases, order):
    """Rows of one order's PHASES table that differ from their identity.

    Row n (from 2) must equal -1/n! times the ``rest`` terms of the order-n
    identity on every monomial up to ``order``, exactly in rationals, and
    its phase may only use the directions known by then.  Returns the
    correction indices n of the rows that fail.
    """
    points, bad = [], []
    for n, (added, weights) in enumerate(phases, start=2):
        points += added
        got = {}
        for w, q in zip(weights, points):
            for key, coeff in defect_monomials(q, order).items():
                got[key] = got.get(key, 0) + exact_weight(w) * coeff
        lead, rest = correction_identity_terms(n)
        want = {(t.f_order, t.x_orders): Fraction(-t.coefficient, lead.coefficient)
                for t in rest}
        known = all(not any(q[n - 1:]) for q in added)
        if not (known and len(weights) == len(points)
                and {key: v for key, v in got.items() if v} == want):
            bad.append(n)
    return bad


def einsum_polynomial_evaluator(poly, x):
    """``A x + B[x,x] + C[x,x,x] + D[x,x,x,x]`` as one einsum per tensor.

    The reference for ``PolynomialProblem.evaluator``, which evaluates the
    same polynomial by Horner's rule and so rounds differently.
    """
    x = np.asarray(x, dtype=float)
    f = poly.A @ x
    if poly.B is not None:
        f = f + np.einsum("ijk,j,k->i", poly.B, x, x)
    if poly.C is not None:
        f = f + np.einsum("ijkl,j,k,l->i", poly.C, x, x, x)
    if poly.D is not None:
        f = f + np.einsum("ijklm,j,k,l,m->i", poly.D, x, x, x, x)
    return f


def directional_derivative_fd(evaluator, x, u, order, h=1e-2):
    """Central-difference estimate of ``f^(order)[u, ..., u]`` at ``x``.

    Plain equispaced central differences along the ray x + t u; accuracy is
    O(h^2) which is plenty for oracle comparisons at loose tolerance.
    """
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)

    def g(t):
        return np.asarray(evaluator(x + t * u), dtype=float)

    if order == 2:
        return (g(h) - 2.0 * g(0.0) + g(-h)) / h**2
    if order == 3:
        return (g(2 * h) - 2.0 * g(h) + 2.0 * g(-h) - g(-2 * h)) / (2.0 * h**3)
    if order == 4:
        return (g(2 * h) - 4.0 * g(h) + 6.0 * g(0.0) - 4.0 * g(-h) + g(-2 * h)) / h**4
    raise ValueError(order)


def relative_difference(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    scale = max(np.linalg.norm(a), np.linalg.norm(b), 1e-300)
    return float(np.linalg.norm(a - b) / scale)
