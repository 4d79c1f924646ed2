"""Shared test oracles, independent of the implementation paths they check."""

import numpy as np

from lmcorrect.faadibruno import correction_identity_terms
from lmcorrect.problems import Problem


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


def counting_problem(problem: Problem):
    """Wrap a problem so every residual evaluation increments a counter."""
    counter = {"evals": 0}

    def evaluator(x):
        counter["evals"] += 1
        return problem.evaluator(x)

    wrapped = Problem(problem.input_dim, problem.output_dim, evaluator,
                      problem.jacobian, name=problem.name)
    return wrapped, counter


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
            vectors = [cs[k - 1] for k in term.c_orders]
            total = total + float(term.coefficient) * poly.derivative_contraction(
                x, term.f_order, *vectors
            )
        cs.append(-inverse_apply(total) / float(lead.coefficient))
    return cs


def einsum_polynomial_evaluator(poly, x):
    """``b + A x + B[x,x] + C[x,x,x] + D[x,x,x,x]`` as one einsum per tensor.

    The reference for ``PolynomialProblem.evaluator``, which evaluates the
    same polynomial by Horner's rule and so rounds differently.
    """
    x = np.asarray(x, dtype=float)
    f = poly.b + poly.A @ x
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
