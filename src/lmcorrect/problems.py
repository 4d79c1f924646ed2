"""Problem abstraction and the built-in benchmark problems.

A problem is just a residual evaluator ``x -> f(x)`` plus an analytic
Jacobian ``x -> J(x)``.  The benchmark family is the anisotropic curved
valley ``f(x, y) = (x + y^2, K (y - x^2))``: larger ``K`` makes the valley of
small ``|f|`` narrower while its curvature stays fixed, which is exactly the
regime where first-order damped steps crawl.

A seeded polynomial family, held as its tuple of coefficient tensors of
degree 1 up to 4, backs the stencil tests with analytically known derivative
tensors; the oracles that contract those tensors, and the finite-difference
Jacobian, live with the tests (``tests/helpers.py``).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .linalg import as_finite, as_int, as_positive, as_shape

__all__ = [
    "Problem",
    "valley_eval",
    "valley_jacobian",
    "valley_problem",
    "affine_problem",
    "default_affine_problem",
    "PolynomialProblem",
    "polynomial_problem",
]


@dataclass(frozen=True)
class Problem:
    """Residual map with analytic Jacobian.

    ``evaluator`` maps a point in R^input_dim to a residual in R^output_dim;
    ``jacobian`` returns the (output_dim, input_dim) matrix of first partial
    derivatives at a point.  The solver calls them one at a time, and each
    must give the same output for the same input.  The evaluator may return
    the array it returned before: ``run`` and ``step`` copy what they keep.
    """

    input_dim: int
    output_dim: int
    evaluator: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray]


def valley_eval(K: float, x: float, y: float) -> np.ndarray:
    """Residual ``(x + y^2, K (y - x^2))`` of the curved-valley problem."""
    return np.array([x + y * y, K * (y - x * x)])


def valley_jacobian(K: float, x: float, y: float) -> np.ndarray:
    """Analytic Jacobian ``[[1, 2y], [-2Kx, K]]`` of :func:`valley_eval`."""
    return np.array([[1.0, 2.0 * y], [-2.0 * K * x, K]])


def valley_problem(K: float) -> Problem:
    """Two-dimensional curved-valley benchmark with anisotropy factor ``K``.

    ``K`` must be positive and finite.  Both closures take a point of shape
    ``(2,)``, or a sequence of two numbers, and raise ValueError naming any
    other shape.  They compute with Python floats, whose arithmetic costs
    less than float64 scalars' and gives the same IEEE results.
    """
    as_positive(K, "anisotropy factor")

    def evaluator(p):
        # The fast path for the one call per point: an array of another
        # length, or a non-array, fails the unpack, and one with two rows
        # unpacks into lists; all go to the checks.
        try:
            x, y = p.tolist()
            if type(y) is list:
                raise TypeError
        except (AttributeError, TypeError, ValueError):
            x, y = as_shape(p, (2,), "valley point").tolist()
        return valley_eval(K, x, y)

    def jacobian(p):
        return valley_jacobian(K, *as_shape(p, (2,), "valley point").tolist())

    return Problem(2, 2, evaluator, jacobian)


def affine_problem(A, b) -> Problem:
    """Affine residual ``f(x) = A x - b`` (one exact Newton step to solve).

    ValueError unless ``A`` is 2-D and ``b`` is 1-D with one entry per row,
    and unless both are finite.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 2 or b.shape != A.shape[:1]:
        raise ValueError(f"need a 2-D A and b of shape (A.shape[0],), got A of "
                         f"shape {A.shape} and b of shape {b.shape}")
    A, b = as_finite(A, A.shape, "A"), as_finite(b, b.shape, "b")
    m, p = A.shape
    return Problem(p, m, lambda x: A @ x - b, lambda x: A.copy())


def default_affine_problem() -> Problem:
    """Small fixed nonsingular affine problem used by the CLI and tests."""
    A = np.array([[2.0, 1.0], [1.0, 3.0]])
    b = np.array([1.0, 2.0])
    return affine_problem(A, b)


def _symmetrize(T: np.ndarray) -> np.ndarray:
    """Average a tensor over all permutations of its non-output axes."""
    axes = range(1, T.ndim)
    perms = list(itertools.permutations(axes))
    out = np.zeros_like(T)
    for perm in perms:
        out += np.transpose(T, (0,) + perm)
    return out / len(perms)


@dataclass(frozen=True)
class PolynomialProblem:
    """Polynomial residual map with exact derivative tensors.

    ``f(x) = A x + B[x,x] + C[x,x,x] + D[x,x,x,x]`` up to the map's degree:
    ``tensors = (A, B, ...)``, and ``tensors[k - 1]`` is the degree-k
    coefficient tensor, of shape ``(output_dim,) + (input_dim,) * k`` and
    symmetric in its input axes, so directional derivatives of any order up
    to 4 are available in closed form for oracle tests.  There is no
    constant term: every instance has a root at the origin.
    """

    input_dim: int
    output_dim: int
    tensors: tuple

    @functools.cached_property
    def _horner_levels(self) -> tuple:
        """The highest tensor, then a ``(tensor, shape)`` pair per lower one,
        each tensor as ``(-1, input_dim)``."""
        highest, *lower = (T.reshape(-1, self.input_dim) for T in reversed(self.tensors))
        return highest, tuple((K, K.shape) for K in lower)

    def evaluator(self, x) -> np.ndarray:
        # Horner's rule, f = (A + (B + (C + D x) x) x) x: one matrix-vector
        # product per coefficient tensor, contracting its last axis with x.
        x = np.asarray(x, dtype=float)
        highest, lower = self._horner_levels
        T = highest.dot(x)
        for K, shape in lower:
            T = (K + T.reshape(shape)).dot(x)
        return T

    def jacobian(self, x) -> np.ndarray:
        # A term per tensor past A, written out: a loop over the tensors
        # cost 0.3-1 us a call more (timeit, 2-vCPU Xeon, numpy 2.4).
        x = np.asarray(x, dtype=float)
        T, degree = self.tensors, len(self.tensors)
        J = T[0].copy()
        if degree > 1:
            J = J + 2.0 * np.einsum("ijk,k->ij", T[1], x)
        if degree > 2:
            J = J + 3.0 * np.einsum("ijkl,k,l->ij", T[2], x, x)
        if degree > 3:
            J = J + 4.0 * np.einsum("ijklm,k,l,m->ij", T[3], x, x, x)
        return J

    def as_problem(self) -> Problem:
        return Problem(self.input_dim, self.output_dim, self.evaluator, self.jacobian)


def polynomial_problem(degree: int, dim: int, seed: int) -> PolynomialProblem:
    """Seeded polynomial map of total degree ``degree`` on R^dim -> R^dim.

    Coefficients are drawn uniformly from [-1, 1] with the given seed, A's
    first and then each higher tensor's, which is symmetrized; results are
    deterministic.  ``degree`` must be an integer in [1, 4], ``dim`` one of
    at least 1 and ``seed`` one of at least 0.
    """
    as_int(degree, "degree", 1, 4)
    as_int(dim, "dim", 1)
    as_int(seed, "seed", 0)
    rng = np.random.default_rng(seed)
    A, *higher = [rng.uniform(-1.0, 1.0, size=(dim,) * k) for k in range(2, degree + 2)]
    return PolynomialProblem(dim, dim, (A, *map(_symmetrize, higher)))
