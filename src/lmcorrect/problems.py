"""Problem abstraction and the built-in benchmark problems.

A problem is just a residual evaluator ``x -> f(x)`` plus an analytic
Jacobian ``x -> J(x)``.  The benchmark family is the anisotropic curved
valley ``f(x, y) = (x + y^2, K (y - x^2))``: larger ``K`` makes the valley of
small ``|f|`` narrower while its curvature stays fixed, which is exactly the
regime where first-order damped steps crawl.

A seeded polynomial family with analytically known derivative tensors up to
order 4 backs the stencil tests; the oracles that contract those tensors, and
the finite-difference Jacobian, live with the tests (``tests/helpers.py``).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

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
    derivatives at a point.  Both must be pure and safe to call concurrently.
    """

    input_dim: int
    output_dim: int
    evaluator: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray]
    name: str = ""


def valley_eval(K: float, x: float, y: float) -> np.ndarray:
    """Residual ``(x + y^2, K (y - x^2))`` of the curved-valley problem."""
    return np.array([x + y * y, K * (y - x * x)])


def valley_jacobian(K: float, x: float, y: float) -> np.ndarray:
    """Analytic Jacobian ``[[1, 2y], [-2Kx, K]]`` of :func:`valley_eval`."""
    return np.array([[1.0, 2.0 * y], [-2.0 * K * x, K]])


def _valley_point(p) -> list:
    """The coordinates of ``p`` as floats; ValueError unless it is a 2-vector."""
    arr = np.asarray(p, dtype=float)
    if arr.shape != (2,):
        raise ValueError(f"valley point must have shape (2,), got shape {arr.shape}")
    return arr.tolist()


def valley_problem(K: float) -> Problem:
    """Two-dimensional curved-valley benchmark with anisotropy factor ``K``.

    Both closures take a point of shape ``(2,)``, or a sequence of two
    numbers, and raise ValueError naming any other shape.  They compute with
    Python floats, whose arithmetic costs less than float64 scalars' and
    gives the same IEEE results.
    """
    if not 0.0 < K < math.inf:
        raise ValueError(f"anisotropy factor must be positive and finite, got {K}")

    def evaluator(p):
        # The fast path for the one call per point: an array of another
        # length, or a non-array, fails the unpack, and one with two rows
        # unpacks into lists; all go to the checks.
        try:
            x, y = p.tolist()
            if type(y) is list:
                raise TypeError
        except (AttributeError, TypeError, ValueError):
            x, y = _valley_point(p)
        return valley_eval(K, x, y)

    def jacobian(p):
        return valley_jacobian(K, *_valley_point(p))

    return Problem(2, 2, evaluator, jacobian, name=f"valley(K={K:g})")


def affine_problem(A, b, name: str = "affine") -> Problem:
    """Affine residual ``f(x) = A x - b`` (one exact Newton step to solve).

    ValueError unless ``A`` is 2-D and ``b`` is 1-D with one entry per row.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 2 or b.shape != A.shape[:1]:
        raise ValueError(f"need a 2-D A and b of shape (A.shape[0],), got A of "
                         f"shape {A.shape} and b of shape {b.shape}")
    m, p = A.shape
    return Problem(p, m, lambda x: A @ x - b, lambda x: A.copy(), name=name)


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

    ``f(x) = A x + B[x,x] + C[x,x,x] + D[x,x,x,x]`` with symmetric
    coefficient tensors, so directional derivatives of any order up to 4 are
    available in closed form for oracle tests.  There is no constant term:
    every instance has a root at the origin.
    """

    degree: int
    input_dim: int
    output_dim: int
    seed: int
    A: np.ndarray
    B: np.ndarray | None
    C: np.ndarray | None
    D: np.ndarray | None
    name: str = ""

    @functools.cached_property
    def _horner_tensors(self) -> tuple[np.ndarray, ...]:
        """D, C, B, A from the highest one present, each as ``(-1, input_dim)``.

        A tensor missing below the highest one is zero, which Horner's rule
        adds exactly.
        """
        p = self.input_dim
        tensors = []
        for T in (self.D, self.C, self.B, self.A):
            if T is not None:
                tensors.append(T.reshape(-1, p))
            elif tensors:
                tensors.append(np.zeros((tensors[-1].shape[0] // p, p)))
        return tuple(tensors)

    def evaluator(self, x) -> np.ndarray:
        # Horner's rule, f = (A + (B + (C + D x) x) x) x: one matrix-vector
        # product per coefficient tensor, contracting its last axis with x.
        x = np.asarray(x, dtype=float)
        highest, *lower = self._horner_tensors
        T = highest.dot(x)
        for K in lower:
            T = (K + T.reshape(K.shape)).dot(x)
        return T

    def jacobian(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        J = self.A.copy()
        if self.B is not None:
            J = J + 2.0 * np.einsum("ijk,k->ij", self.B, x)
        if self.C is not None:
            J = J + 3.0 * np.einsum("ijkl,k,l->ij", self.C, x, x)
        if self.D is not None:
            J = J + 4.0 * np.einsum("ijklm,k,l,m->ij", self.D, x, x, x)
        return J

    def as_problem(self) -> Problem:
        return Problem(self.input_dim, self.output_dim, self.evaluator,
                       self.jacobian, name=self.name)


def polynomial_problem(degree: int, dim: int, seed: int) -> PolynomialProblem:
    """Seeded polynomial map of total degree ``degree`` on R^dim -> R^dim.

    Coefficients are drawn uniformly from [-1, 1] with the given seed and the
    higher-order tensors are symmetrized; results are deterministic.
    """
    if not 1 <= degree <= 4:
        raise ValueError(f"degree must be in [1, 4], got {degree}")
    rng = np.random.default_rng(seed)

    def draw(*shape):
        return rng.uniform(-1.0, 1.0, size=shape)

    A = draw(dim, dim)
    B = _symmetrize(draw(dim, dim, dim)) if degree >= 2 else None
    C = _symmetrize(draw(dim, dim, dim, dim)) if degree >= 3 else None
    D = _symmetrize(draw(dim, dim, dim, dim, dim)) if degree >= 4 else None
    return PolynomialProblem(
        degree=degree,
        input_dim=dim,
        output_dim=dim,
        seed=seed,
        A=A,
        B=B,
        C=C,
        D=D,
        name=f"poly(d={degree},p={dim},seed={seed})",
    )
