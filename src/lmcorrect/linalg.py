"""Dense vector/matrix helpers and the inverse variants used for step directions.

Every step direction in this package is some flavour of ``J^{-1} v``:

* plain Newton solve for square nonsingular ``J``,
* Gauss-Newton minimum-norm pseudo-inverse ``(J^T J)^{-1} J^T``,
* damped pseudo-inverse ``(J^T J + lam I)^{-1} J^T``.

All three are methods of :class:`SvdFactors`, one thin SVD of ``J``, so that
a sweep over damping values reuses the factorization.  Everything is float64.
"""

from __future__ import annotations

import warnings

import numpy as np

__all__ = [
    "SingularMatrixError",
    "as_vector",
    "as_residual",
    "as_matrix",
    "SvdFactors",
]

# Reciprocal singular values below RANK_RCOND * sigma_max are zeroed when
# lam == 0, giving the minimum-norm solution on rank-deficient problems.
RANK_RCOND = 1e-14


class SingularMatrixError(ValueError):
    """Square solve requested on a (numerically) singular matrix."""


def as_vector(v) -> np.ndarray:
    """Coerce to a finite 1-D float64 array, raising ValueError otherwise."""
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"expected a nonempty 1-D vector, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("vector entries must be finite")
    return arr


def as_residual(value, m: int) -> np.ndarray:
    """Coerce an evaluator's output to float64 of shape ``(m,)``.

    Entries may be non-finite (callers decide what such a point is worth);
    any other shape raises ValueError rather than broadcasting into a row.
    """
    arr = np.asarray(value, dtype=float)
    if arr.shape != (m,):
        raise ValueError(
            f"evaluator returned a residual of shape {arr.shape}, expected ({m},)"
        )
    return arr


def as_matrix(a) -> np.ndarray:
    """Coerce to a finite 2-D float64 array, raising ValueError otherwise."""
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2 or arr.size == 0:
        raise ValueError(f"expected a nonempty 2-D matrix, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("matrix entries must be finite")
    return arr


class SvdFactors:
    """Thin SVD of a Jacobian, shared by all inverse variants.

    Holds ``J = U @ diag(s) @ Vt`` with ``s`` non-increasing.  One instance is
    computed per Jacobian and reused for every damping value applied to it,
    so the transposes ``Ut``, ``V`` and the squares ``s2`` are taken once here.
    """

    __slots__ = ("U", "s", "Vt", "Ut", "V", "s2", "shape")

    def __init__(self, J):
        J = as_matrix(J)
        self.U, self.s, self.Vt = np.linalg.svd(J, full_matrices=False)
        self.Ut, self.V, self.s2 = self.U.T, self.Vt.T, self.s * self.s
        self.shape = J.shape

    @property
    def condition_number(self) -> float:
        smin = self.s[-1]
        return float(self.s[0] / smin) if smin > 0.0 else np.inf

    def damped_apply(self, lam: float, v) -> np.ndarray:
        """Return ``(J^T J + lam I)^{-1} J^T v`` via ``s / (s^2 + lam)``.

        At ``lam == 0`` this is the Gauss-Newton pseudo-inverse; singular
        values below ``RANK_RCOND * s_max`` are then dropped (minimum-norm
        solution) and a RuntimeWarning flags the rank deficiency.
        """
        if lam < 0.0:
            raise ValueError(f"damping must be non-negative, got {lam}")
        v = as_vector(v)
        s = self.s
        if lam != 0.0:
            return self.V @ (s / (self.s2 + lam) * (self.Ut @ v))
        cutoff = RANK_RCOND * (s[0] if s.size else 0.0)
        keep = s > cutoff
        if not np.all(keep):
            warnings.warn(
                "rank-deficient Jacobian at zero damping; "
                "returning the minimum-norm solution",
                RuntimeWarning,
                stacklevel=2,
            )
        factors = np.zeros_like(s)
        factors[keep] = 1.0 / s[keep]
        return self.V @ (factors * (self.Ut @ v))

    def damped_apply_batch(self, lams, v) -> np.ndarray:
        """Rows ``(J^T J + lam I)^{-1} J^T v`` for a whole damping sweep.

        All ``lams`` must be positive (zero damping needs the rank handling
        of :meth:`damped_apply`).  Row ``i`` matches ``damped_apply(lams[i],
        v)`` to rounding.
        """
        lams = np.asarray(lams, dtype=float)
        if np.any(lams <= 0.0):
            raise ValueError("batch application requires strictly positive damping")
        utv = self.Ut @ np.asarray(v, dtype=float)
        coeff = (self.s / (self.s2 + lams[:, None])) * utv
        return coeff @ self.Vt

    def newton_apply(self, v) -> np.ndarray:
        """Return ``J^{-1} v`` for square nonsingular ``J``."""
        m, p = self.shape
        if m != p:
            raise ValueError(f"Newton solve needs a square matrix, got {m}x{p}")
        s = self.s
        if s[-1] <= RANK_RCOND * s[0] or s[0] == 0.0:
            raise SingularMatrixError(
                f"matrix is singular to working precision (sigma={s})"
            )
        return self.V @ ((self.Ut @ as_vector(v)) / s)
