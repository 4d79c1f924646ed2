"""Dense vector/matrix helpers and the inverse used for step directions.

Every step direction in this package is the damped pseudo-inverse
``(J^T J + lam I)^{-1} J^T v``.  Its ``lam = 0`` case is the Gauss-Newton
minimum-norm pseudo-inverse, which on a square nonsingular ``J`` is Newton's
step ``J^{-1} v``.  :class:`SvdFactors` holds one thin SVD of ``J``, so that
a sweep over damping values reuses the factorization; its smallest singular
value, the valley direction's, stays accurate on ill-conditioned ``J``, and
its damped scale squares nothing.  Everything is float64.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

__all__ = ["as_vector", "as_residual", "as_matrix", "SvdFactors"]

# Reciprocal singular values below RANK_RCOND * sigma_max are zeroed when
# lam == 0, giving the minimum-norm solution on rank-deficient problems.
RANK_RCOND = 1e-14

# At or below ACCURATE_RCOND * sigma_max LAPACK's smallest singular value may
# have no correct digit; SvdFactors then takes the graded factorization.
ACCURATE_RCOND = 1e3 * float(np.finfo(float).eps)

# ``damped_apply``'s bound on its intermediates: half of float64's maximum;
# at or above _TINY, 1 / s stays below it.
_APPLY_SAFE = float(np.finfo(float).max) / 2
_TINY = 1.0 / _APPLY_SAFE

# Below this Euclidean norm a vector's ``v.dot(v)`` cannot overflow: its
# square, 1e308, leaves float64 room for the rounding of the sum.
_SQUARE_SAFE = 1e154


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


@np.errstate(over="ignore")
def _row_norms(F):
    """Euclidean norm of each row of ``F``, without an overflow warning.

    Overflow can only make a norm +inf.  A row of finite entries whose norm
    came out inf is rescaled by its largest magnitude, so its norm stays
    finite unless it exceeds float64's range; a row holding nan or inf keeps
    a non-finite norm.
    """
    norms = np.sqrt(np.vecdot(F, F))
    # At 21 rows a list scan costs less than a numpy reduction.
    if math.inf in norms.tolist():
        overflowed = np.isinf(norms) & np.isfinite(F).all(axis=1)
        rows = F[overflowed]
        scale = np.abs(rows).max(axis=1)
        rows = rows / scale[:, None]
        norms[overflowed] = scale * np.sqrt(np.vecdot(rows, rows))
    return norms


def _norm(v) -> float:
    """Norm of one vector, by ``np.linalg.norm``'s own arithmetic.

    ``math.hypot`` cannot overflow, so it tells without a warning whether
    ``v.dot(v)`` may.  Only then is the square taken with overflow ignored,
    and a norm that overflowed is recomputed by :func:`_row_norms`.
    """
    if math.hypot(*v.tolist()) < _SQUARE_SAFE:
        return math.sqrt(v.dot(v))
    with np.errstate(over="ignore"):
        norm = math.sqrt(v.dot(v))
    return norm if norm != math.inf else float(_row_norms(v[None, :])[0])


class SvdFactors:
    """Thin SVD of a Jacobian, shared by every damping value applied to it.

    Holds ``J = U @ diag(s) @ Vt`` with ``s`` non-increasing, and takes the
    transposes ``Ut``, ``V`` and the reciprocals ``inv_s = 1 / s`` once.  The
    damped scale ``s / (s^2 + lam)`` is ``1 / (s + lam * inv_s)``, which
    squares nothing, so no singular value over- or underflows out of its
    direction.  Once ``s_min <= ACCURATE_RCOND * s_max`` LAPACK's ``s_min``
    may have no correct digit, and ``J`` is refactored by the graded-matrix
    recipe of Demmel et al., "Computing the singular value decomposition
    with high relative accuracy" (1999), which keeps it.
    """

    __slots__ = ("U", "s", "Vt", "Ut", "V", "inv_s", "_max_damping")

    def __init__(self, J):
        J = as_matrix(J)
        U, s, Vt = np.linalg.svd(J, full_matrices=False)
        if s[-1] <= ACCURATE_RCOND * s[0]:
            # Sort the rows by their largest magnitude, take a Householder
            # QR, then the SVD of R, and put U's rows back in J's order.
            order = np.argsort(-np.abs(J).max(axis=1), kind="stable")
            Q, R = np.linalg.qr(J[order])
            U, s, Vt = np.linalg.svd(R, full_matrices=False)
            U = Q.dot(U)[np.argsort(order)]
        self.U, self.s, self.Vt, self.Ut, self.V = U, s, Vt, U.T, Vt.T
        if s[-1] >= _TINY:
            self.inv_s = 1.0 / s
        else:  # s = 0 or below _TINY: 1 / s may be inf, unwarned
            with np.errstate(divide="ignore", over="ignore"):
                self.inv_s = 1.0 / s
        # Below this damping no lam * inv_s overflows (damped_apply's fast path).
        self._max_damping = _APPLY_SAFE / float(self.inv_s[-1])

    def _pinv_factors(self) -> np.ndarray:
        """``1 / s``, or 0 with a RuntimeWarning below ``RANK_RCOND * s_max``."""
        keep = self.s > RANK_RCOND * self.s[0]
        if not np.all(keep):
            warnings.warn("rank-deficient Jacobian at zero damping; returning "
                          "the minimum-norm solution", RuntimeWarning, stacklevel=3)
        return np.where(keep, self.inv_s, 0.0)

    def damped_apply(self, lam: float, v) -> np.ndarray:
        """Return ``(J^T J + lam I)^{-1} J^T v`` via ``1 / (s + lam / s)``.

        At ``lam == 0`` this is the Gauss-Newton pseudo-inverse; singular
        values below ``RANK_RCOND * s_max`` are then dropped (minimum-norm
        solution) and a RuntimeWarning flags the rank deficiency.  A result
        beyond float64's range has inf entries, without an overflow warning.
        """
        if lam < 0.0:
            raise ValueError(f"damping must be non-negative, got {lam}")
        v = np.asarray(v, dtype=float)
        if 0.0 < lam < self._max_damping:
            scale = np.reciprocal(self.s + lam * self.inv_s)
            gain = 0.5 / math.sqrt(lam)  # the maximum of s / (s^2 + lam)
        elif lam == 0.0:
            scale = self._pinv_factors()
            gain = float(scale.max())
        else:  # lam * inv_s would overflow: the batch handles that unwarned
            return self.damped_apply_batch(np.full(1, lam), as_vector(v))[0]
        # No partial sum or product here exceeds (gain + 1) |v|: under the
        # bound nothing can overflow (math.hypot also checks finiteness).
        # ndarray.dot, not @: on 2-3 element operands it costs half of the
        # matmul gufunc's dispatch, with the same bits.
        if v.ndim == 1 and math.hypot(*v.tolist()) * (gain + 1.0) < _APPLY_SAFE:
            return self.V.dot(scale * self.Ut.dot(v))
        with np.errstate(over="ignore", invalid="ignore"):
            return self.V.dot(scale * self.Ut.dot(as_vector(v)))

    def damped_apply_batch(self, lams, v) -> np.ndarray:
        """Rows ``(J^T J + lam I)^{-1} J^T v`` for a whole damping sweep.

        Row ``i`` matches ``damped_apply(lams[i], v)`` to rounding, zero
        dampings included; a row that overflows is non-finite, unwarned.
        """
        lams = np.asarray(lams, dtype=float)
        low = lams.min()
        if not low >= 0.0:
            raise ValueError(f"damping must be non-negative, got {low}")
        utv = self.Ut.dot(np.asarray(v, dtype=float))
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            lam_s = lams[:, None] * self.inv_s
            scale = np.reciprocal(self.s + lam_s)
            # Where lam * inv_s overflows, s^2 is below 1e-308 lam, so the
            # scale is s / lam.  inv_s is non-decreasing: test the last column.
            if math.inf in lam_s[:, -1].tolist():
                scale = np.where(lam_s == math.inf, self.s / lams[:, None], scale)
            if low == 0.0:
                scale[lams == 0.0] = self._pinv_factors()
            return (scale * utv).dot(self.Vt)
