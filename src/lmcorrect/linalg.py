"""Dense vector/matrix helpers, the vector norm, and the step inverse.

Every vector norm in this package is ``math.hypot`` over the entries.  It lies
within 1 ulp of the exact norm, never underflows, and is inf only beyond
float64's range or at an inf entry, else nan at a nan.  Every step direction
is the damped pseudo-inverse ``(J^T J + lam I)^{-1} J^T v``.  Its ``lam = 0``
case is the Gauss-Newton minimum-norm pseudo-inverse, which on a square
nonsingular ``J`` is Newton's step ``J^{-1} v``.  :class:`SvdFactors` holds
one thin SVD of ``J``, so that a sweep over damping values reuses the
factorization; its smallest singular value, the valley direction's, stays
accurate on ill-conditioned ``J``, and its damped scale squares nothing.
Everything is float64.
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


def _norm(v) -> float:
    """Euclidean norm of a 1-D float array, ``math.hypot`` over its entries."""
    return math.hypot(*v.tolist())


class SvdFactors:
    """Thin SVD of a Jacobian, shared by every damping value applied to it.

    Holds ``J = U @ diag(s) @ Vt`` with ``s`` non-increasing, and takes the
    transposes ``Ut``, ``V`` and the reciprocals ``inv_s = 1 / s`` once.  The
    damped scale ``s / (s^2 + lam)`` is ``1 / (s + lam * inv_s)``, which
    squares nothing, so no singular value over- or underflows out of its
    direction.  ``damped_apply`` reads the rows ``damped_apply_batch`` kept
    for its last sweep.  It finds a row with one lookup in a dict from
    damping to row, which the first read after a sweep builds, so a sweep
    that no correction reads (order 1) builds none.  Once ``s_min <=
    ACCURATE_RCOND * s_max`` LAPACK's ``s_min`` may have no correct digit,
    and ``J`` is refactored by the graded-matrix recipe of Demmel et al.,
    "Computing the singular value decomposition with high relative
    accuracy" (1999), which keeps it.
    """

    __slots__ = ("U", "s", "Vt", "Ut", "V", "inv_s", "_lams", "_rows", "_kept")

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
        # The last sweep's dampings and scale rows, and once read, its dict
        # from damping to row (None until then).
        self._lams, self._rows, self._kept = [], None, {}

    def _scale_rows(self, lams: np.ndarray, lam_list: list) -> np.ndarray:
        """Rows ``1 / (s + lam * inv_s)`` for ``lams``, whose list is ``lam_list``.

        Callers ignore divide, over and invalid in an errstate.  At zero damping
        the row is ``1 / s``, cut to 0 below ``RANK_RCOND * s_max`` with a warning.
        """
        low = min(lam_list)  # on 21 values a list scan beats a numpy reduction
        if not (low >= 0.0 and sum(lam_list) >= 0.0):  # a nan makes the sum nan
            raise ValueError(f"damping must be non-negative, got {lams.min()}")
        lam_s = lams[:, None] * self.inv_s
        scale = np.reciprocal(self.s + lam_s)
        # Where lam * inv_s overflows, s^2 is below 1e-308 lam, so the scale
        # is s / lam.  inv_s is non-decreasing: test the last column.
        if math.inf in lam_s[:, -1].tolist():
            scale = np.where(lam_s == math.inf, self.s / lams[:, None], scale)
        if low == 0.0:
            keep = self.s > RANK_RCOND * self.s[0]
            if not keep.all():
                warnings.warn("rank-deficient Jacobian at zero damping; returning the "
                              "minimum-norm solution", RuntimeWarning, stacklevel=3)
            scale[lams == 0.0] = np.where(keep, self.inv_s, 0.0)
        return scale

    def damped_apply(self, lam: float, v) -> np.ndarray:
        """Return ``(J^T J + lam I)^{-1} J^T v`` via ``1 / (s + lam / s)``.

        At ``lam == 0`` this is the Gauss-Newton pseudo-inverse; singular
        values below ``RANK_RCOND * s_max`` are then dropped (minimum-norm
        solution) and a RuntimeWarning flags the rank deficiency.  A result
        beyond float64's range has inf entries, without an overflow warning.
        """
        v = np.asarray(v, dtype=float)
        if self._kept is None:  # the first read since the last sweep
            self._kept = {lam: row for lam, row in zip(self._lams, self._rows)
                          if lam > 0.0}  # zero warns on every call: never kept
        try:
            scale = self._kept.get(lam)
        except TypeError:  # an unhashable damping, such as a 0-d array
            scale = None
        if scale is None:  # not a positive damping of the last sweep
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                scale = self._scale_rows(np.array([lam], dtype=float), [lam])[0]
        gain = max(scale.tolist())
        # No partial sum or product exceeds (gain + 1) |v|, so under the bound
        # nothing overflows (math.hypot also checks finiteness).  ndarray.dot,
        # not @: half the matmul gufunc's dispatch cost on 2-3 elements, same bits.
        if v.ndim == 1 and math.hypot(*v.tolist()) * (gain + 1.0) < _APPLY_SAFE:
            return self.V.dot(scale * self.Ut.dot(v))
        with np.errstate(over="ignore", invalid="ignore"):
            return self.V.dot(scale * self.Ut.dot(as_vector(v)))

    def damped_apply_batch(self, lams, v) -> np.ndarray:
        """Rows ``(J^T J + lam I)^{-1} J^T v`` for a whole damping sweep.

        Row ``i`` matches ``damped_apply(lams[i], v)`` to rounding, zero
        dampings included; a row that overflows is non-finite, unwarned.
        ``lams`` must be nonempty and 1-D, and ``v`` finite, or ValueError.
        """
        lams = np.asarray(lams, dtype=float)
        if lams.ndim != 1 or lams.size == 0:
            raise ValueError(f"expected a nonempty 1-D sweep, got {lams.shape}")
        v = np.asarray(v, dtype=float)
        if not (v.ndim == 1 and math.hypot(*v.tolist()) < math.inf):
            v = as_vector(v)  # raises unless v is finite with an overflowing norm
        lam_list = lams.tolist()
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            rows = self._scale_rows(lams, lam_list)
            self._lams, self._rows, self._kept = lam_list, rows, None
            return (self._rows * self.Ut.dot(v)).dot(self.Vt)
