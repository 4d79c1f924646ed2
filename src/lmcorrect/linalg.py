"""Argument rules, the vector norm and the damped inverse.

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

import contextlib
import math
import warnings
from numbers import Integral, Real

import numpy as np

__all__ = ["as_shape", "as_finite", "as_int", "as_positive", "SvdFactors"]

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

# Entered in place of an errstate where a screen rules out every floating-point
# exception: entering an errstate costs more than the 2-3 element arithmetic.
_NO_ERRSTATE = contextlib.nullcontext()


def as_shape(a, shape: tuple, what: str) -> np.ndarray:
    """``a`` as float64 of exactly ``shape``, else ValueError naming ``what``.

    Entries may be non-finite: callers decide what such a value is worth.
    """
    arr = np.asarray(a, dtype=float)
    if arr.shape != shape:
        raise ValueError(f"{what} has shape {arr.shape}, expected {shape}")
    return arr


def as_finite(a, shape: tuple, what: str) -> np.ndarray:
    """``as_shape(a, shape, what)``, else ValueError unless every entry is finite."""
    arr = as_shape(a, shape, what)
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} must be finite")
    return arr


def as_int(value, what: str, low: int, high: float = math.inf):
    """``value`` if it is an integer in ``[low, high]``, else ValueError.

    Neither a bool nor a float such as ``2.0`` is an integer here.
    """
    if (isinstance(value, bool) or not isinstance(value, Integral)
            or not low <= value <= high):
        bounds = f">= {low}" if high == math.inf else f"in [{low}, {high}]"
        raise ValueError(f"{what} must be an integer {bounds}, got {value!r}")
    return value


def as_positive(value, what: str, zero: bool = False):
    """``value`` if a real (not a bool) in (0, inf), or [0, inf) with ``zero``."""
    if (isinstance(value, bool) or not isinstance(value, Real)
            or not (0.0 < value < math.inf or zero and value == 0)):
        sign = "non-negative" if zero else "positive"
        raise ValueError(f"{what} must be {sign} and finite, got {value!r}")
    return value


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
    for its last sweep, and their largest entries, from a dict that the first
    read after a sweep builds (none at order 1); a zero damping that cuts a
    singular value, and so warns, is left out.  Once ``s_min <=
    ACCURATE_RCOND * s_max`` LAPACK's ``s_min`` may have no correct digit,
    and ``J`` is refactored by the graded-matrix recipe of Demmel et al.,
    "Computing the singular value decomposition with high relative
    accuracy" (1999), which keeps it.  A ``J`` whose Householder vectors
    could overflow is factored times a power of two, and ``s`` scaled back.

    Two screens keep the once-per-sweep work at the cost of its arithmetic.
    ``J`` is screened by its largest magnitude, one reduction that is
    below inf exactly when every entry is finite: a maximum neither
    overflows nor raises a floating-point exception, and a nan propagates
    through it.  Only a ``J`` that fails the screen goes to ``as_finite``,
    the one check that raises.  ``damped_apply_batch`` enters an errstate
    only when a screen on Python floats cannot rule out a divide, overflow or
    invalid operation (see there).  The tests on ``s`` compare Python floats.
    """

    __slots__ = ("U", "s", "Vt", "Ut", "V", "inv_s", "_v_shape", "_edges", "_lams",
                 "_rows", "_kept")

    def __init__(self, J):
        J = np.asarray(J, dtype=float)
        if J.ndim != 2 or J.size == 0:
            raise ValueError(f"expected a nonempty 2-D matrix, got shape {J.shape}")
        magnitudes = np.abs(J)
        # np.maximum.reduce skips ndarray.max's Python wrapper.
        top = float(np.maximum.reduce(magnitudes, axis=None))
        if not top < math.inf:
            as_finite(J, J.shape, "jacobian")
        shift = 1 + ((len(J) - 1).bit_length() + 1) // 2  # 2**shift >= 2 m**0.5
        if top * 2.0**shift > 2 * _APPLY_SAFE:  # a Householder vector could overflow
            J = J * 2.0**-shift
        else:
            shift = 0
        U, s, Vt = np.linalg.svd(J, full_matrices=False)
        s_list = s.tolist()
        if s_list[-1] <= ACCURATE_RCOND * s_list[0]:
            # Sort the rows by their largest magnitude, take a Householder
            # QR, then the SVD of R, and put U's rows back in J's order.
            order = np.argsort(-magnitudes.max(axis=1), kind="stable")
            Q, R = np.linalg.qr(J[order])
            U, s, Vt = np.linalg.svd(R, full_matrices=False)
            U = Q.dot(U)[np.argsort(order)]
            s_list = s.tolist()
        if shift:  # exact, but a singular value beyond float64 turns inf, unwarned
            s_list = [value * 2.0**shift for value in s_list]
            s = np.array(s_list)
        self.U, self.s, self.Vt, self.Ut, self.V = U, s, Vt, U.T, Vt.T
        self._v_shape = J.shape[:1]  # every applied v has shape (m,)
        if s_list[-1] >= _TINY:
            self.inv_s = 1.0 / s
        else:  # s = 0 or below _TINY: 1 / s may be inf, unwarned
            with np.errstate(divide="ignore", over="ignore"):
                self.inv_s = 1.0 / s
        # s_max and the largest reciprocal, 1 / s_min, as Python floats: the
        # two sizes damped_apply_batch's screen reads.
        self._edges = (s_list[0], float(self.inv_s[-1]))
        # The last sweep's dampings and scale rows, and once read, its dict
        # from damping to row (None until then).
        self._lams, self._rows, self._kept = [], None, {}

    def _scale_rows(self, lams: np.ndarray, lam_list: list, low, high) -> np.ndarray:
        """Rows ``1 / (s + lam * inv_s)`` for ``lams``, whose list is ``lam_list``.

        ``low`` and ``high`` are ``min(lam_list)`` and ``max(lam_list)``, which
        skip a nan; the sum catches it.  Callers ignore divide, over and
        invalid in an errstate, unless ``damped_apply_batch``'s screen rules
        all three out.  At zero damping the row is ``1 / s``, cut to 0 below
        ``RANK_RCOND * s_max`` with a warning.
        """
        if not (low >= 0.0 and sum(lam_list) >= 0.0):  # a nan makes the sum nan
            raise ValueError(f"damping must be non-negative, got {lams.min()}")
        lam_s = lams[:, None] * self.inv_s
        scale = np.reciprocal(self.s + lam_s)
        # Where lam * inv_s overflows, s^2 is below 1e-308 lam, so the scale
        # is s / lam.  inv_s is non-decreasing and rounding is monotone, so
        # the largest product is high * inv_s[-1], the same IEEE product.
        if high * self._edges[1] == math.inf:
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
        A ``v`` that is not finite or not of shape ``(m,)`` raises ValueError.
        """
        v = np.asarray(v, dtype=float)
        if self._kept is None:  # the first read since the last sweep
            full_rank = self.s[-1] > RANK_RCOND * self.s[0]
            self._kept = {lam: kept for lam, kept in zip(
                self._lams, zip(self._rows, self._rows.max(axis=1).tolist()))
                if lam > 0.0 or full_rank}
        try:
            scale, gain = self._kept[lam]
        except (KeyError, TypeError):  # not kept, or unhashable (a 0-d array)
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                scale = self._scale_rows(np.array([lam], dtype=float), [lam], lam,
                                         lam)[0]
            gain = max(scale.tolist())
        # No partial sum or product exceeds (gain + 1) |v|, so under the bound
        # nothing overflows (math.hypot also checks finiteness).  ndarray.dot,
        # not @: half the matmul gufunc's dispatch cost on 2-3 elements, same bits.
        if (v.shape == self._v_shape
                and math.hypot(*v.tolist()) * (gain + 1.0) < _APPLY_SAFE):
            return self.V.dot(scale * self.Ut.dot(v))
        as_finite(v, self._v_shape, "v")  # passes only a finite v too large for the bound
        with np.errstate(over="ignore", invalid="ignore"):
            return self.V.dot(scale * self.Ut.dot(v))

    def damped_apply_batch(self, lams, v) -> np.ndarray:
        """Rows ``(J^T J + lam I)^{-1} J^T v`` for a whole damping sweep.

        Row ``i`` matches ``damped_apply(lams[i], v)`` to rounding, zero
        dampings included; a row that overflows is non-finite, unwarned.
        A ``lams`` that is empty or not 1-D, and a ``v`` that ``damped_apply``
        would reject, raise ValueError.

        The rows are computed in an errstate that ignores divide, over and
        invalid only when a screen on Python floats cannot rule these out.
        It passes when every damping is positive, ``max(lams) / s_min`` and
        ``s_max`` are below ``_APPLY_SAFE``, and so is ``|v| (1 / s_min +
        1)``.  Then no ``lam / s`` nor ``s + lam / s`` overflows, as neither
        term reaches half of float64's maximum; each scale ``1 / (s + lam /
        s)`` lies in ``(0, 1 / s_min]``, so none divides by zero; and no entry
        or partial sum of the two products exceeds ``(1 / s_min + 1) |v|``.
        A nan damping can pass, since ``min`` and ``max`` skip it, but
        ``_scale_rows`` rejects it before any arithmetic.
        """
        lams = np.asarray(lams, dtype=float)
        if lams.ndim != 1 or lams.size == 0:
            raise ValueError(f"expected a nonempty 1-D sweep, got {lams.shape}")
        v = np.asarray(v, dtype=float)
        v_norm = math.hypot(*v.tolist()) if v.shape == self._v_shape else math.nan
        if not v_norm < math.inf:
            as_finite(v, self._v_shape, "v")  # passes a finite v whose norm overflows
        lam_list = lams.tolist()
        low, high = min(lam_list), max(lam_list)  # on 21 values, faster than numpy
        s_max, gain = self._edges
        safe = (low > 0.0 and high * gain < _APPLY_SAFE and s_max < _APPLY_SAFE
                and v_norm * (gain + 1.0) < _APPLY_SAFE)
        with _NO_ERRSTATE if safe else np.errstate(divide="ignore", over="ignore",
                                                   invalid="ignore"):
            rows = self._scale_rows(lams, lam_list, low, high)
            self._lams, self._rows, self._kept = lam_list, rows, None
            return (rows * self.Ut.dot(v)).dot(self.Vt)
