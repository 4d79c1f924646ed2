"""Argument rules, the vector norm and the damped inverse.

The package's one vector norm, ``_norm``, is ``math.hypot`` over the entries:
within 1 ulp of the exact norm, it never underflows and is inf only beyond
float64's range or at an inf entry, else nan at a nan; ``finite_norm`` reads
finiteness from it.  Every step direction is the damped pseudo-inverse
``(J^T J + lam I)^{-1} J^T v``.  Its ``lam = 0`` case is the Gauss-Newton
minimum-norm pseudo-inverse, which on a square nonsingular ``J`` is Newton's
step ``J^{-1} v``.  :class:`SvdFactors` holds one thin SVD of ``J``, so that a
sweep over damping values reuses the factorization; its smallest singular
value, the valley direction's, stays accurate on ill-conditioned ``J``, and
its damped scale squares nothing.  Everything is float64.
"""

from __future__ import annotations

import math
import warnings
from numbers import Integral, Real

import numpy as np

__all__ = ["as_shape", "as_finite", "finite_norm", "as_int", "as_positive",
           "SvdFactors"]

# Reciprocal singular values below RANK_RCOND * sigma_max are zeroed when
# lam == 0, giving the minimum-norm solution on rank-deficient problems.
RANK_RCOND = 1e-14

# At or below ACCURATE_RCOND * sigma_max LAPACK's smallest singular value may
# have no correct digit; SvdFactors then takes the graded factorization.
ACCURATE_RCOND = 1e3 * float(np.finfo(float).eps)

# float64's maximum, read only by the Householder test, and the package's one
# range bound R = 2**1016, about 7.0e305: a power of two, so 1 / R is exact,
# and 4 R W stays within _FLOAT_MAX for W = 127/3, the largest absolute
# weight-row sum in corrections.PHASES.  SvdFactors' screens, the stencil's
# limits and LambdaSchedule's damping range all read it.
_FLOAT_MAX = float(np.finfo(float).max)
_BOUND = 2.0**1016


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


def _norm(v) -> float:
    """Euclidean norm of a 1-D float array, ``math.hypot`` over its entries."""
    return math.hypot(*v.tolist())


def finite_norm(a, shape: tuple, what: str):
    """``(as_shape(a, shape, what), its _norm)``, else ValueError unless finite.
    Only a misshaped array, or a norm not below inf, goes to ``as_finite``,
    which passes just a finite array beyond float64's range; its norm is inf."""
    arr = np.asarray(a, dtype=float)
    norm = _norm(arr) if arr.shape == shape else math.nan
    if not norm < math.inf:
        as_finite(arr, shape, what)
    return arr, norm


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


class SvdFactors:
    """Thin SVD of a Jacobian, shared by every damping value applied to it.

    Holds ``J = U @ diag(s) @ Vt`` with ``s`` non-increasing and non-negative,
    and takes ``Ut = U.T`` and ``inv_s = 1 / s`` once; every apply is the row
    product ``(scale * Ut v) Vt``.  The damped scale ``s / (s^2 + lam)`` is
    ``1 / (s + lam * inv_s)``, which squares nothing, so no singular value
    over- or underflows out of its direction.  ``_scale_rows`` computes every
    scale row and ``_apply`` every product, each behind one screen on Python
    floats.  ``damped_apply`` reads the rows ``damped_apply_batch`` kept for
    its last sweep from a dict that the first read after a sweep builds (none
    at order 1); a zero damping that cuts a singular value, and so warns, is
    left out, and a damping not kept gets its row from ``_scale_rows``.  Once
    ``s_min <= ACCURATE_RCOND * s_max`` LAPACK's ``s_min`` may have no correct
    digit, and ``J`` is refactored by the graded-matrix recipe of Demmel et
    al., "Computing the singular value decomposition with high relative
    accuracy" (1999), which keeps it; a ``-0.0`` it returns is made ``+0``.
    LAPACK scales a ``J`` above about 1.5e138 to that size, so an ``s_min``
    under about 3e-462 ``max|J|`` reads 0.  A ``J`` whose Householder vectors
    could overflow is factored times a power of two, and ``s`` scaled back.

    ``J`` is screened by its largest magnitude, one reduction that is below
    inf exactly when every entry is finite: a maximum neither overflows nor
    raises a floating-point exception, and a nan propagates through it.  Only
    a ``J`` that fails the screen goes to ``as_finite``, the one check that
    raises.  The tests on ``s`` compare Python floats.
    """

    __slots__ = ("U", "s", "Vt", "Ut", "inv_s", "_v_shape", "_edges", "_sweep", "_kept")

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
        if top * 2.0**shift > _FLOAT_MAX:  # a Householder vector could overflow
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
            s = np.abs(s)  # LAPACK may return -0.0; np.abs keeps every other bit
            U = Q.dot(U)[np.argsort(order)]
            s_list = s.tolist()
        if shift:  # exact, but a singular value beyond float64 turns inf, unwarned
            s_list = [value * 2.0**shift for value in s_list]
            s = np.array(s_list)
        self.U, self.s, self.Vt, self.Ut = U, s, Vt, U.T
        self._v_shape = J.shape[:1]  # every applied v has shape (m,)
        if s_list[-1] >= 1.0 / _BOUND:  # then 1 / s <= R
            self.inv_s = 1.0 / s
        else:  # s = 0 or below 1 / R: 1 / s may be inf, unwarned
            with np.errstate(divide="ignore", over="ignore"):
                self.inv_s = 1.0 / s
        # s_max and the largest reciprocal, 1 / s_min, as Python floats: the
        # two sizes the screens of _scale_rows and _apply read.
        self._edges = (s_list[0], float(self.inv_s[-1]))
        # The last sweep's (dampings, scale rows), and its dict from damping
        # to row, None from the sweep until damped_apply first reads it.
        self._sweep, self._kept = None, {}

    def _scale_rows(self, lams: np.ndarray, lam_list: list) -> np.ndarray:
        """Rows ``1 / (s + lam * inv_s)`` for ``lams``, whose list is ``lam_list``.

        ValueError unless every damping is non-negative: ``min`` and ``max``
        skip a nan, the sum catches it.  The rows are the plain formula when
        a screen on Python floats passes: every damping positive, and
        ``max(lams) / s_min`` and ``s_max`` below the range bound ``_BOUND``.
        Then no ``lam / s`` nor ``s + lam / s`` overflows, as neither term
        reaches R, and each scale lies in ``(0, 1 / s_min]``, so none divides
        by zero.  Otherwise they are computed in an errstate that ignores
        divide, over and invalid.  At zero damping the row is
        ``1 / s``, cut to 0 below ``RANK_RCOND * s_max`` with a warning.
        """
        low, high = min(lam_list), max(lam_list)  # on 21 values, faster than numpy
        if not (low >= 0.0 and sum(lam_list) >= 0.0):  # a nan makes the sum nan
            raise ValueError(f"damping must be non-negative, got {lams.min()}")
        s_max, gain = self._edges
        if low > 0.0 and high * gain < _BOUND and s_max < _BOUND:
            return np.reciprocal(self.s + lams[:, None] * self.inv_s)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            lam_s = lams[:, None] * self.inv_s
            scale = np.reciprocal(self.s + lam_s)
            # Where lam * inv_s overflows, s^2 is below 1e-308 lam, so the
            # scale is s / lam.  inv_s is non-decreasing and rounding is
            # monotone, so the largest product is high * gain, the same IEEE
            # product.
            if high * gain == math.inf:
                scale = np.where(lam_s == math.inf, self.s / lams[:, None], scale)
        if low == 0.0:
            keep = self.s > RANK_RCOND * self.s[0]
            if not keep.all():
                warnings.warn("rank-deficient Jacobian at zero damping; returning the "
                              "minimum-norm solution", RuntimeWarning, stacklevel=3)
            scale[lams == 0.0] = np.where(keep, self.inv_s, 0.0)
        return scale

    def _apply(self, scale: np.ndarray, v) -> np.ndarray:
        """``(scale * Ut v) Vt`` for a row or rows of ``_scale_rows``.

        ValueError unless ``v`` is finite and of shape ``(m,)``.  Every scale
        entry is at most ``1 / s_min``, so below the screen's bound no entry
        or partial sum of either product exceeds ``(1 / s_min + 1) |v|``, and
        nothing overflows; otherwise the products ignore over and invalid,
        and a result beyond float64's range has inf entries, unwarned.
        ndarray.dot, not @: same bits, half the dispatch cost.
        """
        v, v_norm = finite_norm(v, self._v_shape, "v")
        if v_norm * (self._edges[1] + 1.0) < _BOUND:
            return (scale * self.Ut.dot(v)).dot(self.Vt)
        with np.errstate(over="ignore", invalid="ignore"):
            return (scale * self.Ut.dot(v)).dot(self.Vt)

    def damped_apply(self, lam: float, v) -> np.ndarray:
        """Return ``(J^T J + lam I)^{-1} J^T v`` via ``1 / (s + lam / s)``.

        At ``lam == 0`` this is the Gauss-Newton pseudo-inverse; singular
        values below ``RANK_RCOND * s_max`` are then dropped (minimum-norm
        solution) and a RuntimeWarning flags the rank deficiency.  A result
        beyond float64's range has inf entries, without an overflow warning.
        A ``v`` that is not finite or not of shape ``(m,)`` raises ValueError.
        """
        if self._kept is None:  # the first read since the last sweep
            self._kept = dict(zip(*self._sweep))
            if not self.s[-1] > RANK_RCOND * self.s[0]:  # a cut zero row warns
                self._kept.pop(0.0, None)
        try:
            scale = self._kept[lam]
        except (KeyError, TypeError):  # not kept, or unhashable (a 0-d array)
            scale = self._scale_rows(np.array([lam], dtype=float), [lam])[0]
        return self._apply(scale, v)

    def damped_apply_batch(self, lams, v) -> np.ndarray:
        """Rows ``(J^T J + lam I)^{-1} J^T v`` for a whole damping sweep.

        Row ``i`` matches ``damped_apply(lams[i], v)`` to rounding, zero
        dampings included; a row that overflows is non-finite, unwarned.
        A ``lams`` that is empty or not 1-D, and a ``v`` that ``damped_apply``
        would reject, raise ValueError.
        """
        lams = np.asarray(lams, dtype=float)
        if lams.ndim != 1 or lams.size == 0:
            raise ValueError(f"expected a nonempty 1-D sweep, got {lams.shape}")
        lam_list = lams.tolist()
        rows = self._scale_rows(lams, lam_list)
        self._sweep, self._kept = (lam_list, rows), None
        return self._apply(rows, v)
