"""Argument rules, the vector norm and the damped inverse.

The package's one vector norm, ``_norm``, is ``math.hypot`` over the entries:
within 1 ulp of the exact norm, it never underflows and is inf only beyond
float64's range or at an inf entry, else nan at a nan; ``finite_norm`` reads
finiteness from it.  Every step direction is the damped pseudo-inverse
``(J^T J + lam I)^{-1} J^T v``.  Its ``lam = 0`` case is the Gauss-Newton
minimum-norm pseudo-inverse, which on a square nonsingular ``J`` is Newton's
step ``J^{-1} v``.  :class:`SvdFactors` holds one thin SVD of ``J``, so that a
sweep over damping values reuses the factorization, and a block of right-hand
sides, one damping per row, reuses the sweep's scale rows: the factors keep
only the last sweep's dampings and rows, with no table per damping.  Its
smallest singular value, the valley direction's, stays accurate on
ill-conditioned ``J``, and its damped scale squares nothing.  Every damping
is a real in ``[0, inf)``, not a bool.  Everything is float64.
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


def _dampings(lams):
    """``lams`` as a float64 array, its list, and the list's least and
    largest damping, else ValueError.

    ``lams`` must be nonempty and 1-D, and every damping follows
    ``as_positive``'s rule: a real in ``[0, inf)``, not a bool.  A float64
    array is read by three reductions on its list: ``min``, ``max`` and the
    sum, which a nan makes nan.  Any other ``lams`` has each item checked,
    so that no bool passes as 1.
    """
    arr = np.asarray(lams, dtype=float)  # lams itself when a float64 array
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"expected a nonempty 1-D sweep, got {arr.shape}")
    lam_list = arr.tolist()
    low, high = min(lam_list), max(lam_list)  # on 21 values, faster than numpy
    if lams is not arr or not (low >= 0.0 and high < math.inf and sum(lam_list) >= 0.0):
        for lam in np.array(lams, dtype=object):
            as_positive(lam, "damping", zero=True)
    return arr, lam_list, low, high


class SvdFactors:
    """Thin SVD of a Jacobian, shared by every damping value applied to it.

    The one owner of a step's Jacobian: it checks ``J``, keeps it as the
    float64 array ``J`` it was given, and bounds it by ``s[0] = |J|_2``.
    Holds ``J = U @ diag(s) @ Vt`` with ``s`` non-increasing and non-negative,
    and takes ``Ut = U.T`` and ``inv_s = 1 / s`` once; every apply is the row
    product ``(scale * Ut v) Vt``.  The damped scale ``s / (s^2 + lam)`` is
    ``1 / (s + lam * inv_s)``, which squares nothing, so no singular value
    over- or underflows out of its direction.  ``_scale_rows`` computes every
    scale row and ``_apply`` every product, each behind one screen on Python
    floats.  ``damped_apply_batch`` keeps its sweep's dampings and rows, and
    ``damped_apply``, one damping per row of a block, reuses them when its
    dampings are the sweep's, as a step's are; any others get their rows
    from ``_scale_rows``.  Once
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

    __slots__ = ("J", "U", "s", "Vt", "Ut", "inv_s", "_v_shape", "_edges", "_swept")

    def __init__(self, J):
        J = np.asarray(J, dtype=float)
        if J.ndim != 2 or J.size == 0:
            raise ValueError(f"expected a nonempty 2-D matrix, got shape {J.shape}")
        magnitudes = np.abs(J)
        # np.maximum.reduce skips ndarray.max's Python wrapper.
        top = float(np.maximum.reduce(magnitudes, axis=None))
        if not top < math.inf:
            as_finite(J, J.shape, "jacobian")
        self.J = J
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
        # The last sweep's dampings, as a list, and their scale rows.
        self._swept = (None, None)

    def _scale_rows(self, lams):
        """``(lam_list, rows)``: the dampings ``lams`` as a list, and their
        rows ``1 / (s + lam * inv_s)``.

        ValueError unless ``_dampings`` takes ``lams``.  The rows are
        the plain formula when a screen on Python floats passes: every
        damping positive, and ``max(lams) / s_min`` and ``s_max`` below the
        range bound ``_BOUND``.  Then no ``lam / s`` nor ``s + lam / s``
        overflows, as neither term reaches R, and each scale lies in ``(0, 1
        / s_min]``, so none divides by zero.  Otherwise they are computed in
        an errstate that ignores divide, over and invalid.  At zero damping
        the row is ``1 / s``, cut to 0 below ``RANK_RCOND * s_max`` with a
        warning.
        """
        lams, lam_list, low, high = _dampings(lams)
        s_max, gain = self._edges
        if low > 0.0 and high * gain < _BOUND and s_max < _BOUND:
            return lam_list, np.reciprocal(self.s + lams[:, None] * self.inv_s)
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
        return lam_list, scale

    def _apply(self, scale: np.ndarray, v) -> np.ndarray:
        """``(scale * Ut v) Vt`` for the rows of ``_scale_rows``.

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

    def damped_apply(self, lams, vs) -> np.ndarray:
        """Rows ``(J^T J + lams[i] I)^{-1} J^T vs[i]``, via ``1 / (s + lam / s)``.

        One damping per row of the block ``vs``, of shape ``(n, m)``.  At
        ``lam == 0`` this is the Gauss-Newton pseudo-inverse; singular
        values below ``RANK_RCOND * s_max`` are then dropped (minimum-norm
        solution) and a RuntimeWarning flags the rank deficiency.  Dampings
        equal to the last sweep's, as a step's are, reuse its scale rows,
        so they neither compute nor warn again.  Row ``i`` has the bits of
        its own product ``(scale * Ut.dot(vs[i])).dot(Vt)``: both products
        are stacked ``np.matmul`` calls, each of whose items is that row's
        own product, which a flat product over the block is not.  The screen
        is one reduction, the block's largest magnitude ``top``, which bounds
        each row's norm by ``m top``; past it the products ignore over and
        invalid, and a row beyond float64's range has inf entries, unwarned.
        ValueError unless the dampings pass ``damped_apply_batch``'s rule
        and ``vs`` is finite with one row per damping.
        """
        old, rows = self._swept
        if type(lams) is not np.ndarray or lams.dtype != float or lams.tolist() != old:
            old, rows = self._scale_rows(lams)
        vs = as_shape(vs, (len(old),) + self._v_shape, "v")
        top = float(np.maximum.reduce(np.abs(vs), axis=None))
        if not top < math.inf:
            as_finite(vs, vs.shape, "v")
        U, Vt = self.U, self.Vt
        if top * vs.shape[1] * (self._edges[1] + 1.0) < _BOUND:
            return np.matmul(np.matmul(vs[:, None], U) * rows[:, None], Vt)[:, 0]
        with np.errstate(over="ignore", invalid="ignore"):
            return np.matmul(np.matmul(vs[:, None], U) * rows[:, None], Vt)[:, 0]

    def damped_apply_batch(self, lams, v) -> np.ndarray:
        """Rows ``(J^T J + lam I)^{-1} J^T v`` for a whole damping sweep.

        Row ``i`` matches ``damped_apply`` at ``lams[i]`` on ``v`` to
        rounding, zero dampings included; a row that overflows is
        non-finite, unwarned.  The sweep's rows are kept for
        ``damped_apply`` until the next sweep.  A ``lams`` that is empty or
        not 1-D, a damping that is negative, not finite or a bool, and a
        ``v`` that is not finite or not of shape ``(m,)``, raise ValueError.
        """
        self._swept = self._scale_rows(lams)
        return self._apply(self._swept[1], v)
