"""Finite-difference corrections c2, c3, c4 to a first-order step c1.

A first-order step ``c1`` (Newton, Gauss-Newton or damped) follows the
tangent of the curved pathway along which all residual components shrink
proportionally.  The corrections computed here are the higher Taylor terms of
that pathway, estimated purely from residual evaluations at a small stencil
of offsets around the base point:

* order 2: one extra evaluation at ``x + c1``,
* order 3: four evaluations in two phases (c2 first, then the mixed term),
* order 4: eight evaluations in three phases.

Each order's stencil is a constant table, :data:`PHASES`.  A phase lists the
points it adds, as multipliers of (c1, c2, c3), and one weight row over the
nonlinear defects ``f_nl(x + a) = f(x + a) - (f + J a)`` at every point so
far, so that ``c_n = Jinv(w . f_nl)``.  Coincident points are listed once
per order, so no point is evaluated twice.  The tests check every row
exactly, in rationals, against the order-n identity it implements.
"""

from __future__ import annotations

import math
from numbers import Integral
from typing import NamedTuple

import numpy as np

from .linalg import _norm, as_residual

__all__ = [
    "StencilEvaluationError",
    "CorrectionSeries",
    "correction_series",
    "PHASES",
    "STENCIL_EVALUATIONS",
    "WILD_CORRECTION_FACTOR",
]

# Corrections larger than this multiple of |c1| indicate the stencil has
# extrapolated into garbage (near-singular J); the series is truncated there.
WILD_CORRECTION_FACTOR = 1e3

# Per order, one ``(points, weights)`` entry per correction c2, c3, ...:
# ``points`` are the stencil points the phase adds, as multipliers of
# (c1, c2, c3), in evaluation order, and the k-th phase (from 1) uses only
# c1 .. ck, the directions known by then; ``weights`` spans the defects at
# every point of this and earlier phases.  Each row folds the pure
# c1-direction differences and the mixed differences of the order-n identity
# into one combination equal to -1/n! times its ``rest`` terms
# (faadibruno.correction_identity_terms) on every derivative monomial up to
# the table's order.
PHASES = {
    2: (
        (((1, 0, 0),), (-1,)),
    ),
    3: (
        (((0.5, 0, 0), (1, 0, 0)), (-8, 1)),
        (((0, 1, 0), (1, 1, 0)), (8, -1, 1, -1)),
    ),
    4: (
        (((0.5, 0, 0), (1, 0, 0), (1.5, 0, 0)), (-12, 3, -4 / 9)),
        (((0, 1, 0), (0.5, 1, 0), (1, 1, 0)), (24, -9, 4 / 3, 3, -4, 1)),
        (((0, 0, 1), (1, 0, 1)), (-12, 7, -8 / 9, -3, 4, -2, 1, -1)),
    ),
}

# Defects up to this size keep every ``weights @ defects`` finite: float64's
# maximum over the largest absolute weight-row sum in PHASES (about 4.2e306).
_DEFECT_LIMIT = float(np.finfo(float).max) / max(
    sum(map(abs, weights)) for phases in PHASES.values() for _, weights in phases)


def _within_defect_limit(values) -> bool:
    """Whether every value lies in ``[-_DEFECT_LIMIT, _DEFECT_LIMIT]``.

    A comparison chain per value: on a stencil phase's 2-6 defects it costs
    a third of ``np.abs(block).max()``, and nan fails it in any position.
    """
    for d in values:
        if not -_DEFECT_LIMIT <= d <= _DEFECT_LIMIT:
            return False
    return True


# New residual evaluations consumed per correction series, by order.
STENCIL_EVALUATIONS = {1: 0} | {
    order: sum(len(points) for points, _ in phases)
    for order, phases in PHASES.items()
}


def _check_order(order) -> None:
    """Raise ValueError unless ``order`` is an integer key of STENCIL_EVALUATIONS.

    ``2.0 in STENCIL_EVALUATIONS`` and ``True in STENCIL_EVALUATIONS`` hold, so
    floats and bools are turned away by type first.  A plain ``int`` key, the
    common case, returns before the slow ``Integral`` check.
    """
    if type(order) is int and order in STENCIL_EVALUATIONS:
        return
    if (isinstance(order, bool) or not isinstance(order, Integral)
            or order not in STENCIL_EVALUATIONS):
        orders = ", ".join(map(str, STENCIL_EVALUATIONS))
        raise ValueError(f"order must be an integer in {{{orders}}}, got {order!r}")


class StencilEvaluationError(RuntimeError):
    """Residual evaluation failed at a stencil offset.

    Attributes
    ----------
    offset_key : tuple of float
        Multipliers of (c1, c2, c3) identifying the stencil point.
    point : ndarray
        The input-space point at which evaluation failed.
    evaluations : int
        Evaluator calls the series made, the failing one included.
    """

    def __init__(self, offset_key, point, cause, evaluations):
        self.offset_key = offset_key
        self.point = point
        self.evaluations = evaluations
        super().__init__(
            f"residual evaluation failed at stencil offset {offset_key}: {cause}"
        )


class CorrectionSeries(NamedTuple):
    """Corrections ``[c1, c2, ...]`` for one candidate step.

    The corrected step is the sum of the corrections.  ``truncated`` is set
    when a wild intermediate correction stopped the series short of the
    requested order (see WILD_CORRECTION_FACTOR).  Immutable, and a named
    tuple because one is built per candidate: half a frozen dataclass's cost.
    """

    corrections: tuple[np.ndarray, ...]
    evaluation_count: int
    truncated: bool = False

    @property
    def step(self) -> np.ndarray:
        """A new array ``c1 + c2 + ...``, summed left to right."""
        cs = self.corrections
        if len(cs) == 1:
            return cs[0].copy()
        total = cs[0] + cs[1]
        for c in cs[2:]:
            total += c
        return total

    def norms(self) -> list[float]:
        return [_norm(c) for c in self.corrections]


def _compile_phases(phases):
    """Per phase: the point keys, their multipliers and the weight row.

    The k-th phase (from 1) combines only c1 .. ck, so its multiplier array
    keeps the first k columns.
    """
    compiled = []
    for known, (points, weights) in enumerate(phases, start=1):
        mult = np.array(points, dtype=float)
        compiled.append((points, np.ascontiguousarray(mult[:, :known]),
                         np.array(weights, dtype=float)))
    return tuple(compiled)


_COMPILED = {order: _compile_phases(phases) for order, phases in PHASES.items()}


def correction_series(x, f0, J, inverse_apply, evaluator, c1,
                      order: int) -> CorrectionSeries:
    """Compute the correction series for one candidate step.

    Parameters
    ----------
    x, f0, J :
        Base point, residual and Jacobian at the base point.
    inverse_apply : callable
        ``v -> Jinv v`` used for every inverse occurrence in this series
        (the same applier that produced the step direction).
    evaluator : callable
        Residual evaluator; called once at each stencil point of
        ``PHASES[order]``.
    c1 : array
        First-order step: finite, with the shape of ``x``.
    order : int
        Correction order in {1, 2, 3, 4}.

    Each phase forms its offsets, their linear model ``f0 + J a`` and its
    weighted defect as one array product each; only the evaluator is called
    point by point.  A stencil defect that is non-finite or too large for
    the weighted sum (see ``_DEFECT_LIMIT``), or a correction whose norm
    exceeds ``WILD_CORRECTION_FACTOR * |c1|`` (or is non-finite),
    truncates the series at the previous order, skips the remaining phases
    and sets the ``truncated`` flag.  A failing evaluator call raises
    StencilEvaluationError; a residual of the wrong shape, a bad order, a
    non-finite or misshaped ``c1``, or an ``f0`` and ``J`` whose shapes are
    not ``(m,)`` and ``(m, len(x))`` raise ValueError before any evaluation.
    """
    _check_order(order)
    x = np.asarray(x, dtype=float)
    c1 = np.asarray(c1, dtype=float)
    if c1.ndim != 1 or c1.shape != x.shape:
        raise ValueError(f"c1 has shape {c1.shape}, expected {x.shape}")
    # math.hypot cannot overflow, so no norm here warns, however large; it is
    # non-finite for a non-finite c1, or for a finite one beyond float64.
    c1_norm = math.hypot(*c1.tolist())
    if not c1_norm < math.inf and not np.isfinite(c1).all():
        raise ValueError("c1 must be finite")
    f0 = np.asarray(f0, dtype=float)
    J = np.asarray(J, dtype=float)
    # Tuple comparisons only: this runs once per live candidate.
    if len(f0.shape) != 1 or J.shape != f0.shape + x.shape:
        raise ValueError(f"f0 has shape {f0.shape} and J has shape {J.shape}, "
                         f"expected (m,) and (m, {len(x)})")
    if order == 1:
        return CorrectionSeries((c1,), 0)
    Jt = J.T
    m = f0.shape[0]
    directions = np.empty((order, c1.shape[0]))
    directions[0] = c1
    found = [c1]  # the series so far: cheaper to tuple than directions' rows
    wild_bound = WILD_CORRECTION_FACTOR * c1_norm
    defects = np.empty((STENCIL_EVALUATIONS[order], m))
    evaluations = 0
    # x and f0 enter the phases as rows, so a one-point phase (order 2's only
    # one) adds operands of one shape and skips numpy's broadcasting
    # iterator, which costs about as much as the add.  Each element sees the
    # same IEEE operations, in the same order, as with the vectors.
    x_row, f0_row = x[None], f0[None]
    # The products below are ndarray.dot, not the @ operator: on operands of
    # 2-3 elements the matmul gufunc's dispatch costs about twice the whole
    # .dot call, and both give the same bits here.
    for known, (keys, mult, weights) in enumerate(_COMPILED[order], start=1):
        offsets = mult.dot(directions[:known])
        points = x_row + offsets
        first = evaluations
        for key, point in zip(keys, points):
            evaluations += 1
            try:
                value = evaluator(point)
            except Exception as exc:
                raise StencilEvaluationError(key, point, exc, evaluations) from exc
            defects[evaluations - 1] = as_residual(value, m)
        block = defects[first:evaluations]
        model = offsets.dot(Jt)
        model += f0_row
        block -= model
        # Only defects within _DEFECT_LIMIT (never nan or inf: nan fails
        # every comparison) reach the weighted sum, so it stays finite for
        # the inverse, which rejects non-finite input.  A nan correction
        # norm fails the bound test.
        if not _within_defect_limit(block.ravel().tolist()):
            return CorrectionSeries(tuple(found), evaluations, True)
        c = inverse_apply(weights.dot(defects[:evaluations]))
        if not math.hypot(*c.tolist()) <= wild_bound:
            return CorrectionSeries(tuple(found), evaluations, True)
        directions[known] = c
        found.append(c)
    return CorrectionSeries(tuple(found), evaluations)
