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
exactly, in rationals, against the order-n identity it implements.  A step's
series share one :class:`StencilBase`: the base point and residual, checked
once, the Jacobian that its :class:`~lmcorrect.linalg.SvdFactors` checked,
and the scratch that each series overwrites.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .linalg import _BOUND, _norm, as_int, as_shape, finite_norm

__all__ = [
    "StencilEvaluationError",
    "CorrectionSeries",
    "StencilBase",
    "stencil_base",
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

# Every stencil quantity stays within a small multiple of linalg's range
# bound _BOUND = R, about 7.0e305.  A series runs its stencil only from x and
# f0 within R and |c1| <= R / (_REACH max(1, s_max)), s_max = |J|_2 the
# largest singular value, which bounds |J a| by s_max |a|.  Every later
# correction passes the wild bound, so no stencil offset a and no summed
# step reaches past _REACH |c1| (order 4's step): each point x + a lies
# within 2R, and each model entry f0 + J a too, up to the SVD's rounding of
# s_max, about 1e-14 relative.  A phase whose residuals all lie within 2R
# then has defects within 4R, and each weighted sum of them, at most 4 R W
# with W = 127/3 the largest absolute weight-row sum here, stays within
# float64's maximum, with a margin of 1.5x that the rounding cannot use up.
_REACH = 1 + (max(PHASES) - 1) * WILD_CORRECTION_FACTOR


def _within(values, bound) -> bool:
    """Whether every value lies in ``[-bound, bound]``.  A comparison chain
    per value: on a stencil phase's few residuals it is cheaper than a numpy
    reduction, and nan fails it in any position."""
    for v in values:
        if not -bound <= v <= bound:
            return False
    return True


# New residual evaluations consumed per correction series, by order.
STENCIL_EVALUATIONS = {1: 0} | {
    order: sum(len(points) for points, _ in phases)
    for order, phases in PHASES.items()
}


def _check_order(order) -> None:
    """Raise ValueError unless ``order`` is an integer key of STENCIL_EVALUATIONS.

    A plain ``int`` key, the common case, passes on a type test and a lookup.
    Anything else goes to ``as_int`` over the keys' range, which turns away
    ``2.0`` and ``True``, although both are keys too.
    """
    if type(order) is not int or order not in STENCIL_EVALUATIONS:
        as_int(order, "order", min(STENCIL_EVALUATIONS), max(STENCIL_EVALUATIONS))


class StencilEvaluationError(RuntimeError):
    """Residual evaluation failed at a stencil offset: the evaluator raised,
    or returned the wrong shape.

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
    """Per phase: point keys, multipliers, weights, known count, defect rows.

    The k-th phase (from 1) combines only c1 .. ck, so its multiplier array
    keeps the first k columns.
    """
    compiled, first = [], 0
    for known, (points, weights) in enumerate(phases, start=1):
        mult = np.array(points, dtype=float)
        compiled.append((points, np.ascontiguousarray(mult[:, :known]),
                         np.array(weights, dtype=float), known, first,
                         first + len(points)))
        first += len(points)
    return tuple(compiled)


_COMPILED = {order: _compile_phases(phases) for order, phases in PHASES.items()}


class StencilBase(NamedTuple):
    """What one step's series share, from :func:`stencil_base`.  ``x_limit``
    bounds ``|c1|`` so that every stencil point ``x + a`` and linear model
    ``f0 + J a`` stays within ``2 _BOUND``: ``_BOUND / (_REACH max(1,
    s_max))``, 0 once that product overflows (``s_max`` past about 6e304),
    or -inf when an entry of ``x`` or ``f0`` lies beyond ``_BOUND``, so that
    not even a zero ``c1``, whose model is ``f0``, runs its stencil.  Every
    series on the base overwrites ``directions`` and ``defects``, via
    ``phases``' per-order views, so a thread builds its own."""

    x: np.ndarray
    x_row: np.ndarray
    f0_row: np.ndarray
    Jt: np.ndarray
    m: int
    evaluator: object
    x_limit: float
    directions: np.ndarray
    defects: np.ndarray
    phases: dict


def stencil_base(x, f0, factors, evaluator) -> StencilBase:
    """The base of a step's series on the Jacobian ``factors.J``, of shape
    ``(m, p)``, which :class:`~lmcorrect.linalg.SvdFactors` checked and
    bounds by ``s_max``; ValueError unless ``x`` and ``f0`` have shapes
    ``(p,)`` and ``(m,)``.  ``f0`` is read after evaluator calls, so it must
    not be an array the evaluator reuses."""
    m, p = factors.J.shape
    x, f0 = as_shape(x, (p,), "x"), as_shape(f0, (m,), "f0")
    in_range = _within(x.tolist() + f0.tolist(), _BOUND)
    x_limit = (_BOUND / (_REACH * max(1.0, float(factors.s[0]))) if in_range
               else -math.inf)
    return StencilBase(x, x[None], f0[None], factors.J.T, m, evaluator, x_limit,
                       np.empty((max(PHASES) - 1, p)),
                       np.empty((STENCIL_EVALUATIONS[max(PHASES)], m)), {})


def correction_series(base: StencilBase, inverse_apply, c1, *,
                      order: int) -> CorrectionSeries:
    """Compute the correction series of the first-order step ``c1`` from ``base``.

    ``c1`` is finite, with the shape of ``base.x``; ``inverse_apply``, ``v ->
    Jinv v``, serves every inverse occurrence in the series (the applier that
    produced ``c1``), and ``order``, a keyword, is in {1, 2, 3, 4}.  Each phase
    forms its offsets, their linear model ``f0 + J a`` and its weighted defect
    as one array product each; only ``base.evaluator`` is called point by
    point.  A ``c1`` longer than ``base.x_limit`` truncates the series before
    any evaluation.  A phase residual that is non-finite or beyond ``2
    _BOUND``, or a correction whose norm exceeds ``WILD_CORRECTION_FACTOR *
    |c1|`` (or is non-finite), truncates the series at the previous order,
    skips the remaining phases and sets the ``truncated`` flag.  An evaluator
    call that raises, or returns a residual of the wrong shape or one that
    is not numeric, raises StencilEvaluationError, chained from that error;
    a bad order, or a non-finite or misshaped ``c1`` raise ValueError before
    any evaluation, and an ``inverse_apply`` result whose shape is not
    ``c1``'s raises ValueError when it is returned.  No returned array shares
    memory with ``base``.
    """
    _check_order(order)
    c1, c1_norm = finite_norm(c1, base.x.shape, "c1")
    if order == 1:
        return CorrectionSeries((c1,), 0)
    if not c1_norm <= base.x_limit:
        return CorrectionSeries((c1,), 0, True)
    _, x_row, f0_row, Jt, m, evaluator, _, directions, defects, phases = base
    views = phases.get(order)
    if views is None:  # the base's first series of this order
        views = phases[order] = tuple(
            (keys, mult, weights, directions[:known], defects[first:end],
             defects[first:end].ravel(), defects[:end])
            for keys, mult, weights, known, first, end in _COMPILED[order])
    found = [c1]  # the series so far: cheaper to tuple than directions' rows
    wild_bound = WILD_CORRECTION_FACTOR * c1_norm
    evaluations = 0
    # x and f0 enter as rows, so a one-point phase (order 2's only one) adds
    # operands of one shape and skips numpy's broadcasting iterator; each
    # element sees the same IEEE operations as with the vectors.  ndarray.dot,
    # not @: on 2-3 elements the matmul gufunc costs twice a .dot, same bits.
    for row, (keys, mult, weights, known, block, flat, so_far) in enumerate(views):
        directions[row] = found[-1]  # the last phase's correction needs no row
        offsets = mult.dot(known)
        points = x_row + offsets
        for key, point in zip(keys, points):
            evaluations += 1
            try:
                defects[evaluations - 1] = as_shape(evaluator(point), (m,), "residual")
            except Exception as exc:
                raise StencilEvaluationError(key, point, exc, evaluations) from exc
        # Only residuals within 2 _BOUND (never nan or inf) become defects,
        # so the weighted sum stays finite for the inverse, which rejects
        # non-finite input.  A nan correction norm fails the wild bound.
        if not _within(flat.tolist(), 2 * _BOUND):
            return CorrectionSeries(tuple(found), evaluations, True)
        model = offsets.dot(Jt)  # within 2 _BOUND, by base.x_limit
        model += f0_row
        block -= model
        c = inverse_apply(weights.dot(so_far))
        if c.shape != c1.shape:  # one would broadcast into the step unseen
            raise ValueError(f"correction has shape {c.shape}, expected {c1.shape}")
        if not _norm(c) <= wild_bound:
            return CorrectionSeries(tuple(found), evaluations, True)
        found.append(c)
    return CorrectionSeries(tuple(found), evaluations)
