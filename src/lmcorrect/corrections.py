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
series share one :class:`StencilBase`: the base point, residual and Jacobian,
checked once, and the scratch that each series overwrites.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .linalg import _norm, as_finite, as_int, as_shape

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

_FLOAT_MAX = float(np.finfo(float).max)

# Defects up to this size keep every ``weights @ defects`` finite: float64's
# maximum over the largest absolute weight-row sum in PHASES (about 4.2e306).
_DEFECT_LIMIT = _FLOAT_MAX / max(
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


# A series runs its stencil only from |c1| <= _STEP_LIMIT (1 - max|x_i| /
# float64's maximum).  Every later correction passes the wild bound first,
# so no stencil offset and no summed step is longer than (1 + 3
# WILD_CORRECTION_FACTOR) |c1| (order 4's step): each, x plus each, and the
# wild bound stay within float64's range.  Below _ANY_X_STEP_LIMIT every
# offset is under half an ulp of that maximum, so x needs no look.
_STEP_LIMIT = _FLOAT_MAX / (1 + (max(PHASES) - 1) * WILD_CORRECTION_FACTOR)
_ANY_X_STEP_LIMIT = _STEP_LIMIT / 2.0**60


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
    """What one step's series share, from :func:`stencil_base`.  ``x_limit``,
    ``_STEP_LIMIT * (1 - max|x_i| / float64's maximum)``, bounds ``|c1|``.
    Every series on the base overwrites ``directions`` and ``defects``, via
    the views ``phases`` keeps per order, so a thread builds its own base."""

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


def stencil_base(x, f0, J, evaluator) -> StencilBase:
    """The base of a step's series; ValueError unless ``x`` is 1-D, and ``f0``
    and ``J`` have shapes ``(m,)`` and ``(m, len(x))``.  ``f0`` is read after
    evaluator calls, so it must not be an array the evaluator reuses."""
    x, f0, J = (np.asarray(a, dtype=float) for a in (x, f0, J))
    if x.ndim != 1:
        raise ValueError(f"x has shape {x.shape}, expected (p,)")
    if len(f0.shape) != 1 or J.shape != f0.shape + x.shape:
        raise ValueError(f"f0 has shape {f0.shape} and J has shape {J.shape}, "
                         f"expected (m,) and (m, {len(x)})")
    x_limit = _STEP_LIMIT * (1 - max(map(abs, x.tolist()), default=0.0) / _FLOAT_MAX)
    return StencilBase(x, x[None], f0[None], J.T, len(f0), evaluator, x_limit,
                       np.empty((max(PHASES) - 1, len(x))),
                       np.empty((STENCIL_EVALUATIONS[max(PHASES)], len(f0))), {})


def correction_series(base: StencilBase, inverse_apply, c1, *,
                      order: int) -> CorrectionSeries:
    """Compute the correction series of the first-order step ``c1`` from ``base``.

    ``c1`` is finite, with the shape of ``base.x``; ``inverse_apply``, ``v ->
    Jinv v``, serves every inverse occurrence in the series (the applier that
    produced ``c1``), and ``order``, a keyword, is in {1, 2, 3, 4}.  Each phase
    forms its offsets, their linear model ``f0 + J a`` and its weighted defect
    as one array product each; only ``base.evaluator`` is called point by
    point.  A ``c1`` longer than ``base.x_limit`` truncates the series before
    any evaluation.  A stencil defect that is non-finite or too large for the
    weighted sum (see ``_DEFECT_LIMIT``), or a correction whose norm exceeds
    ``WILD_CORRECTION_FACTOR * |c1|`` (or is non-finite), truncates the series
    at the previous order, skips the remaining phases and sets the
    ``truncated`` flag.  A failing evaluator call raises
    StencilEvaluationError; a residual of the wrong shape, a bad order, or a
    non-finite or misshaped ``c1`` raise ValueError before any evaluation.
    No returned array shares memory with ``base``.
    """
    _check_order(order)
    c1 = np.asarray(c1, dtype=float)
    if c1.shape != base.x.shape:
        raise ValueError(f"c1 has shape {c1.shape}, expected {base.x.shape}")
    # math.hypot cannot overflow, so no norm here warns, however large; it is
    # non-finite for a non-finite c1, or for a finite one beyond float64.
    c1_norm = math.hypot(*c1.tolist())
    if not c1_norm < math.inf:
        as_finite(c1, c1.shape, "c1")  # passes a finite c1 whose norm overflows
    if order == 1:
        return CorrectionSeries((c1,), 0)
    if not c1_norm <= _ANY_X_STEP_LIMIT and not c1_norm <= base.x_limit:
        return CorrectionSeries((c1,), 0, True)
    _, x_row, f0_row, Jt, m, evaluator, _, directions, defects, phases = base
    views = phases.get(order)
    if views is None:  # the base's first series of this order
        views = phases[order] = tuple(
            (keys, mult, weights, directions[:known], defects[first:end],
             defects[:end]) for keys, mult, weights, known, first, end
            in _COMPILED[order])
    found = [c1]  # the series so far: cheaper to tuple than directions' rows
    wild_bound = WILD_CORRECTION_FACTOR * c1_norm
    evaluations = 0
    # x and f0 enter as rows, so a one-point phase (order 2's only one) adds
    # operands of one shape and skips numpy's broadcasting iterator; each
    # element sees the same IEEE operations as with the vectors.  ndarray.dot,
    # not @: on 2-3 elements the matmul gufunc costs twice a .dot, same bits.
    for row, (keys, mult, weights, known, block, so_far) in enumerate(views):
        directions[row] = found[-1]  # the last phase's correction needs no row
        offsets = mult.dot(known)
        points = x_row + offsets
        for key, point in zip(keys, points):
            evaluations += 1
            try:
                value = evaluator(point)
            except Exception as exc:
                raise StencilEvaluationError(key, point, exc, evaluations) from exc
            defects[evaluations - 1] = as_shape(value, (m,), "residual")
        model = offsets.dot(Jt)
        model += f0_row
        block -= model
        # Only defects within _DEFECT_LIMIT (never nan or inf: nan fails
        # every comparison) reach the weighted sum, so it stays finite for
        # the inverse, which rejects non-finite input.  A nan correction
        # norm fails the bound test.
        if not _within_defect_limit(block.ravel().tolist()):
            return CorrectionSeries(tuple(found), evaluations, True)
        c = inverse_apply(weights.dot(so_far))
        if not math.hypot(*c.tolist()) <= wild_bound:
            return CorrectionSeries(tuple(found), evaluations, True)
        found.append(c)
    return CorrectionSeries(tuple(found), evaluations)
