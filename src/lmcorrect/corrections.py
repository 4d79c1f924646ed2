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
and the block of first steps and their dampings, one row per series.  The
base's first series of an order runs every row's stencil at once, phase by
phase: each phase forms every row's points and linear models as blocks,
calls the evaluator point by point for the rows still running, and applies
the damped inverse once to all rows' weighted defects.  The base keeps each
row's result, which the row's own series returns, and every row's corrected
endpoint, which ``optimizer.step`` evaluates.
"""

from __future__ import annotations

import math
from itertools import product
from typing import NamedTuple

import numpy as np

from .linalg import _BOUND, _dampings, _norm, as_finite, as_int, as_shape, finite_norm

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
# bound _BOUND = R, about 7.0e305, by one rule: each test compares a norm,
# _norm, and an entry is at most its vector's norm.  A series runs its
# stencil only from |x| and |f0| within R and |c1| <= R / (_REACH max(1,
# s_max)), s_max = |J|_2 the largest singular value, which bounds |J a| by
# s_max |a|.  Every later correction passes the wild bound, so no stencil
# offset a and no summed step reaches past _REACH |c1| (order 4's step):
# |a| <= R / max(1, s_max), so |x + a| <= 2R and |f0 + J a| <= 2R, up to the
# SVD's rounding of s_max, about 1e-14 relative.  A phase whose residual
# block has norm within 2R then has defects within 4R, and each weighted sum
# of them, at most 4 R W with W = 127/3 the largest absolute weight-row sum
# here, stays within float64's maximum, with a margin of 1.5x that the
# rounding cannot use up.
_REACH = 1 + (max(PHASES) - 1) * WILD_CORRECTION_FACTOR


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
    or returned the wrong shape.  The error is chained from that cause.

    Attributes
    ----------
    offset_key : tuple of float
        Multipliers of (c1, c2, c3) identifying the stencil point.
    point : ndarray
        A copy of the input-space point at which evaluation failed.
    evaluations : int
        Evaluator calls the series made, the failing one included.
    """

    def __init__(self, key, point, cause, evaluations):
        self.offset_key, self.point, self.evaluations = key, point, evaluations
        self.__cause__ = cause  # as "raise ... from cause" sets it
        super().__init__(f"residual evaluation failed at stencil offset {key}: {cause}")


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
    compiled, end = [], 0
    for known, (points, weights) in enumerate(phases, start=1):
        end += len(points)
        compiled.append((points, np.array(points, dtype=float)[:, :known].copy(),
                         np.array(weights, dtype=float), known, end - len(points), end))
    return tuple(compiled)


_COMPILED = {order: _compile_phases(phases) for order, phases in PHASES.items()}


class StencilBase(NamedTuple):
    """What one step's series share, from :func:`stencil_base`.  ``x_limit``
    bounds ``|c1|`` so that every stencil point ``x + a`` and linear model
    ``f0 + J a`` has norm within ``2 _BOUND``: ``_BOUND / (_REACH max(1,
    s_max))``, 0 once that product overflows (``s_max`` past about 6e304),
    or -inf when ``|x|`` or ``|f0|`` lies beyond ``_BOUND``, so that not
    even a zero ``c1``, whose model is ``f0``, runs its stencil.  ``c1s``
    is the caller's block of first steps, ``c1_norms`` their row norms,
    ``lams`` each row's damping and ``apply`` its factors' ``damped_apply``.
    :func:`stencil_base` checks that ``c1s`` is finite; ``_stencil_base``
    leaves that to its caller, ``optimizer.step``, whose sweep may hold a
    nan or inf row, or one whose ``x + c1`` overflows: every such row lies
    past ``x_limit``.  ``series`` holds, per order, every row's result and
    the block of every row's endpoint, ``x`` plus the row's kept
    corrections, with the bits of ``x + CorrectionSeries.step``; the
    order's first series computes both."""

    x: np.ndarray
    f0: np.ndarray
    Jt: np.ndarray
    evaluator: object
    apply: object
    lams: np.ndarray
    x_limit: float
    c1s: np.ndarray
    c1_norms: list
    series: dict


def stencil_base(x, f0, factors, evaluator, c1s, lams) -> StencilBase:
    """The base of the series of the first steps ``c1s``, shape ``(n, p)``,
    each the damped step at its damping in ``lams``, shape ``(n,)``, on the
    Jacobian ``factors.J``, of shape ``(m, p)``, which
    :class:`~lmcorrect.linalg.SvdFactors` checked and bounds by ``s_max``.
    ValueError unless ``x`` and ``f0`` are finite with shapes ``(p,)`` and
    ``(m,)``, ``c1s`` is finite with p columns, one step being
    ``c1[None]``, and ``lams`` holds one damping per row, each a
    non-negative finite real.  ``_stencil_base`` checks the shapes of
    ``c1s`` and ``lams``, and this function the rest, the finiteness of
    ``c1s`` last, from the base's row norms; all before any evaluation.
    The base keeps ``c1s``, not a copy, so it must not change while the
    base is in use.  ``f0`` is read after evaluator calls, so it must not be
    an array the evaluator reuses."""
    m, p = factors.J.shape
    (x, x_norm), (f0, f0_norm) = finite_norm(x, (p,), "x"), finite_norm(f0, (m,), "f0")
    base = _stencil_base(x, f0, x_norm, f0_norm, factors, evaluator, c1s,
                         _dampings(lams)[0])
    if not sum(base.c1_norms) < math.inf:  # any row's nan or inf, not just row 0's
        as_finite(base.c1s, base.c1s.shape, "c1")
    return base


def _stencil_base(x, f0, x_norm, f0_norm, factors, evaluator, c1s,
                  lams) -> StencilBase:
    """:func:`stencil_base` on an ``x``, ``f0`` and float64 ``lams`` that
    passed its checks, with the norms of ``x`` and ``f0``; it checks the
    shape of ``c1s`` and that ``lams`` has one damping per row, but not that
    ``c1s`` is finite.  A row whose ``c1`` is nan or inf, or whose ``x +
    c1`` overflows, lies past ``x_limit``, so its series is its ``c1``,
    truncated, with no evaluator call: ``optimizer.step`` hands in its whole
    sweep and asks only for its live rows."""
    p = factors.J.shape[1]
    c1s = np.asarray(c1s, dtype=float)
    if c1s.ndim != 2 or c1s.shape[1] != p:
        raise ValueError(f"c1 has shape {c1s.shape}, expected (n, {p})")
    lams = as_shape(lams, c1s.shape[:1], "lams")
    c1_norms = list(map(_norm, c1s))
    x_limit = (_BOUND / (_REACH * max(1.0, float(factors.s[0])))
               if max(x_norm, f0_norm) <= _BOUND else -math.inf)
    return StencilBase(x, f0, factors.J.T, evaluator, factors.damped_apply, lams,
                       x_limit, c1s, c1_norms, {})


def _keep(directions, k, block, results) -> None:
    """Write ``block`` as every row's direction ``k``, then -0.0 into the
    rows that have stopped, when any has."""
    directions[:, k] = block
    if results.count(None) < len(results):
        directions[[row for row, r in enumerate(results) if r is not None], k] = -0.0


def _series_block(base: StencilBase, order: int) -> tuple:
    """Every row's series at ``order``, its CorrectionSeries or the
    StencilEvaluationError of its failed evaluator call, and the block of
    every row's corrected endpoint.

    The rows within ``x_limit`` run; the others are their ``c1``,
    truncated, and their directions stay -0.0, so that no stencil product
    overflows.  Each phase forms the offsets, points and linear models of
    every row as stacked ``np.matmul`` products, whose items keep each
    row's own ``.dot`` bits (a flat product does not, ``Jt`` being a
    transposed view), and calls the evaluator point by point for the rows
    still running, row by row, in one flat walk over the phase's points.
    One reduction over the phase's residual block, its largest magnitude,
    passes the whole phase when it is within the 2R bound over a row's
    entry count; otherwise, and for the wild bound always, one reduction
    per row passes the rows that it can, and ``_norm`` decides only the
    others, so every decision is the norm's.  A row that stops has its
    defects zeroed, and no later direction of it is kept, so none of its
    nan or inf reaches a later phase.  The weighted defects of all rows go
    through ``apply`` at once, one damping per row.

    A row's endpoint is ``x`` plus its kept corrections, summed left to
    right as ``CorrectionSeries.step`` sums them: each slot a row did not
    keep holds -0.0, the exact additive identity, so the sum keeps the
    bits of the row's own series, a -0.0 entry included (a reduction,
    which starts from +0.0, would not).  A row past ``x_limit`` has no
    endpoint here, its ``c1`` being -0.0 in the block, so
    ``optimizer.step`` forms every one-term row's endpoint from its ``c1``.
    """
    x, f0, Jt, evaluator, apply, lams, x_limit, c1s, c1_norms, _ = base
    (n, p), m, compiled = c1s.shape, len(f0), _COMPILED[order]
    results = [None if norm <= x_limit else CorrectionSeries((c1,), 0, True)
               for c1, norm in zip(c1s, c1_norms)]
    # The rows past x_limit get no bound: theirs may lie beyond float64's range.
    wild = WILD_CORRECTION_FACTOR * np.where(np.array(c1_norms) <= x_limit, c1_norms, 0)
    directions = np.full((n, len(compiled) + 1, p), -0.0)  # c1, c2, ... of every row
    _keep(directions, 0, c1s, results)
    defects = np.zeros((n, STENCIL_EVALUATIONS[order], m))
    found = [c1s]  # per correction so far, every row's
    for k, (keys, mult, weights, known, first, end) in enumerate(compiled):
        offsets = np.matmul(mult, directions[:, :known])  # (n, points, p)
        points = x + offsets
        models = np.matmul(offsets, Jt) + f0  # within 2 _BOUND, by x_limit
        block = defects[:, first:end]
        # Row by row, point by point, as one flat walk.
        for (row, i), point in zip(product(range(n), range(end - first)),
                                   points.reshape(-1, p)):
            if results[row] is not None:  # stopped, also at an earlier point here
                continue
            try:
                f = np.asarray(evaluator(point), dtype=float)
                if f.shape != (m,):
                    as_shape(f, (m,), "residual")
                block[row, i] = f
            except Exception as exc:
                results[row] = StencilEvaluationError(keys[i], point.copy(), exc,
                                                      first + i + 1)
                defects[row] = 0.0
        # Only a residual block whose norm is within 2 _BOUND (never nan or
        # inf) becomes defects, so the weighted sums stay finite for the
        # inverse, which rejects non-finite input.
        limit = 2 * _BOUND / block[0].size
        if not np.maximum.reduce(np.abs(block), axis=None) <= limit:
            tops = np.maximum.reduce(np.abs(block), axis=(1, 2))
            for row in np.flatnonzero(~(tops <= limit)):
                if results[row] is None and not _norm(block[row].ravel()) <= 2 * _BOUND:
                    results[row] = CorrectionSeries(tuple(c[row] for c in found), end, True)
                    defects[row] = 0.0
        block -= models
        if None not in results:
            break
        corrections = apply(lams, np.matmul(weights, defects[:, :end]))
        # A nan correction norm fails the wild bound.
        tops = np.maximum.reduce(np.abs(corrections), axis=1)
        for row in np.flatnonzero(~(tops <= wild / p)):
            if results[row] is None and not _norm(corrections[row]) <= wild[row]:
                results[row] = CorrectionSeries(tuple(c[row] for c in found), end, True)
        found.append(corrections)
        _keep(directions, k + 1, corrections, results)
    for row, corrections in zip(range(n), zip(*found)):  # every phase ran
        if results[row] is None:
            results[row] = CorrectionSeries(corrections, end)
    steps = directions[:, 0] + directions[:, 1]
    for k in range(2, len(compiled) + 1):
        steps += directions[:, k]
    return results, x + steps


def correction_series(base: StencilBase, row, *, order: int) -> CorrectionSeries:
    """Compute the correction series of the first step ``c1 = base.c1s[row]``.

    ``row`` is an integer row of the base's block, and ``order``, a
    keyword, is in {1, 2, 3, 4}.  The base's first series of an order runs
    every row's stencil, phase by phase, as blocks, and forms every row's
    endpoint, which ``optimizer.step`` reads (see ``_series_block``); each
    later one returns its row's stored result, or raises its stored error.
    Every inverse occurrence is the base's ``apply`` at the row's
    damping, the inverse that produced ``c1``, and only ``base.evaluator``
    is called point by point.  A ``c1`` longer than ``base.x_limit``, or
    of nan norm, truncates the series before any evaluation.  A phase whose
    residual block is non-finite or has a norm beyond ``2 _BOUND``, or a
    correction whose norm exceeds ``WILD_CORRECTION_FACTOR * |c1|`` (or is
    non-finite), truncates the series at the previous order, skips the
    remaining phases and sets the ``truncated`` flag.  An evaluator call
    that raises, or returns a residual of the wrong shape or one that is
    not numeric, raises StencilEvaluationError, chained from that error;
    a bad order or row raises ValueError before any evaluation.  The first
    returned array, ``c1``, is a row of the caller's block.
    """
    _check_order(order)
    if type(row) is not int or not 0 <= row < len(base.c1_norms):
        as_int(row, "row", 0, len(base.c1_norms) - 1)
    if order == 1:
        return CorrectionSeries((base.c1s[row],), 0)
    if order not in base.series:  # the base's first series of this order
        base.series[order] = _series_block(base, order)
    result = base.series[order][0][row]
    if type(result) is StencilEvaluationError:
        raise result
    return result
