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
per order, so no point is evaluated twice.  The pure c1-direction weights
folded into the rows invert a small Taylor system exactly
(:func:`taylor_weight_matrix`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .linalg import as_residual

__all__ = [
    "StencilEvaluationError",
    "CorrectionSeries",
    "correction_series",
    "PHASES",
    "ORDER3_OFFSETS",
    "ORDER3_WEIGHTS",
    "ORDER4_OFFSETS",
    "ORDER4_WEIGHTS",
    "taylor_weight_matrix",
    "STENCIL_EVALUATIONS",
    "WILD_CORRECTION_FACTOR",
]

# Corrections larger than this multiple of |c1| indicate the stencil has
# extrapolated into garbage (near-singular J); the series is truncated there.
WILD_CORRECTION_FACTOR = 1e3

# Per order, one ``(points, weights)`` entry per correction c2, c3, ...:
# ``points`` are the stencil points the phase adds, as multipliers of
# (c1, c2, c3), in evaluation order; ``weights`` spans the defects at every
# point of this and earlier phases.  Each row folds the pure c1-direction
# weights (ORDER3_WEIGHTS, ORDER4_WEIGHTS) and the mixed differences of the
# order-n identity into one combination equal to -1/n! times its ``rest``
# terms (faadibruno.correction_identity_terms) on every derivative monomial
# up to the table's order.
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

# New residual evaluations consumed per correction series, by order.
STENCIL_EVALUATIONS = {1: 0} | {
    order: sum(len(points) for points, _ in phases)
    for order, phases in PHASES.items()
}


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


@dataclass(frozen=True)
class CorrectionSeries:
    """Corrections ``[c1, c2, ...]`` for one candidate step.

    The corrected step is the sum of the corrections.  ``truncated`` is set
    when a wild intermediate correction stopped the series short of the
    requested order (see WILD_CORRECTION_FACTOR).
    """

    corrections: tuple[np.ndarray, ...]
    evaluation_count: int
    truncated: bool = False

    @property
    def step(self) -> np.ndarray:
        total = self.corrections[0].copy()
        for c in self.corrections[1:]:
            total += c
        return total

    def norms(self) -> list[float]:
        # np.linalg.norm's own formula for a real vector, without its dispatch.
        return [math.sqrt(c.dot(c)) for c in self.corrections]


def taylor_weight_matrix(offsets, n_derivatives: int):
    """Rows ``[a^2/2!, a^3/3!, ...]`` of the nonlinear-defect Taylor system.

    Row ``i`` holds the exact coefficients with which the pure derivative
    values ``f^(k+2)[c1 ...]`` enter ``f_nl(x + a_i c1)``, Fraction-exact.
    """
    rows = []
    for a in offsets:
        a = Fraction(a)
        fact = 2
        row = []
        power = a * a
        for k in range(n_derivatives):
            row.append(power / fact)
            power *= a
            fact *= k + 3
        rows.append(row)
    return rows


# Hard-coded defect weights for the pure c1-direction derivatives:
# order 3 samples f_nl at offsets (1/2, 1), order 4 at (1/2, 1, 3/2).  Each
# tuple maps those f_nl values to one derivative f^(k)[c1 x k]: the weights
# times ``taylor_weight_matrix(offsets, ...)`` give the identity, exactly.
ORDER3_OFFSETS = (Fraction(1, 2), Fraction(1))
ORDER3_WEIGHTS = (
    (Fraction(16), Fraction(-2)),      # f^(2)[c1,c1]
    (Fraction(-48), Fraction(12)),     # f^(3)[c1,c1,c1]
)
ORDER4_OFFSETS = (Fraction(1, 2), Fraction(1), Fraction(3, 2))
ORDER4_WEIGHTS = (
    (Fraction(24), Fraction(-6), Fraction(8, 9)),      # f^(2)[c1,c1]
    (Fraction(-120), Fraction(48), Fraction(-8)),      # f^(3)[c1,c1,c1]
    (Fraction(192), Fraction(-96), Fraction(64, 3)),   # f^(4)[c1 x 4]
)


def _compile_phases(phases):
    """Per phase: the point keys, their multipliers and the weight row.

    The k-th phase (from 1) may only combine c1 .. ck, the directions known
    by then, so its multiplier array keeps the first k columns.
    """
    compiled = []
    for known, (points, weights) in enumerate(phases, start=1):
        mult = np.array(points, dtype=float)
        if mult[:, known:].any():
            raise ValueError(f"phase {known} uses a direction not yet known")
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
        First-order step.
    order : int
        Correction order in {1, 2, 3, 4}.

    Each phase forms its offsets, their linear model ``f0 + J a`` and its
    weighted defect as one array product each; only the evaluator is called
    point by point.  A stencil defect that is non-finite or too large for
    the weighted sum (see ``_DEFECT_LIMIT``), or a correction whose norm
    exceeds ``WILD_CORRECTION_FACTOR * |c1|`` (or is non-finite),
    truncates the series at the previous order, skips the remaining phases
    and sets the ``truncated`` flag.  A failing evaluator call raises
    StencilEvaluationError; a residual of the wrong shape raises ValueError.
    """
    if order not in (1, 2, 3, 4):
        raise ValueError(f"correction order must be in {{1, 2, 3, 4}}, got {order}")
    c1 = np.asarray(c1, dtype=float)
    if order == 1:
        return CorrectionSeries((c1,), 0)
    x = np.asarray(x, dtype=float)
    f0 = np.asarray(f0, dtype=float)
    Jt = np.asarray(J, dtype=float).T
    m = f0.shape[0]
    directions = np.empty((order, c1.shape[0]))
    directions[0] = c1
    # np.linalg.norm's own formula for a real vector, without its dispatch.
    wild_bound = WILD_CORRECTION_FACTOR * math.sqrt(c1.dot(c1))
    defects = np.empty((STENCIL_EVALUATIONS[order], m))
    evaluations = 0
    for known, (keys, mult, weights) in enumerate(_COMPILED[order], start=1):
        offsets = mult @ directions[:known]
        points = x + offsets
        first = evaluations
        for key, point in zip(keys, points):
            evaluations += 1
            try:
                value = evaluator(point)
            except Exception as exc:
                raise StencilEvaluationError(key, point, exc, evaluations) from exc
            defects[evaluations - 1] = as_residual(value, m)
        defects[first:evaluations] -= offsets @ Jt + f0
        # Only defects within _DEFECT_LIMIT (never nan or inf) reach the
        # weighted sum, so it stays finite for the inverse, which rejects
        # non-finite input.  A nan correction norm fails the bound test.
        c = (inverse_apply(weights @ defects[:evaluations])
             if np.abs(defects[first:evaluations]).max() <= _DEFECT_LIMIT else None)
        if c is None or not math.sqrt(c.dot(c)) <= wild_bound:
            return CorrectionSeries(tuple(directions[:known]), evaluations, True)
        directions[known] = c
    return CorrectionSeries(tuple(directions), evaluations)
