"""Iteration driver: damped-step candidate sweep with higher-order corrections.

Each iteration evaluates the Jacobian once, factorizes it once, and builds one
candidate step per value of a damping grid centred on the last winning
damping: 21 values, geometric in log, or the one damping ``[0]`` when the
centre is 0, which is Gauss-Newton.  Every candidate gets the configured
order of finite-difference corrections and one residual evaluation at its
corrected endpoint; the endpoint with the smallest residual norm wins.  If
nothing improves, the iteration does not move and the next grid is centred
on the largest damping tried, or on the floor ``2^-52 s_max^2``, ``s_max``
being J's largest singular value, when that is larger: there damping starts
to matter to J's largest direction, so a damping that walked far down
climbs back in one rejection.

The step checks its grid, ``x`` and ``f0`` once, where it reads them, and
hands the grid's list and two ends and ``f0``'s norm to
``SvdFactors.damped_apply_batch``, whose core then skips its own checks.
One product with the factorization gives every first-order direction c1,
and one rule picks the live candidates: a test on Python floats, then an
exact mask when it fails.  The test is the product's own bound ``|f0| (1 /
s_min + 1) < R``, R the range bound ``linalg._BOUND`` (about 7.0e305),
which caps every c1 entry by R; with ``|x|`` at most R too, no ``x + c1``
overflows and every candidate is live.  Otherwise, rarely, a row mask keeps
those whose ``x + c1`` is finite: a candidate whose ``x + c1`` overflows is
skipped without an evaluator call, since at orders 2-4 its series would
truncate before the stencil and leave ``x + c1`` as its endpoint.  One sum
gives every ``x + c1``, at every order, and one loop walks the live
candidates in grid order, with their rows of ``x + c1``: each runs its
series at orders 2-4, then takes its endpoint, its row of ``x + c1`` at
order 1 or when its series is its c1 alone, else its row of the stencil
base's endpoint block, which has the bits of ``x + series.step``.  It
evaluates the endpoint and leads if its residual norm is strictly below
the best so far, so ties go to the smallest grid index and a nan norm never
leads.  A sweep that beats nothing is a rejection, unless no endpoint is
finite and some call failed: only then does the step fail.  A
residual that is an ndarray of shape ``(m,)`` whose dtype is the native
float64 dtype object passes on two identity tests and a shape test; any
other goes through ``as_shape``, which reads it as ``np.asarray(r,
dtype=float)`` does or names its wrong shape, since the winner's residual
becomes the next ``f0``.  Two things stay per point or per candidate:

* the evaluator is called once per point, because ``Problem.evaluator`` maps
  one point to one residual and each call is one counted evaluation, failed
  calls included;
* ``correction_series`` runs once per candidate, on the step's one
  stencil base: perfbench reads each candidate's charged count and
  truncation flag from the span of that candidate's own call.
  ``_stencil_base``, ``stencil_base`` past its checks, takes ``x`` and
  ``f0`` with the norms the step checked, ``J`` and its bound from the
  step's ``SvdFactors``, and the whole sweep's c1s and dampings as blocks,
  so a candidate's row is its grid index.  A row that is not live lies past
  the base's limit and truncates at c1 with no evaluator call, and the step
  never asks for it.  The first live candidate's call runs every phase for
  every row as blocks, calling the evaluator point by point, phase by
  phase, and forms every row's endpoint; the others read their rows'
  results.  So a step's stencil calls all come before its endpoint calls.

Each phase applies its inverse once, through ``SvdFactors.damped_apply`` on
the block of all rows, one damping per row: the inverse that produced each
direction.  The dampings are the sweep's, live or not, so every phase reuses
the scale rows that ``damped_apply_batch`` computed for the sweep.

Every residual and step norm is ``math.hypot`` over the vector's entries,
within 1 ulp: no tiny norm reads 0, and no representable one overflows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .corrections import (StencilEvaluationError, _check_order, _stencil_base,
                          correction_series)
from .linalg import (_BOUND, SvdFactors, _norm, as_finite, as_int, as_positive,
                     as_shape, finite_norm)
from .problems import Problem

__all__ = [
    "GRID_INDICES",
    "GRID_BASE",
    "LambdaSchedule",
    "OptimizerConfig",
    "IterationRecord",
    "RunResult",
    "StepFailureError",
    "step",
    "run",
]

GRID_INDICES = tuple(range(-10, 11))
GRID_BASE = 10000.0

# Consecutive non-improving iterations tolerated before a damped run aborts.
MAX_CONSECUTIVE_REJECTS = 5

_GRID_FACTORS = np.array([GRID_BASE ** ((n / 10.0) ** 3) for n in GRID_INDICES])
_GRID_FACTORS.flags.writeable = False
_FLOAT64 = np.dtype(float)  # native float64, one dtype object
# The range of a non-zero grid centre: its grid then lies in [1/R, R].
_CENTRE_LOW, _CENTRE_HIGH = GRID_BASE / _BOUND, _BOUND / GRID_BASE


class StepFailureError(RuntimeError):
    """The step could not produce a usable candidate.

    A call to the evaluator or the Jacobian fails when it raises, or returns
    an array of the wrong shape or an output that is not numeric.  Raised
    when no candidate endpoint is finite and some evaluator call failed,
    chained from the lowest grid index's failed call, whose message ends
    the error's; a sweep that is merely non-finite, with no failed call, is
    a rejection instead.  Raised too when the Jacobian's call fails, J has
    a non-finite entry or its SVD does not converge, chained from that
    error.  ``evaluations`` counts the evaluator calls the step made,
    failed ones included.  ``causes`` maps the grid index of every
    candidate whose evaluator call failed to that error, in grid order.
    """

    def __init__(self, message, evaluations: int = 0, causes=None):
        super().__init__(message)
        self.evaluations = evaluations
        self.causes = causes or {}


@dataclass
class LambdaSchedule:
    """Damping grid ``lam_n = c * 10000**((n/10)**3)``, n in [-10, 10].

    The centre ``c`` is ``lambda_old`` clamped to ``[10^4 / R, R / 10^4]``,
    R the range bound ``linalg._BOUND`` (about 7.0e305), so every damping of
    a positive sweep lies in ``[1/R, R]`` up to one rounding: repeated
    down-shifts never underflow to 0, nor up-shifts overflow to inf.
    ``grid`` is the one place a damping is clamped.  ``lambda_old`` carries
    between iterations: it becomes the winning damping on acceptance and,
    when no candidate improves, ``max(c * 10^4, 2^-52 s_max^2)``: the
    grid's largest, or the floor at which damping starts to matter to J's
    largest singular value ``s_max``, whichever is larger.  :func:`step`
    forms the floor in Python floats, so it never warns: an inf is clamped
    here, and one that underflows to 0 leaves ``c * 10^4``.  At 0 the grid
    is ``[0]``, and stays so: Gauss-Newton.  A ``lambda_old`` that is not
    non-negative and finite raises ValueError at construction, by the rule
    of ``OptimizerConfig.start_damping``, and ``grid`` checks it again on
    every call, so one set later cannot pass: it takes a Python float on
    one type test and a comparison, and passes a float inf, clamped.  So a
    grid is sorted, and is ``[0]`` or positive and finite.
    """

    lambda_old: float = 1.0

    def __post_init__(self):
        as_positive(self.lambda_old, "lambda_old", zero=True)

    def grid(self) -> np.ndarray:
        # A float costs one type test; an inf passes, to be clamped.
        if type(self.lambda_old) is not float or not self.lambda_old >= 0.0:
            as_positive(self.lambda_old, "lambda_old", zero=True)
        if self.lambda_old == 0.0:
            return np.zeros(1)
        return min(max(self.lambda_old, _CENTRE_LOW), _CENTRE_HIGH) * _GRID_FACTORS


@dataclass(frozen=True)
class OptimizerConfig:
    """Iteration settings.

    order 1 is the plain damped step; orders 2-4 add corrections.  The run
    stops when the residual norm reaches ``convergence_tol``, positive and
    finite, or after ``max_iterations``, an integer >= 1.

    ``start_damping``, non-negative and finite, centres :func:`run`'s first
    damping grid; a positive one outside ``[10^4 / R, R / 10^4]``, R about
    7.0e305, is centred at the nearer end (see :class:`LambdaSchedule`).
    The default 1 is Levenberg-Marquardt's; 0 is Gauss-Newton, whose
    undamped step on a square nonsingular J is Newton's step.
    """

    order: int = 1
    max_iterations: int = 20000
    convergence_tol: float = 1e-9
    start_damping: float = 1.0

    def __post_init__(self):
        _check_order(self.order)
        as_int(self.max_iterations, "max_iterations", 1)
        as_positive(self.convergence_tol, "convergence_tol")
        as_positive(self.start_damping, "start_damping", zero=True)


@dataclass(frozen=True)
class IterationRecord:
    """Per-iteration trace entry; its position in the trajectory numbers it.

    ``residual_norm`` is the residual after the iteration (unchanged when
    ``accepted`` is False).  ``corrections_norms`` holds ``|c_i|`` for the
    winning candidate, starting at c1; it is empty on rejected iterations.
    ``chosen_lambda`` is the winning damping value, or on a rejected
    iteration the largest damping tried (0 for a sweep centred at 0).
    """

    chosen_lambda: float
    residual_norm: float
    step_norm: float
    corrections_norms: tuple[float, ...]
    f_evaluations: int
    accepted: bool
    truncated: bool = False


@dataclass(frozen=True)
class RunResult:
    """Outcome of :func:`run`, which always returns one.

    ``termination`` says why the run ended: ``"converged"``,
    ``"max_iterations"``, ``"stalled"`` (too many successive rejections) or
    ``"step_failure"``.  On a step failure ``failure`` holds the
    StepFailureError; ``x``, ``residual_norm`` and ``trajectory`` are those
    of the last completed iteration, and ``f_evaluations`` also counts the
    failed step's calls.
    """

    trajectory: tuple[IterationRecord, ...]
    converged: bool
    iterations: int
    x: np.ndarray
    residual_norm: float
    f_evaluations: int
    termination: str
    failure: StepFailureError | None


def step(x, problem: Problem, schedule: LambdaSchedule, config: OptimizerConfig,
         f0):
    """One candidate-sweep iteration from ``x`` with residual ``f0 = f(x)``.

    It sweeps ``schedule.grid()``, not the config's start damping.  Returns
    ``(x_new, f_new, record)``; ``x_new is x`` (and the schedule is centred
    on the largest damping tried, or the floor) when no candidate improved
    the residual norm, as when no endpoint is finite.  A call to the
    evaluator or the Jacobian fails when it raises or returns the wrong
    shape (see :class:`StepFailureError`): a failed evaluator call drops its
    candidate.  Raises StepFailureError when no endpoint is finite and some
    evaluator call failed, the Jacobian's call fails, J is not finite, or
    its SVD does not converge, and ValueError, before any Jacobian or
    evaluator call, when ``x`` or ``f0`` is not finite or has the wrong
    shape, or ``schedule.grid()`` rejects its centre.  ``f0`` is read after
    evaluator calls, so it must not be an array the evaluator reuses;
    :func:`run` passes its own copy.
    """
    m, p = problem.output_dim, problem.input_dim
    x, x_norm = finite_norm(x, (p,), "x")
    f0, norm0 = finite_norm(f0, (m,), "f0")
    lambdas = schedule.grid()  # sorted: [0], or positive and finite
    lam_list = lambdas.tolist()

    try:
        J = problem.jacobian(x)
    except Exception as exc:
        raise StepFailureError(f"jacobian failed: {exc!r}") from exc
    try:
        factors = SvdFactors(as_shape(J, (m, p), "jacobian"))
    except (TypeError, ValueError, OverflowError) as exc:
        # A J that is misshaped or not numeric (the three errors of a failed
        # float64 conversion), has a non-finite entry, or whose SVD did not
        # converge (LinAlgError is a ValueError).
        raise StepFailureError(str(exc)) from exc

    # First-order directions for the whole sweep from one factorization,
    # handed the grid's list and ends and f0's norm, all checked above.
    sweep = (lam_list, lam_list[0], lam_list[-1])
    c1s = -factors.damped_apply_batch(lambdas, f0, (sweep, norm0))
    evaluator, order = problem.evaluator, config.order
    # Every candidate is live under the bound |f0| (1 / s_min + 1) < R, else
    # the exact mask decides (see the module docstring); a nan fails the test.
    if x_norm <= _BOUND and norm0 * (factors._edges[1] + 1.0) < _BOUND:
        live, ends = range(len(lam_list)), x + c1s
    else:
        with np.errstate(over="ignore"):
            ends = x + c1s
        live = np.flatnonzero(np.isfinite(ends).all(axis=1)).tolist()
        ends = ends[live]
    if order > 1:  # one base whose rows are the sweep's, by grid index
        base = _stencil_base(x, f0, x_norm, norm0, factors, evaluator, c1s, lambdas)
    causes = {}  # candidate index -> its failed evaluator call, in grid order
    # One endpoint call per live candidate, less one per failed stencil call.
    evals, best_norm, best_f, shape = len(live), math.inf, None, (m,)
    # A one-term candidate reads its row of x + c1s, any other its row of
    # the base's endpoint block.
    for idx, end in zip(live, ends):
        series = None
        if order > 1:
            try:
                series = correction_series(base, idx, order=order)
            except StencilEvaluationError as exc:
                evals += exc.evaluations - 1
                causes[idx] = exc
                continue
            evals += series.evaluation_count
            if len(series.corrections) > 1:
                end = base.series[order][1][idx]
        try:
            f_end = evaluator(end)
            # Float64 too: the winner's residual becomes the next f0.
            if (type(f_end) is not np.ndarray or f_end.dtype is not _FLOAT64
                    or f_end.shape != shape):
                f_end = as_shape(f_end, shape, "residual")
        except Exception as exc:
            causes[idx] = exc
            continue
        norm = _norm(f_end)
        # Strict: the first minimum, the smallest grid index, keeps the lead,
        # and a nan norm never takes it.  The copy outlives a reused buffer.
        if norm < best_norm:
            best_norm, best_idx = norm, idx
            best_series, best_end, best_f = series, end, f_end.copy()
    if best_f is None and causes:  # only a failed call fails the step
        cause = next(iter(causes.values()))
        raise StepFailureError(f"no finite candidate endpoint at x={x}: {cause}",
                               evals, causes) from cause

    accepted = best_norm < norm0
    if accepted:
        idx, series, end, f0 = best_idx, best_series, best_end, best_f
        truncated = series is not None and series.truncated
        # Order 1's step is its c1; a series, one-term or not, gives its own.
        norms = (_norm(c1s[idx]),) if series is None else tuple(series.norms())
        step_norm = norms[0] if series is None else _norm(series.step)
        x = end.copy()
    else:  # nothing beat the current point: stay put, recentre at the top damping or the floor
        idx, best_norm, step_norm, norms, truncated = -1, norm0, 0.0, (), False
    schedule.lambda_old = lam = lam_list[idx]
    if not accepted and lam:  # at least 2^-52 s_max^2; Python floats, so unwarned
        s_max = float(factors.s[0])
        schedule.lambda_old = max(lam, 2.0**-52 * s_max * s_max)
    return x, f0, IterationRecord(
        chosen_lambda=lam,
        residual_norm=best_norm,
        step_norm=step_norm,
        corrections_norms=norms,
        f_evaluations=evals,
        accepted=accepted,
        truncated=truncated,
    )


def run(x0, problem: Problem, config: OptimizerConfig) -> RunResult:
    """Iterate :func:`step` until convergence, the iteration cap, a stall or
    a step failure; ``RunResult.termination`` says which.

    The schedule starts at the config's ``start_damping``.  The
    trajectory records every iteration, rejected ones included.  A stall
    ends the run unconverged: MAX_CONSECUTIVE_REJECTS successive
    rejections, or one at damping 0, which cannot escalate; a sweep whose
    every endpoint is non-finite is a rejection too, unless some call in it
    failed.  A StepFailureError ends the run, which returns what it has so
    far; a later residual or Jacobian of the wrong shape is a failed call
    (see :func:`step`), not an error.  A start point or start residual
    that is not finite or has the wrong shape raises ValueError.  The
    evaluator may return the same array on every call.
    """
    # Copies: the result's x must not be the caller's array, and f must
    # outlive an evaluator that reuses its output array.
    x = as_finite(x0, (problem.input_dim,), "starting point").copy()
    f, norm = finite_norm(problem.evaluator(x), (problem.output_dim,),
                          "starting residual")
    f = f.copy()
    total_evals = 1
    schedule = LambdaSchedule(config.start_damping)
    trajectory: list[IterationRecord] = []
    rejects = 0

    termination = "converged" if norm <= config.convergence_tol else "max_iterations"
    failure = None

    while termination != "converged" and len(trajectory) < config.max_iterations:
        try:
            x, f, record = step(x, problem, schedule, config, f0=f)
        except StepFailureError as exc:
            total_evals += exc.evaluations
            termination, failure = "step_failure", exc
            break
        trajectory.append(record)
        total_evals += record.f_evaluations
        rejects = 0 if record.accepted else rejects + 1
        if record.residual_norm <= config.convergence_tol:
            termination = "converged"
        elif rejects >= (MAX_CONSECUTIVE_REJECTS if record.chosen_lambda else 1):
            termination = "stalled"
            break

    return RunResult(
        trajectory=tuple(trajectory),
        converged=termination == "converged",
        iterations=len(trajectory),
        x=x,
        residual_norm=_norm(f),
        f_evaluations=total_evals,
        termination=termination,
        failure=failure,
    )
