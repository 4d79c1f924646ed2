"""Iteration driver: damped-step candidate sweep with higher-order corrections.

Each iteration evaluates the Jacobian once, factorizes it once, and builds 21
candidate steps from a geometric-in-log damping grid centred on the previous
step's damping value.  Every candidate gets the configured order of
finite-difference corrections (using its own damped inverse throughout) and
one residual evaluation at its corrected endpoint; the endpoint with the
smallest residual norm wins.  If nothing improves, the iteration does not
move and the damping centre is escalated.

The sweep is batched over the grid.  One product with the factorization
gives every first-order direction, one mask selects the finite ones, one sum
gives every endpoint, the endpoint residuals fill one ``(21, m)`` array, and
the winner is the argmin of its row norms with non-finite rows masked to
``inf``.  ``argmin`` returns the first minimum, so ties go to the smallest
grid index, as in a sequential sweep.  Three things stay per point or per
candidate:

* the evaluator is called once per point, because ``Problem.evaluator`` maps
  one point to one residual and each call is one counted evaluation, failed
  calls included;
* ``correction_series`` runs once per live candidate.  Its phases could run
  for all candidates at once, with truncation as a row mask (ROADMAP item
  1), but perfbench's evaluation audit reads each candidate's charged count
  and truncation flag from the span of that candidate's own call, so the
  batched form waits for a benchmark that traces a sweep-level call;
* corrections apply their inverse through ``SvdFactors.damped_apply`` at the
  candidate's damping value, the same inverse that produced its direction,
  one call per correction: perfbench times that method as its own layer.

Residual norms are taken without an overflow warning: a finite residual
whose squared norm overflows gets a rescaled, finite norm.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .corrections import (
    CorrectionSeries,
    StencilEvaluationError,
    correction_series,
)
from .linalg import SvdFactors, as_residual
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

# Consecutive non-improving iterations tolerated before a run aborts.
MAX_CONSECUTIVE_REJECTS = 5

# Damping this small is indistinguishable from zero in float64 but keeps the
# grid positive: repeated down-shifts must not underflow lambda_old to 0.
LAMBDA_FLOOR = 1e-300

INVERSE_VARIANTS = ("gauss_newton", "levenberg_marquardt")

_GRID_FACTORS = np.array([GRID_BASE ** ((n / 10.0) ** 3) for n in GRID_INDICES])
_GRID_FACTORS.flags.writeable = False


class StepFailureError(RuntimeError):
    """Every candidate step produced a non-finite endpoint.

    Chained from the sweep's first failed evaluator call, if there was one.
    """


@dataclass
class LambdaSchedule:
    """Damping grid ``lam_n = lambda_old * 10000**((n/10)**3)``, n in [-10, 10].

    ``lambda_old`` carries between iterations: it is replaced by the winning
    candidate's damping value on acceptance and multiplied by the grid's
    maximum up-shift (10^4) when no candidate improves.
    """

    lambda_old: float = 1.0

    def grid(self) -> np.ndarray:
        return self.lambda_old * _GRID_FACTORS


@dataclass(frozen=True)
class OptimizerConfig:
    """Iteration settings.

    order 1 is the plain damped step; orders 2-4 add corrections.  The run
    stops when the residual norm reaches ``convergence_tol``.

    ``inverse_variant`` is ``"levenberg_marquardt"`` (the damping sweep) or
    ``"gauss_newton"`` (one undamped candidate), which on a square nonsingular
    J is Newton's step; ``SvdFactors.newton_apply`` remains the exact solve.
    """

    order: int = 1
    max_iterations: int = 20000
    convergence_tol: float = 1e-9
    inverse_variant: str = "levenberg_marquardt"

    def __post_init__(self):
        if self.order not in (1, 2, 3, 4):
            raise ValueError(f"order must be in {{1, 2, 3, 4}}, got {self.order}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not self.convergence_tol > 0:
            raise ValueError("convergence_tol must be positive")
        if self.inverse_variant not in INVERSE_VARIANTS:
            raise ValueError(
                f"inverse_variant must be one of {INVERSE_VARIANTS}, "
                f"got {self.inverse_variant!r}"
            )


@dataclass(frozen=True)
class IterationRecord:
    """Per-iteration trace entry.

    ``residual_norm`` is the residual after the iteration (unchanged when
    ``accepted`` is False).  ``corrections_norms`` holds ``|c_i|`` for the
    winning candidate, starting at c1; it is empty on rejected iterations.
    ``chosen_lambda`` is the winning damping value, or the escalated grid
    centre when the iteration was rejected.
    """

    iteration: int
    chosen_lambda: float
    residual_norm: float
    step_norm: float
    corrections_norms: tuple[float, ...]
    f_evaluations: int
    accepted: bool
    truncated: bool = False


@dataclass(frozen=True)
class RunResult:
    trajectory: tuple[IterationRecord, ...]
    converged: bool
    iterations: int
    x: np.ndarray
    residual_norm: float
    f_evaluations: int


def _candidate_lambdas(config: OptimizerConfig, schedule: LambdaSchedule):
    if config.inverse_variant == "levenberg_marquardt":
        return schedule.grid()
    # Gauss-Newton is the single undamped candidate.
    return np.array([0.0])


@np.errstate(over="ignore")
def _row_norms(F):
    """Euclidean norm of each row of ``F``, without an overflow warning.

    Overflow can only make a norm +inf.  A row of finite entries whose norm
    came out inf is rescaled by its largest magnitude, so its norm stays
    finite unless it exceeds float64's range; a row holding nan or inf keeps
    a non-finite norm.
    """
    norms = np.sqrt(np.vecdot(F, F))
    # At 21 rows a list scan costs less than a numpy reduction.
    if math.inf in norms.tolist():
        overflowed = np.isinf(norms) & np.isfinite(F).all(axis=1)
        rows = F[overflowed]
        scale = np.abs(rows).max(axis=1)
        rows = rows / scale[:, None]
        norms[overflowed] = scale * np.sqrt(np.vecdot(rows, rows))
    return norms


@np.errstate(over="ignore")
def _norm(f) -> float:
    """Norm of one residual, by ``np.linalg.norm``'s own arithmetic.

    Only a norm that overflowed is recomputed by :func:`_row_norms`.
    """
    norm = math.sqrt(f.dot(f))
    return norm if norm != math.inf else float(_row_norms(f[None, :])[0])


def step(x, problem: Problem, schedule: LambdaSchedule, config: OptimizerConfig,
         f0):
    """One candidate-sweep iteration from ``x`` with residual ``f0 = f(x)``.

    Returns ``(x_new, f_new, record)``; ``x_new is x`` (and the schedule's
    grid centre has been escalated) when no candidate improved the residual
    norm.  Raises StepFailureError when every candidate is unusable and
    ValueError when ``f0`` is not finite or ``f0`` or the Jacobian has the
    wrong shape.
    """
    x = np.asarray(x, dtype=float)
    m, p = problem.output_dim, problem.input_dim
    f0 = as_residual(f0, m)
    norm0 = _norm(f0)
    # Only a non-finite norm can come from a non-finite f0.
    if not math.isfinite(norm0) and not np.isfinite(f0).all():
        raise ValueError("f0 must be finite")
    evals = 0

    J = np.asarray(problem.jacobian(x), dtype=float)
    if J.shape != (m, p):
        raise ValueError(f"jacobian returned shape {J.shape}, expected ({m}, {p})")
    factors = SvdFactors(J)
    lambdas = _candidate_lambdas(config, schedule)

    # First-order directions for the whole sweep from one factorization.
    if config.inverse_variant == "levenberg_marquardt":
        with np.errstate(divide="ignore", invalid="ignore"):
            c1s = -factors.damped_apply_batch(lambdas, f0)
    else:
        c1s = -factors.damped_apply(0.0, f0)[None, :]

    live = np.isfinite(c1s).all(axis=1)
    failure = None  # first evaluator failure of the sweep, kept as the cause
    if config.order == 1:
        steps = c1s
    else:
        steps = np.zeros_like(c1s)
        series_at = {}
        lams = lambdas.tolist()
        for idx in np.flatnonzero(live).tolist():
            applier = lambda v, lam=lams[idx]: factors.damped_apply(lam, v)
            try:
                series = correction_series(
                    x, f0, J, applier, problem.evaluator, c1s[idx], config.order
                )
            except StencilEvaluationError as exc:
                evals += exc.evaluations
                failure = exc if failure is None else failure
                live[idx] = False
                continue
            evals += series.evaluation_count
            series_at[idx] = series
            steps[idx] = series.step

    endpoints = x + steps
    residuals = np.empty((len(lambdas), m))
    residuals.fill(np.nan)
    for idx in np.flatnonzero(live).tolist():
        evals += 1
        try:
            value = problem.evaluator(endpoints[idx])
        except Exception as exc:
            failure = exc if failure is None else failure
            continue
        residuals[idx] = as_residual(value, m)
    norms = _row_norms(residuals)
    norms[~np.isfinite(norms)] = np.inf
    idx = int(np.argmin(norms))
    if norms[idx] == np.inf:
        raise StepFailureError(f"no finite candidate endpoint at x={x}") from failure

    norm_end = float(norms[idx])
    if norm_end < norm0:
        if config.order == 1:
            series = CorrectionSeries((c1s[idx],), 0)
        else:
            series = series_at[idx]
        if config.inverse_variant == "levenberg_marquardt":
            schedule.lambda_old = max(float(lambdas[idx]), LAMBDA_FLOOR)
        record = IterationRecord(
            iteration=0,
            chosen_lambda=float(lambdas[idx]),
            residual_norm=norm_end,
            step_norm=math.sqrt(steps[idx].dot(steps[idx])),
            corrections_norms=tuple(series.norms()),
            f_evaluations=evals,
            accepted=True,
            truncated=series.truncated,
        )
        return endpoints[idx].copy(), residuals[idx].copy(), record

    # No candidate beat the current point: stay put, escalate the damping.
    if config.inverse_variant == "levenberg_marquardt":
        schedule.lambda_old *= GRID_BASE
    record = IterationRecord(
        iteration=0,
        chosen_lambda=schedule.lambda_old,
        residual_norm=norm0,
        step_norm=0.0,
        corrections_norms=(),
        f_evaluations=evals,
        accepted=False,
    )
    return x, f0, record


def run(x0, problem: Problem, config: OptimizerConfig) -> RunResult:
    """Iterate :func:`step` until convergence, the iteration cap, or a stall.

    The trajectory records every iteration, rejected ones included.  A stall
    (MAX_CONSECUTIVE_REJECTS successive rejections) aborts unconverged.
    A start point or start residual that is not finite or has the wrong
    shape raises ValueError.
    """
    x, n = np.asarray(x0, dtype=float), problem.input_dim
    if x.shape != (n,):
        raise ValueError(f"starting point has shape {x.shape}, expected ({n},)")
    if not np.all(np.isfinite(x)):
        raise ValueError("starting point must be finite")
    f = as_residual(problem.evaluator(x), problem.output_dim)
    if not np.isfinite(f).all():
        raise ValueError("starting residual must be finite")
    total_evals = 1
    schedule = LambdaSchedule()
    trajectory: list[IterationRecord] = []
    converged = _norm(f) <= config.convergence_tol
    rejects = 0

    while not converged and len(trajectory) < config.max_iterations:
        x, f, record = step(x, problem, schedule, config, f0=f)
        record = dataclasses.replace(record, iteration=len(trajectory) + 1)
        trajectory.append(record)
        total_evals += record.f_evaluations
        rejects = 0 if record.accepted else rejects + 1
        if record.residual_norm <= config.convergence_tol:
            converged = True
        elif rejects >= MAX_CONSECUTIVE_REJECTS:
            break

    return RunResult(
        trajectory=tuple(trajectory),
        converged=converged,
        iterations=len(trajectory),
        x=x,
        residual_norm=_norm(f),
        f_evaluations=total_evals,
    )
