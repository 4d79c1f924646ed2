"""Iteration driver: damped-step candidate sweep with higher-order corrections.

Each iteration evaluates the Jacobian once, factorizes it once, and builds 21
candidate steps from a geometric-in-log damping grid centred on the previous
step's damping value.  Every candidate gets the configured order of
finite-difference corrections (using its own damped inverse throughout) and
one residual evaluation at its corrected endpoint; the endpoint with the
smallest residual norm wins.  If nothing improves, the iteration does not
move and the damping centre is escalated.

All candidate work is independent and could run concurrently; the reduction
is a deterministic argmin with ties broken towards the smallest grid index,
so a parallel implementation must reproduce the sequential result exactly.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .corrections import (
    CorrectionSeries,
    StencilEvaluationError,
    correction_series,
)
from .linalg import SvdFactors
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

INVERSE_VARIANTS = ("newton", "gauss_newton", "levenberg_marquardt")


class StepFailureError(RuntimeError):
    """Every candidate step produced a non-finite endpoint."""


@dataclass
class LambdaSchedule:
    """Damping grid ``lam_n = lambda_old * 10000**((n/10)**3)``, n in [-10, 10].

    ``lambda_old`` carries between iterations: it is replaced by the winning
    candidate's damping value on acceptance and multiplied by the grid's
    maximum up-shift (10^4) when no candidate improves.
    """

    lambda_old: float = 1.0

    def grid(self) -> np.ndarray:
        return np.array(
            [self.lambda_old * GRID_BASE ** ((n / 10.0) ** 3) for n in GRID_INDICES]
        )


@dataclass(frozen=True)
class OptimizerConfig:
    """Iteration settings.

    order 1 is the plain damped step; orders 2-4 add corrections.  The run
    stops when the residual norm reaches ``convergence_tol``.
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
    # Newton / Gauss-Newton degenerate to the single undamped candidate.
    return np.array([0.0])


def step(x, problem: Problem, schedule: LambdaSchedule, config: OptimizerConfig,
         f0=None):
    """One candidate-sweep iteration from ``x``.

    Returns ``(x_new, f_new, record)``; ``x_new is x`` (and the schedule's
    grid centre has been escalated) when no candidate improved the residual
    norm.  Raises StepFailureError when every candidate is unusable.
    """
    x = np.asarray(x, dtype=float)
    evals = 0
    if f0 is None:
        f0 = problem.evaluator(x)
        evals += 1
    f0 = np.asarray(f0, dtype=float)
    norm0 = float(np.linalg.norm(f0))

    J = problem.jacobian(x)
    factors = SvdFactors(J)
    lambdas = _candidate_lambdas(config, schedule)

    # First-order directions for the whole sweep from one factorization.
    if config.inverse_variant == "levenberg_marquardt":
        with np.errstate(divide="ignore", invalid="ignore"):
            c1s = -factors.damped_apply_batch(lambdas, f0)
    elif config.inverse_variant == "newton":
        c1s = -factors.newton_apply(f0)[None, :]
    else:
        c1s = -factors.damped_apply(0.0, f0)[None, :]

    best = None  # (norm, index, endpoint, f_end, series)
    for idx, lam in enumerate(lambdas):
        c1 = c1s[idx]
        if not np.all(np.isfinite(c1)):
            continue
        if config.order == 1:
            series = CorrectionSeries(1, (c1,), 0)
        else:
            if config.inverse_variant == "newton":
                applier = factors.newton_apply
            else:
                applier = lambda v, lam=lam: factors.damped_apply(lam, v)
            try:
                series = correction_series(
                    x, f0, J, applier, problem.evaluator, c1, config.order
                )
            except StencilEvaluationError as exc:
                evals += exc.evaluations
                continue
            evals += series.evaluation_count
        endpoint = x + series.step
        evals += 1
        try:
            f_end = np.asarray(problem.evaluator(endpoint), dtype=float)
        except Exception:
            continue
        norm_end = float(np.linalg.norm(f_end))
        if not np.isfinite(norm_end):
            continue
        if best is None or norm_end < best[0]:
            best = (norm_end, idx, endpoint, f_end, series)

    if best is None:
        raise StepFailureError(f"no finite candidate endpoint at x={x}")

    norm_end, idx, endpoint, f_end, series = best
    if norm_end < norm0:
        if config.inverse_variant == "levenberg_marquardt":
            schedule.lambda_old = max(float(lambdas[idx]), LAMBDA_FLOOR)
        record = IterationRecord(
            iteration=0,
            chosen_lambda=float(lambdas[idx]),
            residual_norm=norm_end,
            step_norm=float(np.linalg.norm(series.step)),
            corrections_norms=tuple(series.norms()),
            f_evaluations=evals,
            accepted=True,
            truncated=series.truncated,
        )
        return endpoint, f_end, record

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
    """
    x = np.asarray(x0, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("starting point must be finite")
    f = np.asarray(problem.evaluator(x), dtype=float)
    total_evals = 1
    schedule = LambdaSchedule()
    trajectory: list[IterationRecord] = []
    converged = float(np.linalg.norm(f)) <= config.convergence_tol
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
        residual_norm=float(np.linalg.norm(f)),
        f_evaluations=total_evals,
    )
