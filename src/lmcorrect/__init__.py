"""Damped least-squares steps with 2nd- to 4th-order pathway corrections.

Newton, Gauss-Newton and Levenberg-Marquardt steps follow the tangent of the
curved pathway along which every residual component shrinks proportionally.
On ill-conditioned problems that pathway bends out of the linear model's
trust region after a short distance, forcing many small damped steps.  This
package computes the pathway's higher Taylor terms from a handful of extra
residual evaluations and adds them to the step, which shortens those crawls
by one to three orders of magnitude on narrow curved valleys.
"""

from .corrections import (
    CorrectionSeries,
    StencilEvaluationError,
    correction_series,
    stencil_base,
)
from .faadibruno import (
    DerivativeTerm,
    correction_identity_terms,
    derivative_terms,
)
from .linalg import SvdFactors
from .optimizer import (
    IterationRecord,
    LambdaSchedule,
    OptimizerConfig,
    RunResult,
    StepFailureError,
    run,
    step,
)
from .problems import (
    PolynomialProblem,
    Problem,
    affine_problem,
    polynomial_problem,
    valley_eval,
    valley_jacobian,
    valley_problem,
)

__version__ = "0.1.0"

__all__ = [
    "CorrectionSeries",
    "StencilEvaluationError",
    "correction_series",
    "stencil_base",
    "DerivativeTerm",
    "correction_identity_terms",
    "derivative_terms",
    "SvdFactors",
    "IterationRecord",
    "LambdaSchedule",
    "OptimizerConfig",
    "RunResult",
    "StepFailureError",
    "run",
    "step",
    "PolynomialProblem",
    "Problem",
    "affine_problem",
    "polynomial_problem",
    "valley_eval",
    "valley_jacobian",
    "valley_problem",
    "__version__",
]
