"""Print the Moré-Garbow-Hillstrom table: how each problem's run ends.

For every problem of ``tests/test_mgh.py``, from its standard start, the
table has one row per order 1-4 of ``optimizer.run`` at the default
configuration: the termination, |f| at the end, iterations/evaluations,
and the end point's first-order optimality ratio |J^T f| / (s_max |f|)
(``-`` at |f| = 0).  Beside them it prints scipy's
``least_squares(method="lm")`` |f| and evaluations from the same start with
the same analytic Jacobian, or ``-`` when scipy cannot be imported.  The
last line sums the rows up: how many converged, and how many stalled at
scipy's |f| (to a relative 1e-6) or elsewhere.

Usage, from the repository root::

    python tools/mgh_table.py [NAME ...]

Each ``NAME`` is a problem of the table (``rosenbrock``, ``watson_9``...);
without one, every problem is run, which takes about 10 s on a 2-vCPU
machine.  It imports ``lmcorrect`` from the ``src`` directory and the
problems from the ``tests`` directory beside this script.
"""

import math
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from lmcorrect.optimizer import OptimizerConfig, run  # noqa: E402
from test_mgh import PROBLEMS  # noqa: E402

try:
    from scipy.optimize import least_squares
except ImportError:
    least_squares = None

HEADER = (f"{'problem':<24}{'order':>5}  {'termination':<12}{'|f|':<14}"
          f"{'iter/evals':<12}{'|J^T f|/(s|f|)':<16}{'lm |f|':<14}lm evals")


def stationarity(problem, x) -> str:
    """|J^T f| / (s_max |f|) at ``x``, or ``-`` where |f| is 0."""
    f, J = problem.evaluator(x), problem.jacobian(x)
    norm = math.hypot(*f.tolist())
    if norm == 0.0:
        return "-"
    return f"{math.hypot(*J.T.dot(f).tolist()) / (np.linalg.norm(J, 2) * norm):.2g}"


def scipy_lm(problem, start):
    """scipy ``lm``'s ``(|f|, evaluations)`` from ``start``, or None."""
    if least_squares is None:
        return None
    fit = least_squares(problem.evaluator, np.array(start, dtype=float),
                        jac=problem.jacobian, method="lm")
    return math.hypot(*fit.fun.tolist()), fit.nfev


def main(argv=None) -> int:
    names = list(sys.argv[1:] if argv is None else argv) or list(PROBLEMS)
    unknown = [name for name in names if name not in PROBLEMS]
    if unknown:
        print(f"unknown problem: {', '.join(unknown)}", file=sys.stderr)
        return 2
    print(HEADER)
    tally = {"converged": 0, "stalled at lm's |f|": 0, "other": 0}
    for name in names:
        make, start = PROBLEMS[name]
        problem = make()
        reference = scipy_lm(problem, start)
        lm = ("-", "-") if reference is None else (f"{reference[0]:.7g}", reference[1])
        for order in (1, 2, 3, 4):
            result = run(np.array(start, dtype=float), problem,
                         OptimizerConfig(order=order))
            if result.converged:
                tally["converged"] += 1
            elif (reference is not None and result.termination == "stalled"
                  and math.isclose(result.residual_norm, reference[0], rel_tol=1e-6)):
                tally["stalled at lm's |f|"] += 1
            else:
                tally["other"] += 1
            counts = f"{result.iterations}/{result.f_evaluations}"
            print(f"{name:<24}{order:>5}  {result.termination:<12}"
                  f"{result.residual_norm:<14.7g}{counts:<12}"
                  f"{stationarity(problem, result.x):<16}{lm[0]:<14}{lm[1]}")
    print(f"summary: {len(names)} problems x 4 orders: "
          + ", ".join(f"{label} {count}" for label, count in tally.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
