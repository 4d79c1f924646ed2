"""Print one SHA-256 over the trajectories of the solver's checked runs.

Two checkouts whose digests match ran every checked run bit for bit alike:
each ``IterationRecord``, the final ``x``, the termination and the counts.
The runs are

* the 34 valley cells whose counts ``tests/test_acceptance.py`` pins, from
  (pi, e) at the default settings;
* the K = 1e6 valley at ``start_damping=0`` (Gauss-Newton), orders 1-4;
* the 200 polynomial solves of acceptance criterion 6;
* the default affine problem and the same problem scaled by 1e-170, at both
  start dampings and orders 1-4, from the origin: 16 runs;
* the 88 Moré-Garbow-Hillstrom runs of ``tests/test_mgh.py``, each problem
  from its standard start at orders 1-4;
* the four-exponential fit at m = 1000 of ``tests/helpers.py``, at orders
  1-4.

The MGH problems and the fit have m up to 1000, where a block product over
a sweep may round differently from each row's own product; every other
run has m <= 3.

Usage, from the repository root::

    python tools/trajectory_digest.py [SRC]

It imports ``lmcorrect`` from ``SRC``, by default the ``src`` directory
beside this file, and the MGH problems and the fit from the ``tests``
directory beside this file, which needs pytest installed.  So one copy of
the tool can digest two checkouts' ``src`` directories, whose lines must
then match.  It takes about 7 s on a 2-vCPU machine.
"""

import hashlib
import math
import sys
from dataclasses import astuple
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = Path(sys.argv[1]).resolve() if len(sys.argv) > 1 else ROOT / "src"
sys.path[:0] = [str(SRC), str(ROOT / "tests")]

from helpers import four_exponential_fit  # noqa: E402
from lmcorrect.optimizer import OptimizerConfig, run  # noqa: E402
from lmcorrect.problems import (  # noqa: E402
    affine_problem,
    polynomial_problem,
    valley_problem,
)
from test_mgh import PROBLEMS  # noqa: E402

ORDERS = (1, 2, 3, 4)


def valley_runs():
    start = np.array([math.pi, math.e])
    cells = [(K, order) for K in (1, 10, 100, 1000, 10000) for order in ORDERS]
    cells += [(1e5, 1), (1e6, 1)]
    cells += [(K, order) for order in (2, 3, 4) for K in (1e5, 1e6, 1e7, 1e8)]
    for K, order in cells:
        yield run(start, valley_problem(K), OptimizerConfig(order=order))
    for order in ORDERS:
        yield run(start, valley_problem(1e6),
                  OptimizerConfig(order=order, start_damping=0.0))


def polynomial_runs():
    for order in ORDERS:
        for degree in range(1, order + 1):
            for i in range(20):
                poly = polynomial_problem(degree, 2 + (i % 2), seed=i * 7 + degree)
                problem = poly.as_problem()
                x0 = 0.25 * np.random.default_rng(1000 + i).normal(
                    size=poly.input_dim)
                start_norm = float(np.linalg.norm(problem.evaluator(x0)))
                yield run(x0, problem, OptimizerConfig(
                    order=order, max_iterations=200,
                    convergence_tol=1e-10 * start_norm))


def affine_runs():
    A, b = np.array([[2.0, 1.0], [1.0, 3.0]]), np.array([1.0, 2.0])
    for scale, tol in ((1.0, 1e-9), (1e-170, 1e-200)):
        problem = affine_problem(scale * A, scale * b)
        for damping in (1.0, 0.0):
            for order in ORDERS:
                yield run(np.zeros(2), problem, OptimizerConfig(
                    order=order, convergence_tol=tol, start_damping=damping))


def mgh_runs():
    for make, start in PROBLEMS.values():
        for order in ORDERS:
            yield run(np.array(start), make(), OptimizerConfig(order=order))


def fit_runs():
    problem, start = four_exponential_fit()
    for order in ORDERS:
        yield run(start, problem, OptimizerConfig(order=order))


def main() -> int:
    digest, count = hashlib.sha256(), 0
    for runs in (valley_runs(), polynomial_runs(), affine_runs(), mgh_runs(),
                 fit_runs()):
        for result in runs:
            count += 1
            # repr gives each float's shortest round-trip form: equal text
            # means equal bits.
            digest.update(repr((
                [astuple(record) for record in result.trajectory],
                result.x.tobytes(), result.termination, result.converged,
                result.iterations, result.f_evaluations, result.residual_norm,
            )).encode())
    print(f"{digest.hexdigest()}  {count} runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
