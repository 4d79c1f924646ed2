"""Print one SHA-256 over the trajectories of the solver's checked runs.

Two checkouts whose digests match ran every checked run bit for bit alike:
each ``IterationRecord``, the final ``x``, the termination and the counts.
The runs are

* the 34 valley cells whose counts ``tests/test_acceptance.py`` pins, from
  (pi, e) at the default settings;
* the K = 1e6 valley at ``start_damping=0`` (Gauss-Newton), orders 1-4;
* the 200 polynomial solves of acceptance criterion 6, as
  ``tests/helpers.py`` lists them;
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

    python tools/trajectory_digest.py [--runs] [SRC]

With ``--runs`` it prints, instead of the digest, one line per run: its
group (``valley``, ``polynomial``, ``affine``, ``mgh`` or ``fit``), its
index within the group, the first 12 hex digits of the run's own SHA-256,
its termination, iterations and evaluations.  Two checkouts' listings,
diffed, name the runs that moved.

It imports ``lmcorrect`` from ``SRC``, by default the ``src`` directory
beside this file, and the polynomial solves, the MGH problems and the fit
from the ``tests`` directory beside this file, which needs pytest
installed.  So one copy of the tool can digest two checkouts' ``src``
directories, whose lines must then match.  It takes about 7 s on a 2-vCPU
machine.
"""

import argparse
import hashlib
import math
import sys
from dataclasses import astuple
from pathlib import Path
from types import SimpleNamespace

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
ORDERS = (1, 2, 3, 4)


def load(src: Path) -> SimpleNamespace:
    """``lmcorrect``'s solver and problems from ``src``, and the polynomial
    solves, the MGH problems and the fit from the ``tests`` directory beside
    this file."""
    sys.path[:0] = [str(src.resolve()), str(ROOT / "tests")]
    from helpers import criterion_6_runs, four_exponential_fit
    from lmcorrect.optimizer import OptimizerConfig, run
    from lmcorrect.problems import affine_problem, valley_problem
    from test_mgh import PROBLEMS
    return SimpleNamespace(
        criterion_6_runs=criterion_6_runs, four_exponential_fit=four_exponential_fit,
        OptimizerConfig=OptimizerConfig, run=run, affine_problem=affine_problem,
        valley_problem=valley_problem, PROBLEMS=PROBLEMS)


def valley_runs(lib):
    start = np.array([math.pi, math.e])
    cells = [(K, order) for K in (1, 10, 100, 1000, 10000) for order in ORDERS]
    cells += [(1e5, 1), (1e6, 1)]
    cells += [(K, order) for order in (2, 3, 4) for K in (1e5, 1e6, 1e7, 1e8)]
    for K, order in cells:
        yield lib.run(start, lib.valley_problem(K), lib.OptimizerConfig(order=order))
    for order in ORDERS:
        yield lib.run(start, lib.valley_problem(1e6),
                      lib.OptimizerConfig(order=order, start_damping=0.0))


def polynomial_runs(lib):
    for problem, x0, config in lib.criterion_6_runs():
        yield lib.run(x0, problem, config)


def affine_runs(lib):
    A, b = np.array([[2.0, 1.0], [1.0, 3.0]]), np.array([1.0, 2.0])
    for scale, tol in ((1.0, 1e-9), (1e-170, 1e-200)):
        problem = lib.affine_problem(scale * A, scale * b)
        for damping in (1.0, 0.0):
            for order in ORDERS:
                yield lib.run(np.zeros(2), problem, lib.OptimizerConfig(
                    order=order, convergence_tol=tol, start_damping=damping))


def mgh_runs(lib):
    for make, start in lib.PROBLEMS.values():
        for order in ORDERS:
            yield lib.run(np.array(start), make(), lib.OptimizerConfig(order=order))


def fit_runs(lib):
    problem, start = lib.four_exponential_fit()
    for order in ORDERS:
        yield lib.run(start, problem, lib.OptimizerConfig(order=order))


GROUPS = {"valley": valley_runs, "polynomial": polynomial_runs,
          "affine": affine_runs, "mgh": mgh_runs, "fit": fit_runs}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Print one SHA-256 over the trajectories of the checked runs.")
    parser.add_argument("--runs", action="store_true",
                        help="print one line per run instead of the digest")
    parser.add_argument("src", nargs="?", type=Path, default=ROOT / "src",
                        help="the directory lmcorrect is imported from")
    args = parser.parse_args(argv)
    lib = load(args.src)
    digest, count = hashlib.sha256(), 0
    for group, runs in GROUPS.items():
        for index, result in enumerate(runs(lib)):
            count += 1
            # repr gives each float's shortest round-trip form: equal text
            # means equal bits.
            text = repr((
                [astuple(record) for record in result.trajectory],
                result.x.tobytes(), result.termination, result.converged,
                result.iterations, result.f_evaluations, result.residual_norm,
            )).encode()
            digest.update(text)
            if args.runs:
                print(group, index, hashlib.sha256(text).hexdigest()[:12],
                      result.termination, result.iterations, result.f_evaluations)
    if not args.runs:
        print(f"{digest.hexdigest()}  {count} runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
