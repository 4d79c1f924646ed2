"""The benchmark's workloads: inputs drawn from a seed, one pass, and checks.

Seed 0 reproduces the paper's inputs exactly: the valley start point
(pi, e) and the polynomial solves of acceptance criterion 6.  Any other seed
moves the start points by a small seeded jitter, which keeps every solve
convergent and the evaluation counts within about 1% of seed 0 while giving
held-out inputs for later claims.

A pass calls the library's public API with the library's own problem
objects.  It times groups of solves and hands each group's seconds to
``clock.add``, which probes the machine's speed around the group.
"""

from __future__ import annotations

import contextlib
import io
import math
import time
from dataclasses import dataclass, replace

import numpy as np
from numpy.random import default_rng

VALLEY_START = (math.pi, math.e)
VALLEY_TOL = 1e-9
# Half-width of the uniform start-point jitter for seeds other than 0.
VALLEY_JITTER = 0.02
# Standard deviation of the polynomial start-point jitter (the start points
# themselves are 0.25 * N(0, 1)).  Shifting the polynomial seeds instead
# draws instances on which a few of the 200 local solves stall.
POLY_JITTER = 0.01
POLY_RELATIVE_TOL = 1e-10
POLY_MAX_ITERATIONS = 200
# Solves timed between two speed probes: about 0.4 s of solving.
POLY_GROUP = 20


@dataclass(frozen=True)
class Solve:
    """One solve of a pass.  Counts a pass cannot see are None."""

    label: str
    iterations: int
    converged: bool
    tol: float
    f_evals: int | None = None
    residual: float | None = None

    @classmethod
    def of(cls, label: str, result, tol: float) -> "Solve":
        return cls(label, result.iterations, result.converged, tol,
                   result.f_evaluations, result.residual_norm)

    def with_result(self, result) -> "Solve":
        return replace(self, iterations=result.iterations,
                       converged=result.converged,
                       f_evals=result.f_evaluations,
                       residual=result.residual_norm)

    @property
    def solved(self) -> bool:
        return self.converged and (self.residual is None or self.residual <= self.tol)


def _jitter_rng(seed: int, stream: int):
    return default_rng([seed, stream])


def valley_start(seed: int) -> tuple[float, float]:
    """(pi, e) for seed 0, else a seeded point within VALLEY_JITTER of it."""
    if seed == 0:
        return VALLEY_START
    shift = _jitter_rng(seed, 0).uniform(-VALLEY_JITTER, VALLEY_JITTER, size=2)
    return (VALLEY_START[0] + float(shift[0]), VALLEY_START[1] + float(shift[1]))


@contextlib.contextmanager
def start_point(cli, point):
    """Set the CLI's start point, which ``run_experiment`` reads per call."""
    saved = cli.START_POINT
    cli.START_POINT = point
    try:
        yield
    finally:
        cli.START_POINT = saved


class ValleyDeep:
    """The deep valley, orders 2-4, through ``cli.run_table``."""

    name = "valley-deep"
    # Acceptance bands on iteration counts, by solve label.
    bands = {"K=1e+06 order=2": (300, 500), "K=1e+06 order=4": (30, 60)}

    def __init__(self, K_values=(1e6, 1e7), orders=(2, 3, 4)):
        self.K_values = tuple(K_values)
        self.orders = tuple(orders)

    def build(self, lib, seed: int):
        for K in self.K_values:
            lib.problems.valley_problem(K)
        return valley_start(seed)

    def run_pass(self, lib, start, clock):
        # One table call per cell, so that the speed probe runs between them.
        solves = []
        with start_point(lib.cli, start):
            for K in self.K_values:
                for order in self.orders:
                    t0 = time.perf_counter()
                    table = lib.cli.run_table((K,), (order,), tol=VALLEY_TOL)
                    clock.add(time.perf_counter() - t0)
                    cell = table.cells[0]
                    solves.append(Solve(f"K={cell.K:g} order={cell.order}",
                                        cell.iterations, cell.converged,
                                        VALLEY_TOL))
        return solves, []


class ValleyOrder1:
    """The valley at order 1 through ``cli.run_experiment`` plus its CSV trace."""

    name = "valley-order1"
    bands: dict = {}

    def __init__(self, K=1e5):
        self.K = K

    def build(self, lib, seed: int):
        lib.problems.valley_problem(self.K)
        spec = lib.cli.ExperimentSpec(problem="valley", K=self.K, order=1,
                                      tol=VALLEY_TOL)
        return spec, valley_start(seed)

    def run_pass(self, lib, inputs, clock):
        spec, start = inputs
        buf = io.StringIO()
        with start_point(lib.cli, start):
            t0 = time.perf_counter()
            outcome = lib.cli.run_experiment(spec)
            lib.cli.write_trace_csv(buf, outcome.result, spec.order)
            clock.add(time.perf_counter() - t0)
        result = outcome.result
        solve = Solve.of(f"K={self.K:g} order=1", result, spec.tol)
        return [solve], _check_trace_csv(buf.getvalue(), result)


def _check_trace_csv(text: str, result) -> list[str]:
    lines = text.splitlines()
    if len(lines) != result.iterations + 1:
        return [f"trace CSV has {len(lines) - 1} rows for {result.iterations} "
                f"iterations"]
    last = int(lines[-1].rsplit(",", 1)[1]) if result.iterations else 1
    if last != result.f_evaluations:
        return [f"trace CSV ends at {last} cumulative evaluations, the run "
                f"reported {result.f_evaluations}"]
    return []


@dataclass(frozen=True)
class PolyCase:
    label: str
    poly: object
    x0: np.ndarray
    config: object


class PolySuite:
    """Criterion 6's seeded polynomial solves through ``optimizer.run``."""

    name = "poly-suite"
    bands: dict = {}

    def __init__(self, runs_per_cell=20):
        self.runs_per_cell = runs_per_cell

    def build(self, lib, seed: int):
        cases = []
        for order in (1, 2, 3, 4):
            for degree in range(1, order + 1):
                for i in range(self.runs_per_cell):
                    poly = lib.problems.polynomial_problem(
                        degree, 2 + (i % 2), seed=i * 7 + degree)
                    x0 = 0.25 * default_rng(1000 + i).normal(
                        size=poly.input_dim)
                    if seed:
                        x0 = x0 + POLY_JITTER * _jitter_rng(seed, len(cases) + 1) \
                            .normal(size=poly.input_dim)
                    start_norm = float(np.linalg.norm(poly.evaluator(x0)))
                    config = lib.optimizer.OptimizerConfig(
                        order=order, max_iterations=POLY_MAX_ITERATIONS,
                        convergence_tol=POLY_RELATIVE_TOL * start_norm)
                    cases.append(PolyCase(f"order={order} degree={degree} i={i}",
                                          poly, x0, config))
        return cases

    def run_pass(self, lib, cases, clock):
        solves = []
        group = 0.0
        for k, case in enumerate(cases, start=1):
            problem = case.poly.as_problem()
            t0 = time.perf_counter()
            result = lib.optimizer.run(case.x0, problem, case.config)
            group += time.perf_counter() - t0
            if k % POLY_GROUP == 0 or k == len(cases):
                clock.add(group)
                group = 0.0
            solves.append(Solve.of(case.label, result, case.config.convergence_tol))
        return solves, []


WORKLOADS = {w.name: w for w in (ValleyDeep, ValleyOrder1, PolySuite)}
