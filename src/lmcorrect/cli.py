"""Benchmark command line: convergence traces, anisotropy tables, power-law fits.

Subcommands
-----------
run    one experiment -> per-iteration CSV trace plus a summary line
table  valley iteration counts over a K grid x correction orders (CSV + text)
fit    power-law exponents of valley iterations vs K per order
terms  print the derivative expansion / correction formula at a given order

CSV output uses a header row, '.' decimals and no locale anywhere, so files
are byte-stable across platforms.  Files are written atomically
(write-then-rename).  Exit codes: 0 success, 1 optimizer failure, 2 usage.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import os
import sys
import tempfile
import time
from dataclasses import dataclass

import numpy as np

from . import faadibruno
from .corrections import STENCIL_EVALUATIONS, _check_order
from .optimizer import OptimizerConfig, RunResult, StepFailureError, run
from .problems import Problem, default_affine_problem, valley_problem

__all__ = [
    "ExperimentSpec",
    "ExperimentResult",
    "ConvergenceTable",
    "PowerLawFit",
    "run_experiment",
    "run_table",
    "fit_power_laws",
    "main",
]

START_POINT = (math.pi, math.e)
TRACE_COLUMNS = [
    "iteration",
    "lambda",
    "residual_norm",
    "step_norm",
    "c2_norm",
    "c3_norm",
    "c4_norm",
    "f_evals_cumulative",
]
FIT_MAX_K = 1e8
FIT_POINTS = 3


@dataclass(frozen=True)
class ExperimentSpec:
    """One benchmark run: problem selection plus optimizer settings."""

    problem: str = "valley"
    K: float = 1e6
    order: int = 1
    tol: float = 1e-9
    max_iterations: int = 20000

    def build_problem(self) -> Problem:
        if self.problem == "valley":
            return valley_problem(self.K)
        if self.problem == "affine":
            return default_affine_problem()
        raise ValueError(f"unknown problem {self.problem!r}")

    def config(self) -> OptimizerConfig:
        # The affine demo runs undamped: its whole point is one exact step,
        # which the positive damping grid can only approach asymptotically.
        variant = "gauss_newton" if self.problem == "affine" else "levenberg_marquardt"
        return OptimizerConfig(
            order=self.order,
            max_iterations=self.max_iterations,
            convergence_tol=self.tol,
            inverse_variant=variant,
        )


@dataclass(frozen=True)
class ExperimentResult:
    result: RunResult
    wall_time: float

    def summary(self) -> str:
        r = self.result
        return (
            f"converged={str(r.converged).lower()} iterations={r.iterations} "
            f"residual_norm={r.residual_norm:.6e} f_evaluations={r.f_evaluations} "
            f"wall_time_s={self.wall_time:.3f}"
        )


def run_experiment(spec: ExperimentSpec) -> ExperimentResult:
    """Run one experiment and return its trace and summary.

    A run that ended in a step failure raises that failure, so every command
    reports it as ``error: ...`` with exit status 1.
    """
    problem = spec.build_problem()
    start = time.perf_counter()
    result = run(np.array(START_POINT[: problem.input_dim]), problem, spec.config())
    if result.failure is not None:
        raise result.failure
    return ExperimentResult(result, time.perf_counter() - start)


def write_trace_csv(stream, result: RunResult, order: int) -> None:
    """Per-iteration CSV rows; correction columns above the order stay empty."""
    # Rows are lists in TRACE_COLUMNS order: csv.writer skips DictWriter's
    # per-row field lookups and writes the same bytes.
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(TRACE_COLUMNS)
    cumulative = 1  # starting-point evaluation
    for number, rec in enumerate(result.trajectory, start=1):
        cumulative += rec.f_evaluations
        norms = rec.corrections_norms
        writer.writerow([
            number,
            repr(rec.chosen_lambda),
            repr(rec.residual_norm),
            repr(rec.step_norm),
            *(repr(norms[i]) if order > i and i < len(norms) else ""
              for i in (1, 2, 3)),
            cumulative,
        ])


def atomic_write(path: str, text: str) -> None:
    """Write-then-rename so readers never observe a partial file."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


@dataclass(frozen=True)
class TableCell:
    K: float
    order: int
    iterations: int
    converged: bool

    def display(self) -> str:
        return str(self.iterations) if self.converged else f">{self.iterations}"


@dataclass(frozen=True)
class ConvergenceTable:
    """Iteration counts per (K, order), censored entries marked '>n'.

    The grid may be sparse: not every (K, order) combination needs a cell
    (e.g. different K ranges per order when preparing power-law fits).
    """

    K_values: tuple[float, ...]
    orders: tuple[int, ...]
    cells: tuple[TableCell, ...]

    def _rows(self) -> list[list[str]]:
        """Body rows: K, then each order's cell, empty where there is none."""
        shown = {(c.K, c.order): c.display() for c in self.cells}
        return [[f"{K:g}"] + [shown.get((K, o), "") for o in self.orders]
                for K in self.K_values]

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["K"] + [f"order_{o}" for o in self.orders])
        writer.writerows(self._rows())
        return buf.getvalue()

    def to_text(self) -> str:
        rows = [["K"] + [f"order {o}" for o in self.orders]] + self._rows()
        widths = [max(map(len, column)) for column in zip(*rows)]
        return "".join("  ".join(v.rjust(w) for v, w in zip(r, widths)) + "\n"
                       for r in rows)


def run_table(K_values, orders, tol: float = 1e-9,
              max_iterations: int = 20000) -> ConvergenceTable:
    """Iteration counts for every (K, order) combination.

    Every K must be positive and finite, and every order an integer in
    STENCIL_EVALUATIONS; both lists are checked, nonempty and without
    repeats, before any solve.
    """
    K_values = tuple(float(k) for k in K_values)
    orders = tuple(orders)
    if not K_values:
        raise ValueError("need at least one K value")
    if not orders:
        raise ValueError("need at least one order")
    if not all(0.0 < k < math.inf for k in K_values):
        raise ValueError("all K values must be positive and finite")
    for order in orders:
        _check_order(order)
    if len(set(K_values)) < len(K_values) or len(set(orders)) < len(orders):
        raise ValueError("K values and orders must not repeat")
    cells = []
    for K in K_values:
        for order in orders:
            spec = ExperimentSpec(problem="valley", K=K, order=order, tol=tol,
                                  max_iterations=max_iterations)
            res = run_experiment(spec).result
            cells.append(TableCell(K, order, res.iterations, res.converged))
    return ConvergenceTable(K_values, orders, tuple(cells))


@dataclass(frozen=True)
class PowerLawFit:
    """Least-squares log-log slope of iterations vs K for one order.

    Uses the last FIT_POINTS uncensored table entries with K <= FIT_MAX_K
    and at least one iteration; ``available`` is False when fewer exist.
    """

    order: int
    K_values: tuple[float, ...]
    iterations: tuple[int, ...]
    exponent: float
    available: bool

    def display(self) -> str:
        if not self.available:
            return f"order {self.order}: fit unavailable (<{FIT_POINTS} uncensored points)"
        pts = ", ".join(
            f"K={K:g}:{n}" for K, n in zip(self.K_values, self.iterations)
        )
        return f"order {self.order}: exponent {self.exponent:.3f} (from {pts})"


def fit_power_laws(table: ConvergenceTable) -> list[PowerLawFit]:
    """Power-law exponent per order from the last three uncensored points."""
    fits = []
    for order in table.orders:
        usable = sorted(
            (c for c in table.cells
             if c.order == order and c.converged and c.K <= FIT_MAX_K
             and c.iterations > 0),
            key=lambda c: c.K,
        )[-FIT_POINTS:]
        K_values = tuple(c.K for c in usable)
        iterations = tuple(c.iterations for c in usable)
        available = len(usable) == FIT_POINTS
        exponent = (float(np.polyfit(np.log10(K_values), np.log10(iterations), 1)[0])
                    if available else float("nan"))
        fits.append(PowerLawFit(order, K_values, iterations, exponent, available))
    return fits


# -- argument parsing --------------------------------------------------------


def _add_solver_options(parser):
    parser.add_argument("--tol", type=float, default=1e-9,
                        help="convergence tolerance on the residual norm")
    parser.add_argument("--max-iters", type=int, default=20000)
    parser.add_argument("--out", type=str, default=None,
                        help="output CSV path (stdout when omitted)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lmcorrect-bench",
        description="Convergence benchmarks for higher-order corrected damped steps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    single = sub.add_parser(
        "run", help="run one experiment and write its per-iteration trace")
    single.add_argument("--problem", choices=["valley", "affine"], default="valley")
    single.add_argument("--K", type=float, default=1e6,
                        help="anisotropy factor of the valley problem")
    single.add_argument("--order", type=int, default=1,
                        choices=list(STENCIL_EVALUATIONS),
                        help="correction order")
    _add_solver_options(single)
    single.set_defaults(handler=_cmd_run)
    for name, desc, handler in [
        ("table", "valley iteration counts over K values and correction orders",
         _cmd_table),
        ("fit", "fit power-law exponents of valley iterations vs K", _cmd_fit),
    ]:
        grid = sub.add_parser(name, help=desc)
        grid.add_argument("--K", type=float, nargs="+", default=[1e6],
                          help="anisotropy factors of the valley problem")
        grid.add_argument("--order", type=int, nargs="+", default=[1],
                          choices=list(STENCIL_EVALUATIONS),
                          help="correction orders")
        _add_solver_options(grid)
        grid.set_defaults(handler=handler)
    terms = sub.add_parser("terms", help="print the derivative term expansion")
    terms.add_argument("--order", type=int, required=True,
                       help=f"expansion order, 1..{faadibruno.MAX_ORDER}")
    terms.add_argument("--corrections", action="store_true",
                       help="also print the solved correction formula")
    terms.set_defaults(handler=_cmd_terms)
    return parser


def _emit(args, csv_text: str, text_report: str) -> None:
    """CSV to --out (atomic) or stdout; human-readable report to the other."""
    if args.out:
        atomic_write(args.out, csv_text)
        sys.stdout.write(text_report)
    else:
        sys.stdout.write(csv_text)
        sys.stderr.write(text_report)


def _cmd_run(args) -> int:
    spec = ExperimentSpec(problem=args.problem, K=args.K, order=args.order,
                          tol=args.tol, max_iterations=args.max_iters)
    outcome = run_experiment(spec)
    buf = io.StringIO()
    write_trace_csv(buf, outcome.result, spec.order)
    _emit(args, buf.getvalue(), outcome.summary() + "\n")
    return 0


def _cmd_table(args) -> int:
    table = run_table(args.K, args.order, tol=args.tol,
                      max_iterations=args.max_iters)
    _emit(args, table.to_csv(), table.to_text())
    return 0


def _cmd_fit(args) -> int:
    table = run_table(args.K, args.order, tol=args.tol,
                      max_iterations=args.max_iters)
    fits = fit_power_laws(table)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["order", "exponent", "K_points", "iteration_points"])
    for fit in fits:
        writer.writerow([
            fit.order,
            "" if not fit.available else repr(fit.exponent),
            " ".join(f"{k:g}" for k in fit.K_values),
            " ".join(str(n) for n in fit.iterations),
        ])
    report = "".join(fit.display() + "\n" for fit in fits)
    _emit(args, buf.getvalue(), report)
    return 0


def _cmd_terms(args) -> int:
    print(faadibruno.format_derivative_identity(args.order))
    if args.corrections and args.order >= 2:
        print(faadibruno.format_correction_formula(args.order))
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = getattr(args, "out", None)
    try:
        # A bad --out fails before the solves, not after them.
        if out and os.path.isdir(out):
            raise ValueError(f"--out {out!r} is a directory")
        if out and not os.path.isdir(os.path.dirname(os.path.abspath(out))):
            raise ValueError(f"--out {out!r}: no such directory")
        return args.handler(args)
    except (ValueError, StepFailureError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
