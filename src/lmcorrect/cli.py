"""Benchmark command line: convergence traces, anisotropy tables, power-law fits.

Subcommands
-----------
run    one experiment -> per-iteration CSV trace plus a summary line
table  iteration counts over a K grid x correction orders (CSV + aligned text)
fit    power-law exponents of iterations vs K per order
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
    spec: ExperimentSpec
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
    """Run one experiment and return its trace and summary."""
    problem = spec.build_problem()
    start = time.perf_counter()
    result = run(np.array(START_POINT[: problem.input_dim]), problem, spec.config())
    return ExperimentResult(spec, result, time.perf_counter() - start)


def trace_rows(result: RunResult, order: int):
    """CSV rows for a run; correction columns above the order stay empty."""
    cumulative = 1  # starting-point evaluation
    for rec in result.trajectory:
        cumulative += rec.f_evaluations
        norms = rec.corrections_norms
        row = {
            "iteration": rec.iteration,
            "lambda": repr(rec.chosen_lambda),
            "residual_norm": repr(rec.residual_norm),
            "step_norm": repr(rec.step_norm),
            "f_evals_cumulative": cumulative,
        }
        for i, col in enumerate(("c2_norm", "c3_norm", "c4_norm"), start=1):
            if order > i and i < len(norms):
                row[col] = repr(norms[i])
            else:
                row[col] = ""
        yield row


def write_trace_csv(stream, result: RunResult, order: int) -> None:
    writer = csv.DictWriter(stream, fieldnames=TRACE_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in trace_rows(result, order):
        writer.writerow(row)


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

    @property
    def censored(self) -> bool:
        return not self.converged

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

    def cell(self, K: float, order: int) -> TableCell | None:
        for c in self.cells:
            if c.K == K and c.order == order:
                return c
        return None

    def column(self, order: int) -> list[TableCell]:
        """Cells for one order, K-ascending, absent combinations skipped."""
        cells = [self.cell(K, order) for K in sorted(self.K_values)]
        return [c for c in cells if c is not None]

    def _display(self, K: float, order: int) -> str:
        c = self.cell(K, order)
        return c.display() if c is not None else ""

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["K"] + [f"order_{o}" for o in self.orders])
        for K in self.K_values:
            writer.writerow([f"{K:g}"] + [self._display(K, o) for o in self.orders])
        return buf.getvalue()

    def to_text(self) -> str:
        headers = ["K"] + [f"order {o}" for o in self.orders]
        rows = [
            [f"{K:g}"] + [self._display(K, o) for o in self.orders]
            for K in self.K_values
        ]
        widths = [
            max(len(headers[i]), *(len(r[i]) for r in rows))
            for i in range(len(headers))
        ]
        lines = ["  ".join(h.rjust(w) for h, w in zip(headers, widths))]
        for r in rows:
            lines.append("  ".join(v.rjust(w) for v, w in zip(r, widths)))
        return "\n".join(lines) + "\n"


def run_table(K_values, orders, tol: float = 1e-9,
              max_iterations: int = 20000) -> ConvergenceTable:
    """Iteration counts for every (K, order) combination."""
    K_values = tuple(float(k) for k in K_values)
    orders = tuple(int(o) for o in orders)
    if not K_values:
        raise ValueError("need at least one K value")
    if any(k <= 0 for k in K_values):
        raise ValueError("all K values must be positive")
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

    Uses the last FIT_POINTS uncensored table entries with K <= FIT_MAX_K;
    ``available`` is False when fewer points exist.
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
        usable = [
            c for c in table.column(order)
            if not c.censored and c.K <= FIT_MAX_K
        ]
        usable = usable[-FIT_POINTS:]
        if len(usable) < FIT_POINTS:
            fits.append(PowerLawFit(order, tuple(c.K for c in usable),
                                    tuple(c.iterations for c in usable),
                                    float("nan"), False))
            continue
        logk = np.log10([c.K for c in usable])
        logn = np.log10([c.iterations for c in usable])
        slope = float(np.polyfit(logk, logn, 1)[0])
        fits.append(PowerLawFit(order, tuple(c.K for c in usable),
                                tuple(c.iterations for c in usable), slope, True))
    return fits


# -- argument parsing --------------------------------------------------------


def _add_common(parser):
    parser.add_argument("--problem", choices=["valley", "affine"], default="valley")
    parser.add_argument("--K", type=float, nargs="+", default=[1e6],
                        help="anisotropy factor(s) for the valley problem")
    parser.add_argument("--order", type=int, nargs="+", default=[1],
                        choices=[1, 2, 3, 4], help="correction order(s)")
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
    for name, desc in [
        ("run", "run one experiment and write its per-iteration trace"),
        ("table", "iteration counts over a K grid and correction orders"),
        ("fit", "fit power-law exponents of iterations vs K"),
    ]:
        _add_common(sub.add_parser(name, help=desc))
    terms = sub.add_parser("terms", help="print the derivative term expansion")
    terms.add_argument("--order", type=int, required=True,
                       help=f"expansion order, 1..{faadibruno.MAX_ORDER}")
    terms.add_argument("--corrections", action="store_true",
                       help="also print the solved correction formula")
    return parser


def _emit(args, csv_text: str, text_report: str | None) -> None:
    """CSV to --out (atomic) or stdout; human-readable report to the other."""
    if args.out:
        atomic_write(args.out, csv_text)
        if text_report:
            sys.stdout.write(text_report)
    else:
        sys.stdout.write(csv_text)
        if text_report:
            sys.stderr.write(text_report)


def _cmd_run(args) -> int:
    spec = ExperimentSpec(problem=args.problem, K=args.K[0], order=args.order[0],
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
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "table": _cmd_table,
        "fit": _cmd_fit,
        "terms": _cmd_terms,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, StepFailureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
