"""Benchmark of the lmcorrect solver: end-to-end cost and a per-layer trace.

Usage, from the repository root:

    python3 perfbench/run.py --workload valley-deep --seed 0 --seconds 20 --trace 0

The library is imported from ``src/`` next to this directory.  A run builds
the workload's inputs from ``--seed``, repeats passes over them for
``--seconds`` seconds and checks every solve.  ``--trace 0`` reports the
end-to-end metrics (untraced passes, plus one traced pass used only for the
evaluation-accounting checks); ``--trace 1`` alternates traced and untraced
passes and reports the per-layer metrics.  The last line of standard output
is one JSON object: ``correct``, ``attempted`` and ``failed`` solves, and
``metrics``.  Exit status: 0 when every check passed, 1 when a check failed,
2 on a usage error or when the library cannot be found.
"""

from __future__ import annotations

import os

BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                         "MKL_NUM_THREADS")
if __name__ == "__main__":
    # One BLAS thread: set before numpy is first imported, hence the imports
    # below this block.
    for _var in BLAS_THREAD_VARIABLES:
        os.environ[_var] = "1"

import argparse
import gc
import importlib
import json
import platform
import resource
import statistics
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import layers
from speed import NormalisedClock
from tracer import Tracer
from workloads import VALLEY_START, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".perfbench-out"
PACKAGE = "lmcorrect"

# Imports plus problem builds timed per run; setup_s is their median.
SETUP_REPEATS = 9
FAADIBRUNO_REPEATS = 5
FAADIBRUNO_ORDERS = (2, 3, 4)
# Seed-0 evaluation counts, reported (not enforced) as a reproduction check.
SEED0_F_EVALS = {"valley-deep": 103473, "valley-order1": 84505,
                 "poly-suite": 75568}
SCIPY_K = 1e6
SCIPY_MAX_NFEV = 10000

END_TO_END_UNITS = {
    "wall_s": "s",
    "f_evals": "count",
    "iterations": "count",
    "solved_frac": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def load_library():
    """Import the library and return its modules by layer name."""
    pkg = importlib.import_module(PACKAGE)
    cli = importlib.import_module(f"{PACKAGE}.cli")
    return SimpleNamespace(
        package=pkg, cli=cli, optimizer=pkg.optimizer, problems=pkg.problems,
        linalg=pkg.linalg, corrections=pkg.corrections,
        faadibruno=pkg.faadibruno)


def _library_modules():
    return [k for k in sys.modules if k == PACKAGE or k.startswith(PACKAGE + ".")]


def measure_setup(workload, seed: int, repeats: int) -> list[float]:
    """Seconds to import the library afresh and build the workload's inputs,
    at the reference machine speed.

    The modules loaded before the call are put back afterwards, so the
    caller keeps using the library objects it already holds.
    """
    saved = {k: sys.modules[k] for k in _library_modules()}
    samples = []
    try:
        for _ in range(repeats):
            for k in _library_modules():
                del sys.modules[k]
            clock = NormalisedClock()
            t0 = time.perf_counter()
            workload.build(load_library(), seed)
            clock.add(time.perf_counter() - t0)
            samples.append(clock.normalised)
    finally:
        for k in _library_modules():
            del sys.modules[k]
        sys.modules.update(saved)
    return samples


@dataclass
class PassRecord:
    """One pass: its solves and the clock that timed them."""

    traced: bool
    clock: NormalisedClock
    solves: list
    layer: dict | None = None


@dataclass
class Bench:
    """One benchmark run: the workload, its inputs and every pass made."""

    lib: SimpleNamespace
    workload: object
    inputs: object
    originals: dict
    passes: list = field(default_factory=list)
    problems: list = field(default_factory=list)
    spans: list | None = None

    def run_pass(self, traced: bool) -> PassRecord:
        leftover = layers.patched_attributes(self.lib, self.originals)
        if leftover:
            raise RuntimeError(f"library still patched before a pass: {leftover}")
        gc.collect()
        clock = NormalisedClock()
        with Tracer() as tracer:
            if traced:
                layers.install(tracer, self.lib)
            solves, problems = self.workload.run_pass(self.lib, self.inputs, clock)
        leftover = layers.patched_attributes(self.lib, self.originals)
        if leftover:
            raise RuntimeError(f"tracer left attributes patched: {leftover}")
        record = PassRecord(traced, clock, solves)
        if traced:
            results = layers.run_results(tracer.spans)
            if len(results) != len(solves):
                raise RuntimeError(f"traced {len(results)} runs for "
                                   f"{len(solves)} solves")
            for solve, result in zip(solves, results):
                if (solve.iterations, solve.converged) != \
                        (result.iterations, result.converged):
                    problems.append(f"{solve.label}: traced run disagrees with "
                                    f"the workload's own result")
            record.solves = [s.with_result(r) for s, r in zip(solves, results)]
            problems += layers.check_trace(tracer.spans, self.lib, clock.measured)
            record.layer = layers.layer_metrics(tracer.spans, clock)
            self.spans = tracer.spans
        self.problems += problems
        self.passes.append(record)
        return record

    @property
    def reference(self) -> PassRecord:
        """The first traced pass: it sees every count."""
        return next(p for p in self.passes if p.traced)

    def check(self) -> None:
        ref = self.reference
        for solve in ref.solves:
            if not solve.solved:
                self.problems.append(
                    f"{solve.label}: not solved to {solve.tol:g} (converged="
                    f"{solve.converged}, residual={solve.residual})")
            band = self.workload.bands.get(solve.label)
            if band and not band[0] <= solve.iterations <= band[1]:
                self.problems.append(
                    f"{solve.label}: {solve.iterations} iterations, outside "
                    f"the band {band[0]}-{band[1]}")
        for record in self.passes:
            for solve, expected in zip(record.solves, ref.solves):
                same = (solve.iterations, solve.converged) == \
                    (expected.iterations, expected.converged)
                if solve.f_evals is not None:
                    same = same and solve.f_evals == expected.f_evals
                if not same:
                    self.problems.append(f"{solve.label}: pass results differ "
                                         f"from the reference pass")

    def walls(self, traced: bool) -> list[float]:
        """Solve seconds of each pass, at the reference machine speed."""
        return [p.clock.normalised for p in self.passes if p.traced == traced]

    def counts(self) -> tuple[int, int]:
        attempted = sum(len(p.solves) for p in self.passes)
        solved = sum(s.solved for p in self.passes for s in p.solves)
        return attempted, solved


def tail(samples):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(samples)
    if n < 11:
        return None
    k = n - 10
    return {"percentile": round(100.0 * k / n, 1), "value": sorted(samples)[k - 1]}


def faadibruno_terms_ms(lib) -> float:
    """Identity generation for orders 2-4, at the reference machine speed."""
    samples = []
    for _ in range(FAADIBRUNO_REPEATS):
        clock = NormalisedClock()
        t0 = time.perf_counter()
        for n in FAADIBRUNO_ORDERS:
            lib.faadibruno.correction_identity_terms(n)
        clock.add(time.perf_counter() - t0)
        samples.append(clock.normalised)
    return statistics.median(samples) * 1e3


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def scipy_reference(lib) -> dict:
    """scipy's least_squares on the K = 1e6 valley from (pi, e), for context."""
    try:
        import scipy
        from scipy.optimize import least_squares
    except ImportError:
        return {"available": False}
    valley_eval = lib.problems.valley_eval
    valley_jacobian = lib.problems.valley_jacobian
    out = {"available": True, "scipy": scipy.__version__, "K": SCIPY_K,
           "max_nfev": SCIPY_MAX_NFEV}
    for method in ("lm", "trf"):
        t0 = time.perf_counter()
        res = least_squares(lambda p: valley_eval(SCIPY_K, p[0], p[1]),
                            np.array(VALLEY_START),
                            jac=lambda p: valley_jacobian(SCIPY_K, p[0], p[1]),
                            method=method, max_nfev=SCIPY_MAX_NFEV)
        out[method] = {
            "wall_s": time.perf_counter() - t0,
            "nfev": int(res.nfev),
            "njev": None if res.njev is None else int(res.njev),
            "residual_norm": float(np.linalg.norm(res.fun)),
            "status": int(res.status),
        }
    return out


def machine_metadata(seed: int, load_at_start) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration")},
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARIABLES},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": threading.active_count(),
        "loadavg_at_start": list(load_at_start),
        "platform": platform.platform(),
        "seed": seed,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def run(workload, seed: int, seconds: float, trace: bool, spans_dir: Path):
    """Run one benchmark; returns (result object, detail report).

    A traced run writes the spans of its last traced pass under ``spans_dir``.
    """
    load_at_start = os.getloadavg()
    t0 = time.perf_counter()
    lib = load_library()
    cold_import_s = time.perf_counter() - t0
    if Path(lib.package.__file__).resolve().parent != SRC / PACKAGE:
        raise RuntimeError(f"imported {lib.package.__file__}, not the library in {SRC}")
    setup = measure_setup(workload, seed, SETUP_REPEATS)
    bench = Bench(lib, workload, workload.build(lib, seed), layers.snapshot(lib))

    detail = {"workload": workload.name, "seed": seed, "seconds": seconds,
              "trace": int(trace)}
    metrics = {}
    rss = None
    try:
        if trace:
            bench.run_pass(traced=True)
            deadline = time.perf_counter() + seconds
            while time.perf_counter() < deadline or not bench.walls(False):
                bench.run_pass(traced=False)
                bench.run_pass(traced=True)
        else:
            deadline = time.perf_counter() + seconds
            while time.perf_counter() < deadline or not bench.walls(False):
                bench.run_pass(traced=False)
            rss = peak_rss_mb()
            bench.run_pass(traced=True)
        bench.check()
    except Exception:
        bench.problems.append("pass raised: " + traceback.format_exc(limit=8))

    untraced, traced = bench.walls(False), bench.walls(True)
    attempted, solved = bench.counts()
    if any(p.traced for p in bench.passes) and untraced:
        ref = bench.reference
        if trace:
            samples = [p.layer for p in bench.passes if p.traced]
            metrics = {name: statistics.median(s[name] for s in samples)
                       for name in samples[0]}
            metrics["faadibruno.terms_ms"] = faadibruno_terms_ms(lib)
            metrics["trace.overhead_frac"] = \
                statistics.median(traced) / statistics.median(untraced) - 1.0
            metrics = {name: metrics[name] for name in layers.LAYER_UNITS}
        else:
            metrics = {
                "wall_s": statistics.median(untraced),
                "f_evals": sum(s.f_evals for s in ref.solves),
                "iterations": sum(s.iterations for s in ref.solves),
                "solved_frac": solved / attempted,
                "setup_s": statistics.median(setup),
                "peak_rss_mb": rss,
            }
            detail["seed0_f_evals_match"] = (
                metrics["f_evals"] == SEED0_F_EVALS[workload.name]
                if seed == 0 else None)
        detail["solves"] = [
            {"label": s.label, "iterations": s.iterations, "f_evals": s.f_evals,
             "residual": s.residual, "tol": s.tol} for s in ref.solves]

    raw = [p.clock.measured for p in bench.passes if not p.traced]
    detail["wall_s"] = {
        "untraced": {"samples": untraced, "n": len(untraced),
                     "median": statistics.median(untraced) if untraced else None,
                     "tail": tail(untraced)},
        "untraced_measured": {
            "samples": raw, "median": statistics.median(raw) if raw else None,
            "tail": tail(raw)},
        "slowdown": [p.clock.slowdowns for p in bench.passes],
        "traced": {"samples": traced, "n": len(traced)},
    }
    detail["setup_s"] = {"samples": setup, "cold_import_s": cold_import_s}
    detail["problems"] = bench.problems
    detail["machine"] = machine_metadata(seed, load_at_start)
    if trace and bench.spans:
        spans_dir.mkdir(exist_ok=True)
        path = spans_dir / f"spans-{workload.name}-seed{seed}.csv"
        layers.write_spans(path, bench.spans)
        detail["spans_file"] = str(path)
    elif not trace:
        detail["scipy_reference"] = scipy_reference(lib)

    units = layers.LAYER_UNITS if trace else END_TO_END_UNITS
    result = {
        "correct": not bench.problems and bool(metrics),
        "attempted": max(attempted, 1),
        "failed": max(attempted, 1) - solved,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    return result, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: no {PACKAGE} package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]()
    result, detail = run(workload, args.seed, args.seconds, bool(args.trace),
                         SPANS_DIR)
    print(json.dumps(detail, indent=1, default=str))
    for name, metric in result["metrics"].items():
        print(f"{name:40s} {metric['value']:>16.6f} {metric['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
