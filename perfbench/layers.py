"""The library calls the benchmark traces, and what it derives from their spans.

Every traced boundary is a public attribute of an ``lmcorrect`` module or
class, patched for the length of a traced pass and restored afterwards:

* ``problems``: ``valley_eval`` / ``valley_jacobian`` (looked up by the
  valley closures at call time) and ``PolynomialProblem.evaluator`` /
  ``.jacobian`` (bound by ``as_problem``);
* ``linalg``: ``SvdFactors.__init__`` (the SVD), ``damped_apply`` and
  ``damped_apply_batch``;
* ``corrections``: ``correction_series`` under the optimizer's own import of
  the name, one span name per order;
* ``optimizer``: ``step``, ``run`` (also under ``cli``'s import) and
  ``LambdaSchedule.grid``;
* ``cli``: ``run_table``, ``run_experiment`` and ``write_trace_csv``.
"""

from __future__ import annotations

from tracer import DATA, END, NAME, PARENT, RAISED, START, LayerTotals, \
    aggregate, nearest_ancestor, raw_attribute, self_times

SERIES = "corrections.series"
CORRECTION_ORDERS = (2, 3, 4)

# Traced wall time and the summed self times of its spans may differ by the
# wrapper cost outside span boundaries, but by no more than this share.
SELF_SUM_TOLERANCE = 0.05


def _series_data(args, kwargs, series):
    return series.evaluation_count, series.truncated


def _step_data(args, kwargs, result):
    return result[2].f_evaluations, args[3].order


def _run_data(args, kwargs, result):
    return result


def _targets(lib):
    """(owner, attribute, span name, inspect) for every traced boundary."""
    pr, la, op, cl = lib.problems, lib.linalg, lib.optimizer, lib.cli
    return [
        (pr, "valley_eval", "problems.evaluator", None),
        (pr, "valley_jacobian", "problems.jacobian", None),
        (pr.PolynomialProblem, "evaluator", "problems.evaluator", None),
        (pr.PolynomialProblem, "jacobian", "problems.jacobian", None),
        (la.SvdFactors, "__init__", "linalg.svd", None),
        (la.SvdFactors, "damped_apply", "linalg.damped_apply", None),
        (la.SvdFactors, "damped_apply_batch", "linalg.damped_apply_batch", None),
        (op, "correction_series", SERIES, _series_data),
        (op, "step", "optimizer.step", _step_data),
        (op.LambdaSchedule, "grid", "optimizer.grid", None),
        (op, "run", "optimizer.run", _run_data),
        (cl, "run", "optimizer.run", _run_data),
        (cl, "run_table", "cli.run_table", None),
        (cl, "run_experiment", "cli.run_experiment", None),
        (cl, "write_trace_csv", "cli.trace_csv", None),
    ]


def install(tracer, lib) -> None:
    """Patch every traced boundary of ``lib`` into ``tracer``."""
    for owner, attr, name, inspect in _targets(lib):
        if name != SERIES:
            tracer.patch_traced(owner, attr, name, inspect)
            continue
        original = raw_attribute(owner, attr)
        by_order = {
            n: tracer.wrap(f"{SERIES}.o{n}", original, inspect)
            for n in (1,) + CORRECTION_ORDERS
        }

        def traced_series(*args, **kwargs):
            order = kwargs["order"] if "order" in kwargs else args[6]
            return by_order[order](*args, **kwargs)

        tracer.patch(owner, attr, traced_series)


def snapshot(lib) -> dict:
    """The unpatched value of every traced attribute."""
    return {(owner, attr): raw_attribute(owner, attr)
            for owner, attr, _, _ in _targets(lib)}


def patched_attributes(lib, originals) -> list[str]:
    """Traced attributes whose current value is not the original one."""
    return [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for (owner, attr), original in originals.items()
        if raw_attribute(owner, attr) is not original
    ]


def _is_series(name: str) -> bool:
    return name.startswith(SERIES + ".o")


def run_results(spans):
    """RunResults returned by the outermost traced ``optimizer.run`` calls."""
    return [s[DATA] for s in spans
            if s[NAME] == "optimizer.run" and not s[RAISED]]


def check_trace(spans, lib, traced_wall: float) -> list[str]:
    """Evaluation accounting and self-time consistency of one traced pass."""
    problems = []
    stencil = lib.corrections.STENCIL_EVALUATIONS
    candidates = len(lib.optimizer.GRID_INDICES)
    step_of = nearest_ancestor(spans, "optimizer.step")
    calls = {}       # step index -> evaluator calls inside it
    shortfall = {}   # step index -> stencil points skipped by truncation
    for i, span in enumerate(spans):
        step = step_of[i]
        if span[NAME] == "problems.evaluator" and step >= 0:
            calls[step] = calls.get(step, 0) + 1
        elif _is_series(span[NAME]) and not span[RAISED]:
            order = int(span[NAME][-1])
            charged, truncated = span[DATA]
            if truncated:
                shortfall[step] = shortfall.get(step, 0) + stencil[order] - charged
            elif charged != stencil[order]:
                problems.append(
                    f"order-{order} correction series charged {charged} "
                    f"evaluations, expected {stencil[order]}")
    for i, span in enumerate(spans):
        if span[NAME] != "optimizer.step" or span[RAISED]:
            continue
        reported, order = span[DATA]
        if calls.get(i, 0) != reported:
            problems.append(
                f"step made {calls.get(i, 0)} evaluator calls but reported "
                f"{reported}")
        expected = candidates * (stencil[order] + 1) - shortfall.get(i, 0)
        if reported != expected:
            problems.append(
                f"order-{order} step reported {reported} evaluations, expected "
                f"{candidates} x ({stencil[order]} + 1) less {shortfall.get(i, 0)} "
                f"skipped by truncation")
    unreported = _evals_unreported(spans)
    if unreported:
        problems.append(f"{unreported} evaluator calls missing from RunResult")
    self_sum = sum(self_times(spans))
    if abs(self_sum / traced_wall - 1.0) > SELF_SUM_TOLERANCE:
        problems.append(
            f"span self times sum to {self_sum:.4f} s against a traced wall "
            f"time of {traced_wall:.4f} s")
    return problems


def _evals_unreported(spans) -> int:
    calls = sum(1 for s in spans if s[NAME] == "problems.evaluator")
    return calls - sum(r.f_evaluations for r in run_results(spans))


# Per-layer metric name -> unit, in report order.
LAYER_UNITS = {
    "problems.evaluator.calls": "count",
    "problems.evaluator.us": "us",
    "problems.evaluator.failed": "count",
    "problems.jacobian.calls": "count",
    "problems.jacobian.us": "us",
    "linalg.svd.calls": "count",
    "linalg.svd.us": "us",
    "linalg.damped_apply_batch.calls": "count",
    "linalg.damped_apply_batch.us": "us",
    "linalg.damped_apply.calls": "count",
    "linalg.damped_apply.us": "us",
    "corrections.series.o2.us": "us",
    "corrections.series.o3.us": "us",
    "corrections.series.o4.us": "us",
    "corrections.series.self_us": "us",
    "corrections.series.o2.evals_per_call": "count",
    "corrections.series.o3.evals_per_call": "count",
    "corrections.series.o4.evals_per_call": "count",
    "corrections.truncated_frac": "ratio",
    "corrections.stencil_failed": "count",
    "optimizer.step.calls": "count",
    "optimizer.step.us": "us",
    "optimizer.step.self_us": "us",
    "optimizer.grid.us": "us",
    "optimizer.run.self_us": "us",
    "optimizer.accept_frac": "ratio",
    "optimizer.evals_unreported": "count",
    "faadibruno.terms_ms": "ms",
    "cli.run_table.self_ms": "ms",
    "cli.trace_csv.ms": "ms",
    "trace.overhead_frac": "ratio",
    "trace.self_sum_frac": "ratio",
}


def layer_metrics(spans, clock) -> dict[str, float]:
    """Per-layer values of one traced pass: counts, and busy and self times.

    Times are totals over the pass, scaled to the reference machine speed by
    the pass's ``NormalisedClock``.  ``faadibruno.terms_ms`` and
    ``trace.overhead_frac`` need runs of their own and are left out here.
    """
    totals = aggregate(spans)
    scale = clock.normalised / clock.measured
    us, ms = 1e6 * scale, 1e3 * scale

    def layer(name):
        return totals.get(name, LayerTotals())

    out = {}
    for name in ("problems.evaluator", "problems.jacobian", "linalg.svd",
                 "linalg.damped_apply_batch", "linalg.damped_apply",
                 "optimizer.step"):
        out[f"{name}.calls"] = layer(name).calls
        out[f"{name}.us"] = layer(name).total * us
    out["problems.evaluator.failed"] = layer("problems.evaluator").raised

    series = [s for s in spans if _is_series(s[NAME])]
    done = [s for s in series if not s[RAISED]]
    for n in CORRECTION_ORDERS:
        out[f"{SERIES}.o{n}.us"] = layer(f"{SERIES}.o{n}").total * us
        charged = [s[DATA][0] for s in done
                   if s[NAME].endswith(f".o{n}") and not s[DATA][1]]
        out[f"{SERIES}.o{n}.evals_per_call"] = (
            sum(charged) / len(charged) if charged else 0.0)
    out[f"{SERIES}.self_us"] = sum(
        t.self_time for name, t in totals.items() if _is_series(name)) * us
    out["corrections.truncated_frac"] = (
        sum(s[DATA][1] for s in done) / len(done) if done else 0.0)
    out["corrections.stencil_failed"] = len(series) - len(done)

    out["optimizer.step.self_us"] = layer("optimizer.step").self_time * us
    out["optimizer.grid.us"] = layer("optimizer.grid").total * us
    out["optimizer.run.self_us"] = layer("optimizer.run").self_time * us
    results = run_results(spans)
    iterations = sum(r.iterations for r in results)
    accepted = sum(rec.accepted for r in results for rec in r.trajectory)
    out["optimizer.accept_frac"] = accepted / iterations if iterations else 0.0
    out["optimizer.evals_unreported"] = _evals_unreported(spans)

    out["cli.run_table.self_ms"] = layer("cli.run_table").self_time * ms
    out["cli.trace_csv.ms"] = layer("cli.trace_csv").total * ms
    out["trace.self_sum_frac"] = \
        sum(t.self_time for t in totals.values()) / clock.measured
    return out


def write_spans(path, spans) -> None:
    """Write spans as CSV: index, name, start and end in microseconds, parent."""
    origin = spans[0][START] if spans else 0.0
    with open(path, "w") as handle:
        handle.write("index,name,start_us,end_us,parent,raised\n")
        for i, s in enumerate(spans):
            handle.write(
                f"{i},{s[NAME]},{(s[START] - origin) * 1e6:.3f},"
                f"{(s[END] - origin) * 1e6:.3f},{s[PARENT]},{int(s[RAISED])}\n")
