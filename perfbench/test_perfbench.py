"""Tests of the benchmark itself: span arithmetic, metric names, smoke runs."""

import json
import re
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
if str(HERE.parent / "src") not in sys.path:
    sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import run  # noqa: E402
from speed import NormalisedClock  # noqa: E402
from tracer import Tracer, aggregate, covered_length, nearest_ancestor, \
    self_times  # noqa: E402
from workloads import PolySuite, ValleyDeep, ValleyOrder1  # noqa: E402

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def span(name, start, end, parent, data=None, raised=False):
    return [name, start, end, parent, data, raised]


def test_self_time_on_synthetic_tree():
    spans = [
        span("root", 0.0, 10.0, -1),
        span("a", 1.0, 4.0, 0),
        span("b", 3.0, 6.0, 0),      # overlaps a: the union counts once
        span("a.child", 2.0, 3.0, 1),
        span("c", 9.0, 12.0, 0),     # runs past the root: clipped to it
    ]
    assert self_times(spans) == [4.0, 2.0, 3.0, 1.0, 3.0]
    totals = aggregate(spans)
    assert totals["root"].calls == 1 and totals["root"].total == 10.0
    assert nearest_ancestor(spans, "a") == [-1, 1, -1, 1, -1]


def test_covered_length_merges_and_clips():
    assert covered_length([(5, 7), (0, 2), (1, 3)], 1, 6) == 3
    assert covered_length([], 0, 1) == 0


def test_tracer_records_nesting_and_restores():
    class Box:
        def inner(self, x):
            if x < 0:
                raise ValueError(x)
            return x + 1

        def outer(self, x):
            return self.inner(x) * 2

    module = SimpleNamespace(helper=lambda: 7)
    originals = (Box.__dict__["inner"], Box.__dict__["outer"], module.helper)
    with Tracer() as tracer:
        tracer.patch_traced(Box, "inner", "inner",
                            inspect=lambda args, kwargs, result: result)
        tracer.patch_traced(Box, "outer", "outer")
        tracer.patch_traced(module, "helper", "helper")
        assert Box().outer(1) == 4 and module.helper() == 7
        with pytest.raises(ValueError):
            Box().inner(-1)
    assert (Box.__dict__["inner"], Box.__dict__["outer"], module.helper) == originals
    names = [s[0] for s in tracer.spans]
    assert names == ["outer", "inner", "helper", "inner"]
    assert tracer.spans[1][3] == 0 and tracer.spans[1][4] == 2
    assert tracer.spans[3][5] and not tracer.spans[1][5]
    assert sum(self_times(tracer.spans)) == pytest.approx(
        sum(s[2] - s[1] for s in tracer.spans if s[3] < 0))


def test_check_trace_flags_unreported_evaluations():
    lib = SimpleNamespace(
        corrections=SimpleNamespace(STENCIL_EVALUATIONS={1: 0, 2: 1, 3: 4, 4: 8}),
        optimizer=SimpleNamespace(GRID_INDICES=range(2)))
    result = SimpleNamespace(f_evaluations=3, iterations=1, trajectory=())
    spans = [span("optimizer.run", 0.0, 1.0, -1, result),
             span("problems.evaluator", 0.0, 0.1, 0),
             span("optimizer.step", 0.2, 0.9, 0, (2, 1))]
    spans += [span("problems.evaluator", 0.3 + 0.1 * k, 0.35 + 0.1 * k, 2)
              for k in range(3)]
    problems = layers.check_trace(spans, lib, traced_wall=1.0)
    assert any("made 3 evaluator calls but reported 2" in p for p in problems)
    assert any("missing from RunResult" in p for p in problems)


def test_normalised_clock_divides_each_interval_by_its_slowdown():
    clock = NormalisedClock()
    clock.add(0.5)
    clock.add(0.25)
    assert clock.measured == 0.75 and len(clock.slowdowns) == 2
    assert clock.normalised == pytest.approx(
        0.5 / clock.slowdowns[0] + 0.25 / clock.slowdowns[1])
    assert all(s > 0 for s in clock.slowdowns)


def test_wrong_iteration_count_fails_the_run(tmp_path):
    class NarrowBand(ValleyDeep):
        bands = {"K=10000 order=4": (1, 2)}

    result, detail = run.run(NarrowBand(K_values=(1e4,), orders=(4,)), 0, 0.01,
                             False, tmp_path)
    assert not result["correct"]
    assert any("outside the band 1-2" in p for p in detail["problems"])


def test_metric_names_and_units_are_valid():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert end_to_end == run.END_TO_END_UNITS
    assert per_layer == layers.LAYER_UNITS
    for name, unit in {**end_to_end, **per_layer}.items():
        assert NAME_RE.match(name), name
        assert UNIT_RE.match(unit), unit
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)


# Seed-0 smoke runs at reduced size: one solve cell of each workload.
SMOKE = [
    (ValleyDeep(K_values=(1e6,), orders=(4,)), {"linalg.damped_apply.calls"}),
    (ValleyOrder1(K=1e3), {"cli.trace_csv.ms"}),
    (PolySuite(runs_per_cell=2), {"problems.evaluator.us"}),
]


@pytest.mark.parametrize("workload,busy", SMOKE, ids=lambda v: getattr(v, "name", ""))
@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
def test_smoke_run(workload, busy, trace, tmp_path):
    result, detail = run.run(workload, 0, 0.01, trace, tmp_path)
    assert result["correct"], detail["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 2
    expected = layers.LAYER_UNITS if trace else run.END_TO_END_UNITS
    assert list(result["metrics"]) == list(expected)
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if trace:
        assert values["optimizer.evals_unreported"] == 0
        assert all(values[name] > 0 for name in busy)
        assert (tmp_path / f"spans-{workload.name}-seed0.csv").is_file()
    else:
        assert all(v > 0 for v in values.values())
