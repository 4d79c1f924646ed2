"""``tools/perf_pairs.py``'s arithmetic, pairing and SIGTERM, without perfbench."""

import importlib.util
import json
import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "perf_pairs.py"


@pytest.fixture(scope="module")
def perf_pairs():
    spec = importlib.util.spec_from_file_location("perf_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_quartiles_are_inclusive(perf_pairs):
    assert perf_pairs.quartiles([5.0, 1.0, 3.0, 2.0, 4.0]) == (2.0, 3.0, 4.0)
    assert perf_pairs.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.75, 2.5, 3.25)
    assert perf_pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_summary_of_a_lower_is_better_metric(perf_pairs):
    # Parent 1..5 has quartiles 2 / 3 / 4, so an IQR of 2.  The change is
    # 0.5 lower in four pairs and ties the fifth: four wins, a gap of 0.5.
    pairs = [(1.0, 0.5), (2.0, 1.5), (3.0, 2.5), (4.0, 3.5), (5.0, 5.0)]
    row = perf_pairs.summarise(pairs, "lower", 0.2)
    assert row["parent"] == (2.0, 3.0, 4.0)
    assert row["change"] == (1.5, 2.5, 3.5)
    assert (row["wins"], row["pairs"]) == (4, 5)
    assert row["gap"] == 0.5
    assert row["relative"] == pytest.approx(-1 / 6)
    assert row["gap_exceeds_parent_iqr"] is False
    # The same numbers where higher is better: the change wins nothing.
    assert perf_pairs.summarise(pairs, "higher", 0.2)["wins"] == 0


def test_a_gap_beyond_the_parent_spread_is_flagged(perf_pairs):
    pairs = [(0.74, 0.70), (0.75, 0.71), (0.76, 0.69), (0.74, 0.70)]
    row = perf_pairs.summarise(pairs, "lower", 0.2)
    assert row["wins"] == 4
    parent_iqr = row["parent"][2] - row["parent"][0]
    assert row["gap"] == pytest.approx(0.045) and parent_iqr == pytest.approx(0.0125)
    assert row["gap_exceeds_parent_iqr"] is True
    # A gap exactly at the parent's IQR does not exceed it.
    assert not perf_pairs.summarise([(1.0, 2.0), (3.0, 4.0)], "higher", 0.2)[
        "gap_exceeds_parent_iqr"]


def _ten_pairs(wins, gap):
    """Ten lower-is-better pairs: the parent is 1.0 .. 1.9, whose quartiles
    are 1.225 / 1.45 / 1.675 (an IQR of 0.45), and the change is the parent
    minus ``gap`` in the first ``wins`` pairs, the parent plus 0.01 in the
    others."""
    parent = [1.0 + 0.1 * k for k in range(10)]
    return [(p, p - gap if k < wins else p + 0.01) for k, p in enumerate(parent)]


@pytest.mark.parametrize("wins,gap,holds", [
    (9, 0.6, True), (10, 0.6, True), (8, 0.6, False), (10, 0.4, False), (10, 0.45, False)],
    ids=["9-of-10-with-a-gap", "10-of-10-with-a-gap", "8-of-10", "10-of-10-inside-the-iqr",
         "10-of-10-at-the-iqr"])
def test_a_claim_holds_on_nine_tenths_of_the_pairs_and_a_gap_beyond_the_iqr(
        perf_pairs, wins, gap, holds):
    row = perf_pairs.summarise(_ten_pairs(wins, gap), "lower", 0.2)
    assert row["parent"] == pytest.approx((1.225, 1.45, 1.675))
    assert (row["wins"], row["pairs"]) == (wins, 10)
    assert row["claim_holds"] is holds
    # Where higher is better, the same pairs win nothing and claim nothing.
    assert perf_pairs.summarise(_ten_pairs(wins, gap), "higher", 0.2)[
        "claim_holds"] is False


def test_the_relative_change_is_signed_against_the_parent_median(perf_pairs):
    # change / parent - 1 on the medians, whichever direction is better: a
    # higher-is-better metric that rose reads positive, and a parent median
    # of 0 has no relative change.
    pairs = [(2.0, 2.5), (4.0, 5.0), (6.0, 7.5)]
    assert perf_pairs.summarise(pairs, "higher", 0.2)["relative"] == pytest.approx(0.25)
    assert perf_pairs.summarise(pairs, "lower", 0.2)["relative"] == pytest.approx(0.25)
    assert math.isnan(perf_pairs.summarise([(0.0, 1.0)], "lower", 0.2)["relative"])


def test_a_median_worse_beyond_its_bound_is_flagged(perf_pairs):
    # The parent's median is 1.0.  With a bound of 0.2, a lower-is-better
    # metric is worse beyond it above 1.2, and a higher-is-better one below
    # 0.8; a median at the bound is not beyond it.
    def worse(change, better):
        pairs = [(1.0, change), (0.9, change), (1.1, change)]
        return perf_pairs.summarise(pairs, better, 0.2)["worse_beyond_bound"]

    assert [worse(c, "lower") for c in (0.5, 1.2, 1.21)] == [False, False, True]
    assert [worse(c, "higher") for c in (1.5, 0.8, 0.79)] == [False, False, True]


def test_pairs_alternate_which_side_runs_first(perf_pairs, monkeypatch, capsys):
    calls = []

    def fake_run(checkout, workload, seconds, seed):
        calls.append(checkout.name)
        wall = {"parent": 0.8, "change": 0.7}[checkout.name]
        return {"wall_s": wall, "f_evals": 100, "iterations": 10,
                "solved_frac": 1.0, "setup_s": 0.02, "peak_rss_mb": 50.0}

    monkeypatch.setattr(perf_pairs, "run_once", fake_run)
    argv = ["/x/parent", "/x/change", "--workload", "valley-deep", "--pairs", "3"]
    assert perf_pairs.main(argv) == 0
    assert calls == ["parent", "change", "change", "parent", "parent", "change"]
    out = capsys.readouterr().out
    assert "pair 2 (change first): wall_s parent 0.8000  change 0.7000" in out
    wall = next(line for line in out.splitlines() if line.startswith("wall_s "))
    assert wall.split()[-5:] == ["-12.50%", "3/3", "True", "False", "True"]
    evals = next(line for line in out.splitlines() if line.startswith("f_evals "))
    assert evals.split()[-5:] == ["+0.00%", "0/3", "False", "False", "False"]


@pytest.mark.parametrize("code,correct", [(1, False), (0, False), (2, None)])
def test_a_failed_or_incorrect_run_stops_the_tool(perf_pairs, monkeypatch, code,
                                                 correct):
    last = "" if correct is None else json.dumps({"correct": correct, "metrics": {}})

    def fake_subprocess(command, **kwargs):
        return subprocess.CompletedProcess(command, code, "detail\n" + last, "")

    monkeypatch.setattr(perf_pairs.subprocess, "run", fake_subprocess)
    with pytest.raises(SystemExit, match="^error: "):
        perf_pairs.run_once(Path("/x/parent"), "valley-deep", 1.0, 0)


def test_the_default_is_ten_pairs(perf_pairs):
    assert perf_pairs.parse_args(["/x/parent", "/x/change", "--workload", "w"]).pairs == 10


def test_sigterm_kills_the_running_perfbench_child(tmp_path):
    # A fake checkout whose perfbench/run.py writes its pid and sleeps: the
    # tool starts that one child, and a SIGTERM to the tool must take the
    # child with it rather than leave it running.
    fake = tmp_path / "checkout"
    (fake / "perfbench").mkdir(parents=True)
    pid_file = tmp_path / "child.pid"
    (fake / "perfbench" / "run.py").write_text(
        "import os, time\n"
        f"open({str(pid_file)!r}, 'w').write(str(os.getpid()))\n"
        "time.sleep(60)\n")
    tool = subprocess.Popen([sys.executable, str(TOOL), str(fake), str(fake),
                             "--workload", "w", "--pairs", "1"],
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    child = None
    try:
        deadline = time.monotonic() + 30
        while not pid_file.exists() or not pid_file.read_text():
            assert tool.poll() is None and time.monotonic() < deadline
            time.sleep(0.05)
        child = int(pid_file.read_text())
        tool.send_signal(signal.SIGTERM)
        assert tool.wait(timeout=30) == 128 + signal.SIGTERM
        with pytest.raises(ProcessLookupError):
            os.kill(child, 0)
        child = None
    finally:
        if tool.poll() is None:
            tool.kill()
            tool.wait()
        if child is not None:
            try:
                os.kill(child, signal.SIGKILL)
            except ProcessLookupError:
                pass
