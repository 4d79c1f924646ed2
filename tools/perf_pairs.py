"""Run perfbench in two checkouts as alternating pairs and compare them.

Usage, from any directory::

    python tools/perf_pairs.py PARENT_DIR CHANGE_DIR --workload poly-suite \\
        [--workload valley-deep ...] [--pairs 10] [--seconds 20] [--seed 0]

Each pair runs ``python3 perfbench/run.py --trace 0`` once in each
checkout for every named workload, in the order given, the parent first in
odd-numbered pairs and the change first in even-numbered ones, so a slow
spell on a shared machine does not always fall on the same side.  So one
command measures a claimed gain on one workload and the no-regression
checks on the others.  A run that exits nonzero or reports ``correct:
false`` stops the tool with exit status 1.  It prints each pair's
``wall_s`` on each workload, then one table per workload: for every
end-to-end metric in ``BENCHMARK.json`` both sides' medians and
quartiles, the signed relative change of the medians, ``change / parent -
1``, the pairs the change won (ties count for neither side), whether the
gap between the medians exceeds the parent's interquartile range, and
whether the change's median is worse than the parent's by more than the
metric's relative ``bound``, in its ``better`` direction, and whether a
claimed gain on the metric would hold.  A change claims a gain on a metric
only when it wins at least nine tenths of the pairs and its median is better
than the parent's by more than the parent's interquartile range, so ten
pairs are the default and the least that can carry a claim.

The tool edits nothing: perfbench runs as committed in each checkout.  It
uses the standard library only.  SIGTERM ends it as Ctrl-C does: the
running perfbench child is killed and waited for before the tool exits.
"""

from __future__ import annotations

import argparse
import json
import math
import signal
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def quartiles(values):
    """``(q1, median, q3)`` of ``values``, inclusive method; one value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarise(pairs, better: str, bound: float) -> dict:
    """Compare one metric over ``pairs`` of ``(parent, change)`` values.

    ``better`` is ``"lower"`` or ``"higher"``.  Returns both sides'
    quartiles, the signed relative change of the medians (nan on a parent
    median of 0), the change's wins, the number of pairs, the gap between
    the medians, whether it exceeds the parent's interquartile range,
    whether the change's median is worse than the parent's by more than the
    fraction ``bound`` of it, and ``claim_holds``: whether the change won at
    least nine tenths of the pairs and its median is better than the
    parent's by more than that range.
    """
    sign = {"lower": -1.0, "higher": 1.0}[better]
    parent = quartiles([p for p, _ in pairs])
    change = quartiles([c for _, c in pairs])
    gap, spread = abs(change[1] - parent[1]), parent[2] - parent[0]
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    return {
        "parent": parent,
        "change": change,
        "relative": change[1] / parent[1] - 1.0 if parent[1] else math.nan,
        "wins": wins,
        "pairs": len(pairs),
        "gap": gap,
        "gap_exceeds_parent_iqr": gap > spread,
        "worse_beyond_bound": sign * (parent[1] - change[1]) > bound * abs(parent[1]),
        "claim_holds": 10 * wins >= 9 * len(pairs)
        and sign * (change[1] - parent[1]) > spread,
    }


def run_once(checkout: Path, workload: str, seconds: float, seed: int) -> dict:
    """One untraced perfbench run in ``checkout``; its metric values by name."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    if done.returncode == 0:  # the last line of a finished run is its result
        result = json.loads(done.stdout.splitlines()[-1])
        if result["correct"] is True:
            return {name: metric["value"] for name, metric in result["metrics"].items()}
    raise SystemExit(f"error: {' '.join(command)} in {checkout} exited "
                     f"{done.returncode} or was not correct\n{done.stderr[-2000:]}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", action="append", required=True,
                        help="repeat to run several workloads in each pair")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    sides = {"parent": args.parent, "change": args.change}
    runs = {workload: [] for workload in args.workload}  # per pair, both sides' metrics
    for index in range(args.pairs):
        order = ["parent", "change"] if index % 2 == 0 else ["change", "parent"]
        for workload, pairs in runs.items():
            pair = {side: run_once(sides[side], workload, args.seconds, args.seed)
                    for side in order}
            pairs.append(pair)
            print(f"pair {index + 1} ({order[0]} first): wall_s parent "
                  f"{pair['parent']['wall_s']:.4f}  change {pair['change']['wall_s']:.4f}"
                  f"  {workload}", flush=True)
    for workload, pairs in runs.items():
        print(f"\n{workload}\n{'metric':12s} {'parent q1 / median / q3':>32s} "
              f"{'change q1 / median / q3':>32s} {'change':>8s} {'wins':>6s}"
              "  gap > parent IQR  worse > bound  claim")
        for metric in metrics:
            name = metric["name"]
            row = summarise([(pair["parent"][name], pair["change"][name]) for pair in pairs],
                            metric["better"], metric["bound"])
            spans = ["{:.4g} / {:.4g} / {:.4g}".format(*row[side])
                     for side in ("parent", "change")]
            print(f"{name:12s} {spans[0]:>32s} {spans[1]:>32s} "
                  f"{row['relative']:>+8.2%} {row['wins']:>3d}/{row['pairs']:<2d}  "
                  f"{row['gap_exceeds_parent_iqr']!s:16s}  {row['worse_beyond_bound']!s:13s}"
                  f"  {row['claim_holds']}")
    return 0


def exit_on_sigterm(signum, frame):
    """Raise SystemExit, on which ``subprocess.run`` kills its child; the
    default action of SIGTERM would end the tool and leave the child running."""
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, exit_on_sigterm)
    sys.exit(main())
