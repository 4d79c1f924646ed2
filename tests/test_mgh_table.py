"""``tools/mgh_table.py``: a smoke run on one problem of the table."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "mgh_table.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("mgh_table", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_problem_prints_four_orders_and_the_summary(capsys):
    tool = load_tool()
    assert tool.main(["freudenstein_roth"]) == 0
    header, *rows, summary = capsys.readouterr().out.splitlines()
    assert header == tool.HEADER
    counts = ["21/442", "22/925", "20/2101", "20/3761"]  # as tests/test_mgh.py pins
    assert len(rows) == 4
    for order, (row, count) in enumerate(zip(rows, counts), start=1):
        name, got_order, termination, norm, got_count, _, lm_norm, lm_evals = row.split()
        assert (name, got_order, termination) == ("freudenstein_roth", str(order), "stalled")
        assert (norm, got_count) == ("6.998875", count)
        if tool.least_squares is None:
            assert (lm_norm, lm_evals) == ("-", "-")
        else:  # scipy's lm stops at the same local minimum
            assert lm_norm == "6.998875" and int(lm_evals) > 0
    stalled = 0 if tool.least_squares is None else 4
    assert summary == ("summary: 1 problems x 4 orders: converged 0, "
                       f"stalled at lm's |f| {stalled}, other {4 - stalled}")


def test_an_unknown_problem_is_refused(capsys):
    assert load_tool().main(["rosenbrock", "nonesuch"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "unknown problem: nonesuch\n"
