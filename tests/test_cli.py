import csv
import io
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import jacobian_raising_from, nan_jacobian_below
from lmcorrect import cli
from lmcorrect.cli import (
    ConvergenceTable,
    ExperimentSpec,
    TableCell,
    atomic_write,
    build_parser,
    fit_power_laws,
    main,
    run_experiment,
    run_table,
    write_trace_csv,
)
from lmcorrect.problems import Problem, valley_problem


def read_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


def test_run_experiment_valley_trace():
    spec = ExperimentSpec(problem="valley", K=1.0, order=2)
    outcome = run_experiment(spec)
    result = outcome.result
    assert result.converged
    buf = io.StringIO()
    write_trace_csv(buf, result, spec.order)
    rows = read_csv(buf.getvalue())
    assert len(rows) == result.iterations
    assert list(rows[0].keys()) == [
        "iteration", "lambda", "residual_norm", "step_norm",
        "c2_norm", "c3_norm", "c4_norm", "f_evals_cumulative",
    ]
    residuals = [float(r["residual_norm"]) for r in rows]
    assert all(b < a for a, b in zip(residuals, residuals[1:]))
    assert residuals[-1] <= 1e-9
    # order 2: c2 column filled, c3/c4 stay empty
    assert all(r["c2_norm"] != "" for r in rows)
    assert all(r["c3_norm"] == "" and r["c4_norm"] == "" for r in rows)
    assert int(rows[-1]["f_evals_cumulative"]) == result.f_evaluations
    assert "iterations=" in outcome.summary()


def test_run_experiment_affine_single_step():
    outcome = run_experiment(ExperimentSpec(problem="affine", order=1))
    assert outcome.result.converged
    assert outcome.result.iterations == 1
    assert outcome.result.residual_norm <= 1e-12


def test_run_experiment_unknown_problem():
    with pytest.raises(ValueError):
        run_experiment(ExperimentSpec(problem="rosenbrock"))


def test_cli_run_writes_csv_and_summary(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    code = main(["run", "--problem", "valley", "--K", "1", "--order", "1",
                 "--out", str(out)])
    assert code == 0
    captured = capsys.readouterr()
    assert "converged=true" in captured.out
    rows = read_csv(out.read_text())
    assert len(rows) >= 5
    assert float(rows[-1]["residual_norm"]) <= 1e-9


def test_cli_run_stdout_when_no_out(capsys):
    code = main(["run", "--problem", "affine"])
    assert code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("iteration,lambda,residual_norm")
    assert "converged=true" in captured.err


def test_cli_table_text_and_csv(tmp_path, capsys):
    out = tmp_path / "table.csv"
    code = main(["table", "--K", "1", "10", "--order", "1", "2",
                 "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "order 1" in text and "order 2" in text
    rows = read_csv(out.read_text())
    assert [r["K"] for r in rows] == ["1", "10"]
    assert all(r["order_1"].isdigit() for r in rows)


def test_cli_table_byte_identical_runs(tmp_path):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path in paths:
        assert main(["table", "--K", "1", "100", "--order", "2",
                     "--out", str(path)]) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_cli_table_censored_entry(capsys):
    code = main(["table", "--K", "1e6", "--order", "1", "--max-iters", "5"])
    assert code == 0
    out = capsys.readouterr().out
    assert ">5" in out


def test_cli_table_rejects_bad_K(capsys):
    assert main(["table", "--K", "-5", "--order", "1"]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    (["run", "--K", "1e6", "--order", "2", "--tol", "inf"], "convergence_tol"),
    (["run", "--tol", "nan"], "convergence_tol"),
    (["run", "--tol", "0"], "convergence_tol"),
    (["table", "--K", "1", "--order", "1", "--tol", "inf"], "convergence_tol"),
    (["fit", "--K", "1", "10", "100", "--max-iters", "0"], "max_iterations"),
    (["run", "--K", "inf"], "anisotropy factor must be positive and finite"),
    (["table", "--K", "1", "inf", "--order", "1"],
     "K values must be positive and finite"),
    (["table", "--K", "10", "10", "--order", "2"], "must not repeat"),
    (["table", "--K", "10", "--order", "2", "2"], "must not repeat"),
    (["fit", "--K", "1e3", "1000", "1e3", "--order", "2"], "must not repeat"),
    (["table", "--K", "1234567", "1234568", "--order", "2"], "must not repeat"),
    (["fit", "--K", "1", "1234567", "1234568", "--order", "2"], "must not repeat"),
], ids=["run-tol-inf", "run-tol-nan", "run-tol-0", "table-tol-inf",
        "fit-max-iters-0", "run-K-inf", "table-K-inf", "table-K-repeated",
        "table-order-repeated", "fit-K-repeated", "table-K-printed-alike",
        "fit-K-printed-alike"])
def test_cli_bad_solver_options_exit_1(argv, message, capsys):
    # An infinite tolerance reported any start converged after 0 iterations;
    # an infinite K was blamed on the starting residual.  A repeated K or
    # order was solved twice, and fitted as distinct points; two Ks that
    # print alike (1.23457e+06) labelled two rows the same.
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize("out", ["missing/x.csv", "."],
                         ids=["no-such-directory", "a-directory"])
@pytest.mark.parametrize("command", ["run", "table", "fit"])
def test_cli_bad_out_exits_1_before_any_solve(command, out, monkeypatch,
                                              tmp_path, capsys):
    # A bad --out died with a traceback after all the solving.
    def no_solve(spec):
        raise AssertionError(f"solved {spec} before checking --out")

    monkeypatch.setattr(cli, "run_experiment", no_solve)
    monkeypatch.chdir(tmp_path)
    assert main([command, "--K", "1", "--out", out]) == 1
    out_text, err = capsys.readouterr()
    assert out_text == ""
    assert err.startswith("error: --out ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_cli_failed_write_exits_1(monkeypatch, tmp_path, capsys):
    def full_disk(path, text):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, "atomic_write", full_disk)
    out = str(tmp_path / "t.csv")
    assert main(["table", "--K", "1", "--order", "1", "--out", out]) == 1
    assert capsys.readouterr() == ("", "error: [Errno 28] No space left on device\n")


def test_cli_usage_errors_exit_2(capsys):
    # run takes one K and one order; table and fit always run the valley.
    for argv in (["run", "--problem", "rosenbrock"],
                 ["bogus-command"],
                 ["run", "--K", "1", "10"],
                 ["run", "--order", "1", "4"],
                 ["table", "--problem", "affine", "--K", "1"],
                 ["fit", "--problem", "valley", "--K", "1", "10", "100"]):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2, argv


@pytest.mark.parametrize("argv", [
    ["run", "--K", "100", "--order", "2"],
    ["run", "--K", "100", "--order", "2", "--out", "trace.csv"],
    ["table", "--K", "100", "--order", "1", "2"],
])
def test_step_failure_exits_1_with_the_error_line(argv, monkeypatch, tmp_path,
                                                  capsys):
    # The Jacobian turns nan below y = 2, which the K = 100 valley crosses
    # mid-run.  run() returns a step_failure result; the CLI reports it as
    # one error line and exit status 1, and writes no CSV.
    monkeypatch.setattr(cli, "valley_problem",
                        lambda K: nan_jacobian_below(valley_problem(K), 2.0))
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    assert capsys.readouterr() == ("", "error: jacobian must be finite\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["run", "--K", "1e6", "--order", "2"],
    ["run", "--K", "1e6", "--order", "2", "--out", "trace.csv"],
    ["table", "--K", "1e6", "--order", "1", "2"],
])
def test_raising_jacobian_exits_1_with_the_error_line(argv, monkeypatch,
                                                      tmp_path, capsys):
    # From its sixth call the Jacobian raises: run() returns a step_failure
    # result, which the CLI reports as one error line, writing no CSV.
    monkeypatch.setattr(cli, "valley_problem", lambda K: jacobian_raising_from(
        valley_problem(K), 6, ZeroDivisionError("division by zero")))
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    assert capsys.readouterr() == (
        "", "error: jacobian failed: ZeroDivisionError('division by zero')\n")
    assert list(tmp_path.iterdir()) == []


def _misshaped_after_the_start(K):
    """The K valley whose every residual after the start one has length 3."""
    valley, calls = valley_problem(K), []

    def evaluator(x):
        calls.append(x)
        return valley.evaluator(x) if len(calls) == 1 else np.ones(3)

    return Problem(2, 2, evaluator, valley.jacobian, name=valley.name)


@pytest.mark.parametrize("argv,cause", [
    (["run", "--K", "100", "--order", "1"], ""),
    (["run", "--K", "100", "--order", "2", "--out", "trace.csv"],
     "residual evaluation failed at stencil offset (1, 0, 0): "),
    (["table", "--K", "100", "--order", "1", "2"], ""),
], ids=["run-1", "run-2-out", "table"])
def test_misshaped_residuals_exit_1_naming_the_shape(argv, cause, monkeypatch,
                                                     tmp_path, capsys):
    # Every residual of the first step has length 3: each call fails, so the
    # step fails, and its error line ends with the lowest grid index's
    # cause, which names the shape (once a ValueError out of run()).
    monkeypatch.setattr(cli, "valley_problem", _misshaped_after_the_start)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    assert capsys.readouterr() == (
        "", "error: no finite candidate endpoint at x=[3.14159265 2.71828183]: "
        f"{cause}residual has shape (3,), expected (2,)\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["run", "--K", "100", "--order", "1", "--out", "trace.csv"],
    ["table", "--K", "100", "--order", "1", "2"],
])
def test_misshaped_jacobian_exits_1_with_the_error_line(argv, monkeypatch,
                                                        tmp_path, capsys):
    # The 5th Jacobian has shape (3, 2): run() returns a step_failure
    # result, and the error line is the shape's own message.
    def tall_fifth(K):
        valley, calls = valley_problem(K), []

        def jacobian(x):
            calls.append(x)
            return np.ones((3, 2)) if len(calls) == 5 else valley.jacobian(x)

        return Problem(2, 2, valley.evaluator, jacobian, name=valley.name)

    monkeypatch.setattr(cli, "valley_problem", tall_fifth)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    assert capsys.readouterr() == (
        "", "error: jacobian has shape (3, 2), expected (2, 2)\n")
    assert list(tmp_path.iterdir()) == []


def test_svd_failure_exits_1_with_the_error_line(monkeypatch, capsys):
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", no_convergence)
    assert main(["run", "--K", "100", "--order", "2"]) == 1
    assert capsys.readouterr() == ("", "error: SVD did not converge\n")


def test_readme_commands_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```\w*\n(.*?)^```", readme, flags=re.M | re.S)
    commands = [line.strip() for block in blocks for line in block.splitlines()
                if line.strip().startswith("lmcorrect-bench ")]
    assert len(commands) >= 4
    parser = build_parser()
    for command in commands:
        parser.parse_args(shlex.split(command)[1:])


# The README's examples, as the CLI prints them without --out: the CSV on
# stdout, the report on stderr.  Only bytes that no float's last bits decide
# are pinned; the fit CSV's repr exponents, masked as "{}", must round to
# the report's three decimals.
README_TABLE_CSV = """\
K,order_1,order_2,order_3,order_4
1,8,5,5,4
10,14,7,6,6
100,47,14,10,8
1000,194,30,17,12
10000,876,67,27,18
"""
README_TABLE_TEXT = """\
    K  order 1  order 2  order 3  order 4
    1        8        5        5        4
   10       14        7        6        6
  100       47       14       10        8
 1000      194       30       17       12
10000      876       67       27       18
"""
README_FIT_CSV = """\
order,exponent,K_points,iteration_points
2,{},10000 100000 1e+06,67 159 390
3,{},10000 100000 1e+06,27 47 83
4,{},10000 100000 1e+06,18 26 41
"""
README_FIT_REPORT = """\
order 2: exponent 0.382 (from K=10000:67, K=100000:159, K=1e+06:390)
order 3: exponent 0.244 (from K=10000:27, K=100000:47, K=1e+06:83)
order 4: exponent 0.179 (from K=10000:18, K=100000:26, K=1e+06:41)
"""
README_TERMS_TEXT = """\
f^(4)[x^(1) x^(1) x^(1) x^(1)] + 6 f^(3)[x^(1) x^(1) x^(2)] + \
4 f^(2)[x^(1) x^(3)] + 3 f^(2)[x^(2) x^(2)] + f^(1)[x^(4)] = 0
c_4 = -1/24 Jinv( f^(4)[c_1 c_1 c_1 c_1] + 12 f^(3)[c_1 c_1 c_2] + \
24 f^(2)[c_1 c_3] + 12 f^(2)[c_2 c_2] )
"""

FLOAT = r"\d+\.\d+(?:e[-+]\d+)?"
AFFINE_RUNS = {
    1: ("iteration,lambda,residual_norm,step_norm,c2_norm,c3_norm,c4_norm,"
        "f_evals_cumulative\n1,0.0,{},{},,,,2\n",
        "converged=true iterations=1 residual_norm={} f_evaluations=2 "
        "wall_time_s={}\n"),
    4: ("iteration,lambda,residual_norm,step_norm,c2_norm,c3_norm,c4_norm,"
        "f_evals_cumulative\n1,0.0,{},{},{},{},{},10\n",
        "converged=true iterations=1 residual_norm={} f_evaluations=10 "
        "wall_time_s={}\n"),
}


def test_cli_prints_the_readme_examples_byte_for_byte(capsys):
    assert main(["table", "--K", "1", "10", "100", "1000", "1e4",
                 "--order", "1", "2", "3", "4"]) == 0
    assert capsys.readouterr() == (README_TABLE_CSV, README_TABLE_TEXT)

    assert main(["fit", "--K", "1e4", "1e5", "1e6", "--order", "2", "3", "4"]) == 0
    out, err = capsys.readouterr()
    assert err == README_FIT_REPORT
    exponents = re.findall(r"^\d,([^,]*),", out, flags=re.M)
    assert re.sub(r"^(\d),[^,]*,", r"\1,{},", out, flags=re.M) == README_FIT_CSV
    assert [f"{float(e):.3f}" for e in exponents] == ["0.382", "0.244", "0.179"]

    assert main(["terms", "--order", "4", "--corrections"]) == 0
    assert capsys.readouterr() == (README_TERMS_TEXT, "")

    # The one CLI path that runs undamped: one Gauss-Newton step at damping
    # 0.0.  Every other float, a norm or the wall time, is masked.
    for order, (trace, summary) in AFFINE_RUNS.items():
        assert main(["run", "--problem", "affine", "--order", str(order)]) == 0
        out, err = capsys.readouterr()
        assert re.sub(r"(?<=,)(?!0\.0,)" + FLOAT, "{}", out) == trace
        assert re.sub(r"(?<==)" + FLOAT, "{}", err) == summary


def test_cli_terms_output(capsys):
    assert main(["terms", "--order", "4"]) == 0
    out = capsys.readouterr().out
    assert "f^(4)[x^(1) x^(1) x^(1) x^(1)]" in out
    assert "6 f^(3)[x^(1) x^(1) x^(2)]" in out
    assert "3 f^(2)[x^(2) x^(2)]" in out
    assert main(["terms", "--order", "3", "--corrections"]) == 0
    out = capsys.readouterr().out
    assert "c_3 = -1/6" in out


def test_cli_terms_bad_order(capsys):
    assert main(["terms", "--order", "40"]) == 1
    assert "error:" in capsys.readouterr().err


def synthetic_table(columns):
    """Build a ConvergenceTable from {order: [(K, iters, converged), ...]}."""
    cells = []
    K_values = []
    orders = sorted(columns)
    for order, pts in columns.items():
        for K, iters, conv in pts:
            cells.append(TableCell(K, order, iters, conv))
            if K not in K_values:
                K_values.append(K)
    return ConvergenceTable(tuple(K_values), tuple(orders), tuple(cells))


def test_sparse_table_reports_leave_absent_cells_empty():
    table = synthetic_table({1: [(1.0, 8, True)], 4: [(1e6, 20000, False)]})
    assert table.to_csv() == "K,order_1,order_4\n1,8,\n1e+06,,>20000\n"
    assert table.to_text() == (
        "    K  order 1  order 4\n"
        "    1        8         \n"
        "1e+06            >20000\n"
    )


def test_fit_power_laws_frozen_slopes():
    # Derived with least squares on log-log points; for three equally spaced
    # decades the slope reduces to log10(n3/n1) / 2.
    table = synthetic_table({
        1: [(1e4, 880, True), (1e5, 4041, True), (1e6, 18733, True)],
        4: [(1e6, 43, True), (1e7, 70, True), (1e8, 110, True)],
    })
    fits = {f.order: f for f in fit_power_laws(table)}
    assert fits[1].exponent == pytest.approx(np.log10(18733 / 880) / 2, abs=1e-12)
    assert fits[1].exponent == pytest.approx(0.6637, abs=5e-4)
    assert fits[4].exponent == pytest.approx(np.log10(110 / 43) / 2, abs=1e-12)
    assert fits[4].exponent == pytest.approx(0.2039, abs=5e-4)


def test_fit_power_laws_flat_column_and_censoring():
    table = synthetic_table({
        2: [(1e2, 10, True), (1e3, 10, True), (1e4, 10, True)],
        3: [(1e2, 5, True), (1e3, 8, True), (1e4, 20000, False)],
    })
    fits = {f.order: f for f in fit_power_laws(table)}
    assert fits[2].available and fits[2].exponent == pytest.approx(0.0, abs=1e-12)
    assert not fits[3].available  # only two uncensored points


def test_fit_power_laws_skips_cells_converged_at_the_start():
    # A start within tolerance converges after 0 iterations, whose log is
    # -inf: such cells are no data points.
    table = synthetic_table({
        1: [(1.0, 0, True), (10.0, 0, True), (100.0, 0, True)],
        2: [(1.0, 0, True), (10.0, 4, True), (100.0, 8, True), (1e3, 16, True)],
    })
    fits = {f.order: f for f in fit_power_laws(table)}
    assert not fits[1].available and fits[1].K_values == ()
    assert fits[1].display() == "order 1: fit unavailable (<3 uncensored points)"
    assert fits[2].K_values == (10.0, 100.0, 1e3)
    assert fits[2].exponent == pytest.approx(np.log10(2.0), abs=1e-12)


def test_fit_uses_last_three_uncensored_below_cap():
    pts = [(1e4, 100, True), (1e5, 200, True), (1e6, 400, True),
           (1e7, 800, True), (1e9, 9, True)]  # K=1e9 above the fit cap
    table = synthetic_table({2: pts})
    fit = fit_power_laws(table)[0]
    assert fit.K_values == (1e5, 1e6, 1e7)
    assert fit.exponent == pytest.approx(np.log10(4.0) / 2, abs=1e-12)


def test_run_table_validates_input(monkeypatch):
    # Every K and order is checked before the first solve: int() ran 2.5 as
    # order 2 and True as order 1, an infinite K failed after K = 1, and a
    # repeated K or order was solved twice, and two Ks that print alike got
    # one row label.  Each K is checked as given:
    # float() read True as K = 1 and "1e2" as K = 100.
    def no_solve(spec):
        raise AssertionError(f"solved {spec} before validating")

    monkeypatch.setattr(cli, "run_experiment", no_solve)
    for K_values, orders in [([], [1]), ([1.0, -2.0], [1]), ([1.0, np.inf], [1]),
                             ([1.0, np.nan], [1]), ([1e4], []), ([1e4], [2.5]),
                             ([1e4], [True]), ([1e4], [2.0]), ([1e4], [1, 5]),
                             ([10.0, 10.0], [2]), ([1e3, 1000], [2]),
                             ([1234567, 1234568], [2]),
                             ([1e4], [2, 2]), ([1e4], [2, np.int64(2)]),
                             ([True], [1]), (["1e2"], [1]), ([None], [1])]:
        with pytest.raises(ValueError):
            run_table(K_values, orders)
    monkeypatch.undo()
    table = run_table([1.0], [np.int64(2)])
    assert table.orders == (2,) and table.cells[0].converged


def test_atomic_write(tmp_path):
    target = tmp_path / "out.csv"
    atomic_write(str(target), "a,b\n1,2\n")
    assert target.read_text() == "a,b\n1,2\n"
    atomic_write(str(target), "new")
    assert target.read_text() == "new"
    leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".tmp-")]
    assert leftovers == []


@pytest.mark.parametrize("umask", [0o022, 0o027], ids=["022", "027"])
def test_atomic_write_follows_the_umask(umask, tmp_path):
    # mkstemp's temporary file is 0600, and the rename kept that mode, for a
    # new file and for a replaced 0644 one alike.
    target = tmp_path / "out.csv"
    target.write_text("old")
    target.chmod(0o644)
    saved = os.umask(umask)
    try:
        atomic_write(str(target), "a,b\n")
        fresh = tmp_path / "fresh.csv"
        atomic_write(str(fresh), "a,b\n")
    finally:
        os.umask(saved)
    for path in (target, fresh):
        assert path.stat().st_mode & 0o777 == 0o666 & ~umask


@pytest.mark.parametrize("make_target,text,error", [
    (lambda tmp: tmp / "a-directory", "a,b\n", IsADirectoryError),
    (lambda tmp: tmp / "out.csv", 123, TypeError),
], ids=["rename-fails", "write-fails"])
def test_failed_atomic_write_leaves_no_temporary_file(make_target, text, error,
                                                      tmp_path):
    (tmp_path / "a-directory").mkdir()
    with pytest.raises(error):
        atomic_write(str(make_target(tmp_path)), text)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a-directory"]
    assert list((tmp_path / "a-directory").iterdir()) == []


def test_python_dash_m_runs_the_cli(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-m", "lmcorrect", "terms", "--order", "2", "--corrections"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert "c_2 = -1/2" in done.stdout


def test_cli_fit_subcommand_smoke(capsys):
    code = main(["fit", "--K", "1", "10", "100", "--order", "2"])
    assert code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("order,exponent")
    assert "order 2: exponent" in captured.err
