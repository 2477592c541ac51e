import inspect

import pytest

from fredreg import cli, experiment
from fredreg.cli import _config, build_parser, main
from fredreg.experiment import rows_from_csv, run_table
from fredreg.iteration import SolverConfig

from _oracles import run_python


def test_help_runs(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0


def test_solve_single_run(capsys, tmp_path):
    out = tmp_path / "sol.csv"
    code = main([
        "solve", "--noise", "0.05", "--seed", "0", "--scheme", "adaptive",
        "--out", str(out),
    ])
    captured = capsys.readouterr().out
    assert code == 0
    assert "stop=discrepancy_met" in captured
    lines = out.read_text().splitlines()
    assert lines[0] == "t,u_adaptive,u_exact"
    assert len(lines) == 101


def test_solve_both_schemes(capsys, tmp_path):
    out = tmp_path / "u.csv"
    code = main(["solve", "--noise", "0.01", "--seed", "2", "--scheme", "both", "--out", str(out)])
    captured = capsys.readouterr().out
    assert code == 0
    assert "[adaptive]" in captured and "[fixed]" in captured
    lines = out.read_text().splitlines()
    assert lines[0] == "t,u_adaptive,u_fixed,u_exact"
    assert len(lines) == 101


@pytest.mark.parametrize("scheme", ["adaptive", "fixed"])
def test_solve_and_table_report_the_same_run(capsys, scheme):
    # one run path: the summary line of `solve` is the `table` row of the
    # same noise level, seed and scheme, in the same format
    assert main(["solve", "--noise", "0.01", "--seed", "3", "--scheme", scheme]) == 0
    summary = capsys.readouterr().out.splitlines()[-1].strip()
    [row] = run_table(levels=[0.01], seeds=[3], schemes=scheme)
    assert summary == (
        f"stop={row.stop_reason} n_delta={row.n_iters} m_final={row.m_final} "
        f"G_final={row.G_final:.6e} avg={row.avg:.6f}"
    )


def test_solve_rejects_multiple_levels(capsys):
    with pytest.raises(SystemExit) as info:
        main(["solve", "--noise", "0.05,0.01", "--seed", "0"])
    assert info.value.code == 2


def _refused_before_any_run(capsys, monkeypatch, argv):
    """``main(argv)`` exits 2 with a configuration error, and no run starts."""
    runs = []
    monkeypatch.setattr(experiment, "run_adaptive", lambda *a: runs.append(a))
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert runs == []
    return err


def test_solve_rejects_negative_seed(capsys, monkeypatch):
    # the sweep's NoiseSpec is the one seed check
    argv = ["solve", "--noise", "0.05", "--seed", "-1"]
    err = _refused_before_any_run(capsys, monkeypatch, argv)
    assert err.startswith("configuration error: seed must be an integer >= 0, got -1")


def test_table_rejects_negative_seed(capsys, monkeypatch):
    argv = ["table", "--noise", "0.05", "--seed", "1,-2", "--scheme", "adaptive"]
    err = _refused_before_any_run(capsys, monkeypatch, argv)
    assert err.startswith("configuration error: seed must be an integer >= 0, got -2")


def test_table_small_sweep(capsys, tmp_path):
    out = tmp_path / "rows.csv"
    code = main([
        "table", "--noise", "0.05,0.01", "--seed", "0,1", "--scheme", "both",
        "--out", str(out),
    ])
    captured = capsys.readouterr().out
    assert code == 0
    assert "adaptive" in captured and "fixed" in captured
    text = out.read_text()
    # the literal header, so a renamed ExperimentRow field fails here
    assert text.splitlines()[0] == (
        "delta_rel,scheme,seed,avg,m_final,n_iters,G_final,wall_seconds,stop_reason"
    )
    rows = rows_from_csv(text)
    assert len(rows) == 2 * 2 * 2
    assert all(r.stop_reason == "discrepancy_met" for r in rows)


def test_table_writes_csv_file(tmp_path, monkeypatch):
    # the --out file holds exactly the rows the sweep yielded, wall times included
    returned = []
    runs = cli._runs

    def spy(*args):
        for row, outcome in runs(*args):
            returned.append(row)
            yield row, outcome

    monkeypatch.setattr(cli, "_runs", spy)
    path = tmp_path / "rows.csv"
    code = main([
        "table", "--noise", "0.05", "--seed", "0,1", "--scheme", "adaptive", "--out", str(path),
    ])
    assert code == 0
    assert len(returned) == 2
    assert rows_from_csv(path.read_text()) == returned


@pytest.mark.parametrize("cmd", ["solve", "table"])
def test_defaults_are_the_config_and_run_table_defaults(cmd):
    args = build_parser().parse_args([cmd])
    assert _config(args) == SolverConfig()
    defaults = inspect.signature(run_table).parameters
    assert args.fixed_m == defaults["fixed_m"].default
    if cmd == "table":
        assert args.seed == list(defaults["seeds"].default)


@pytest.mark.parametrize("cmd", ["solve", "table"])
@pytest.mark.parametrize("where", ["missing_dir", "directory"])
def test_unwritable_out_is_refused_before_any_run(capsys, tmp_path, monkeypatch, cmd, where):
    runs = []
    monkeypatch.setattr(experiment, "run_adaptive", lambda *a: runs.append(a))
    out = tmp_path / "missing" / "u.csv" if where == "missing_dir" else tmp_path
    argv = [cmd, "--scheme", "adaptive", "--out", str(out)]
    assert main(argv + (["--seed", "0"] if cmd == "table" else [])) == 2
    assert capsys.readouterr().err.startswith("cannot write output:")
    assert runs == []


def test_table_explicit_seed_list(tmp_path):
    out = tmp_path / "rows.csv"
    code = main([
        "table", "--noise", "0.05", "--seed", "3,5", "--scheme", "adaptive",
        "--out", str(out),
    ])
    assert code == 0
    rows = rows_from_csv(out.read_text())
    assert sorted({r.seed for r in rows}) == [3, 5]


def test_table_runs_seeds_beyond_the_default_range(tmp_path, capsys):
    # 0..19 is the default, not a bound: the help states the rule and the default
    with pytest.raises(SystemExit):
        main(["table", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert "comma-separated seeds, each an integer >= 0 (default 0..19)" in help_text
    out = tmp_path / "rows.csv"
    code = main([
        "table", "--noise", "0.05", "--seed", "20,21", "--scheme", "adaptive",
        "--out", str(out),
    ])
    assert code == 0
    assert sorted({r.seed for r in rows_from_csv(out.read_text())}) == [20, 21]


def test_config_error_exit_code(capsys):
    # q outside (0,1), a noise level above 1 and an infinite C are
    # configuration errors -> 2, each with the one prefix
    for argv in (
        ["table", "--noise", "0.05", "--seed", "0", "--q", "1.5"],
        ["table", "--noise", "1.5", "--seed", "0"],
        ["solve", "--C", "inf"],
    ):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("configuration error:"), argv


BAD_INPUTS = [
    ["table", "--noise", "0.05,1.5", "--seed", "0"],
    ["table", "--noise", "", "--seed", "0"],
    ["table", "--seed", ""],
    ["table", "--seed", "0", "--scheme", "both", "--fixed-m", "9"],
    ["solve", "--scheme", "both", "--fixed-m", "9"],
]


@pytest.mark.parametrize("argv", BAD_INPUTS)
def test_bad_inputs_are_refused_before_any_run(capsys, monkeypatch, argv):
    # the sweep checks them all; in the last two an adaptive run
    # comes before the fixed one whose level the data grid does not refine
    assert _refused_before_any_run(capsys, monkeypatch, argv).startswith("configuration error:")


@pytest.mark.parametrize("argv", BAD_INPUTS + [["solve", "--seed", "-1"]])
def test_a_refused_command_leaves_out_as_it_was(capsys, tmp_path, argv):
    # --out is opened only after every input check, so an earlier table survives
    out = tmp_path / "rows.csv"
    out.write_bytes(b"an earlier table\r\n")
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("configuration error:")
    assert out.read_bytes() == b"an earlier table\r\n"


def test_alpha0_whose_first_shift_rounds_to_zero(capsys):
    # a_1 = 5e-324 * 0.25 is 0: the message names the inputs, not the product
    assert main(["solve", "--alpha0", "5e-324"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert "alpha0=5e-324" in err and "q=0.25" in err


def test_out_of_memory_exit_code(capsys):
    # the 180 * 2**40-interval sample grid is refused at allocation; caps of
    # 10-20 would instead really try to allocate, so they are not run here
    assert main(["solve", "--m-cap", "40"]) == 2
    assert capsys.readouterr().err.startswith("out of memory:")


def test_console_script_entry_exits_with_main_status(tmp_path):
    # pyproject's fredreg = "fredreg.cli:run", in a process of its own
    done = run_python(["-c", "from fredreg.cli import run; run()", "solve", "--seed", "-1"])
    assert done.returncode == 2
    assert done.stderr.startswith("configuration error"), done.stderr
    # run() freezes the collector before it exits: a solve still leaves its
    # whole stdout and CSV, and an atexit handler still runs after them
    out = tmp_path / "u.csv"
    code = "import atexit; atexit.register(print, 'atexit ran'); from fredreg.cli import run; run()"
    done = run_python(["-c", code, "solve", "--noise", "0.01", "--out", str(out)])
    assert done.returncode == 0, done.stderr
    assert " stop=discrepancy_met " in done.stdout
    assert done.stdout.endswith("\natexit ran\n")
    assert len(out.read_text().splitlines()) == 101


def test_argparse_error_exit_code():
    with pytest.raises(SystemExit) as info:
        main(["table", "--scheme", "bogus"])
    assert info.value.code == 2


def test_failed_stop_reason_exit_code(capsys):
    # one iteration cannot reach the threshold at tiny noise -> exit 3
    code = main([
        "table", "--noise", "0.0005", "--seed", "0", "--scheme", "adaptive",
        "--max-iter", "1",
    ])
    assert code == 3


@pytest.mark.parametrize("noise", ["1e-16", "1e-17"])
def test_numerical_breakdown_exit_code(capsys, noise):
    # a noise bound far below the roundoff floor of the Gram matrices drives
    # the shift under it before the rule fires: Cholesky breaks down -> 4.
    # The pivot it names depends on BLAS roundoff, so it is not pinned
    assert main(["solve", "--noise", noise, "--seed", "0"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("numerical breakdown: Cholesky factorization failed at pivot ")


def test_overflowing_discrepancy_exit_code(monkeypatch, capsys):
    # data scaled by 1e306 overflow G at step 11: a breakdown (4), not an
    # exhausted budget (3) nor a configuration error (2)
    add_noise = experiment.add_noise
    monkeypatch.setattr(
        experiment, "add_noise", lambda f, spec: tuple(x * 1e306 for x in add_noise(f, spec))
    )
    assert main(["solve", "--noise", "0.01", "--m-cap", "2"]) == 4
    assert capsys.readouterr().err.startswith("numerical breakdown: G is not finite")
