import pytest

from fredreg.cli import main
from fredreg.experiment import CSV_COLUMNS, rows_from_csv


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


def test_solve_both_schemes(capsys):
    code = main(["solve", "--noise", "0.01", "--seed", "2", "--scheme", "both"])
    captured = capsys.readouterr().out
    assert code == 0
    assert "[adaptive]" in captured and "[fixed]" in captured


def test_solve_rejects_multiple_levels(capsys):
    with pytest.raises(SystemExit) as info:
        main(["solve", "--noise", "0.05,0.01", "--seed", "0"])
    assert info.value.code == 2


def test_solve_rejects_negative_seed(capsys):
    with pytest.raises(SystemExit) as info:
        main(["solve", "--noise", "0.05", "--seed", "-1"])
    assert info.value.code == 2


def test_table_small_sweep(capsys, tmp_path):
    out = tmp_path / "rows.csv"
    code = main([
        "table", "--noise", "0.05,0.01", "--seeds", "2", "--scheme", "both",
        "--out", str(out),
    ])
    captured = capsys.readouterr().out
    assert code == 0
    assert "adaptive" in captured and "fixed" in captured
    text = out.read_text()
    assert text.splitlines()[0] == ",".join(CSV_COLUMNS)
    rows = rows_from_csv(text)
    assert len(rows) == 2 * 2 * 2
    assert all(r.stop_reason == "discrepancy_met" for r in rows)


def test_table_explicit_seed_list(tmp_path):
    out = tmp_path / "rows.csv"
    code = main([
        "table", "--noise", "0.05", "--seed", "3,5", "--scheme", "adaptive",
        "--out", str(out),
    ])
    assert code == 0
    rows = rows_from_csv(out.read_text())
    assert sorted({r.seed for r in rows}) == [3, 5]


def test_table_gnm_variant_flag(tmp_path):
    a = tmp_path / "formal.csv"
    b = tmp_path / "listing.csv"
    assert main(["table", "--noise", "0.01", "--seeds", "1", "--scheme", "adaptive",
                 "--gnm-variant", "formal", "--out", str(a)]) == 0
    assert main(["table", "--noise", "0.01", "--seeds", "1", "--scheme", "adaptive",
                 "--gnm-variant", "listing", "--out", str(b)]) == 0
    ra = rows_from_csv(a.read_text())[0]
    rb = rows_from_csv(b.read_text())[0]
    assert ra.G_final != rb.G_final  # the (1-q) factor changes the functional


def test_config_error_exit_code(capsys):
    # q outside (0,1) is a configuration error -> 2
    assert main(["table", "--noise", "0.05", "--seeds", "1", "--q", "1.5"]) == 2
    assert main(["table", "--noise", "1.5", "--seeds", "1"]) == 2
    assert main(["table", "--noise", "0.05", "--seed", "1", "--seeds", "2"]) == 2
    assert main(["solve", "--C", "inf"]) == 2


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


def test_argparse_error_exit_code():
    with pytest.raises(SystemExit) as info:
        main(["table", "--scheme", "bogus"])
    assert info.value.code == 2


def test_failed_stop_reason_exit_code(capsys):
    # one iteration cannot reach the threshold at tiny noise -> exit 3
    code = main([
        "table", "--noise", "0.0005", "--seeds", "1", "--scheme", "adaptive",
        "--max-iter", "1",
    ])
    assert code == 3


def test_numerical_breakdown_exit_code(capsys):
    # a noise bound far below the roundoff floor of the Gram matrices drives
    # the shift under it before the rule fires: Cholesky breaks down -> 4
    assert main(["solve", "--noise", "1e-17", "--seed", "0"]) == 4
    err = capsys.readouterr().err
    assert "numerical breakdown" in err and "configuration error" not in err
