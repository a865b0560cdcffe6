"""Command-line interface: argument handling, output formats, exit codes."""

import argparse
import csv
import inspect
import io
import json

import pytest

from quadprime import cli
from quadprime.cli import run
from quadprime import singular
from quadprime.moments import psi_value, run_sweep
from quadprime.sieve import build_lambda_table
from quadprime.singular import SingularCfg, singular_series_euler, singular_series_lmethod


def test_psi_plain_output(capsys):
    assert run(["psi", "--x", "15", "--k", "3"]) == 0
    out = capsys.readouterr().out
    assert "psi = 19.716222741126792" in out
    assert "oracle = " in out  # small x triggers the circle cross-check


def test_psi_json_output(capsys):
    assert run(["psi", "--x", "15", "--k", "3", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    lam = build_lambda_table(15 * 15 + 10)
    assert data["psi"] == pytest.approx(psi_value(15, 3, lam), rel=1e-15)
    assert data["oracle"] == pytest.approx(data["psi"], abs=1e-6)
    assert data["meta"]["version"]


def test_psi_csv_output(capsys):
    assert run(["psi", "--x", "15", "--k", "3", "--format", "csv"]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == 1
    assert float(rows[0]["psi"]) == pytest.approx(19.716222741126792)


def test_psi_skips_oracle_for_large_x(capsys):
    assert run(["psi", "--x", "25", "--k", "1", "--format", "json"]) == 0
    assert "oracle" not in json.loads(capsys.readouterr().out)


def test_singular_matches_library(capsys):
    assert run(["singular", "--k", "6", "--p", "5000", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["singular"] == pytest.approx(singular_series_euler(6, 5000), rel=1e-15)
    assert data["method"] == "euler"


def test_sigma_exact(capsys):
    assert run(["sigma", "--q", "12", "--k", "5"]) == 0
    assert "sigma = -12" in capsys.readouterr().out


def test_sweep_writes_csv_files(tmp_path, capsys):
    out = str(tmp_path / "run")
    assert run(["sweep", "--x", "10", "--y", "50", "--out", out]) == 0
    assert (tmp_path / "run" / "errors.csv").exists()
    assert (tmp_path / "run" / "moments.csv").exists()
    assert "second_moment=" in capsys.readouterr().out


def test_sweep_json_layout(tmp_path, capsys):
    out = str(tmp_path / "run")
    assert run(["sweep", "--x", "10", "--y", "50", "--out", out, "--format", "json"]) == 0
    data = json.loads((tmp_path / "run" / "sweep.json").read_text())
    errors = data["errors"]
    assert set(errors) == {"k", "squarefree", "psi", "singular", "error"}
    assert all(len(col) == 50 for col in errors.values())
    assert errors["k"] == list(range(1, 51))
    r = run_sweep(10, 50, SingularCfg())
    for name in ("squarefree", "psi", "singular", "error"):
        assert errors[name] == getattr(r, name)[1:].tolist(), name
    assert data["moments"]["count_squarefree"] == 31


def test_sweep_deterministic_across_runs(tmp_path, capsys):
    blobs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert run(["sweep", "--x", "12", "--y", "80", "--out", str(out)]) == 0
        blobs.append((out / "errors.csv").read_bytes())
    capsys.readouterr()
    assert blobs[0] == blobs[1]


def test_sweep_lmethod_csv_matches_library(tmp_path, capsys):
    out = tmp_path / "run"
    assert run(["sweep", "--x", "50", "--y", "400", "--method", "lmethod", "--out", str(out)]) == 0
    capsys.readouterr()
    with open(out / "errors.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(row["k"]) for row in rows] == list(range(1, 401))
    for row in rows:
        assert row["singular"] == format(singular_series_lmethod(int(row["k"]), 1e-6), ".12g"), row["k"]


def test_singular_checks_the_character_table_budget(monkeypatch, capsys):
    monkeypatch.setenv("QUADPRIME_BUDGET_BYTES", "100000")
    assert run(["singular", "--k", "999983", "--p", "5000"]) == 1  # 999983 is prime
    assert "Legendre table mod 999983" in capsys.readouterr().err


def test_singular_at_k_beyond_any_period_table(capsys):
    values = []
    for k in ("1000000000000", "1000000"):  # 2^12 5^12 and 2^6 5^6: the same character
        assert run(["singular", "--k", k, "--p", "5000", "--format", "json"]) == 0
        values.append(json.loads(capsys.readouterr().out)["singular"])
    assert values[0] == values[1]


def test_singular_checks_the_class_number_grid_budget(monkeypatch, capsys):
    monkeypatch.setenv("QUADPRIME_BUDGET_BYTES", "100000")
    assert run(["singular", "--k", "1000000", "--method", "lmethod"]) == 1
    assert "class-number grid for k = 1000000" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, allocation",
    [
        (["sweep", "--x", "10", "--y", "100", "--method", "lmethod", "--tol", "2e-7"], "prime sieve to 4916301"),
        (["tables", "--limit", str(10**6)], "prime sieve to 1000000"),
        (["psi", "--x", "1000", "--k", "1"], "Lambda table over [1, 1000001]"),
    ],
)
def test_every_route_reads_the_one_budget(argv, allocation, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # a sweep that did run would write here
    monkeypatch.setitem(singular._prime_cache, "table", None)  # a held sieve is not checked again
    monkeypatch.setenv("QUADPRIME_BUDGET_BYTES", "100000")
    assert run(argv) == 1
    assert allocation in capsys.readouterr().err


def test_singular_lmethod_at_tight_tol(capsys):
    assert run(["singular", "--k", "1", "--method", "lmethod", "--tol", "1e-7", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    # 4/pi times the accelerated product over p <= 1e8, itself within 2e-9
    assert abs(data["singular"] - 1.3728134628181987) <= 1e-7 + 2e-9


def test_phi_moment_bench_stdout_is_pinned(capsys):
    assert run(["phi-moment", "--y", "3000", "--q1", "500", "--tol", "1e-4"]) == 0
    assert capsys.readouterr().out == "y = 3000\nq1 = 500\ntol = 0.0001\nphi_moment = 2.1058000276142863\n"


@pytest.mark.parametrize(
    "argv, allocation",
    [
        (["phi-moment", "--y", "3000", "--q1", "500", "--tol", "1e-4"], "Legendre rows for 429 primes at 2243 points"),
        (["phi-moment", "--y", "2", "--q1", "100000", "--tol", "1e-4"], "chi and factor blocks of 16 x"),
    ],
)
def test_phi_moment_counts_its_bulk_arrays(argv, allocation, monkeypatch, capsys):
    monkeypatch.setenv("QUADPRIME_BUDGET_BYTES", str(10**6))
    assert run(argv) == 1
    assert allocation in capsys.readouterr().err


def test_phi_moment_command(capsys, phi_moment_via_l_value):
    assert run(["phi-moment", "--y", "100", "--q1", "20", "--tol", "1e-3", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["phi_moment"] == pytest.approx(1.168808462532083, abs=1e-6)
    assert abs(data["phi_moment"] - phi_moment_via_l_value(100, 20, 1e-7)) <= 1e-3


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "weyl"],
        ["check", "pv", "--qmax", "60"],
        ["check", "decompose", "--qmax", "12"],
        ["check", "gauss", "--qmax", "25"],
        ["check", "sandwich", "--kmax", "500"],
    ],
)
def test_check_suites_pass(argv, capsys):
    assert run(argv) == 0
    assert "ok" in capsys.readouterr().out


def test_check_sandwich_reports_violations(monkeypatch, capsys):
    monkeypatch.setattr(singular, "sandwich_bounds", lambda: (1.0, 1.0))
    assert run(["check", "sandwich", "--kmax", "50"]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "sandwich: squarefree k <= 50 at tol 0.0001, 31 violations -> FAIL"
    assert len(lines) == 11
    assert all(line.startswith("  k=") and ": product " in line for line in lines[1:])
    assert lines[1] == "  k=1: product 1.0782051598474778"


@pytest.mark.parametrize("tol", ["0", "-1"])
def test_check_sandwich_rejects_a_nonpositive_tol(tol, capsys):
    assert run(["check", "sandwich", "--kmax", "50", "--tol", tol]) == 1
    assert "tol must be positive" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "pv", "--qmax", "1"],
        ["check", "decompose", "--qmax", "0"],
        ["check", "gauss", "--qmax", "0"],
    ],
)
def test_check_suites_reject_an_empty_modulus_range(argv, capsys):
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert "--qmax must be >= " in captured.err
    assert "ok" not in captured.out


@pytest.mark.parametrize("x, k", [("3", "-20"), ("100000", "0"), ("0", "5")])
def test_psi_checks_its_arguments_before_the_table(x, k, monkeypatch, capsys):
    monkeypatch.setenv("QUADPRIME_BUDGET_BYTES", "100000")  # a table to x^2 + k would not fit
    assert run(["psi", "--x", x, "--k", k]) == 1
    assert capsys.readouterr().err == f"error: psi_value: need x >= 1 and k >= 1, got x={x}, k={k}\n"


def test_tables_counts(capsys):
    assert run(["tables", "--limit", "4000"]) == 0
    assert capsys.readouterr().out == "primes <= 4000: 550\nsquarefree <= 4000: 2433\n"


def test_usage_errors_exit_1(capsys):
    assert run(["psi"]) == 1  # missing required --x/--k
    assert run(["singular", "--k", "-3"]) == 1  # rejected by validation
    assert run(["check", "nope"]) == 1
    capsys.readouterr()


def test_unknown_command_exits_1(capsys):
    assert run(["frobnicate"]) == 1
    capsys.readouterr()


def test_every_flag_is_read():
    (subparsers,) = [a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    for name, parser in subparsers.choices.items():
        source = inspect.getsource(parser.get_default("func"))
        for action in parser._actions:
            if action.dest != "help":
                assert f"args.{action.dest}" in source, f"{name}: {action.option_strings or action.dest} is never read"


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--x", "10", "--y", "50", "--workers", "2"],
        ["sweep", "--x", "10", "--y", "50", "--segment-size", "64"],
        ["sigma", "--q", "5", "--k", "1", "--budget-bytes", "9"],
        ["tables", "--limit", "100", "--cache"],
        ["tables", "--limit", "100", "--out", "x"],
        ["psi", "--x", "15", "--k", "3", "--budget-bytes", "1000000000"],
        ["psi", "--x", "15", "--k", "3", "--y", "10"],
        ["sweep", "--x", "10", "--y", "50", "--budget-bytes", "1000000000"],
        ["tables", "--limit", "100", "--budget-bytes", "1000000000"],
        ["check", "weyl", "--seed", "0"],
    ],
)
def test_removed_flags_are_usage_errors(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # a sweep that did run would write here
    assert run(argv) == 1
    capsys.readouterr()
