"""Each workload oracle accepts the program's real output and catches a planted wrong value."""

import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import oracles  # noqa: E402
from workloads import import_quadprime  # noqa: E402

qp = import_quadprime()


def _failed(checks):
    return [c.name for c in checks if not c.ok]


def test_sweep_oracle_passes_real_output_and_catches_a_perturbed_psi_cell(tmp_path, capsys):
    assert qp.cli.run(["sweep", "--x", "30", "--y", "400", "--out", str(tmp_path)]) == 0
    stdout = capsys.readouterr().out
    ks = [1, 7, 400]
    moments = (tmp_path / "moments.csv").read_text()

    def check():
        return _failed(oracles.check_sweep(oracles.read_errors_csv(tmp_path / "errors.csv"), moments, stdout, 30, 400, ks, qp))

    assert check() == []

    path = tmp_path / "errors.csv"
    lines = path.read_text().splitlines()
    k, sf, psi, sing, err = lines[7].split(",")
    lines[7] = ",".join([k, sf, repr(float(psi) + 0.5), sing, err])
    path.write_text("\n".join(lines) + "\n")
    failed = check()
    assert "sweep.psi[k=7]" in failed
    assert "sweep.error_identity" in failed


def test_pv_oracle_passes_real_output_and_catches_a_perturbed_max_sum(capsys):
    assert qp.cli.run(["check", "pv", "--qmax", "12"]) == 0
    stdout = capsys.readouterr().out
    max_sums = {q: qp.expsum.pv_check(q).max_sum for q in (7, 12)}
    assert _failed(oracles.check_pv(stdout, max_sums, 12, qp)) == []

    max_sums[12] += 1e-3
    assert _failed(oracles.check_pv(stdout, max_sums, 12, qp)) == ["pv.max_sum[q=12]"]


def test_max_window_sum_scans_every_window():
    values = qp.expsum.build_character_table(5).chars[1].values
    walk_windows = [
        abs(sum(values[n % 5] for n in range(m + 1, m + length + 1))) for m in range(5) for length in range(1, 6)
    ]
    assert oracles.max_window_sum(values) == pytest.approx(max(walk_windows))


def test_sandwich_oracle_catches_a_wrong_endpoint():
    stdout = "sandwich: squarefree k <= 10 at tol 0.0001, 0 violations -> ok\n"
    products = {k: qp.singular.sl_product(k, 2.5e-5) for k in (1, 6)}
    exact = (oracles.TWIN_PRIME_C2, math.pi**2 / 8)
    assert _failed(oracles.check_sandwich(stdout, exact, products, 10, 1e-4, qp)) == []

    wrong = (exact[0] + 1e-6, exact[1])
    assert _failed(oracles.check_sandwich(stdout, wrong, products, 10, 1e-4, qp)) == ["sandwich.lower"]


def test_main_term_panel_is_fixed_and_squarefree():
    assert len(oracles.MAIN_TERM_PANEL) == oracles.MAIN_TERM_PANEL_SIZE
    assert all(1 <= k <= 10_000 and oracles.is_squarefree(k) for k in oracles.MAIN_TERM_PANEL)
    assert oracles.samples("sweep", 3) == oracles.samples("sweep", 3) != oracles.samples("sweep", 4)
