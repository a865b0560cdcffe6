"""Verification gate: one self-contained check per contract, one printed
[PASS]/[FAIL] line each (run with ``pytest -s tests/test_acceptance.py`` to
see the lines), with the mathematical tolerance and the runtime budget both
asserted.  Checks that share expensive computations draw them from
module-scoped fixtures so the gate stays inside its time budgets.
"""

import math
import time

import numpy as np
import pytest

from quadprime.arith import jacobi, mobius_phi
from quadprime.cli import check_decompose, check_gauss, check_weyl
from quadprime.expsum import _pv_bound, circle_psi_oracle, pv_check
from quadprime.moments import phi_moment, run_sweep, write_errors_csv, write_moments_csv
from quadprime.sieve import build_lambda_table, build_squarefree_table
from quadprime.singular import (
    SingularCfg,
    sandwich_bounds,
    sigma_q,
    singular_series_euler,
    singular_series_lmethod,
    sl_product_bulk,
)


def report(label, ok, detail, elapsed=None, budget=None):
    timing = ""
    if budget is not None:
        timing = f"  [{elapsed:.1f}s / {budget:.0f}s]"
        ok = ok and elapsed < budget
    elif elapsed is not None:
        timing = f"  [{elapsed:.1f}s]"
    line = f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}{timing}"
    print(line)
    assert ok, line


def squarefree_list(limit):
    flags = build_squarefree_table(limit)
    return [k for k in range(1, limit + 1) if flags[k]]


# ---------------------------------------------------------------------------
# shared expensive runs


@pytest.fixture(scope="module")
def trend_ladder():
    """Four moment sweeps with y = x^2, shared by the two decay checks."""
    cfg = SingularCfg()
    started = time.monotonic()
    summaries = [run_sweep(x, x * x, cfg).summary for x in (100, 200, 400, 800)]
    return summaries, time.monotonic() - started


# ---------------------------------------------------------------------------
# the checks, in gate order


def test_01_complete_sum_closed_form():
    started = time.monotonic()
    worst_imag = 0.0
    checked = 0
    ks = np.arange(1, 51)
    for q in range(1, 200):
        if mobius_phi(q)[0] == 0:
            continue
        # brute double sum, reduced once per q: M[a] = sum_r e(-a r^2 / q)
        r = np.arange(q)
        a = np.array([x for x in range(1, q + 1) if math.gcd(x, q) == 1])
        m_of_a = np.exp(-2j * np.pi * np.outer(a % q, (r * r) % q) / q).sum(axis=1)
        weights = np.exp(-2j * np.pi * np.outer(ks, a % q) / q)
        brute = weights @ m_of_a
        worst_imag = max(worst_imag, float(np.max(np.abs(brute.imag))))
        for i, k in enumerate(ks):
            got = sigma_q(q, int(k))
            assert got == round(float(brute[i].real)), (q, k)
            if q % 2 == 1:
                assert got == q * jacobi(-int(k), q), (q, k)
            else:
                assert got == 0, (q, k)
            checked += 1
    report(
        "complete exponential sum, closed form on squarefree moduli",
        worst_imag < 1e-6,
        f"{checked} (q, k) pairs exact vs brute double sum, max imag {worst_imag:.1e}",
        time.monotonic() - started,
        10.0,
    )


def test_02_complete_sum_multiplicative():
    started = time.monotonic()
    cache = {}

    def sig(q, k):
        if (q, k) not in cache:
            cache[(q, k)] = sigma_q(q, k)
        return cache[(q, k)]

    checked = 0
    for q1 in range(1, 201):
        for q2 in range(1, 200 // q1 + 1):
            if math.gcd(q1, q2) != 1:
                continue
            for k in range(1, 31):
                assert sig(q1, k) * sig(q2, k) == sig(q1 * q2, k), (q1, q2, k)
                checked += 1
    report(
        "complete exponential sum, multiplicativity",
        True,
        f"{checked} coprime products exact",
        time.monotonic() - started,
        30.0,
    )


def test_03_circle_integral_identity():
    started = time.monotonic()
    lam = build_lambda_table(20 * 20 + 10)
    dense = np.concatenate([[0.0], lam.window(1, lam.hi)])  # dense[m] = Lambda(m)
    worst = 0.0
    for x in range(1, 21):
        direct = [
            math.fsum(dense[n * n + k] for n in range(1, x + 1)) for k in range(1, 11)
        ]
        for k in range(1, 11):
            got = circle_psi_oracle(x, k, lam)
            worst = max(worst, abs(got - direct[k - 1]))
    report(
        "circle-integral identity for psi(x; k)",
        worst <= 1e-6,
        f"x <= 20, k <= 10: worst |integral - direct| = {worst:.2e}",
        time.monotonic() - started,
        60.0,
    )


def test_04_major_arc_decompositions(capsys):
    started = time.monotonic()
    ok = check_decompose(60)
    detail = capsys.readouterr().out.strip().replace("\n", "; ")
    with capsys.disabled():
        report(
            "exact major-arc decompositions of both exponential sums",
            ok,
            detail,
            time.monotonic() - started,
            60.0,
        )


def test_05_gauss_sum_laws(capsys):
    started = time.monotonic()
    ok = check_gauss(50)
    detail = capsys.readouterr().out.strip()
    with capsys.disabled():
        report(
            "Gauss sum modulus and real-character quadratic identity",
            ok,
            detail,
            time.monotonic() - started,
            60.0,
        )


def test_06_singular_series_cross_method():
    started = time.monotonic()
    worst = 0.0
    for k in squarefree_list(40):
        gap = abs(singular_series_lmethod(k, 1e-6) - singular_series_euler(k, 10**7))
        worst = max(worst, gap)
    anchor_gap = abs(singular_series_lmethod(1, 1e-6) - 1.3728134)
    report(
        "singular series: accelerated method vs long Euler product",
        worst < 1e-2 and anchor_gap <= 1e-5,
        f"squarefree k <= 40: worst gap {worst:.2e}; k=1 anchor off by {anchor_gap:.2e}",
        time.monotonic() - started,
        120.0,
    )


def test_07_product_sandwich():
    started = time.monotonic()
    lo, hi = sandwich_bounds()
    anchored = abs(lo - 0.6601618) < 1e-6 and abs(hi - 1.2337006) < 1e-6
    products = sl_product_bulk(10**4, 2.5e-5)
    flags = build_squarefree_table(10**4)
    values = products[1:][flags[1:] != 0]
    inside = bool(np.all((values >= lo - 1e-4) & (values <= hi + 1e-4)))
    report(
        "singular series times L sandwiched between the product constants",
        anchored and inside,
        f"{len(values)} squarefree k <= 1e4 in [{lo:.7f} - 1e-4, {hi:.7f} + 1e-4], "
        f"range seen [{values.min():.7f}, {values.max():.7f}]",
        time.monotonic() - started,
        300.0,
    )


def test_08_second_moment_decay(trend_ladder):
    summaries, elapsed = trend_ladder
    norms = [s.normalized for s in summaries]
    ok = all(a > b for a, b in zip(norms, norms[1:]))
    report(
        "normalized second moment decays along the x ladder",
        ok,
        "M(x) = " + ", ".join(f"{v:.6f}" for v in norms) + " for x = 100, 200, 400, 800",
        elapsed,
        900.0,
    )


def test_09_exceptional_fraction_decay(trend_ladder):
    summaries, _ = trend_ladder
    fracs = [s.exceptional[1.0] / s.count_squarefree for s in summaries]
    ok = all(a > b for a, b in zip(fracs, fracs[1:]))
    report(
        "exceptional-set fraction at B = 1 decays along the x ladder",
        ok,
        "fractions " + ", ".join(f"{v:.4f}" for v in fracs),
    )


def test_10_dirichlet_tail_moment_decay():
    started = time.monotonic()
    vals = [phi_moment(1000, q1, 1e-3) for q1 in (5, 50, 500)]
    ok = vals[0] > vals[1] > vals[2]
    report(
        "second moment of the Dirichlet tail decays in the cutoff",
        ok,
        "Q1 = 5, 50, 500 -> " + ", ".join(f"{v:.4f}" for v in vals),
        time.monotonic() - started,
        120.0,
    )


def test_11_character_walk_bound():
    started = time.monotonic()
    # at the bound as floor, None means every walk is shorter than the bound: passed, with no exact diameter
    failures = [q for q in range(2, 501) if (rep := pv_check(q, _pv_bound(q))) is not None and not rep.passed]
    report(
        "partial character sums below 6 sqrt(q) log q for all moduli",
        not failures,
        f"q = 2..500 exhaustive, failures: {failures or 'none'}",
        time.monotonic() - started,
        20.0,
    )


def test_12_minor_arc_calibration(capsys):
    started = time.monotonic()
    worst, ok = check_weyl()
    capsys.readouterr()
    with capsys.disabled():
        report(
            "quadratic exponential sum within 5% of recorded calibration",
            ok,
            f"seeded grid max ratio {worst:.6f}",
            time.monotonic() - started,
            60.0,
        )


def test_13_sweep_determinism(tmp_path):
    started = time.monotonic()
    cfg = SingularCfg()
    blobs = []
    for tag in ("a", "b", "c"):
        result = run_sweep(100, 10**4, cfg)
        e = tmp_path / f"errors_{tag}.csv"
        m = tmp_path / f"moments_{tag}.csv"
        write_errors_csv(result, str(e))
        write_moments_csv([result.summary], str(m))
        blobs.append(e.read_bytes() + m.read_bytes())
    ok = blobs[0] == blobs[1] == blobs[2]
    report(
        "moment sweep byte-identical across runs",
        ok,
        f"x = 100, y = 10^4, three runs: {len(blobs[0])} bytes each",
        time.monotonic() - started,
    )
