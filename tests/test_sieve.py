import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadprime import sieve
from quadprime.arith import mobius_phi, von_mangoldt
from quadprime.sieve import (
    build_lambda_table,
    build_mobius_phi_tables,
    build_prime_table,
    build_squarefree_table,
    memory_budget,
)

# pi(10^n) for n = 1..7
PRIME_COUNTS = {10: 4, 100: 25, 1000: 168, 10**4: 1229, 10**5: 9592, 10**6: 78498, 10**7: 664579}

LAMBDA_1280000_SHA256 = "73cd734e5fbd736cb18693ca2e4c46511da16868ed3b578707b20183597300a6"


@pytest.mark.parametrize("limit,count", sorted(PRIME_COUNTS.items()))
def test_prime_counts(limit, count):
    assert build_prime_table(limit).count() == count


def test_prime_table_small_limits():
    assert build_prime_table(0).primes.tolist() == []
    assert build_prime_table(1).primes.tolist() == []
    assert build_prime_table(2).primes.tolist() == [2]
    assert build_prime_table(30).primes.tolist() == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_lambda_table_matches_pointwise_definition():
    table = build_lambda_table(3000)
    assert table.hi == 3000 and table.values[0] == 0.0 and len(table.values) == 1500  # odd m only
    got = table.at(np.arange(1, 3001))
    for m in range(1, 3001):
        assert got[m - 1] == pytest.approx(von_mangoldt(m), abs=1e-12), m


@pytest.mark.parametrize("hi", [1, 2, 3, 4, 7, 8, 9, 2**20, 2**20 + 1])
def test_lambda_table_reads_every_power_of_two(hi):
    table = build_lambda_table(hi)
    powers = np.array([2**j for j in range(1, hi.bit_length()) if 2**j <= hi], dtype=np.int64)
    assert len(table.twos) == len(powers)
    got = table.at(np.arange(1, hi + 1))
    assert got[powers - 1].tolist() == [von_mangoldt(int(m)) for m in powers]  # log 2 at each, exactly
    assert np.count_nonzero(got[1::2]) == len(powers)  # the even m: nonzero at the powers of two only
    assert np.array_equal(got, table.window(1, hi))


def test_lambda_table_at_refuses_points_outside():
    table = build_lambda_table(100)
    with pytest.raises(IndexError):
        table.at(np.array([0, 5]))
    with pytest.raises(IndexError):
        table.at(np.array([5, 101]))


def test_lambda_table_offset_window():
    lo, hi = 10**6, 10**6 + 2000
    win = build_lambda_table(hi).window(lo, hi)
    assert win.shape == (hi - lo + 1,)
    for m in range(lo, hi + 1, 97):
        assert win[m - lo] == pytest.approx(von_mangoldt(m), abs=1e-12), m


def test_lambda_table_bytes_are_pinned():
    # the value of the segmented sieve this builder replaced, at the bench sweep's x^2 + y, as a dense array
    values = build_lambda_table(1_280_000).window(1, 1_280_000)
    assert hashlib.sha256(values.tobytes()).hexdigest() == LAMBDA_1280000_SHA256


def test_lambda_table_window_and_bounds():
    table = build_lambda_table(200)
    win = table.window(150, 160)
    assert win.shape == (11,)
    assert win.tolist() == table.at(np.arange(150, 161)).tolist()
    assert table.window(151, 151) == pytest.approx([math.log(151)], abs=1e-15)
    assert table.window(128, 128).tolist() == [math.log(2)]
    assert table.window(150, 150).tolist() == [0.0]
    with pytest.raises(IndexError):
        table.window(0, 10)
    with pytest.raises(IndexError):
        table.window(150, 201)


def test_lambda_builder_rejects_bad_windows():
    with pytest.raises(ValueError):
        build_lambda_table(0)
    with pytest.raises(ValueError):
        build_lambda_table(-5)


@pytest.mark.parametrize("hi", [10**4, 10**5, 10**6])
def test_lambda_budget_counts_the_measured_peak(hi, monkeypatch, traced_peak):
    counted = []
    monkeypatch.setattr(sieve, "_check_budget", lambda nbytes, what: counted.append(nbytes))
    _, peak = traced_peak(build_lambda_table, hi)
    assert peak <= counted[0]


# from 10^4 up: below it the call's few fixed Python objects (about 0.8 KB) outweigh the slack of the counts
@pytest.mark.parametrize(
    "build, limit",
    [(build_prime_table, n) for n in (10**4, 10**5, 1_500_000, 10**7)]
    + [(build_mobius_phi_tables, n) for n in (2 * 10**4, 10**5, 3 * 10**5)],
)
def test_sieve_budgets_count_the_measured_peak(build, limit, monkeypatch, traced_peak):
    counted = []
    monkeypatch.setattr(sieve, "_check_budget", lambda nbytes, what: counted.append(nbytes))
    _, peak = traced_peak(build, limit)
    assert peak <= counted[0]  # the builder's own count; build_mobius_phi_tables's sieve counts after it


def mobius_formula_squarefree_count(limit):
    """#{n <= limit squarefree} = sum_d mu(d) * floor(limit / d^2)."""
    total = 0
    for d in range(1, math.isqrt(limit) + 1):
        total += mobius_phi(d)[0] * (limit // (d * d))
    return total


def test_squarefree_count_to_1e6():
    flags = build_squarefree_table(10**6)
    got = int(np.count_nonzero(flags[1:]))
    assert got == mobius_formula_squarefree_count(10**6) == 607926


def test_squarefree_flags_pointwise():
    flags = build_squarefree_table(2000)
    for n in range(1, 2001):
        assert bool(flags[n]) == (mobius_phi(n)[0] != 0), n


def test_mobius_phi_tables_match_scalar():
    mu, phi = build_mobius_phi_tables(2000)
    for n in range(1, 2001):
        assert (int(mu[n]), int(phi[n])) == mobius_phi(n), n


@settings(max_examples=30, deadline=None)
@given(limit=st.integers(1, 3000))
@example(limit=1)
@example(limit=3)  # every prime is above sqrt(limit)
@example(limit=48)  # one below 7^2: 7 is a large prime
@example(limit=49)
@example(limit=30_000)  # 3,205 primes above sqrt(limit), a multiplier step each j <= 167
def test_mobius_phi_tables_with_the_large_primes_by_multiplier_match_scalar(limit):
    mu, phi = build_mobius_phi_tables(limit)
    assert (mu[0], phi[0]) == (0, 0)
    assert [(int(m), int(f)) for m, f in zip(mu[1:], phi[1:])] == [mobius_phi(n) for n in range(1, limit + 1)]


# ---------------------------------------------------------------------------
# memory budget


def test_budget_blocks_oversized_builds(monkeypatch):
    monkeypatch.setenv("QUADPRIME_BUDGET_BYTES", str(10**6))
    with pytest.raises(MemoryError, match="budget"):
        build_prime_table(10**9)
    with pytest.raises(MemoryError, match="budget"):
        build_lambda_table(10**9)


def test_budget_resolution_order(monkeypatch):
    monkeypatch.delenv("QUADPRIME_BUDGET_BYTES", raising=False)
    assert memory_budget() == 2 << 30
    monkeypatch.setenv("QUADPRIME_BUDGET_BYTES", "12345678")
    assert memory_budget() == 12345678
