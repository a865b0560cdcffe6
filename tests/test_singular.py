"""Singular-series machinery: complete exponential sums, Euler products,
L-values, Dirichlet-form partial sums and tails, and the product sandwich.

Brute-force oracles are defined at the top of the file and kept independent
of the package internals (math/cmath only, except where a test explicitly
cross-checks two package functions against each other).
"""

import cmath
import gc
import itertools
import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadprime import singular
from quadprime.arith import factorize, jacobi, mobius_phi
from quadprime.errors import VerificationError
from quadprime.sieve import build_mobius_phi_tables
from quadprime.singular import (
    SingularCfg,
    _class_numbers,
    _legendre_table,
    _odd_primes_upto,
    _sl_cutoff,
    chi_k,
    class_number,
    dirichlet_partial,
    l_value,
    sandwich_bounds,
    sandwich_violations,
    sigma_q,
    singular_series,
    singular_series_euler,
    singular_series_euler_bulk,
    singular_series_lmethod,
    sl_product,
    sl_product_bulk,
    tail_phi,
)


def sigma_brute(q, k):
    """Double exponential sum over r mod q and a coprime to q, term by term."""
    total = 0.0 + 0.0j
    for a in range(1, q + 1):
        if math.gcd(a, q) != 1:
            continue
        for r in range(q):
            total += cmath.exp(-2j * cmath.pi * a * (k + r * r) / q)
    return total


def digamma_l_oracle(k):
    """L(1, chi) = -(1/m) * sum_r chi(r) psi0(r/m) with m = 4k."""
    from scipy.special import digamma

    m = 4 * k
    s = 0.0
    for r in range(1, m):
        if r % 2 == 1 and math.gcd(r, m) == 1:
            s += jacobi(-k, r) * digamma(r / m)
    return -s / m


def squarefree(n):
    return mobius_phi(n)[0] != 0


def odd_primes_brute(n):
    return [p for p in range(3, n + 1) if all(p % d for d in range(2, math.isqrt(p) + 1))]


def odd_primes_sieve(n):
    """Odd primes <= n by a plain Eratosthenes sieve on a boolean array."""
    flags = np.ones(n + 1, dtype=bool)
    flags[:2] = False
    for d in range(2, math.isqrt(n) + 1):
        if flags[d]:
            flags[d * d :: d] = False
    return np.nonzero(flags)[0][1:]


@lru_cache(maxsize=None)
def legendre_row(p):
    """(m/p) for m = 0..p-1 as float64: +1 on nonzero squares, 0 at m = 0, -1 elsewhere."""
    leg = np.full(p, -1.0)
    leg[0] = 0.0
    leg[np.arange(1, p) ** 2 % p] = 1.0
    return leg


def gather_product(y, cutoff, factor):
    """Per-prime product for every k = 0..y by gathering (-k/p) over all k (index 0 set to 0).

    Reference oracle for the bulk kernel: no periodicity is used, each prime
    indexes its Legendre row at -k mod p for every k.
    """
    ks = np.arange(0, y + 1, dtype=np.int64)
    acc = np.ones(y + 1, dtype=np.float64)
    for p in odd_primes_brute(cutoff):
        acc *= factor(p, legendre_row(p)[np.mod(-ks, p)])
    acc[0] = 0.0
    return acc


def euler_gather(y, cutoff):
    return gather_product(y, cutoff, lambda p, chi: 1.0 - chi / (p - 1.0))


def sl_gather(y, tol):
    def factor(p, chi):
        base = float(p) * (p - 1.0)
        return (base - p * chi) / (base - (p - 1.0) * chi)

    return gather_product(y, _sl_cutoff(tol), factor)


def chi_table_gather(k):
    """chi_k on one period 0..4k-1 by gathering each factor at n mod 2, 4, 8 and p."""
    e = (k & -k).bit_length() - 1
    m = k >> e
    n = np.arange(4 * k, dtype=np.int64)
    chi = (n % 2).astype(np.int8)
    if m % 4 == 1:
        chi[n % 4 == 3] *= -1
    if e % 2:
        chi[(n % 8 == 3) | (n % 8 == 5)] *= -1
    for p, a in factorize(m):
        chi *= _legendre_table(p)[n % p] ** a
    return chi


def reduced_forms_brute(k):
    """Primitive reduced forms (a, b, c) with b even and b^2 - 4ac = -4k, one triple at a time."""
    forms = []
    a = 1
    while 3 * a * a <= 4 * k:
        for b in range(-a, a + 1):
            if b % 2 or (b * b + 4 * k) % (4 * a):
                continue
            c = (b * b + 4 * k) // (4 * a)
            if c < a or (b < 0 and (-b == a or a == c)):
                continue
            if math.gcd(math.gcd(a, b), c) == 1:
                forms.append((a, b, c))
        a += 1
    return forms


def l_by_class_number(k):
    """pi h(-4k) / (w sqrt(k)), w = 4 at k = 1 and 2 otherwise."""
    return math.pi * class_number(k) / ((4 if k == 1 else 2) * math.sqrt(k))


def sl_tail_bound(p):
    """2.52 / ((p-2) ln p), the bound on sum_{primes > p} 1/(p(p-2)) that _sl_cutoff relies on."""
    return 2.52 / ((p - 2) * math.log(p))


# ---------------------------------------------------------------------------
# sigma_q


def test_sigma_matches_brute_double_sum():
    for q in range(1, 31):
        for k in range(1, 16):
            b = sigma_brute(q, k)
            assert abs(b.imag) < 1e-9
            assert sigma_q(q, k) == round(b.real), (q, k)


SIGMA_FROZEN = {
    (1, 1): 1, (2, 1): 0, (3, 1): -3, (4, 1): -4, (5, 1): 5,
    (9, 1): 0, (12, 1): 12, (15, 1): -15, (45, 1): 0,
    (3, 5): 3, (4, 5): -4, (5, 5): 0, (12, 5): -12,
}


@pytest.mark.parametrize("q,k,expect", [(q, k, v) for (q, k), v in sorted(SIGMA_FROZEN.items())])
def test_sigma_frozen_values(q, k, expect):
    assert sigma_q(q, k) == expect


def test_sigma_closed_form_odd_squarefree():
    for q in range(1, 100, 2):
        if not squarefree(q):
            continue
        for k in (1, 2, 7, 30):
            assert sigma_q(q, k) == q * jacobi(-k, q)


def test_sigma_vanishes_on_even_squarefree():
    for q in range(2, 100, 2):
        if squarefree(q):
            assert sigma_q(q, 3) == 0


def test_sigma_multiplicative_sample():
    pairs = [(3, 4), (5, 8), (9, 25), (7, 16), (27, 5)]
    for q1, q2 in pairs:
        for k in (1, 6, 11):
            assert sigma_q(q1, k) * sigma_q(q2, k) == sigma_q(q1 * q2, k)


def test_sigma_rejects_bad_arguments():
    with pytest.raises(ValueError):
        sigma_q(0, 1)
    with pytest.raises(ValueError):
        sigma_q(5, 0)


# ---------------------------------------------------------------------------
# the character n -> jacobi(-k, n)


@pytest.mark.parametrize("k", [1, 2, 3, 5, 6, 11])
def test_chi_periodic_mod_4k(k):
    for n in range(1, 8 * k + 1):
        assert chi_k(k, n) == chi_k(k, n + 4 * k)


@pytest.mark.parametrize("k", [1, 3, 10])
def test_chi_completely_multiplicative(k):
    for a in range(1, 30):
        for b in range(1, 30):
            assert chi_k(k, a * b) == chi_k(k, a) * chi_k(k, b)


@pytest.mark.parametrize("k", [1, 2, 5, 12])
def test_chi_supported_on_units_and_nonprincipal(k):
    m = 4 * k
    total = 0
    for n in range(1, m + 1):
        v = chi_k(k, n)
        if math.gcd(n, m) > 1:
            assert v == 0
        else:
            assert v in (-1, 1)
        total += v
    assert total == 0  # a principal character would sum to phi(4k)


# k = 2^e * m * s^2: e of either parity, m odd (so = 1 or 3 mod 4), s^2 a square factor
K_PARTS = st.builds(
    lambda e, m, s: 2**e * m * s * s,
    st.integers(0, 5),
    st.integers(0, 30).map(lambda j: 2 * j + 1),
    st.sampled_from([1, 3, 5]),
)


@settings(max_examples=40, deadline=None)
@given(k=K_PARTS)
@example(k=1)
@example(k=2)
@example(k=4)
@example(k=8)
@example(k=3)
@example(k=9 * 49)
@example(k=2**11 * 3)
def test_chi_equals_jacobi_on_one_period(k):
    chi = chi_k(k, np.arange(4 * k))
    for n in range(4 * k):
        assert chi[n] == (jacobi(-k, n) if n % 2 else 0), (k, n)


def test_chi_k_equals_gather_oracle():
    for k in list(range(1, 3001)) + [640000, 786432, 510510, 3**12]:
        assert chi_k(k, np.arange(4 * k)).tobytes() == chi_table_gather(k).tobytes(), k


@pytest.mark.parametrize("k", [640000, 786432, 510510, 3**12, 10**12])
def test_chi_k_equals_jacobi_at_odd_n_for_large_k(k):
    rng = np.random.default_rng(k)
    n = np.concatenate([np.arange(1, 4001, 2), 2 * rng.integers(0, 2 * k, size=2000) + 1])
    assert chi_k(k, n).tolist() == [jacobi(-k, int(v)) for v in n]


def flat_factorizations(ks):
    """factorize(k) for each k of ks end to end as p, a, p, a, ..., and where each k's pairs end."""
    flat, ends = [], [0]
    for k in ks:
        flat.extend(itertools.chain.from_iterable(factorize(k)))
        ends.append(len(flat))
    return flat, ends


def test_chi_blocks_from_one_shared_row_matrix_equal_chi_k():
    n = np.concatenate([np.arange(600), _odd_primes_upto(5000)])
    primes = _odd_primes_upto(2000)
    rows = singular._legendre_rows(primes.tolist(), n)
    ks = np.arange(1, 2001)  # even k and k with a squared prime among them
    ids = singular._chi_keys(ks, *flat_factorizations(ks.tolist()), primes)
    for lo in range(0, len(ks), 16):
        block = singular._chi_block(rows, ids[lo : lo + 16])
        prefix = singular._chi_block(rows[:, :700], ids[lo : lo + 16])  # the prefix _lmethod_bulk reads
        for k, chi, head in zip(ks[lo : lo + 16].tolist(), block, prefix):
            assert chi.tobytes() == chi_k(k, n).tobytes(), k
            assert head.tobytes() == chi_k(k, n[:700]).tobytes(), k


@pytest.mark.parametrize("k, missing", [(3, 3), (2 * 5 * 7, 7), (9 * 11, 3), (4 * 13**2, 13)])
def test_chi_refuses_a_missing_row(k, missing):
    n = np.arange(1, 200)
    kept = [p for p, _ in factorize(k) if p > 2 and p != missing]
    rows = singular._legendre_rows(kept, n)
    with pytest.raises(KeyError):
        singular._chi_keys(np.array([k]), *flat_factorizations([k]), np.array(kept, dtype=np.int64))
    assert len(rows) == 5 + len(kept)  # no row is built behind the caller's back


def test_legendre_table_checks_the_budget(monkeypatch):
    p = 19997
    monkeypatch.setenv("QUADPRIME_BUDGET_BYTES", str(6 * p - 1))
    with pytest.raises(MemoryError, match="Legendre table mod 19997"):
        _legendre_table(p)
    monkeypatch.setenv("QUADPRIME_BUDGET_BYTES", str(6 * p))
    assert np.array_equal(_legendre_table(p), legendre_row(p))


@pytest.mark.parametrize("p", [997, 19997, 999983])
def test_legendre_table_peak_is_within_its_count(p, traced_peak):
    _, peak = traced_peak(_legendre_table, p)
    assert peak <= 6 * p


# ---------------------------------------------------------------------------
# Euler-product evaluations

EULER_1E4 = {
    1: 1.3710225146423305,
    2: 0.7125444279950458,
    3: 1.1188777652460067,
    5: 0.5272026287808633,
    6: 0.7115879795112698,
    10: 1.08144358860152,
    11: 0.5092888854724004,
}


@pytest.mark.parametrize("k,expect", sorted(EULER_1E4.items()))
def test_euler_frozen_values(k, expect):
    assert singular_series_euler(k, 10**4) == pytest.approx(expect, rel=1e-13)


def test_euler_tiny_cutoff_by_hand():
    # k=1: jacobi(-1,3) = -1 gives factor 1 + 1/2; jacobi(-1,5) = 1 gives factor 1 - 1/4
    assert singular_series_euler(1, 5) == pytest.approx(1.5 * 0.75, rel=1e-15)
    assert singular_series_euler(1, 4) == pytest.approx(1.5, rel=1e-15)


def test_euler_bulk_matches_scalar():
    bulk = singular_series_euler_bulk(200, 10**4)
    for k in range(1, 201):
        assert bulk[k] == pytest.approx(singular_series_euler(k, 10**4), rel=1e-12), k


def test_sl_bulk_matches_scalar():
    bulk = sl_product_bulk(200, 1e-4)
    for k in range(1, 201):
        assert bulk[k] == pytest.approx(sl_product(k, 1e-4), rel=1e-12), k


# y and the prime cutoff range over both sides of each other, so the kernel's
# factor rows are tested at full length p (p <= y) and capped at y + 1 (p > y).


@settings(max_examples=40, deadline=None)
@given(y=st.integers(1, 2000), cutoff=st.integers(3, 3000))
@example(y=2000, cutoff=3)
@example(y=1, cutoff=3000)
def test_euler_bulk_equals_gather_oracle(y, cutoff):
    assert np.array_equal(singular_series_euler_bulk(y, cutoff), euler_gather(y, cutoff))


@settings(max_examples=40, deadline=None)
@given(y=st.integers(1, 2000), tol=st.floats(1e-3, 1.0))
@example(y=2000, tol=1.0)
@example(y=1, tol=1e-3)
def test_sl_bulk_equals_gather_oracle(y, tol):
    assert np.array_equal(sl_product_bulk(y, tol), sl_gather(y, tol))


# Rows of p < 2^13 are repeated to ceil(2^13/p) p entries before the cut to
# y + 1, so y + 1 runs on both sides of 2^13 and of 8 * 1021 (where ceil and
# floor of 2^13/1021 differ), and cutoffs run past 2^13: widened rows, rows
# cut to y + 1, rows of p >= 2^13 and partial tails are all compared.


@settings(max_examples=15, deadline=None)
@given(y=st.integers(1, 3 * 2**13), cutoff=st.integers(3, 9000))
@example(y=2**13 - 2, cutoff=8300)
@example(y=2**13 - 1, cutoff=8300)
@example(y=2**13, cutoff=8300)
@example(y=8 * 1021 - 1, cutoff=8300)
@example(y=8 * 1021, cutoff=8300)
@example(y=3 * 2**13, cutoff=9000)
def test_euler_bulk_equals_gather_oracle_across_the_row_width(y, cutoff):
    assert np.array_equal(singular_series_euler_bulk(y, cutoff), euler_gather(y, cutoff))


@settings(max_examples=15, deadline=None)
@given(y=st.integers(1, 3 * 2**13), tol=st.floats(3.5e-5, 1e-2))
@example(y=2**13 - 2, tol=3.5e-5)  # cutoff 9726
@example(y=2**13 - 1, tol=3.5e-5)
@example(y=2**13, tol=3.5e-5)
@example(y=8 * 1021 - 1, tol=3.5e-5)
@example(y=8 * 1021, tol=3.5e-5)
@example(y=3 * 2**13, tol=3.5e-5)
def test_sl_bulk_equals_gather_oracle_across_the_row_width(y, tol):
    assert np.array_equal(sl_product_bulk(y, tol), sl_gather(y, tol))


def test_euler_bulk_allocates_no_length_y_temporary(traced_peak):
    y, cutoff = 200_000, 2000
    singular._odd_primes_upto(cutoff)  # the cached sieve is not the kernel's allocation
    _, peak = traced_peak(singular_series_euler_bulk, y, cutoff)
    row_temporaries = 64 * cutoff  # a handful of length-p int64/float64 rows
    assert peak <= 8 * (y + 1) + row_temporaries + (1 << 20)


def test_sl_bulk_allocates_no_length_y_temporary(traced_peak):
    y, tol = 200_000, 2e-4
    cutoff = _sl_cutoff(tol)  # 2052
    singular._odd_primes_upto(cutoff)  # the cached sieve is not the kernel's allocation
    _, peak = traced_peak(sl_product_bulk, y, tol)
    row_temporaries = 64 * cutoff  # a handful of length-p int64/float64 rows
    assert peak <= 8 * (y + 1) + row_temporaries + (1 << 20)


@pytest.mark.parametrize("cutoff", [3, 97, 8191, 19997])
def test_bulk_row_peak_is_within_its_count(cutoff, traced_peak):
    y = 10**5
    singular._odd_primes_upto(cutoff)  # the cached sieve is not the kernel's allocation
    _, peak = traced_peak(singular_series_euler_bulk, y, cutoff)
    assert peak - 8 * (y + 1) <= 17 * cutoff + 9 * singular._ROW_WIDTH  # each cutoff is prime


def _cpus(monkeypatch, n):
    monkeypatch.setattr(singular.os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


@pytest.mark.parametrize("cutoff", [3, 97, 8191, 19997])
def test_split_row_peak_is_within_its_count(cutoff, largest_counts, traced_peak, monkeypatch):
    y = singular._SPLIT_MIN - 1  # the first split: each thread holds its own row
    _cpus(monkeypatch, 2)
    singular._odd_primes_upto(cutoff)  # the cached sieve is not the kernel's allocation
    _, peak = traced_peak(singular_series_euler_bulk, y, cutoff)  # tracemalloc traces every thread
    assert largest_counts["factor rows ov"] == 2 * (17 * cutoff + 9 * singular._ROW_WIDTH)  # each cutoff is prime
    assert peak <= largest_counts["bulk product o"] + largest_counts["factor rows ov"]


# The split hands _multiply_square_rows acc[mid:] at phase mid, so a slice at
# phase k0 must get the same floats as the same slice of the whole array: k0
# and n run on both sides of the row width, and primes on both sides of n.


@settings(max_examples=30, deadline=None)
@given(
    k0=st.integers(0, 3 * singular._ROW_WIDTH),
    n=st.integers(1, 3 * singular._ROW_WIDTH),
    primes=st.lists(st.sampled_from(_odd_primes_upto(40_000).tolist()), min_size=1, max_size=12, unique=True),
    factor=st.sampled_from([singular._euler_factor, singular._sl_factor]),
)
@example(k0=singular._ROW_WIDTH, n=singular._ROW_WIDTH, primes=[3, 8191, 8209], factor=singular._euler_factor)
@example(k0=1, n=1, primes=[3, 39989], factor=singular._sl_factor)
def test_square_rows_at_a_phase_equal_the_whole_array_slice(k0, n, primes, factor):
    primes = np.array(sorted(primes), dtype=np.int64)
    whole = np.random.default_rng(k0 + n).uniform(0.5, 2.0, k0 + n)
    part = whole[k0:].copy()
    singular._multiply_square_rows(whole, primes, factor)
    singular._multiply_square_rows(part, primes, factor, k0)
    assert np.array_equal(part, whole[k0:])


@pytest.mark.parametrize("bulk, scalar, arg", [
    (singular_series_euler_bulk, singular_series_euler, 10**4),
    (sl_product_bulk, sl_product, 1e-4),
])
@pytest.mark.parametrize("y", [singular._SPLIT_MIN - 2, singular._SPLIT_MIN - 1])  # serial, then the first split
def test_bulk_products_across_the_split_equal_the_scalars(y, bulk, scalar, arg, monkeypatch):
    _cpus(monkeypatch, 2)
    got = bulk(y, arg)
    mid = (y + 1) // 2
    ks = [1, mid - 1, mid, mid + 1, y] + np.random.default_rng(y).integers(1, y + 1, 20).tolist()
    for k in ks:
        assert got[k] == scalar(k, arg), k


@pytest.mark.parametrize("bulk, arg", [(singular_series_euler_bulk, 10**4), (sl_product_bulk, 1e-4)])
def test_bulk_products_do_not_depend_on_the_cpu_count(bulk, arg, monkeypatch):
    y = singular._SPLIT_MIN + 12_345
    _cpus(monkeypatch, 2)
    split = bulk(y, arg)
    _cpus(monkeypatch, 1)
    assert np.array_equal(bulk(y, arg), split)


def test_concurrent_split_products_equal_the_serial_one(monkeypatch):
    # three callers, each with its split worker: six threads (on a 2-core host), switching every 10 us
    y = singular._SPLIT_MIN
    _cpus(monkeypatch, 1)
    serial = singular_series_euler_bulk(y, 10**4)
    _cpus(monkeypatch, 2)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=3) as pool:
            calls = [pool.submit(singular_series_euler_bulk, y, 10**4) for _ in range(3)]
            results = [call.result(timeout=120) for call in calls]
    finally:
        sys.setswitchinterval(interval)
    for got in results:
        assert np.array_equal(got, serial)


class _FactorFailed(Exception):
    pass


@pytest.mark.parametrize("fails_in", ["worker", "caller", "both"])
def test_split_failure_reaches_the_caller_and_no_thread_outlives_it(fails_in, monkeypatch):
    _cpus(monkeypatch, 2)
    caller = threading.current_thread()

    def factor(p, chi):
        here = "caller" if threading.current_thread() is caller else "worker"
        if fails_in in (here, "both"):
            raise _FactorFailed(here)
        return singular._euler_factor(p, chi)

    before = threading.active_count()
    with pytest.raises(_FactorFailed):
        singular._bulk_product(singular._SPLIT_MIN - 1, 100, factor)
    assert threading.active_count() == before


@pytest.mark.parametrize("factor", [singular._euler_factor, singular._sl_factor])
@pytest.mark.parametrize("y, cutoff", [(1, 20000), (10, 20000), (300, 30000), (2**13, 9000)])
def test_far_rows_equal_square_rows(y, cutoff, factor):
    primes = singular._odd_primes_upto(cutoff)
    primes = primes[primes > y + 1]
    want, got = np.ones(y + 1), np.ones(y + 1)
    singular._multiply_square_rows(want, primes, factor)
    singular._multiply_far_rows(got, primes, factor)
    assert np.array_equal(got, want)


def test_far_rows_are_exact_past_int64_squares():
    # p > floor(sqrt(2^63 - 1)) = 3,037,000,499, where products of residues mod p overflow int64.
    # SL factors round to 1.0 there, so only the Euler factors tell chi = +1 from -1.
    primes = [n for n in range(3_037_000_500, 3_037_000_600) if factorize(n) == [(n, 1)]]
    assert len(primes) == 5
    y = 50
    got = np.ones(y + 1)
    singular._multiply_far_rows(got, np.array(primes, dtype=np.int64), singular._euler_factor)
    for k in range(1, y + 1):
        want = 1.0
        for p in primes:
            want *= singular._euler_factor(p, jacobi(-k, p))
        assert got[k] == want, k


def test_far_rows_factorize_each_k_once_per_call(monkeypatch):
    primes = singular._odd_primes_upto(20_000)
    primes = primes[primes > 51]  # 2,246 primes: two blocks of _FAR_BLOCK
    calls, checks = [], []
    monkeypatch.setattr(singular, "factorize", lambda k: calls.append(k) or factorize(k))
    monkeypatch.setattr(singular, "_check_budget", lambda nbytes, what: checks.append((nbytes, what)))
    singular._multiply_far_rows(np.ones(51), primes, singular._euler_factor)
    assert calls == list(range(1, 51))
    assert (200 * 50, "factorizations of 50 k") in checks


@pytest.mark.parametrize(
    "bulk, y, arg",
    [
        (singular_series_euler_bulk, 10, 2 * 10**6),
        (singular_series_euler_bulk, 100, 2 * 10**5),
        (singular_series_euler_bulk, 1000, 10**5),
        (sl_product_bulk, 1, 1e-6),  # cutoff 251305; the SL factor table peaks the highest
        (sl_product_bulk, 30, 1e-6),
    ],
)
def test_far_row_peak_is_within_its_count(bulk, y, arg, monkeypatch, traced_peak):
    singular._odd_primes_upto(2 * 10**6)  # the cached sieve is not the kernel's allocation
    counted = {}
    check = singular._check_budget
    monkeypatch.setattr(singular, "_check_budget", lambda n, what: (counted.setdefault(what[:11], n), check(n, what)))
    _, peak = traced_peak(bulk, y, arg)
    assert peak - 8 * (y + 1) <= counted["factor rows"]  # the far block's count, over the square rows' here


def test_bulk_rows_of_primes_far_above_y_cost_what_y_does(traced_peak):
    y, cutoff = 100, 200_000
    singular._odd_primes_upto(cutoff)  # the cached sieve is not the kernel's allocation
    _, peak = traced_peak(singular_series_euler_bulk, y, cutoff)
    assert peak < 2 * cutoff  # a square row of the largest prime alone peaks at about 17 p


def test_bulk_product_checks_the_budget_once_per_call(monkeypatch):
    singular._odd_primes_upto(10**4)  # a growing sieve checks the budget too
    checks = []

    def counting_check(nbytes, what):
        checks.append(what)

    monkeypatch.setattr(singular, "_check_budget", counting_check)
    counts = []
    for cutoff in (100, 10**4):  # 24 and 1,228 odd primes, all square rows at y = 2500
        checks.clear()
        singular_series_euler_bulk(2500, cutoff)
        counts.append(len(checks))
    assert counts[0] == counts[1]


def test_bulk_products_check_the_budget(monkeypatch):
    monkeypatch.setitem(singular._prime_cache, "table", None)
    monkeypatch.setenv("QUADPRIME_BUDGET_BYTES", str(10**5))
    with pytest.raises(MemoryError, match="prime sieve"):
        singular_series_euler_bulk(10, 10**6)
    with pytest.raises(MemoryError, match="bulk product"):
        singular_series_euler_bulk(10**5, 3)
    assert singular._prime_cache["table"] is None
    with pytest.raises(MemoryError, match="factor rows over k <= 100 for the odd primes <= 20000"):
        singular_series_euler_bulk(100, 20000)


def test_bulk_product_leaves_a_cutoff_too_far_to_the_sieve_budget(monkeypatch):
    monkeypatch.delenv("QUADPRIME_BUDGET_BYTES", raising=False)
    with pytest.raises(MemoryError, match="prime sieve to 3037000500"):
        singular_series_euler_bulk(1, 3_037_000_500)


# ---------------------------------------------------------------------------
# L-values

L_FROZEN = {
    1: 0.7853981633974483,   # pi/4 exactly
    2: 1.1107207345395915,
    3: 0.906899682117109,
    5: 1.4049629462081452,
    7: 0.5937052058618629,
}


@pytest.mark.parametrize("k,expect", sorted(L_FROZEN.items()))
def test_l_value_against_digamma_formula(k, expect):
    # frozen values come from the digamma identity; recompute the oracle too
    assert digamma_l_oracle(k) == pytest.approx(expect, abs=1e-12)
    assert l_value(k, 1e-9) == pytest.approx(expect, abs=1e-9)


@pytest.mark.parametrize("tol", [1e-2, 1e-4, 1e-6, 1e-8])
def test_l_value_tolerance_is_honored(tol):
    assert abs(l_value(1, tol) - math.pi / 4) <= tol


def test_l_value_ceiling_diagnostic(monkeypatch):
    monkeypatch.setattr(singular, "L_SUM_CEILING", 10)
    with pytest.raises(ValueError, match="ceiling"):
        l_value(1, 1e-6)


def test_l_value_rejects_bad_arguments():
    with pytest.raises(ValueError):
        l_value(0, 1e-6)
    with pytest.raises(ValueError):
        l_value(3, 0.0)


# ---------------------------------------------------------------------------
# class numbers and the exact L(k)

H_KNOWN = {
    1: 1, 2: 1, 3: 1, 4: 1, 5: 2, 6: 2, 7: 1, 10: 2, 13: 2, 14: 4,
    17: 4, 21: 4, 26: 6, 30: 4, 41: 8, 89: 12, 101: 14,
}


@pytest.mark.parametrize("k,h", sorted(H_KNOWN.items()))
def test_class_number_known_values(k, h):
    assert class_number(k) == h


def test_class_number_counts_reduced_forms_by_brute_force():
    for k in range(1, 501):
        assert class_number(k) == len(reduced_forms_brute(k)), k


def test_class_number_rejects_bad_arguments():
    with pytest.raises(ValueError):
        class_number(0)


def test_class_number_checks_the_budget(monkeypatch):
    monkeypatch.setenv("QUADPRIME_BUDGET_BYTES", str(10**5))
    with pytest.raises(MemoryError, match="class-number grid for k = 1000000"):
        class_number(10**6)


def test_bulk_class_numbers_equal_class_number():
    h = _class_numbers(10**4)
    assert h[0] == 0
    assert h[1:].tolist() == [class_number(k) for k in range(1, 10**4 + 1)]


@lru_cache(maxsize=1)
def class_numbers_to_a_million():
    return _class_numbers(10**6)


@settings(max_examples=40, deadline=None)
@given(k=st.integers(1, 10**6))
@example(k=10**6)  # 2^6 5^6: imprimitive forms for many d
@example(k=705_600)  # 840^2
@example(k=999_999)
@example(k=999_983)  # prime
def test_bulk_class_numbers_sampled_to_a_million(k):
    assert class_numbers_to_a_million()[k] == class_number(k)


def test_bulk_class_numbers_check_arguments_and_budget(monkeypatch):
    with pytest.raises(ValueError):
        _class_numbers(0)
    monkeypatch.setenv("QUADPRIME_BUDGET_BYTES", str(4 * 10**5))
    with pytest.raises(MemoryError, match="class numbers over k <= 100000"):
        _class_numbers(10**5)


@settings(max_examples=10, deadline=None)
@given(k=st.integers(1, 5000))
@example(k=1)
@example(k=4)
@example(k=12)
@example(k=4096)
def test_class_number_formula_matches_direct_sum(k):
    assert abs(l_by_class_number(k) - l_value(k, 1e-10)) <= 1e-9


# ---------------------------------------------------------------------------
# error budget of the SL product and of the lmethod quotient


def test_sl_tail_bound_covers_the_prime_tail():
    # sum over primes P < p <= 1e6, plus sum_{n > 1e6} 1/(n(n-2)) < 1/(1e6 - 2) for the rest
    p = odd_primes_sieve(10**6).astype(np.float64)
    for cut in (3, 10, 100, 1000, 10**4):
        tail = float(np.sum(1.0 / (p[p > cut] * (p[p > cut] - 2.0)))) + 1.0 / (10**6 - 2)
        assert tail <= sl_tail_bound(cut), cut


def test_sl_cutoff_is_the_least_p_meeting_the_bound():
    tols = np.geomspace(1e-11, 10.0, 200)
    cuts = [_sl_cutoff(float(t)) for t in tols]
    assert all(a >= b for a, b in zip(cuts, cuts[1:]))  # tol grows, the cutoff does not
    for tol, cut in zip(tols, cuts):
        eps = sl_tail_bound(cut)
        assert eps < 1 and 1.24 * eps / (1 - eps) <= tol, (tol, cut)
        if cut > 3:
            eps = sl_tail_bound(cut - 1)
            assert eps >= 1 or 1.24 * eps / (1 - eps) > tol, (tol, cut)
    assert (_sl_cutoff(2.5e-5), _sl_cutoff(1.5e-6)) == (13179, 172745)
    with pytest.raises(ValueError, match="too far"):
        _sl_cutoff(1e-30)


@settings(max_examples=40, deadline=None)
@given(exponents=st.lists(st.floats(-8.0, -2.0), min_size=1, max_size=20))
def test_sl_counts_equal_the_scalar_cutoffs(exponents):
    tols = 10.0 ** np.array(exponents)
    primes = _odd_primes_upto(_sl_cutoff(float(tols.min())))
    want = [int(np.searchsorted(primes, _sl_cutoff(float(t)), side="right")) for t in tols]
    assert singular._sl_counts(primes, tols).tolist() == want


@pytest.mark.parametrize("cut", [4, 5, 6, 10, 11, 12, 100, 1008, 1009, 10006, 10007, 104728, 104729])
def test_sl_counts_at_the_bound_itself(cut):
    # at t = _sl_tail_error(P) the cutoff is P: a prime p = P + 1 is out, a prime P is in
    tols = np.array([singular._sl_tail_error(cut)])
    assert _sl_cutoff(float(tols[0])) == cut
    primes = _odd_primes_upto(2 * cut)
    want = int(np.searchsorted(primes, cut, side="right"))
    assert singular._sl_counts(primes, tols).tolist() == [want]


def test_lmethod_bulk_solves_one_cutoff_a_chunk_and_reads_chi_a_block(monkeypatch):
    calls = {"_sl_cutoff": 0, "_chi_block": 0, "chi_k": 0}
    for name in calls:
        f = getattr(singular, name)
        monkeypatch.setattr(singular, name, lambda *args, f=f, name=name: calls.__setitem__(name, calls[name] + 1) or f(*args))
    monkeypatch.setattr(singular, "_LMETHOD_CHUNK", 100)
    singular._lmethod_bulk(np.arange(1, 301), 1e-4)
    assert calls == {"_sl_cutoff": 3, "_chi_block": 3 * 7, "chi_k": 0}  # 7 blocks of 16 cover a chunk of 100


@lru_cache(maxsize=None)
def l_tight(k):
    return l_value(k, 1e-11)


@settings(max_examples=8, deadline=None)
@given(k=st.integers(1, 1000))
@example(k=1)
@example(k=4)
@example(k=163)
def test_lmethod_meets_its_tolerance(k):
    for tol in (1e-3, 1e-6):
        assert abs(singular_series_lmethod(k, tol) - sl_product(k, tol / 100) / l_tight(k)) <= tol, (k, tol)


# ---------------------------------------------------------------------------
# accelerated product, cross-method agreement


def test_sl_product_equals_euler_times_l():
    for k in (1, 2, 3, 7, 10):
        sl = sl_product(k, 1e-7)
        approx = singular_series_euler(k, 10**6) * l_value(k, 1e-7)
        assert sl == pytest.approx(approx, abs=5e-4), k


def test_lmethod_agrees_with_high_accuracy_reference():
    # reference: 4/pi times the accelerated product over p <= 1e8
    assert singular_series_lmethod(1, 1e-6) == pytest.approx(1.3728134628181987, abs=1e-6)


@pytest.mark.parametrize("k", [1, 2, 3, 5, 6, 7, 10, 11])
def test_lmethod_agrees_with_euler(k):
    assert singular_series_lmethod(k, 1e-6) == pytest.approx(
        singular_series_euler(k, 10**6), abs=2e-3
    )


def test_dispatch_by_config():
    assert singular_series(5, SingularCfg()) == singular_series_euler(5, 10**4)
    assert singular_series(5, SingularCfg(method="lmethod", tol=1e-6)) == singular_series_lmethod(5, 1e-6)


def test_config_validation():
    with pytest.raises(ValueError):
        SingularCfg(method="nope")
    with pytest.raises(ValueError):
        SingularCfg(tol=-1.0)
    with pytest.raises(ValueError):
        SingularCfg(euler_cutoff=1)


# ---------------------------------------------------------------------------
# Dirichlet form: partial sums and tails

PARTIAL_FROZEN = {
    (1, 1): 1.0,
    (1, 3): 1.5,
    (1, 5): 1.25,
    (2, 9): 0.9166666666666666,
    (3, 25): 1.1523989898989897,
}


@pytest.mark.parametrize("k,qmax,expect", [(k, q, v) for (k, q), v in sorted(PARTIAL_FROZEN.items())])
def test_dirichlet_partial_frozen(k, qmax, expect):
    assert dirichlet_partial(k, qmax) == pytest.approx(expect, rel=1e-15)


def test_dirichlet_partial_matches_term_by_term():
    # mu(q)/phi(q) * jacobi(-k, q) over odd q, straight from the definitions
    for k in (1, 4, 9):
        expect = 0.0
        for q in range(1, 60, 2):
            mu, phi = mobius_phi(q)
            expect += mu / phi * jacobi(-k, q)
        assert dirichlet_partial(k, 59) == pytest.approx(expect, rel=1e-12)


TAIL_FROZEN = {
    (1, 101): -0.022959308013477564,
    (2, 101): 0.016177627406753103,
    (5, 501): -0.031389330308144836,
}


@pytest.mark.parametrize("k,q1,expect", [(k, q, v) for (k, q), v in sorted(TAIL_FROZEN.items())])
def test_tail_phi_frozen(k, q1, expect, s_via_l_value):
    value = tail_phi(k, q1, 1e-6)
    assert value == pytest.approx(expect, abs=1e-9)
    # S(k) to 1e-8 through the direct-sum L-value, 100 times tighter than tol
    assert abs(value - (s_via_l_value(k, 1e-8) - dirichlet_partial(k, q1))) <= 1e-6


def test_tail_plus_partial_reconstructs_full_value():
    for k in (1, 2, 5):
        full = singular_series_lmethod(k, 1e-7)
        assert tail_phi(k, 101, 1e-7) + dirichlet_partial(k, 101) == pytest.approx(full, abs=1e-6)


# ---------------------------------------------------------------------------
# the bulk lmethod route


@st.composite
def ascending_ks(draw):
    """An ascending k set: a first k, then steps of 1 (runs) or more (gaps)."""
    return np.cumsum([draw(st.integers(1, 3000))] + draw(st.lists(st.integers(1, 60), max_size=30)))


@settings(max_examples=30, deadline=None)
@given(
    ks=ascending_ks(),
    chunk=st.integers(1, 8),
    q1=st.sampled_from([None, 1, 9, 60]),
    tol=st.sampled_from([1e-2, 1e-4]),
)
@example(ks=np.array([1]), chunk=singular._LMETHOD_CHUNK, q1=None, tol=1e-4)  # a single k
@example(ks=np.array([1]), chunk=singular._LMETHOD_CHUNK, q1=9, tol=1e-4)
@example(ks=np.array([9, 25, 49]), chunk=singular._LMETHOD_CHUNK, q1=None, tol=1e-4)  # odd primes squared only
@example(ks=np.array([2, 4, 8]), chunk=singular._LMETHOD_CHUNK, q1=None, tol=1e-4)  # no odd prime at all
@example(ks=np.array([5, 13]), chunk=singular._LMETHOD_CHUNK, q1=9, tol=1e-4)  # the four sign rows: k = 1 mod 4
@example(ks=np.array([7, 11]), chunk=singular._LMETHOD_CHUNK, q1=9, tol=1e-4)  # k = 3 mod 4
@example(ks=np.array([6, 10]), chunk=singular._LMETHOD_CHUNK, q1=9, tol=1e-4)  # k = 2 * odd
@example(ks=np.array([12, 20]), chunk=singular._LMETHOD_CHUNK, q1=9, tol=1e-4)  # k = 4 * odd
@example(ks=np.array([45, 126]), chunk=singular._LMETHOD_CHUNK, q1=60, tol=1e-4)  # 3^2 5 and 2 3^2 7: a row twice
@example(ks=np.array([1000]), chunk=1, q1=None, tol=1e-4)  # a single k above 1
@example(ks=np.arange(2, 60, 3), chunk=4, q1=None, tol=1e-4)  # first k above 1, chunks of a gapped run
@example(  # two chunks of the module's own size, the second a gapped tail
    ks=np.concatenate([np.arange(3, singular._LMETHOD_CHUNK + 3), np.arange(singular._LMETHOD_CHUNK + 9, 2400, 7)]),
    chunk=singular._LMETHOD_CHUNK,
    q1=9,
    tol=1e-2,
)
def test_lmethod_bulk_equals_the_per_k_route(ks, chunk, q1, tol):
    with mock.patch.object(singular, "_LMETHOD_CHUNK", chunk):
        if q1 is None:
            got = singular._lmethod_bulk(ks, tol)
            want = [singular_series_lmethod(k, tol) for k in ks.tolist()]
        else:
            mu, phi = build_mobius_phi_tables(q1)
            q = np.arange(1, q1 + 1, 2)
            got = singular._lmethod_bulk(ks, tol, q, mu[q] / phi[q])
            want = [tail_phi(k, q1, tol, mu=mu, phi=phi) for k in ks.tolist()]
    assert got.tolist() == want


def test_lmethod_bulk_holds_no_container_per_k(monkeypatch):
    ks = np.arange(1, singular._LMETHOD_CHUNK + 1)
    singular._lmethod_bulk(ks, 1e-4)  # the caches are not the route's objects
    build, held = singular._legendre_rows, []

    def rows(primes, n):
        held.append(len(gc.get_objects()))
        return build(primes, n)

    monkeypatch.setattr(singular, "_legendre_rows", rows)
    before = len(gc.get_objects())
    singular._lmethod_bulk(ks, 1e-4)
    # a list per k would add 2048 objects for the collector to carry while the chunk's rows are read
    assert held[0] - before < 64


def test_lmethod_bulk_peak_is_within_its_count(largest_counts, traced_peak):
    y = 4 * singular._LMETHOD_CHUNK
    singular._odd_primes_upto(10**5)  # the cached sieve is not the route's allocation
    ks = np.arange(1, y + 1)
    _, peak = traced_peak(singular._lmethod_bulk, ks, 1e-4)
    points = largest_counts["chi and factor"] // (24 * singular._LMETHOD_BLOCK)
    chunk = largest_counts["Legendre rows "] + largest_counts["chi and factor"] + largest_counts["factorizations"]
    # beside the rows, blocks and factorizations of one chunk: the class numbers and the output, 12 bytes
    # a k, and the chunk's points, SL factor table and its index, 40 bytes a point
    assert peak - 12 * y - 40 * points <= chunk


# ---------------------------------------------------------------------------
# sandwich bounds


def test_sandwich_endpoints_match_known_constants():
    # the closed forms (C2 and pi^2/8) against direct products over odd p <= 1e6
    p = odd_primes_sieve(10**6).astype(np.float64)
    lo, hi = sandwich_bounds()
    assert lo == pytest.approx(float(np.prod(1.0 - 1.0 / (p - 1.0) ** 2)), abs=1e-6)
    assert hi == pytest.approx(float(np.prod(p * p / (p * p - 1.0))), abs=1e-6)


def test_sandwich_holds_on_small_squarefree_range():
    assert sandwich_violations(300, 1e-4) == []


def test_sandwich_violations_are_the_scalar_products(monkeypatch):
    # an empty band flags every squarefree k, each with its scalar sl_product to tol/4
    monkeypatch.setattr(singular, "sandwich_bounds", lambda: (1.0, 1.0))
    want = [(k, sl_product(k, 2.5e-5)) for k in range(1, 51) if squarefree(k)]
    assert sandwich_violations(50, 1e-4) == want


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
def test_sl_products_and_sandwich_reject_a_nonpositive_tol(tol):
    for name, call in [
        ("sl_product", lambda: sl_product(5, tol)),
        ("sl_product_bulk", lambda: sl_product_bulk(10, tol)),
        ("sandwich_violations", lambda: sandwich_violations(10, tol)),
        ("l_value", lambda: l_value(5, tol)),
        ("singular_series_lmethod", lambda: singular_series_lmethod(5, tol)),
        ("SingularCfg", lambda: SingularCfg(method="lmethod", tol=tol)),
    ]:
        with pytest.raises(ValueError, match=f"^{name}: tol must be positive"):
            call()
