"""Elementary number-theory helpers, checked against brute-force oracles."""

import math

import pytest

from quadprime.arith import (
    divisors,
    factorize,
    jacobi,
    mobius_phi,
    von_mangoldt,
)


def trial_division_is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def trial_division_factorize(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def legendre_euler_criterion(a, p):
    """(a/p) for odd prime p via a^((p-1)/2) mod p."""
    r = pow(a % p, (p - 1) // 2, p)
    return r - p if r > 1 else r


# ---------------------------------------------------------------------------
# jacobi


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 61, 97, 101])
def test_jacobi_matches_euler_criterion_on_primes(p):
    for a in range(-2 * p, 2 * p + 1):
        assert jacobi(a, p) == legendre_euler_criterion(a, p), (a, p)


def test_jacobi_multiplicative_in_modulus():
    for n1 in range(1, 40, 2):
        for n2 in range(1, 40, 2):
            for a in (-5, -1, 2, 3, 10, 21):
                assert jacobi(a, n1 * n2) == jacobi(a, n1) * jacobi(a, n2)


def test_jacobi_multiplicative_in_argument():
    for a1 in range(-10, 11):
        for a2 in range(-10, 11):
            for n in (3, 9, 15, 35, 45):
                assert jacobi(a1 * a2, n) == jacobi(a1, n) * jacobi(a2, n)


def test_jacobi_periodic_in_argument():
    for n in (3, 5, 21, 33, 45):
        for a in range(-n, n):
            assert jacobi(a, n) == jacobi(a + n, n) == jacobi(a + 7 * n, n)


def test_jacobi_unit_modulus_is_one():
    assert jacobi(0, 1) == 1
    assert jacobi(17, 1) == 1


@pytest.mark.parametrize("bad", [0, -3, 2, 10])
def test_jacobi_rejects_even_or_nonpositive_modulus(bad):
    with pytest.raises(ValueError):
        jacobi(1, bad)


# ---------------------------------------------------------------------------
# primality and prime powers, read through von Mangoldt: Lambda(n) = log n
# exactly when n is prime, log p when n = p^e, else 0


def test_is_prime_agrees_with_trial_division_below_3000():
    for n in range(1, 3000):
        assert (n > 1 and von_mangoldt(n) == math.log(n)) == trial_division_is_prime(n), n


# strong-pseudoprime composites that defeat small fixed-base Miller-Rabin sets,
# and known primes; each factorizes by trial division in well under a second
KNOWN_COMPOSITES = [341, 561, 1105, 25326001, 3215031751, 3474749660383, 341550071728321, 3825123056546413051]
KNOWN_PRIMES = [2, 3, 65537, 2147483647, 67280421310721]


@pytest.mark.parametrize("n", KNOWN_COMPOSITES)
def test_is_prime_rejects_strong_pseudoprimes(n):
    assert von_mangoldt(n) == 0.0


@pytest.mark.parametrize("n", KNOWN_PRIMES)
def test_is_prime_accepts_known_primes(n):
    assert von_mangoldt(n) == math.log(n)


def test_is_prime_rejects_out_of_range_input():
    for n in (0, -7):
        with pytest.raises(ValueError):
            von_mangoldt(n)


PRIME_POWER_CASES = {
    1: None, 2: 2, 3: 3, 4: 2, 6: None, 8: 2, 9: 3, 12: None,
    16: 2, 25: 5, 27: 3, 32: 2, 36: None, 49: 7, 64: 2, 100: None,
    121: 11, 125: 5, 128: 2, 243: 3, 1024: 2, 59049: 3, 2**61: 2,
}


@pytest.mark.parametrize("n,base", sorted(PRIME_POWER_CASES.items()))
def test_prime_power_base_frozen_cases(n, base):
    assert von_mangoldt(n) == (math.log(base) if base else 0.0)


def test_von_mangoldt_pointwise():
    for n in range(1, 2000):
        fac = trial_division_factorize(n)
        expect = math.log(fac[0][0]) if len(fac) == 1 else 0.0
        assert von_mangoldt(n) == pytest.approx(expect, abs=1e-12), n


# ---------------------------------------------------------------------------
# factorization, mobius, phi, divisors


@pytest.mark.parametrize("n", list(range(1, 500)) + [720720, 2**31 - 1, 10**12 + 39])
def test_factorize_matches_trial_division(n):
    assert factorize(n) == trial_division_factorize(n)


def test_mobius_phi_against_definitions():
    for n in range(1, 1000):
        fac = trial_division_factorize(n)
        mu = 0 if any(e > 1 for _, e in fac) else (-1) ** len(fac)
        phi = 1
        for p, e in fac:
            phi *= (p - 1) * p ** (e - 1)
        assert mobius_phi(n) == (mu, phi), n


def test_divisors_sorted_and_complete():
    for n in (1, 2, 12, 60, 97, 360, 1024):
        expect = [d for d in range(1, n + 1) if n % d == 0]
        assert divisors(n) == expect
