"""Exact scalar number theory: Jacobi symbols, trial-division factorization, pointwise Lambda, mu, phi.

Everything in this module is integer-exact (the only float is the log in
von_mangoldt).  Lambda, mu and phi each come from one `factorize` call,
so they cost a trial division of n.  Bulk/table variants live in `sieve`.
"""

from __future__ import annotations

import math


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n >= 1.

    Negative a is fine (it is reduced mod n, which folds in the (-1/n)
    factor).  Even or non-positive n is a hard error, not a value.
    """
    if n <= 0 or n % 2 == 0:
        raise ValueError(f"jacobi: modulus must be odd and positive, got {n}")
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 as [(p, e), ...] by trial division."""
    if n < 1:
        raise ValueError(f"factorize: n must be >= 1, got {n}")
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2 if p % 6 != 1 else 4  # 2, 3, then the 6k +/- 1 wheel
    if n > 1:
        out.append((n, 1))
    return out


def von_mangoldt(n: int) -> float:
    """Lambda(n): log p when n = p^e, else 0.0."""
    if n < 1:
        raise ValueError(f"von_mangoldt: n must be >= 1, got {n}")
    factors = factorize(n)
    return math.log(factors[0][0]) if len(factors) == 1 else 0.0


def mobius_phi(n: int) -> tuple[int, int]:
    """(mu(n), phi(n)) for n >= 1, via one factorization."""
    mu, phi = 1, 1
    for p, e in factorize(n):
        phi *= (p - 1) * p ** (e - 1)
        mu = 0 if e > 1 else -mu
    return mu, phi


def divisors(n: int) -> list[int]:
    """All positive divisors of n >= 1, ascending."""
    out = [1]
    for p, e in factorize(n):
        out = [d * p**j for d in out for j in range(e + 1)]
    return sorted(out)
