"""Bulk sieved tables: primes, von Mangoldt values, squarefree flags, mu/phi.

All builders are pure numpy and deterministic, and all of them take their
primes from the one sieve of Eratosthenes, `build_prime_table`.  Every
builder checks the memory budget (the QUADPRIME_BUDGET_BYTES environment
variable, else 2 GiB) before allocating.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

DEFAULT_BUDGET_BYTES = 2 << 30


def memory_budget() -> int:
    """The byte budget: QUADPRIME_BUDGET_BYTES if set, else 2 GiB."""
    env = os.environ.get("QUADPRIME_BUDGET_BYTES")
    if env is not None:
        return int(env)
    return DEFAULT_BUDGET_BYTES


def _check_budget(nbytes: int, what: str) -> None:
    limit = memory_budget()
    if nbytes > limit:
        raise MemoryError(
            f"{what} needs {nbytes} bytes, over the {limit}-byte budget "
            f"(raise QUADPRIME_BUDGET_BYTES to allow this)"
        )


@dataclass
class PrimeTable:
    """Ascending primes up to and including `limit`.

    Attributes:
        limit: inclusive sieving bound.
        primes: int64 array of all primes <= limit.
    """

    limit: int
    primes: np.ndarray

    def count(self) -> int:
        return len(self.primes)


def _prime_count_bound(n: int) -> int:
    """An integer above pi(n): pi(n) < 1.25506 n / ln n for n > 1 (Rosser-Schoenfeld)."""
    return int(1.25506 * n / math.log(n)) + 1 if n > 1 else 0


def build_prime_table(limit: int) -> PrimeTable:
    """Sieve of Eratosthenes up to `limit` (inclusive).

    Args:
        limit: inclusive upper bound, >= 0.

    Returns:
        PrimeTable with an int64 prime array.
    """
    if limit < 0:
        raise ValueError(f"build_prime_table: limit must be >= 0, got {limit}")
    # the peak: a flag byte per n beside the 8-byte primes that np.nonzero gathers from them
    _check_budget(limit + 1 + 8 * _prime_count_bound(limit), f"prime sieve to {limit}")
    if limit < 2:
        return PrimeTable(limit, np.empty(0, dtype=np.int64))
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return PrimeTable(limit, np.nonzero(flags)[0].astype(np.int64, copy=False))


@dataclass
class LambdaTable:
    """Von Mangoldt values Lambda(m) for m = 1..hi, stored at odd m.

    Lambda vanishes at every even m but the powers of two, so only the odd m
    are stored; the powers of two are kept apart, in `twos`.  `at` and
    `window` give Lambda(m) at each m asked for; only the bulk psi pass
    reads `values` and `twos` directly.

    Attributes:
        values: float64 array, values[i] = Lambda(2i + 1) (values[0] = Lambda(1) = 0).
        twos: twos[j - 1] = Lambda(2^j) for each 2^j <= hi.
        hi: last m covered.
    """

    values: np.ndarray
    twos: tuple[float, ...]
    hi: int

    def _check(self, lo: int, hi: int) -> None:
        if not (1 <= lo and hi <= self.hi):
            raise IndexError(f"Lambda table covers [1, {self.hi}], asked for [{lo}, {hi}]")

    def at(self, m: np.ndarray) -> np.ndarray:
        """Lambda(m) at each m of a nonempty int64 array (every m inside the table)."""
        self._check(int(m.min()), int(m.max()))
        out = np.where((m & 1) == 1, self.values[(m - 1) >> 1], 0.0)
        for j, v in enumerate(self.twos, 1):
            out[m == 1 << j] = v
        return out

    def window(self, lo: int, hi: int) -> np.ndarray:
        """A dense copy of the values for m = lo..hi (both inside the table)."""
        self._check(lo, hi)
        out = np.zeros(hi - lo + 1, dtype=np.float64)
        first = lo | 1  # the first odd m >= lo
        out[first - lo :: 2] = self.values[first >> 1 : (hi + 1) >> 1]
        for j, v in enumerate(self.twos, 1):
            if lo <= 1 << j <= hi:
                out[(1 << j) - lo] = v
        return out


def build_lambda_table(hi: int) -> LambdaTable:
    """Lambda(m) for m = 1..hi from `build_prime_table(hi)`.

    Each prime p gets log p from np.log, and then each proper prime power
    p^j (j >= 2) gets math.log(p); Lambda(2) is np.log's, Lambda(4), Lambda(8),
    ... math.log's.  The budget check counts the peak, which comes after the
    sieve: 4 bytes per m for the odd-m values and 16 per prime for the primes
    and their logs.

    Args:
        hi: last m covered, >= 1.

    Returns:
        LambdaTable covering [1, hi].
    """
    if hi < 1:
        raise ValueError(f"build_lambda_table: hi must be >= 1, got {hi}")
    _check_budget(4 * (hi + 1) + 16 * _prime_count_bound(hi), f"Lambda table over [1, {hi}]")
    primes = build_prime_table(hi).primes
    small = primes[: np.searchsorted(primes, math.isqrt(hi), side="right")].tolist()
    values = np.zeros((hi + 1) // 2, dtype=np.float64)
    logs = primes.astype(np.float64)
    np.log(logs, out=logs)
    twos = [float(logs[0])] + [math.log(2)] * (hi.bit_length() - 2) if hi >= 2 else []
    primes >>= 1  # the odd prime p sits at values[p >> 1]
    values[primes[1:]] = logs[1:]
    for p in small[1:]:  # the odd primes <= sqrt(hi)
        log_p = math.log(p)
        pj = p * p
        while pj <= hi:
            values[pj >> 1] = log_p
            pj *= p
    return LambdaTable(values, tuple(twos), hi)


def build_squarefree_table(limit: int) -> np.ndarray:
    """Boolean squarefree flags for 0..limit (index 0 is False), by striking p^2 multiples."""
    if limit < 1:
        raise ValueError(f"build_squarefree_table: limit must be >= 1, got {limit}")
    _check_budget(limit + 1, f"squarefree table to {limit}")
    flags = np.ones(limit + 1, dtype=bool)
    flags[0] = False
    for p in build_prime_table(math.isqrt(limit)).primes:
        sq = int(p) * int(p)
        flags[sq::sq] = False
    return flags


def build_mobius_phi_tables(limit: int) -> tuple[np.ndarray, np.ndarray]:
    """Mu and phi for 0..limit as (int8, int64) arrays.

    mu[0] and phi[0] are 0 by convention.  Each prime is applied once:
    phi picks up its (1 - 1/p) factor by exact subtraction, mu flips sign
    on multiples of p and zeroes on multiples of p^2.  The order does not
    matter: phi[n] stays divisible by each prime of n not yet applied.  A
    prime p <= sqrt(limit) is applied on its own; the primes above it have
    p^2 > limit and are applied a multiplier j at a time, to j p for every
    such p <= limit / j, so that they cost one step per j, not one per prime.
    """
    if limit < 1:
        raise ValueError(f"build_mobius_phi_tables: limit must be >= 1, got {limit}")
    # the peak is at p = 2: mu (1 byte per n) and phi (8) beside the sieve's
    # primes (8 per prime) and the quotient phi[2::2] // 2 (4 per n); inside
    # the sieve, its flags (1 per n) stand where the quotient will.  At j = 1
    # the primes above sqrt(limit) hold their multiples, phi there and its
    # quotient, 24 bytes a prime: within the quotient's 4 per n from limit 529
    _check_budget(13 * (limit + 1) + 8 * _prime_count_bound(limit), f"mu/phi tables to {limit}")
    mu = np.ones(limit + 1, dtype=np.int8)
    phi = np.arange(limit + 1, dtype=np.int64)
    primes = build_prime_table(limit).primes
    small = int(np.searchsorted(primes, math.isqrt(limit), side="right"))
    for p in primes[:small].tolist():
        mu[p::p] *= -1
        mu[p * p :: p * p] = 0
        phi[p::p] -= phi[p::p] // p
    large = primes[small:]
    for j in range(1, limit // int(large[0]) + 1 if len(large) else 1):
        ps = large[: np.searchsorted(large, limit // j, side="right")]
        at = ps * j
        mu[at] *= -1
        v = phi[at]
        v -= v // ps
        phi[at] = v
    mu[0] = 0
    return mu, phi
