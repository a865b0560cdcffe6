"""Bulk sieved tables: primes, von Mangoldt values over a window, squarefree flags, mu/phi.

All builders are pure numpy and deterministic.  The von Mangoldt builder works
in fixed-size segments so the peak footprint beyond the output array stays
bounded; every builder checks the memory budget (the QUADPRIME_BUDGET_BYTES
environment variable, else 2 GiB) before allocating.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

DEFAULT_SEGMENT = 1 << 20
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


def build_prime_table(limit: int) -> PrimeTable:
    """Sieve of Eratosthenes up to `limit` (inclusive).

    Args:
        limit: inclusive upper bound, >= 0.

    Returns:
        PrimeTable with an int64 prime array.
    """
    if limit < 0:
        raise ValueError(f"build_prime_table: limit must be >= 0, got {limit}")
    _check_budget(limit + 1, f"prime sieve to {limit}")
    if limit < 2:
        return PrimeTable(limit, np.empty(0, dtype=np.int64))
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return PrimeTable(limit, np.nonzero(flags)[0].astype(np.int64))


@dataclass
class LambdaTable:
    """Von Mangoldt values Lambda(m) for m in the window [lo, hi].

    Attributes:
        lo: first index covered (>= 1).
        values: float64 array, values[m - lo] = Lambda(m).
    """

    lo: int
    values: np.ndarray

    @property
    def hi(self) -> int:
        return self.lo + len(self.values) - 1

    def covers(self, lo: int, hi: int) -> bool:
        return self.lo <= lo and hi <= self.hi

    def lookup(self, m: int) -> float:
        if not self.lo <= m <= self.hi:
            raise IndexError(f"Lambda table covers [{self.lo}, {self.hi}], asked for {m}")
        return float(self.values[m - self.lo])

    def window(self, lo: int, hi: int) -> np.ndarray:
        """View of the values for m = lo..hi (both inside the table)."""
        if not self.covers(lo, hi):
            raise IndexError(f"Lambda table covers [{self.lo}, {self.hi}], asked for [{lo}, {hi}]")
        return self.values[lo - self.lo : hi - self.lo + 1]


def build_lambda_table(lo: int, hi: int) -> LambdaTable:
    """Segmented sieve of Lambda(m) over [lo, hi].

    Primes in a segment get log m; afterwards every proper prime power p^j
    (j >= 2, p <= sqrt(hi)) inside the window is overwritten with log p.
    Segments are DEFAULT_SEGMENT long (read at call time) and independent, so
    their length only affects the working set, never the output.

    Args:
        lo: window start, >= 1.
        hi: window end, >= lo.

    Returns:
        LambdaTable covering [lo, hi].
    """
    if lo < 1 or hi < lo:
        raise ValueError(f"build_lambda_table: need 1 <= lo <= hi, got [{lo}, {hi}]")
    root = math.isqrt(hi)
    _check_budget(8 * (hi - lo + 1) + root + 1, f"Lambda table over [{lo}, {hi}]")

    base = build_prime_table(root).primes
    values = np.zeros(hi - lo + 1, dtype=np.float64)

    for seg_lo in range(lo, hi + 1, DEFAULT_SEGMENT):
        seg_hi = min(seg_lo + DEFAULT_SEGMENT - 1, hi)
        is_p = np.ones(seg_hi - seg_lo + 1, dtype=bool)
        if seg_lo == 1:
            is_p[0] = False
        for p in base:
            p = int(p)
            start = max(p * p, ((seg_lo + p - 1) // p) * p)
            if start > seg_hi:
                continue
            is_p[start - seg_lo :: p] = False
        idx = np.nonzero(is_p)[0]
        values[idx + (seg_lo - lo)] = np.log(idx.astype(np.float64) + seg_lo)

    # Proper prime powers: Lambda(p^j) = log p, not log(p^j).
    for p in base:
        p = int(p)
        pj = p * p
        while pj <= hi:
            if pj >= lo:
                values[pj - lo] = math.log(p)
            pj *= p
    return LambdaTable(lo, values)


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
    on multiples of p and zeroes on multiples of p^2.
    """
    if limit < 1:
        raise ValueError(f"build_mobius_phi_tables: limit must be >= 1, got {limit}")
    _check_budget(9 * (limit + 1), f"mu/phi tables to {limit}")
    mu = np.ones(limit + 1, dtype=np.int8)
    phi = np.arange(limit + 1, dtype=np.int64)
    for p in build_prime_table(limit).primes:
        p = int(p)
        mu[p::p] *= -1
        if p * p <= limit:
            mu[p * p :: p * p] = 0
        phi[p::p] -= phi[p::p] // p
    mu[0] = 0
    return mu, phi
