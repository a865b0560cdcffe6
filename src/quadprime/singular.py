"""Singular series for the quadratic progression n^2 + k, and its building blocks.

The density constant attached to k is

    S(k) = prod_{p > 2} (1 - chi_k(p) / (p - 1)),        chi_k(p) = jacobi(-k, p),

with equivalent forms used here:

  * truncated Euler product over odd p <= P          (singular_series_euler)
  * Dirichlet form  sum_{q odd} mu(q)/phi(q) chi_k(q) (dirichlet_partial, tail_phi)
  * accelerated form S(k) = SL(k) / L(k), where

        SL(k) = prod_{p > 2} (p^2 - p - p chi) / (p^2 - p - (p-1) chi)

    has 1 + O(p^-2) factors (absolutely convergent) and
    L(k) = sum_{n odd} chi_k(n)/n is a nonzero Dirichlet L-value at 1 for a
    real character of modulus 4k                      (singular_series_lmethod)

L(k) is L(1, chi_{-4k}), which the class number formula gives exactly:
L(k) = pi h(-4k) / (w sqrt(k)) with w = 4 at k = 1 and 2 otherwise, h(-4k)
counted over reduced forms (class_number).  l_value sums the series
directly and is kept as the independent oracle for it.

SL(k) is sandwiched between prod (p^2-2p)/(p^2-2p+1) and prod p^2/(p^2-1)
over odd primes, the twin-prime constant C2 and pi^2/8, which
sandwich_violations verifies numerically.  chi_k itself is evaluated by
Jacobi reciprocity from the factorization of k, at just the n a caller reads,
so no prime sieve and no table of length 4k is needed for it.

Also here: sigma_q, the exact complete exponential sum
sum_r sum_{a coprime q} e(-(a/q)(k + r^2)), evaluated in integers.
"""

from __future__ import annotations

import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .arith import divisors, factorize, mobius_phi
from .errors import VerificationError
from .sieve import _check_budget, build_mobius_phi_tables, build_prime_table, build_squarefree_table

L_SUM_CEILING = 100_000_000
_SUM_CHUNK = 1 << 20

_prime_cache: dict[str, object] = {"table": None}


def _odd_primes_upto(limit: int) -> np.ndarray:
    """The odd primes <= limit, ascending, sliced from a shared sieve that grows monotonically.

    A growing sieve is checked against the memory budget; a cached slice is not.
    """
    table = _prime_cache["table"]
    if table is None or table.limit < limit:
        table = build_prime_table(limit)
        _prime_cache["table"] = table
    primes = table.primes
    return primes[1 : np.searchsorted(primes, limit, side="right")]  # from 1: drop 2


@dataclass
class SingularCfg:
    """How to evaluate S(k): truncated Euler product or the L-accelerated form."""

    method: str = "euler"
    euler_cutoff: int = 10_000
    tol: float = 1e-6

    def __post_init__(self) -> None:
        if self.method not in ("euler", "lmethod"):
            raise ValueError(f"SingularCfg: unknown method {self.method!r}")
        if self.euler_cutoff < 3:
            raise ValueError(f"SingularCfg: euler_cutoff must be >= 3, got {self.euler_cutoff}")
        if not 0 < self.tol < math.inf:
            raise ValueError(f"SingularCfg: tol must be positive and finite, got {self.tol}")


def sigma_q(q: int, k: int) -> int:
    """Exact value of sum_{r=1}^{q} sum_{a<=q, gcd(a,q)=1} e(-(a/q)(k + r^2)).

    The inner sum over a is the Ramanujan sum c_q(k + r^2), which is the
    integer mu(q/g) phi(q)/phi(q/g) with g = gcd(q, k + r^2); so the whole
    double sum collapses to q exact integer terms.
    """
    if q < 1:
        raise ValueError(f"sigma_q: q must be >= 1, got {q}")
    if k < 1:
        raise ValueError(f"sigma_q: k must be >= 1, got {k}")
    mp = {d: mobius_phi(d) for d in divisors(q)}
    phi_q = mp[q][1]
    total = 0
    for r in range(1, q + 1):
        g = math.gcd(q, k + r * r)
        mu_d, phi_d = mp[q // g]
        total += mu_d * (phi_q // phi_d)
    return total


def _legendre_table(p: int) -> np.ndarray:
    """(m/p) for m = 0..p-1 as int8, by enumerating the nonzero squares r^2, r <= p/2.

    The build peaks at the table plus the int64 row of squares: 5 bytes per
    residue and the array headers, counted as 6.
    """
    _check_budget(6 * p, f"Legendre table mod {p}")
    t = np.full(p, -1, dtype=np.int8)
    t[0] = 0
    r = np.arange(1, p // 2 + 1, dtype=np.int64)
    r *= r
    r %= p
    t[r] = 1
    return t


def _legendre_rows(primes, n) -> np.ndarray:
    """The rows chi_k is multiplied from, at the points n, as one int8 matrix.

    Row 0 is all ones, rows 1-4 are the four sign rows _CHI_SIGN[i][n & 7],
    and row 5 + i is the Legendre row _legendre_table(p)[n % p] of the i-th
    prime p of primes, so _chi_keys maps ascending primes to rows by
    searchsorted.  The rows are counted before the first is built, with 128
    bytes a row to spare; each table mod p keeps its own check.
    """
    points = np.size(n)
    _check_budget((points + 128) * (len(primes) + 5), f"Legendre rows for {len(primes)} primes at {points} points")
    rows = np.empty((len(primes) + 5,) + np.shape(n), dtype=np.int8)
    rows[0] = 1
    rows[1:5] = _CHI_SIGN[:, n & 7]  # n mod 8, without an integer division
    for i, p in enumerate(map(int, primes), 5):
        rows[i] = _legendre_table(p)[n % p]
    return rows


# the sign s(n) of chi_k at n mod 8, row 2 (m % 4 // 2) + e % 2 for k = 2^e m, m odd (see chi_k)
_CHI_SIGN = np.array(
    [
        [0, 1, 0, -1, 0, 1, 0, -1],
        [0, 1, 0, 1, 0, -1, 0, -1],
        [0, 1, 0, 1, 0, 1, 0, 1],
        [0, 1, 0, -1, 0, -1, 0, 1],
    ],
    dtype=np.int8,
)


def chi_k(k: int, n):
    """chi_k(n) = jacobi(-k, n) for odd n, 0 for even n, at an int n or an int64 array n.

    Write k = 2^e m with m odd.  Jacobi reciprocity and its two supplements
    (Cohen, A Course in Computational Algebraic Number Theory, 1.4.2) give,
    for odd n,

        (-k/n) = s(n) * prod_{p^a || m} (n/p)^a,

    where the sign s(n) depends only on n mod 8: (-1/n) times the reciprocity
    sign is -1 exactly when n = 3 mod 4 and m = 1 mod 4, and (2/n)^e is -1
    exactly when e is odd and n = +-3 mod 8.  So chi_k is read from the sign
    row at n mod 8 and one Legendre row per prime of m at n mod p, and costs
    the same for every k of the same shape, however large.  Since (n/p) is
    -1, 0 or 1, (n/p)^a is (n/p) for odd a and (n/p)^2 for even a: k's row
    list holds its sign row, then each odd prime's row once or twice, and
    chi_k is their product.  The rows are those of k's own odd primes, built
    by _legendre_rows; _chi_block multiplies the lists of many k at once.
    """
    e = (k & -k).bit_length() - 1
    odd = [(p, a) for p, a in factorize(k) if p > 2]
    rows = _legendre_rows([p for p, _ in odd], n)
    ids = [1 + ((k >> e) & 2 | e & 1)] + [i for i, (_, a) in enumerate(odd, 5) for _ in range(2 - a % 2)]
    chi = np.multiply.reduce(rows[ids], dtype=np.int8)
    return chi if isinstance(n, np.ndarray) else int(chi)


def _chi_keys(ks: np.ndarray, flat: list, ends: list, primes: np.ndarray) -> np.ndarray:
    """The row lists of chi_k for the k of ks, one row of ids each, padded with 0, the row of ones.

    factorize(ks[i]) lies at flat[ends[i]:ends[i + 1]] as p, a, p, a, ...;
    primes are the ascending odd primes that _legendre_rows built rows for,
    so p's row is 5 + its index.  Each list is as in chi_k: k's sign row,
    then each odd prime's row once for an odd exponent and twice for an even
    one.  An odd prime of some k without a row is a KeyError.
    """
    low = ks & -ks  # 2^e for k = 2^e m, m odd; bit e + 1 of k is m % 4 // 2
    sign = 1 + 2 * ((ks & (low << 1)) != 0) + ((low & 0x2AAAAAAAAAAAAAAA) != 0)  # odd e: a bit 1, 3, ... of low
    pairs = np.array(flat, dtype=np.int64).reshape(-1, 2)
    owner = np.repeat(np.arange(len(ks)), np.diff(ends) // 2)
    odd = pairs[:, 0] > 2
    pairs, owner = pairs[odd], owner[odd]
    row = np.searchsorted(primes, pairs[:, 0])
    if not np.array_equal(np.append(primes, 0)[row], pairs[:, 0]):
        raise KeyError(f"no Legendre row for the odd primes {sorted(set(pairs[:, 0].tolist()) - set(primes.tolist()))}")
    reps = 2 - (pairs[:, 1] & 1)
    row, owner = np.repeat(row + 5, reps), np.repeat(owner, reps)
    col = 1 + np.arange(len(owner)) - np.searchsorted(owner, owner)  # owner ascends: k's entries so far
    ids = np.zeros((len(ks), 1 + int(col.max(initial=0))), dtype=np.intp)
    ids[:, 0] = sign
    ids[owner, col] = row
    return ids


def _chi_block(rows: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """chi_k at the points of rows for a block of k, one row per k, from _chi_keys' ids of those k.

    rows is the matrix of _legendre_rows, or the same prefix of each of its
    rows.  One gather stacks each k's rows and one np.multiply.reduce
    multiplies them, so a block costs two numpy calls, not one per k.
    """
    return np.multiply.reduce(rows[ids], axis=1, dtype=np.int8)


def _euler_factor(p, chi):
    """Factor of S(k) at the odd prime p, given chi = chi_k(p)."""
    return 1.0 - chi / (p - 1.0)


def _sl_factor(p, chi):
    """Factor of SL(k) at p: 1 - 1/(p-1)^2, exactly 1, or 1 + 1/(p^2-1) for chi = +1, 0, -1."""
    base = p * (p - 1.0)
    return (base - p * chi) / (base - (p - 1.0) * chi)


_ROW_WIDTH = 1 << 13  # factor rows of p below this are repeated to at least this many entries
_FAR_RATIO = 4  # primes p > _FAR_RATIO (y + 1) take _multiply_far_rows in _bulk_product
_FAR_BLOCK = 1 << 11  # primes per block of _multiply_far_rows
_SPLIT_MIN = 1 << 18  # _bulk_product splits its square rows over two threads from y + 1 = _SPLIT_MIN


def _factor_table(primes: np.ndarray, factor) -> tuple[np.ndarray, np.ndarray]:
    """factor(p, chi) at chi = -1, 0, +1 for each p of primes, flattened, and at: table[at[i] + chi] is primes[i]'s."""
    return factor(primes[:, None].astype(float), np.array([-1.0, 0.0, 1.0])).ravel(), 3 * np.arange(len(primes)) + 1


def _bulk_product(y: int, cutoff: int, factor) -> np.ndarray:
    """prod of factor(p, chi_k(p)) over odd p <= cutoff for every k = 0..y (index 0 set to 0).

    Each prime contributes factor() at chi = -1, 0 or +1 to each k, and the
    factors are multiplied into acc in ascending-prime order, so every k
    gets the same factors in the same order on either route:

    - _multiply_square_rows builds a prime's row from the squares mod p, at a
      cost that grows with p;
    - _multiply_far_rows reads chi_k on a block of primes through _chi_block
      for each block of k <= y, at a cost that grows with y and not with p.  It serves
      the primes above _FAR_RATIO (y + 1) = 4 (y + 1), where far rows cost
      less (measured: the two cost the same near p = 2 to 4 (y + 1) for
      y = 10^4 and 10^5, below 2 (y + 1) for y <= 1000).

    From y + 1 >= _SPLIT_MIN = 2^18, in a process that may run on two CPUs,
    the square rows go in two parts: the caller takes k < mid = (y + 1) // 2
    and one worker thread k >= mid, at phase mid.  numpy drops the GIL in the
    multiplies but not in the small ops that build a row, so the split pays
    only where the multiplies are long (measured: serial wins at y = 160,000,
    the split from 2^18), and four threads on two CPUs were slower than two.
    Each k gets the same factor() values in ascending p either way, so every
    float is the same whether or not the product splits.  The far rows run
    after, in the caller.

    A far block's Legendre rows are counted again by _legendre_rows; a
    cutoff too far to sieve is refused by the sieve's check.
    """
    _check_budget(8 * (y + 1), f"bulk product over k <= {y}")
    primes = _odd_primes_upto(cutoff)
    lo = int(np.searchsorted(primes, _FAR_RATIO * (y + 1), side="right"))  # lo >= 1: 3 is a square row
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    split = y + 1 >= _SPLIT_MIN and cpus >= 2
    # a square row peaks at 8 bytes per entry and 8 per residue of p (measured):
    # under 17 p + 9 _ROW_WIDTH for any p, twice over when split, since each
    # thread holds its own row.  A far block holds an int8 row per odd prime
    # <= y, and building its SL factor table peaks near 160 bytes a prime
    # (measured): under y + 192 bytes a prime
    rows = (1 + split) * (17 * int(primes[lo - 1]) + 9 * _ROW_WIDTH)
    _check_budget(
        max(rows, (y + 192) * _FAR_BLOCK if lo < len(primes) else 0),
        f"factor rows over k <= {y} for the odd primes <= {cutoff}",
    )
    acc = np.ones(y + 1, dtype=np.float64)
    if split:
        mid = (y + 1) // 2
        with ThreadPoolExecutor(max_workers=1) as pool:  # its exit joins the worker, even if this half raises
            upper = pool.submit(_multiply_square_rows, acc[mid:], primes[:lo], factor, mid)
            _multiply_square_rows(acc[:mid], primes[:lo], factor)
        upper.result()  # raises the worker's exception, if any
    else:
        _multiply_square_rows(acc, primes[:lo], factor)
    _multiply_far_rows(acc, primes[lo:], factor)
    acc[0] = 0.0
    return acc


def _multiply_square_rows(acc: np.ndarray, primes: np.ndarray, factor, k0: int = 0) -> None:
    """acc[i] *= each prime's factor at k = k0 + i, in ascending p, from rows built from the squares mod p.

    chi_k(p) = (-k/p) is periodic mod p, 0 at k = 0 mod p and +1 exactly at
    k = -r^2 mod p, 0 < r <= p/2, so a prime's row is filled at phase k0
    (entry i is k0 + i mod p) from factor() at chi = -1, 0 and +1, repeated
    to ceil(_ROW_WIDTH/p) p entries (short rows multiply slowly), cut to
    L <= len(acc) and multiplied in place into acc seen as len(acc) // L rows
    of length L, then into the tail.  No length-y temporary is made.
    """
    for p in map(int, primes):
        minus, zero, plus = factor(p, np.array([-1.0, 0.0, 1.0])).tolist()
        row = np.full(-(-_ROW_WIDTH // p) * p, minus)
        row[-k0 % p] = zero
        row[(-k0 - np.arange(1, p // 2 + 1, dtype=np.int64) ** 2) % p] = plus
        row.reshape(-1, p)[1:] = row[:p]
        row = row[: len(acc)]
        span = len(acc) // len(row) * len(row)
        rows = acc[:span].reshape(-1, len(row))
        rows *= row
        acc[span:] *= row[: len(acc) - span]
        del row  # so the next prime's row is not built beside this one


def _multiply_far_rows(acc: np.ndarray, primes: np.ndarray, factor) -> None:
    """acc[k] *= factor(p, chi_k(p)) for each p of primes in ascending order, k = 1..len(acc)-1.

    Every k is factorized once per call, into one flat list as in
    _lmethod_bulk, and _chi_keys turns it into each k's row ids.  The primes
    go in blocks of _FAR_BLOCK.  Each block builds the Legendre rows of every
    odd prime < len(acc), the odd primes of all its k, at its own primes, and
    the k go through it in blocks of up to _LMETHOD_BLOCK: _chi_block reads
    their chi_k, the factors are gathered from _factor_table, acc[k]
    multiplies the first of them, and np.prod multiplies the rest in left to
    right, so each acc[k] gets np.prod(..., initial=acc[k])'s float.
    """
    if not len(primes):
        return
    ks = np.arange(1, len(acc))
    # factorize(k) of the i-th k at flat[ends[i]:ends[i + 1]] as p, a, p, a, ...: counted as in _lmethod_bulk;
    # _chi_keys' peak and the row ids it returns are within the far block's count of 2048 bytes a k and more
    _check_budget(200 * len(ks), f"factorizations of {len(ks)} k")
    flat, ends = [], [0]
    for k in ks.tolist():
        flat.extend(itertools.chain.from_iterable(factorize(k)))
        ends.append(len(flat))
    odd_primes = _odd_primes_upto(len(acc) - 1)
    ids = _chi_keys(ks, flat, ends, odd_primes)
    del flat, ends
    # a block of b k holds an int8 chi, an int64 index and a float64 factor a prime, 17 b bytes: with b at
    # most max(1, y / 32), about y / 2, beside rows of about y / 2, within _bulk_product's far-block count
    b = min(_LMETHOD_BLOCK, max(1, len(ks) // 32))
    for start in range(0, len(primes), _FAR_BLOCK):
        ps = primes[start : start + _FAR_BLOCK]
        table, at = _factor_table(ps, factor)
        rows = _legendre_rows(odd_primes, ps)
        for lo in range(1, len(acc), b):
            f = table[at + _chi_block(rows, ids[lo - 1 : lo - 1 + b])]
            f[:, 0] *= acc[lo : lo + b]
            acc[lo : lo + b] = np.prod(f, axis=1)
        del rows  # so the next block's rows are not built beside these


def _prime_product(k: int, cutoff: int, factor) -> float:
    """prod of factor(p, chi_k(p)) over odd p <= cutoff for the single k, in ascending p."""
    p = _odd_primes_upto(cutoff)
    chi = chi_k(k, p).astype(np.float64)
    return float(np.prod(factor(p.astype(np.float64), chi)))


def singular_series_euler(k: int, cutoff: int) -> float:
    """Truncated Euler product over odd primes p <= cutoff (k >= 1, cutoff >= 3)."""
    if k < 1:
        raise ValueError(f"singular_series_euler: k must be >= 1, got {k}")
    if cutoff < 3:
        raise ValueError(f"singular_series_euler: cutoff must be >= 3, got {cutoff}")
    return _prime_product(k, cutoff, _euler_factor)


def singular_series_euler_bulk(y: int, cutoff: int) -> np.ndarray:
    """Truncated Euler product for every k = 1..y at once (index 0 unused, set to 0)."""
    if y < 1:
        raise ValueError(f"singular_series_euler_bulk: y must be >= 1, got {y}")
    if cutoff < 3:
        raise ValueError(f"singular_series_euler_bulk: cutoff must be >= 3, got {cutoff}")
    return _bulk_product(y, cutoff, _euler_factor)


def class_number(k: int) -> int:
    """h(-4k), the number of primitive reduced forms a x^2 + 2t xy + c y^2 with ac - t^2 = k.

    Reduced means |2t| <= a <= c, with t >= 0 when |2t| = a or a = c, and
    primitive means gcd(a, 2t, c) = 1 (Cohen, A Course in Computational
    Algebraic Number Theory, 5.3).  Then 3a^2 <= 4k, so one pass over the
    grid a <= sqrt(4k/3), 0 <= 2t <= a finds them all: c = (k + t^2)/a must
    be an integer >= a, and t > 0 stands for the pair +-t unless a tie-break
    keeps t alone.  Non-fundamental discriminants are included, as the class
    number formula for L(k) needs.
    """
    if k < 1:
        raise ValueError(f"class_number: k must be >= 1, got {k}")
    a_max = math.isqrt(4 * k // 3)
    # an int64 remainder and a bool mask per (a, t) cell; the measured peak is 9-10 bytes per cell
    _check_budget(12 * a_max * (a_max // 2 + 1), f"class-number grid for k = {k}")
    a = np.arange(1, a_max + 1, dtype=np.int64)[:, None]
    t = np.arange(a_max // 2 + 1, dtype=np.int64)
    row, t = np.nonzero(((k + t * t) % a == 0) & (2 * t <= a))
    a = row + 1
    c = (k + t * t) // a
    reduced = (c >= a) & (np.gcd(np.gcd(a, 2 * t), c) == 1)
    single = (t == 0) | (2 * t == a) | (c == a)
    return int(np.where(single, 1, 2)[reduced].sum())


def _class_numbers(y: int) -> np.ndarray:
    """h(-4k) for every k = 1..y at once, as class_number counts it (index 0 unused, set to 0).

    For fixed (a, t) the forms of class_number have k = a c - t^2 with
    c = a, a + 1, ..., a progression in k with step a from a^2 - t^2, so each
    (a, t) is one strided add of its weight: 1 when t = 0 or 2t = a, else 2
    for the pair +-t.  Primitivity, gcd(a, 2t, c) = 1, is the Moebius sum
    over d | gcd(a, 2t) of mu(d) times that add on the c divisible by d
    (step a d; d | a, so c = a is the first).  At c = a the pair +-t is one
    class, so a primitive (a, t) of weight 2 gives 1 back at k = a^2 - t^2.
    About 0.6 y^{3/2} adds in all (Cohen, A Course in Computational Algebraic
    Number Theory, 5.3).  The int32 counts halve the bytes each add touches.
    """
    if y < 1:
        raise ValueError(f"_class_numbers: y must be >= 1, got {y}")
    _check_budget(4 * (y + 1), f"class numbers over k <= {y}")
    a_max = math.isqrt(4 * y // 3)
    mu = build_mobius_phi_tables(a_max)[0].tolist()
    h = np.zeros(y + 1, dtype=np.int32)
    for a in range(1, a_max + 1):
        for t in range(a // 2 + 1):
            k0 = a * a - t * t
            if k0 > y:
                continue
            w = 1 if t == 0 or 2 * t == a else 2
            g = math.gcd(a, 2 * t)
            for d in divisors(g):
                if mu[d]:
                    h[k0 :: a * d] += mu[d] * w
            if w == 2 and g == 1:
                h[k0] -= 1
    return h


def l_value(k: int, tol: float) -> float:
    """L(k) = sum over odd n of jacobi(-k, n)/n, to absolute accuracy tol.

    Direct summation to N plus the tail's partial-summation main term.  The
    character partial sums S(n) are periodic mod 4k (the full-period sum is 0
    because the character is non-principal), so two rounds of partial
    summation give

        tail = (mu - S(N))/(N+1) + remainder,   |remainder| <= B/(N+1)^2,

    where mu is the period mean of S and B the window bound for the zero-mean
    walk S - mu (both computed exactly from one period, and both controlled by
    the Polya-Vinogradov bound for the modulus).  N = sqrt(2B/tol); if that
    exceeds L_SUM_CEILING the call fails with a diagnostic rather than degrading
    accuracy.
    """
    if k < 1:
        raise ValueError(f"l_value: k must be >= 1, got {k}")
    if not 0 < tol < math.inf:
        raise ValueError(f"l_value: tol must be positive and finite, got {tol}")
    m = 4 * k
    # the walk over one period peaks at 24 bytes per n (measured), counted with its headers as 25
    _check_budget(25 * m, f"character walk mod {m}")
    s_walk = np.cumsum(chi_k(k, np.arange(1, m + 1)), dtype=np.int64)  # S(1)..S(m)
    if s_walk[-1] != 0:
        raise VerificationError(f"l_value: character mod {m} does not sum to 0 over a period")
    mu = float(np.sum(s_walk)) / m
    centered = np.cumsum(s_walk.astype(np.float64) - mu)
    b_window = float(np.max(centered) - np.min(centered))
    n_terms = max(int(math.ceil(math.sqrt(2.0 * b_window / tol))), m, 16)
    if n_terms > L_SUM_CEILING:
        raise ValueError(
            f"l_value: direct summation needs N = {n_terms} terms for tol = {tol} "
            f"(walk bound {b_window:.1f}, modulus {m}), over the ceiling {L_SUM_CEILING}"
        )
    parts = []
    for lo in range(1, n_terms + 1, _SUM_CHUNK):
        n = np.arange(lo, min(lo + _SUM_CHUNK, n_terms + 1), dtype=np.int64)
        parts.append(float(np.sum(chi_k(k, n) / n)))
    s_at_n = float(s_walk[(n_terms - 1) % m])
    total = math.fsum(parts) + (mu - s_at_n) / (n_terms + 1)
    if total == 0.0:
        raise VerificationError(f"l_value: got exactly 0 for k = {k}, which the theory forbids")
    return total


def _sl_tail_error(p: int) -> float:
    """Bound on |sl_product - SL(k)| when the product stops at the prime cutoff p >= 3.

    Every SL factor has |log| <= 1/(p(p-2)).  Partial summation with
    pi(t) < 1.25506 t / ln t (Rosser-Schoenfeld 1962) bounds the tail past p
    by eps = 2.52 / ((p-2) ln p); with SL <= pi^2/8 < 1.24 the truncated
    product is off by at most 1.24 eps / (1 - eps) (infinite for eps >= 1).
    """
    eps = 2.52 / ((p - 2) * math.log(p))
    return 1.24 * eps / (1.0 - eps) if eps < 1.0 else math.inf


def _sl_cutoff(tol: float) -> int:
    """Smallest prime cutoff P >= 3 with _sl_tail_error(P) <= tol.

    Newton's method on (x-2) ln x = 2.52 (1 + 1.24 / tol), the same
    condition solved for x, gives the start; a step or two of the bound
    itself fixes the integer.
    """
    need = 2.52 * (1.0 + 1.24 / tol)
    x = max(need / math.log(need), 3.0)
    for _ in range(20):  # quadratic convergence: a handful of steps in practice
        step = ((x - 2.0) * math.log(x) - need) / (math.log(x) + 1.0 - 2.0 / x)
        x -= step
        if abs(step) <= 0.5:
            break
    if x > 2.0**50:  # beyond this, floats no longer tell neighbouring integers apart
        raise ValueError(f"sl_product: tol = {tol} needs primes up to {x:.3g}, too far to sieve")
    p = max(math.ceil(x), 3)
    while p > 3 and _sl_tail_error(p - 1) <= tol:
        p -= 1
    while _sl_tail_error(p) > tol:
        p += 1
    return p


def _sl_counts(primes: np.ndarray, tols: np.ndarray) -> np.ndarray:
    """searchsorted(primes, _sl_cutoff(t), "right") for each t of tols, from one table over the ascending odd primes.

    _sl_tail_error falls as its cutoff grows, so an odd prime p is at most
    _sl_cutoff(t) iff p = 3 or _sl_tail_error(p - 1) > t, and a count is the
    number of entries above t in the falling table of _sl_tail_error(p - 1)
    (inf at p = 3): one np.searchsorted for every t.  primes run from 3 to at
    least _sl_cutoff(min tols).  The table is taken in numpy, whose log may
    differ from math.log in the last place, so the two entries on either side
    of each count are taken again from _sl_tail_error, until no count moves.
    """
    m = primes[1:] - 1.0
    eps = 2.52 / ((m - 2.0) * np.log(m))  # eps < 1 from m = 4 on
    neg = np.concatenate(([-np.inf], -1.24 * eps / (1.0 - eps)))  # -_sl_tail_error(p - 1): ascending
    exact = np.zeros(len(neg), dtype=bool)
    exact[0] = True
    while True:
        counts = np.searchsorted(neg, -tols)
        near = np.zeros(len(neg) + 1, dtype=bool)
        near[counts - 1] = near[counts] = True
        todo = np.flatnonzero(near[:-1] & ~exact)
        if not len(todo):
            return counts
        neg[todo] = [-_sl_tail_error(p - 1) for p in primes[todo].tolist()]
        exact[todo] = True


def sl_product(k: int, tol: float) -> float:
    """S(k) * L(k) as the absolutely convergent product over odd primes (see _sl_factor)."""
    if k < 1:
        raise ValueError(f"sl_product: k must be >= 1, got {k}")
    if not 0 < tol < math.inf:
        raise ValueError(f"sl_product: tol must be positive and finite, got {tol}")
    return _prime_product(k, _sl_cutoff(tol), _sl_factor)


def sl_product_bulk(y: int, tol: float) -> np.ndarray:
    """sl_product for every k = 1..y at once (index 0 unused, set to 0)."""
    if y < 1:
        raise ValueError(f"sl_product_bulk: y must be >= 1, got {y}")
    if not 0 < tol < math.inf:
        raise ValueError(f"sl_product_bulk: tol must be positive and finite, got {tol}")
    return _bulk_product(y, _sl_cutoff(tol), _sl_factor)


def singular_series_lmethod(k: int, tol: float) -> float:
    """S(k) = SL(k)/L(k), with L(k) exact from the class number formula.

    L = pi h(-4k) / (w sqrt(k)) carries only float rounding, so the error
    budget is the product's: sl_product to tol*L/2 keeps the quotient within
    tol/2, half the budget kept as margin.  l_value, the direct sum, is the
    oracle for L in the tests.  Nothing is cached: `singular --k` asks for
    one k, and run_sweep and phi_moment take the same floats from _lmethod_bulk.
    """
    if k < 1:
        raise ValueError(f"singular_series_lmethod: k must be >= 1, got {k}")
    if not 0 < tol < math.inf:
        raise ValueError(f"singular_series_lmethod: tol must be positive and finite, got {tol}")
    l_exact = math.pi * class_number(k) / ((4 if k == 1 else 2) * math.sqrt(k))
    value = sl_product(k, tol * l_exact / 2.0) / l_exact
    if not value > 0.0:
        raise VerificationError(f"singular_series_lmethod: S({k}) came out non-positive ({value})")
    return value


def dirichlet_partial(
    k: int,
    q_max: int,
    *,
    mu: np.ndarray | None = None,
    phi: np.ndarray | None = None,
) -> float:
    """sum over odd q <= q_max of mu(q)/phi(q) * jacobi(-k, q)."""
    if k < 1:
        raise ValueError(f"dirichlet_partial: k must be >= 1, got {k}")
    if q_max < 1:
        raise ValueError(f"dirichlet_partial: q_max must be >= 1, got {q_max}")
    if mu is None or phi is None:
        mu, phi = build_mobius_phi_tables(q_max)
    q = np.arange(1, q_max + 1, 2, dtype=np.int64)
    chi = chi_k(k, q).astype(np.float64)
    terms = mu[q].astype(np.float64) / phi[q].astype(np.float64) * chi
    return float(np.sum(terms))


def tail_phi(
    k: int,
    q1: int,
    tol: float,
    *,
    mu: np.ndarray | None = None,
    phi: np.ndarray | None = None,
) -> float:
    """Phi(k) = S(k) - (partial Dirichlet sum over odd q <= q1), i.e. the q > q1 tail.

    Computed by subtraction: the accelerated full value minus the exact
    partial sum.  Direct tail summation would converge too slowly to be
    trustworthy at any usable cutoff.
    """
    return singular_series_lmethod(k, tol) - dirichlet_partial(k, q1, mu=mu, phi=phi)


_LMETHOD_CHUNK = 2048  # k per chunk of _lmethod_bulk: at least the 1,824 squarefree k <= 3000 of the phi-moment bench
_LMETHOD_BLOCK = 16  # k per block of a chunk: 32 was no faster at the bench size and peaked 0.6 MB higher


def _lmethod_bulk(ks: np.ndarray, tol: float, q=None, weights=None) -> np.ndarray:
    """singular_series_lmethod(k, tol) - sum(weights chi_k(q)) for each k of the ascending int64 array ks, bit for bit.

    run_sweep passes no q, for S(k); phi_moment passes the odd q <= q1 and
    mu(q)/phi(q), for tail_phi(k, q1, tol).  L(k) comes from one
    _class_numbers pass, as in singular_series_lmethod.  The k go in
    ascending chunks of _LMETHOD_CHUNK.  A chunk takes the odd primes up to
    its largest SL cutoff, _sl_cutoff(min tol L/2), and _sl_counts gives each
    k the number of them that sl_product(k, tol L/2) multiplies, from one
    table: no Newton solve per k.  Its k are factorized once, in order of
    that count, into one flat list; _legendre_rows builds one int8 matrix of
    rows for the odd primes of its k, at the q and then the primes, so the
    rows do not grow with y, and _chi_keys turns the list into each k's row
    ids.  The k then go in blocks of _LMETHOD_BLOCK, each reading chi_k from
    one _chi_block call up to the block's largest count.  Row i of a
    block's factor matrix holds sl_product's factors for k_i in order, from
    _sl_factor at chi = -1, 0, 1, then exact 1.0s past k_i's count, where
    chi is set to 0; so np.prod along it is sl_product's float, and np.sum
    along a row of dirichlet_partial's terms is its float too.
    """
    if q is None:
        q, weights = np.empty(0, dtype=np.int64), np.empty(0)
    h = _class_numbers(int(ks[-1]))
    out = np.empty(len(ks))
    for start in range(0, len(ks), _LMETHOD_CHUNK):
        chunk = ks[start : start + _LMETHOD_CHUNK]
        l_exact = np.pi * h[chunk] / (np.where(chunk == 1, 4, 2) * np.sqrt(chunk))
        t = tol * l_exact / 2.0
        primes = _odd_primes_upto(_sl_cutoff(float(t.min())))
        n = np.concatenate([q, primes])
        # per cell the int8 chi, a bool mask, an int64 index and a float64 factor or term: 18 bytes, counted as 24
        _check_budget(24 * _LMETHOD_BLOCK * len(n), f"chi and factor blocks of {_LMETHOD_BLOCK} x {len(n)}")
        counts = _sl_counts(primes, t)
        factors, at = _factor_table(primes, _sl_factor)
        # factorize(k) of the i-th k at flat[ends[i]:ends[i + 1]] as p, a, p, a, ...: 81-136 bytes a k (174 as
        # the list grows) for k <= 10^9, counted as 200.  A list per k costs twice that, and its thousands of
        # survivors bring a fresh process's first full garbage collection (30 ms) into the call.  _chi_keys
        # peaks at 155-239 bytes a k more while it turns the list into row ids (measured), counted as 250.
        _check_budget(450 * len(chunk), f"factorizations of {len(chunk)} k")
        order = np.argsort(counts, kind="stable")
        flat, ends = [], [0]
        for k in chunk[order].tolist():
            flat.extend(itertools.chain.from_iterable(factorize(k)))
            ends.append(len(flat))
        row_primes = np.array(sorted(set(flat[::2]) - {2}), dtype=np.int64)
        rows = _legendre_rows(row_primes, n)
        ids = _chi_keys(chunk[order], flat, ends, row_primes)
        del flat, ends
        for lo in range(0, len(order), _LMETHOD_BLOCK):
            idx = order[lo : lo + _LMETHOD_BLOCK]
            width = int(counts[idx[-1]])
            chi = _chi_block(rows[:, : len(q) + width], ids[lo : lo + _LMETHOD_BLOCK])
            c = chi[:, len(q) :]
            c[primes[:width] > primes[counts[idx, None] - 1]] = 0  # chi = 0 gives a factor of exactly 1.0
            s = np.prod(factors[at[:width] + c], axis=1) / l_exact[idx]
            if not (s > 0.0).all():
                j = np.argmin(s > 0.0)
                raise VerificationError(f"singular_series_lmethod: S({chunk[idx[j]]}) came out non-positive ({s[j]})")
            out[start + idx] = s - np.sum(weights * chi[:, : len(q)], axis=1)
        del rows  # so the next chunk's rows are not built beside these
    return out


def sandwich_bounds() -> tuple[float, float]:
    """(lower, upper) endpoints for SL: prod (1 - 1/(p-1)^2) and prod p^2/(p^2-1) over p > 2.

    Both are known constants: the lower one is the twin-prime constant C2
    (OEIS A005597), the upper one is zeta(2) * (1 - 1/4) = pi^2/8.
    """
    return 0.66016181584686957, math.pi**2 / 8


def sandwich_violations(k_max: int, tol: float) -> list[tuple[int, float]]:
    """(k, SL(k)) for each squarefree k <= k_max with SL(k) outside [lower - tol, upper + tol].

    SL(k) is sl_product to tol/4, computed for all k at once; each value
    equals the scalar sl_product(k, tol/4) exactly (same factors, same order).
    """
    if not 0 < tol < math.inf:
        raise ValueError(f"sandwich_violations: tol must be positive and finite, got {tol}")
    lower, upper = sandwich_bounds()
    product = sl_product_bulk(k_max, tol / 4.0)
    outside = build_squarefree_table(k_max) & ~((lower - tol <= product) & (product <= upper + tol))
    return [(int(k), float(product[k])) for k in np.nonzero(outside)[0]]


def singular_series(k: int, cfg: SingularCfg) -> float:
    """Dispatch on cfg.method."""
    if cfg.method == "euler":
        return singular_series_euler(k, cfg.euler_cutoff)
    return singular_series_lmethod(k, cfg.tol)
