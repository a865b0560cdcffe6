"""Exponential sums over primes and squares, and their exact arc decompositions.

Core objects:

    s1(theta, z)  = sum_{m <= z} Lambda(m) e(theta m)
    s2(theta, x)  = sum_{n <= x} e(-theta n^2)

At a rational point with drift, alpha = a/q + beta, both split exactly into a
main term, a character error term, and (for s1) a residual over m sharing a
factor with q:

    s1 = T1 + E1 + R         (decompose_s1)
    s2 = T2 + E2             (decompose_s2)

The splits use full Dirichlet character tables mod q (unit-group generators,
CRT across prime powers) and quadratic Gauss sums; they are identities, so the
reassembled values must match the direct sums to float accuracy, which is the
main correctness lever for this module.

circle_psi_oracle integrates s1 * s2 * e(-alpha k) over [0, 1) by uniform
sampling at a power-of-two rate high enough to be exact for the trigonometric
polynomial involved, giving an independent route to psi(x; k).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.spatial.distance import pdist

from .arith import divisors, factorize, mobius_phi
from .errors import VerificationError
from .sieve import LambdaTable, _check_budget

CHARACTER_Q_CEILING = 10_000
ORACLE_WORK_CEILING = 1 << 28
_PV_DIRECTIONS = 8  # K, the projection directions of _diameter's prune
# the K directions over half a turn, from math (the same floats): a first np.cos at import can add 0.1-0.2 MB of RSS
_COS = np.array([[math.cos(math.pi * j / _PV_DIRECTIONS)] for j in range(_PV_DIRECTIONS)])
_SIN = np.array([[math.sin(math.pi * j / _PV_DIRECTIONS)] for j in range(_PV_DIRECTIONS)])
_COS_HALF = math.cos(math.pi / (2 * _PV_DIRECTIONS))  # c: a segment lies within pi/2K of a direction
_PV_MARGIN = 1e-9  # relative slack on the diagonal and the slabs so rounding never prunes the maximiser


@dataclass(frozen=True)
class ArcPoint:
    """A rational point a/q with drift beta: alpha = a/q + beta."""

    a: int
    q: int
    beta: float

    def __post_init__(self) -> None:
        if self.q < 1:
            raise ValueError(f"ArcPoint: q must be >= 1, got {self.q}")
        if not 0 <= self.a < self.q and not (self.a == 0 and self.q == 1):
            raise ValueError(f"ArcPoint: need 0 <= a < q, got a={self.a}, q={self.q}")
        if self.a == 0 and self.q != 1:
            raise ValueError("ArcPoint: a = 0 only allowed with q = 1")
        if math.gcd(self.a, self.q) != 1:
            raise ValueError(f"ArcPoint: gcd(a, q) must be 1, got a={self.a}, q={self.q}")

    @property
    def theta(self) -> float:
        return self.a / self.q + self.beta


def s1(theta: float, z: int, lam: LambdaTable) -> complex:
    """sum_{m <= z} Lambda(m) e(theta m), directly."""
    if z < 1:
        raise ValueError(f"s1: z must be >= 1, got {z}")
    m = np.arange(1, z + 1, dtype=np.float64)
    return complex(np.sum(lam.window(1, z) * np.exp(2j * np.pi * (theta * m % 1.0))))


def s2(theta: float, x: int) -> complex:
    """sum_{n <= x} e(-theta n^2), directly."""
    if x < 1:
        raise ValueError(f"s2: x must be >= 1, got {x}")
    nsq = np.arange(1, x + 1, dtype=np.float64) ** 2
    return complex(np.sum(np.exp(-2j * np.pi * (theta * nsq % 1.0))))


# --- Dirichlet characters --------------------------------------------------


def _primitive_root_mod_p(p: int) -> int:
    rest = [r for r, _ in factorize(p - 1)]
    g = 2
    while True:
        if all(pow(g, (p - 1) // r, p) != 1 for r in rest):
            return g
        g += 1


def _power_logs(g: int, m: int, order: int) -> np.ndarray:
    """t at g^t mod m for t = 0..order-1, from one walk of the powers of g (of that order mod m); -1 elsewhere."""
    logs = np.full(m, -1, dtype=np.int64)
    x = 1
    for t in range(order):
        logs[x] = t
        x = x * g % m
    return logs


@dataclass
class Character:
    """One Dirichlet character mod q as a dense value row (0 off the units)."""

    q: int
    index: int
    values: np.ndarray
    order: int
    is_principal: bool
    is_real: bool
    conductor: int

    @property
    def is_primitive(self) -> bool:
        return self.conductor == self.q

    def __call__(self, n: int) -> complex:
        return complex(self.values[n % self.q])


@dataclass
class CharacterTable:
    """All phi(q) Dirichlet characters mod q; `values` is their read-only phi(q) x q matrix."""

    q: int
    chars: list[Character] = field(repr=False)
    values: np.ndarray = field(repr=False)

    @property
    def phi(self) -> int:
        return len(self.chars)


def _unit_cycles(q: int) -> tuple[list[tuple[int, np.ndarray]], np.ndarray]:
    """The cycles of (Z/qZ)^* as (order, discrete log of every n mod q), and the unit mask.

    Odd prime powers contribute one cycle: the least primitive root g mod p,
    lifted to g + p when g^(p-1) = 1 mod p^2, generates the units mod p^e.
    2^e contributes {+-1} for e >= 2, then <5> for e >= 3: n = (-1)^s 5^t
    with 5^t = 1 mod 4, so s = 1 exactly at n = 3 mod 4, and t is the log of
    5 at n or -n.  Logs are valid only on the units.
    """
    n = np.arange(q, dtype=np.int64)
    cycle_logs = []
    for p, e in factorize(q) if q > 1 else []:
        pe = p**e
        r = n % pe
        if p > 2:
            g = _primitive_root_mod_p(p)
            if e > 1 and pow(g, p - 1, p * p) == 1:
                g += p
            cycle_logs.append((pe - pe // p, _power_logs(g, pe, pe - pe // p)[r]))
        elif e > 1:
            sign = r % 4 == 3
            cycle_logs.append((2, sign.astype(np.int64)))
            if e > 2:
                cycle_logs.append((pe // 4, _power_logs(5, pe, pe // 4)[np.where(sign, -r % pe, r)]))
    unit_mask = np.ones(q, dtype=bool) if q == 1 else (np.gcd(n, q) == 1)
    return cycle_logs, unit_mask


def _conjugate_indices(cycle_orders: list[int]) -> np.ndarray:
    """conj(index) for every character index: the mixed-radix digits j_c become (-j_c) mod o_c."""
    rem = np.arange(math.prod(cycle_orders), dtype=np.int64)
    conj = np.zeros_like(rem)
    place = 1
    for order in cycle_orders:
        conj += (-rem % order) * place
        rem //= order
        place *= order
    return conj


def _pair_representatives(cycle_orders: list[int]) -> np.ndarray:
    """The character indices with index <= conj(index): one of each conjugate pair, (phi(q) + #real) / 2 of them."""
    index = np.arange(math.prod(cycle_orders), dtype=np.int64)
    return index[index <= _conjugate_indices(cycle_orders)]


def _character_orders(cycle_orders: list[int], index: np.ndarray) -> np.ndarray:
    """The order of each character of `index`: the lcm over the cycles of o_c / gcd(o_c, j_c)."""
    rem = index.copy()
    orders = np.ones(len(index), dtype=np.int64)
    for order in cycle_orders:
        j = rem % order
        rem //= order
        orders = np.lcm(orders, order // np.gcd(order, j))
    return orders


def _character_exponents(cycle_logs: list[tuple[int, np.ndarray]], index: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """m = sum_c j_c log_c(n) (lam / o_c) mod lam for each character of `index` (rows) at each n of `cols`.

    lam is the lcm of the cycle orders o_c, and j_c are the mixed-radix digits
    of the index.  On a unit n, chi(n) = e(m / lam); the logs, and so m, mean
    nothing at a non-unit.
    """
    lam = math.lcm(*(order for order, _ in cycle_logs))
    rem = index.copy()
    exps = np.zeros((len(index), len(cols)), dtype=np.int64)
    for order, logs in cycle_logs:
        exps += np.multiply.outer(rem % order, logs[cols] * (lam // order))
        rem //= order
    exps %= lam
    return exps


def _mirrored_roots(lam: int) -> np.ndarray:
    """e(m / lam) for m = 0..lam-1, then a 0.0 slot at m = lam.

    e((lam - m) / lam) is stored as the conjugate of e(m / lam) and e(1/2)
    as -1.0, so a gather at -m mod lam is bit for bit the conjugate of the
    gather at m, and a gather at m in {0, lam/2} is exactly real.
    """
    roots = np.append(np.exp(2j * np.pi * np.arange(lam) / lam), 0.0)
    roots[lam - 1 : lam // 2 : -1] = roots[1 : (lam + 1) // 2].conj()  # roots[lam - m] = conj(roots[m]), 0 < m < lam/2
    if lam % 2 == 0:
        roots[lam // 2] = -1.0
    return roots


def _check_modulus(q: int, what: str) -> None:
    if q > CHARACTER_Q_CEILING:
        raise ValueError(f"{what}: q = {q} over the ceiling {CHARACTER_Q_CEILING}")


def build_character_table(q: int) -> CharacterTable:
    """All phi(q) characters mod q: their read-only value matrix, orders, conductors and Character rows.

    A character is a choice of exponent on each cycle of _unit_cycles(q);
    character `index` takes the mixed-radix digits j_c of index as exponents,
    and its value at a unit n is one gather of _character_exponents from
    _mirrored_roots (its 0.0 slot serves the non-units).  So the row of
    conj(chi), at _conjugate_indices, is bit for bit the conjugate of chi's
    row, and real characters are exactly real.  The conductor is the least
    d | q with chi = 1 on the units = 1 mod d, tested per divisor over the
    rows still open.  Each Character.values is a row view of the matrix, so
    a shared table cannot be changed through a row.  q is capped by
    CHARACTER_Q_CEILING, and the budget is checked at 40 bytes per entry.
    Each call builds anew; _cached_character_table keeps the tables that the
    decompositions revisit.
    """
    if q < 1:
        raise ValueError(f"build_character_table: q must be >= 1, got {q}")
    _check_modulus(q, "build_character_table")

    cycle_logs, unit_mask = _unit_cycles(q)
    cycle_orders = [order for order, _ in cycle_logs]
    index = np.arange(math.prod(cycle_orders), dtype=np.int64)
    # peak bytes per entry: 24 while the int64 exponents sit beside the
    # gathered values (tracemalloc measured 24 at q = 499 and 997), then 16
    # plus a conductor block of <= q/2 columns (d > 1) at 41 bytes a cell,
    # and 40 bounds both
    _check_budget(len(index) * q * 40, f"character table mod {q} ({len(index)}x{q} entries at 40 bytes)")

    exps = _character_exponents(cycle_logs, index, np.arange(q))
    lam = math.lcm(*cycle_orders)
    exps[:, ~unit_mask] = lam
    values = _mirrored_roots(lam)[exps]
    del exps
    values.flags.writeable = False
    orders = _character_orders(cycle_orders, index)

    # only the principal character is 1 on every unit, so it alone has conductor 1
    conductors = np.where(orders == 1, 1, q)
    rows = np.flatnonzero(orders > 1)
    for d in divisors(q)[1:]:
        cols = np.flatnonzero(unit_mask & (np.arange(q) % d == 1))
        hit = np.all(np.abs(values[np.ix_(rows, cols)] - 1.0) < 1e-9, axis=1)
        conductors[rows[hit]] = d
        rows = rows[~hit]

    chars = [Character(q=q, index=i, values=values[i], order=o, is_principal=(o == 1), is_real=(o <= 2), conductor=c)
             for i, (o, c) in enumerate(zip(orders.tolist(), conductors.tolist()))]
    return CharacterTable(q=q, chars=chars, values=values)


@lru_cache(maxsize=32)
def _cached_character_table(q: int) -> tuple[CharacterTable, list[complex]]:
    """build_character_table(q) and its _tau_bars, cached: decompose_s1/s2 revisit q for every a, beta and length."""
    table = build_character_table(q)
    return table, _tau_bars(table)


def _roots_of_unity(q: int) -> np.ndarray:
    return np.exp(2j * np.pi * np.arange(q) / q)


def gauss_sum(chi: Character) -> complex:
    """tau(chi) = sum_{n mod q} chi(n) e(n/q)."""
    return complex(np.dot(chi.values, _roots_of_unity(chi.q)))


def _tau_bars(table: CharacterTable) -> list[complex]:
    """tau(conj(chi)) for each character of the table, in table order, from one row of roots of unity."""
    roots = _roots_of_unity(table.q)
    return [complex(np.dot(np.conj(ch.values), roots)) for ch in table.chars]


def g_quadratic(a: int, q: int) -> complex:
    """G(a, q) = sum over l <= q coprime to q of e(-a l^2 / q)."""
    if q < 1:
        raise ValueError(f"g_quadratic: q must be >= 1, got {q}")
    l = np.arange(1, q + 1, dtype=np.int64)
    l = l[np.gcd(l, q) == 1]
    phase = (-a * (l * l % q)) % q
    return complex(np.sum(np.exp(2j * np.pi * phase / q)))


# --- exact arc decompositions ----------------------------------------------


def decompose_s1(arc: ArcPoint, z: int, lam: LambdaTable) -> tuple[complex, complex, complex]:
    """Split s1(a/q + beta, z) into (T1, E1, R) with T1 + E1 + R = s1 exactly.

    T1 = mu(q)/phi(q) * sum_{m <= z} e(beta m).
    E1 = (1/phi(q)) sum_chi tau(conj chi) chi(a) * S_chi, where S_chi sums
         chi(m) Lambda(m) e(beta m); the principal term carries a -1 correction
         (chi0(m) Lambda(m) - 1) so the identity holds without error terms.
    R  = the exact sum of Lambda(m) e(alpha m) over m sharing a factor with q
         (size O((log z)^2); this is the piece asymptotics may discard, kept
         here so everything adds back).
    """
    if z < 1:
        raise ValueError(f"decompose_s1: z must be >= 1, got {z}")
    q, a, beta = arc.q, arc.a, arc.beta
    m = np.arange(1, z + 1, dtype=np.int64)
    lamv = lam.window(1, z)
    ebm = np.exp(2j * np.pi * (beta * m.astype(np.float64) % 1.0))
    geom = complex(np.sum(ebm))

    mu_q, phi_q = mobius_phi(q)
    t1 = mu_q / phi_q * geom

    table, tau_bars = _cached_character_table(q)
    idx = m % q
    lam_e = lamv * ebm
    e1 = 0j
    for ch, tau_bar in zip(table.chars, tau_bars):
        inner = complex(np.dot(ch.values[idx], lam_e))
        if ch.is_principal:
            inner -= geom
        e1 += tau_bar * ch(a) * inner
    e1 /= phi_q

    mask = np.gcd(m, q) > 1
    mr = m[mask]
    frac = (a * (mr % q) % q).astype(np.float64) / q + beta * mr.astype(np.float64)
    r = complex(np.sum(lamv[mask] * np.exp(2j * np.pi * (frac % 1.0))))
    return t1, e1, r


def decompose_s2(arc: ArcPoint, x: int) -> tuple[complex, complex]:
    """Split s2(a/q + beta, x) into (T2, E2) with T2 + E2 = s2 exactly.

    Terms are grouped by d = gcd(n, q), writing n = d n*, q* = q/d,
    d* = d/gcd(d, q*), q1 = q*/gcd(d, q*) (d* and q1 are coprime):

    T2 = sum_d  G(a d*, q1)/phi(q1) * sum_{n* <= x/d, (n*, q*)=1} e(-beta d^2 n*^2)
    E2 = sum_d  (1/phi(q1)) sum_{chi mod q1, chi^2 != chi0}
                tau(conj chi) chi(-a d*) sum_{n*} chi^2(n*) e(-beta d^2 n*^2)

    T2 is the square-character part: G(a d*, q1) equals the sum of
    tau(conj chi) chi(-a d*) over chi with chi^2 = chi0.
    """
    if x < 1:
        raise ValueError(f"decompose_s2: x must be >= 1, got {x}")
    q, a, beta = arc.q, arc.a, arc.beta
    t2 = 0j
    e2 = 0j
    for d in divisors(q):
        if x // d < 1:
            continue
        q_star = q // d
        g = math.gcd(d, q_star)
        d_star = d // g
        q1 = q_star // g
        n_star = np.arange(1, x // d + 1, dtype=np.int64)
        n_star = n_star[np.gcd(n_star, q_star) == 1]
        if len(n_star) == 0:
            continue
        nf = (d * n_star).astype(np.float64)
        w = np.exp(-2j * np.pi * (beta * nf * nf % 1.0))

        phi_q1 = mobius_phi(q1)[1]
        t2 += g_quadratic(a * d_star % q1, q1) / phi_q1 * complex(np.sum(w))

        if q1 > 2:  # mod 1 and mod 2 every character is principal
            table, tau_bars = _cached_character_table(q1)
            idx = n_star % q1
            neg_ad = (-a * d_star) % q1
            for ch, tau_bar in zip(table.chars, tau_bars):
                if ch.order <= 2:
                    continue
                chi_sq = ch.values * ch.values
                e2 += tau_bar * ch(neg_ad) * complex(np.dot(chi_sq[idx], w)) / phi_q1
    return t2, e2


# --- circle-method oracle ---------------------------------------------------


def circle_psi_oracle(x: int, k: int, lam: LambdaTable) -> float:
    """psi(x; k) recovered by integrating s1 * s2 * e(-alpha k) over [0, 1).

    s1 runs over m <= z = x^2 + k, the largest n^2 + k counted.  The
    integrand is a trigonometric polynomial with frequencies spanning fewer
    than N = (smallest power of two > z + x^2 + k) values, so uniform
    sampling at rate N integrates it exactly; the result must be real up to
    float noise (checked at 1e-6) and equals sum_{n <= x} Lambda(n^2 + k).
    """
    if x < 1 or k < 1:
        raise ValueError(f"circle_psi_oracle: need x >= 1 and k >= 1, got x={x}, k={k}")
    z = x * x + k
    n_samples = 1 << (z + x * x + k).bit_length()
    if n_samples * (z + x) > ORACLE_WORK_CEILING:
        raise MemoryError(
            f"circle_psi_oracle: {n_samples} samples x {z + x} terms exceeds the work ceiling"
        )
    lamv = lam.window(1, z)
    m = np.arange(1, z + 1, dtype=np.float64)
    nsq = np.arange(1, x + 1, dtype=np.float64) ** 2

    total = 0j
    chunk = max(1, (1 << 20) // (z + x))
    for j0 in range(0, n_samples, chunk):
        j = np.arange(j0, min(j0 + chunk, n_samples), dtype=np.float64)[:, None]
        s1_vals = np.exp(2j * np.pi * ((j * m) / n_samples % 1.0)) @ lamv
        s2_vals = np.sum(np.exp(-2j * np.pi * ((j * nsq) / n_samples % 1.0)), axis=1)
        total += complex(np.sum(s1_vals * s2_vals * np.exp(-2j * np.pi * ((j[:, 0] * k) / n_samples % 1.0))))
    total /= n_samples
    if abs(total.imag) > 1e-6:
        raise VerificationError(
            f"circle_psi_oracle: imaginary part {total.imag} did not vanish (x={x}, k={k})"
        )
    return total.real


# --- bound checks -----------------------------------------------------------


def weyl_ratio(arc: ArcPoint, x: int) -> float:
    """|s2(alpha, x)| divided by log x * (x q^(-1/2) + (qx)^(1/2)), on |beta| <= 1/q^2."""
    if x < 2:
        raise ValueError(f"weyl_ratio: x must be >= 2, got {x}")
    if abs(arc.beta) > 1.0 / (arc.q * arc.q):
        raise ValueError(f"weyl_ratio: |beta| must be <= 1/q^2, got beta={arc.beta}, q={arc.q}")
    denom = math.log(x) * (x / math.sqrt(arc.q) + math.sqrt(arc.q * x))
    return abs(s2(arc.theta, x)) / denom


@dataclass
class PvReport:
    q: int
    max_sum: float
    bound: float
    passed: bool


def _diameter(points: np.ndarray) -> float:
    """Exact max pairwise distance among complex points: pdist over those the projections cannot rule out.

    Project the unique points on the K = _PV_DIRECTIONS directions, with
    widths w_j, largest W, and c = cos(pi/2K).  Let D = |u - v| be the
    diameter: W <= D, and u - v lies within pi/2K of some direction j, so
    p_j(u) - p_j(v) >= cD >= cW.  So w_j >= cW (j is wide), and
    max p_j - p_j(u) <= w_j - cD <= D(1 - c) <= W(1/c - 1), as is
    p_j(v) - min p_j: u and v lie in the end slabs of that depth of a wide
    direction.  Rounding moves a projection by ulps of max|pt| (not of W:
    far from 0 that can exceed a small spread), and pdist's top pair is
    within ulps of D; the margin _PV_MARGIN max|pt| covers both.  So the
    result is pdist(unique points).max(), and as pdist squares coordinate
    differences, a set and its mirror image (y -> -y) give the same float.
    """
    pts = np.unique(points)
    proj = _COS * pts.real + _SIN * pts.imag
    top, bottom = proj.max(axis=1, keepdims=True), proj.min(axis=1, keepdims=True)
    big, margin = (top - bottom).max(), _PV_MARGIN * np.abs(pts).max()
    slab = big * (1.0 / _COS_HALF - 1.0) + margin
    ends = (proj >= top - slab) | (proj <= bottom + slab)
    keep = np.any(ends & (top - bottom >= big * _COS_HALF - margin), axis=0)
    return float(pdist(np.column_stack([pts.real[keep], pts.imag[keep]])).max(initial=0.0))


def _pv_bound(q: int) -> float:
    """The Polya-Vinogradov bound 6 sqrt(q) log q that check pv tests against."""
    return 6.0 * math.sqrt(q) * math.log(q)


def _unit_walks(cycle_logs: list[tuple[int, np.ndarray]], index: np.ndarray, units: np.ndarray) -> np.ndarray:
    """The running sums chi(u_1), chi(u_1) + chi(u_2), ... over ascending units u_i, a row per character of `index`.

    Each value is the gather of build_character_table and the sums are taken
    in the same order, so the row is the floats that the full row's cumsum
    takes at those units.
    """
    walks = _mirrored_roots(math.lcm(*(order for order, _ in cycle_logs)))[_character_exponents(cycle_logs, index, units)]
    return np.cumsum(walks, axis=1, out=walks)


def _half_walks(cycle_logs: list[tuple[int, np.ndarray]], unit_mask: np.ndarray, index: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_unit_walks over the units u < q/2 for each character of `index`, and whether each is even (chi(-1) = 1)."""
    q = len(unit_mask)
    units = np.flatnonzero(unit_mask)
    even = _character_exponents(cycle_logs, index, np.array([q - 1]))[:, 0] == 0  # chi(-1) = e(m / lam) is 1 or -1
    return _unit_walks(cycle_logs, index, units[2 * units < q]), even


def _extent(v: np.ndarray, even: np.ndarray) -> np.ndarray:
    """max - min over the last axis of v together with 0 and the image of v: -v where even, v itself elsewhere."""
    hi, lo = v.max(axis=-1, initial=0.0), v.min(axis=-1, initial=0.0)
    return np.where(even, 2.0 * np.maximum(hi, -lo), hi - lo)


def _box_diagonal(walks: np.ndarray, even: np.ndarray) -> np.ndarray:
    """The diagonal of the bounding box of 0, each half walk and its image (_extent): no shorter than its diameter."""
    return np.hypot(_extent(walks.real, even), _extent(walks.imag, even))


def pv_check(q: int, floor: float = 0.0) -> PvReport | None:
    """Largest |sum of chi(n) over a window| vs the 6 sqrt(q) log q bound, or None below floor.

    For non-principal chi mod q the partial-sum walk S(n) = chi(0) + ... +
    chi(n) is periodic, so the supremum over every window M < n <= M + N
    (N <= q) is the diameter D of the walk's point set over one period,
    n = 0..q-1.  Only one character of each conjugate pair is walked: the
    row of conj(chi) is the exact conjugate of chi's (_mirrored_roots), so
    its walk is the mirror image of chi's, with the same diameter (the same
    float too: _diameter is symmetric under the mirror).

    Half of each walk gives the rest.  S(q-1) = 0 and chi(q-m) = chi(-1) chi(m), so

        S(q-1-n) = S(q-1) - sum_{m=1..n} chi(q-m) = -chi(-1) S(n):

    the second half of an odd walk retraces the first, and that of an even
    walk is its point reflection through 0.  Every n in 0..q-1 is n or
    q-1-n for some n < q/2, and S moves only at units.  So the point set is
    0, the half walk H (S at the units u < q/2, _unit_walks) and its image:
    H itself for odd chi, -H for even chi.  The diagonal of the bounding
    box of that set bounds D, and _box_diagonal takes it from the x and y
    ranges (_extent) without building the second half.

    The exact diameter then runs in decreasing order of the diagonal and
    stops once the diagonal falls below max(floor, the best exact D).  It
    runs on the full-period walk over all units, from the same exponents
    and roots: those are the floats of the cumsum over the whole row (a
    non-unit adds an exact 0, and _diameter drops repeats), so max_sum is
    the float the exhaustive scan gives.

    The image of H is not the float cumsum of the second half, only close
    to it.  A computed S(n) is within about n 2^-53 max|S| <= q 2^-53 D of
    the exact sum of its float terms (0 is a point of the walk, so
    |S| <= D), and the float roots keep chi(q-m) = chi(-1) chi(m) and
    S(q-1) = 0 to an ulp a term.  So the diagonal is off by a few q 2^-53 D,
    about 1e-12 D at q = CHARACTER_Q_CEILING, and _PV_MARGIN (1e-9
    relative) covers it: no walk that could carry the maximum is pruned.
    If the best exact D reaches floor the report is returned; otherwise
    every walk is shorter than floor and the result is None.  floor = 0.0
    always gives the report.
    """
    if q < 2:
        raise ValueError(f"pv_check: q must be >= 2, got {q}")
    _check_modulus(q, "pv_check")
    cycle_logs, unit_mask = _unit_cycles(q)
    cycle_orders = [order for order, _ in cycle_logs]
    index = _pair_representatives(cycle_orders)
    # 33 bytes per entry of the pair-representative rows over all q columns,
    # the count of the route that walked whole rows.  The half walks peak at
    # about 24 bytes per unit u < q/2 and row (the exponents beside the
    # gathered walks), about 12 per entry: tracemalloc measured 2.6 to 12.1
    # bytes per entry at q = 499 to 2310
    _check_budget(len(index) * q * 33, f"character table mod {q} ({len(index)}x{q} entries at 33 bytes)")
    index = index[1:]  # index 0, every exponent 0, is the principal character, which is not walked
    walks, even = _half_walks(cycle_logs, unit_mask, index)
    diagonal = _box_diagonal(walks, even)
    units = np.flatnonzero(unit_mask)
    max_sum = 0.0
    for i in np.argsort(-diagonal, kind="stable"):
        if diagonal[i] * (1.0 + _PV_MARGIN) < max(floor, max_sum):
            break
        walk = _unit_walks(cycle_logs, index[i : i + 1], units)[0]
        max_sum = max(max_sum, _diameter(np.append(0.0, walk)))
    if max_sum < floor:
        return None
    bound = _pv_bound(q)
    return PvReport(q=q, max_sum=max_sum, bound=bound, passed=max_sum <= bound)
