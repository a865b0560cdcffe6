"""Error statistics for psi(x; k) = sum_{n <= x} Lambda(n^2 + k) against S(k) x.

A sweep fixes x, runs k over 1..y, and compares the sieved count psi(x; k)
with the predicted main term S(k) * x.  The headline statistics are the
second moment of the error over squarefree k, its normalisation by y x^2,
and exceptional counts at thresholds x / (log x)^B.

Determinism contract: a sweep's output is bit-identical across runs.  psi
accumulation is single-threaded: per block of k and parity of k, one
ascending-n array add per n from the odd-m Lambda table, or the lone
Lambda(2^j) term where n^2 + k is even, so every k gets the same nonzero
additions in the same order whatever the block size, the order one dense add
per n would give it.  The error psi - S(k) x is not stored: it is recomputed
where it is read, by the same multiply and subtract, so every reader sees
the same floats.  Every moment is reduced with math.fsum (exact summation) in
ascending k.  fsum is correctly rounded (Shewchuk's exact partial sums), so
the second moment is the same float whether its squares arrive as one list
or, as run_sweep feeds them, a block of k at a time.

errors.csv holds the bytes csv.writer gives for format(v, ".12g"), but is
formatted in numpy, a block of rows at a time.  A float a = |v| in [1e-4,
1e11) is printed from its 12-digit significand rint(a 10^(11 - e)), e the
decimal exponent, through 4-digit ASCII tables.  That significand is the
correctly rounded one unless the product lies within 2.5e-4 of a
half-integer, where its own rounding could tip it; those values, and zeros,
NaN, infinities, subnormals and values outside the range, are formatted by
format() (1,112 of the 1,920,000 floats of the x = 800, y = 640000 sweep).
"""

from __future__ import annotations

import csv
import itertools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .sieve import LambdaTable, _check_budget, build_lambda_table, build_squarefree_table, build_mobius_phi_tables
from .singular import SingularCfg, _lmethod_bulk, singular_series_euler_bulk
from .singular import singular_series_lmethod  # noqa: F401  perfbench traces quadprime.moments.singular_series_lmethod

EXCEPTIONAL_B_GRID = (0.5, 1.0, 1.5, 2.0)
_CSV_BLOCK = 1 << 12  # k per block of errors.csv (a 1.6 MB peak, 3.0 at 1 << 13) and of run_sweep's summary
_PSI_BLOCK = 1 << 15


@dataclass
class MomentSummary:
    """Sweep-level statistics at one (x, y)."""

    x: int
    y: int
    count_squarefree: int
    second_moment: float
    normalized: float
    exceptional: dict[float, int] = field(default_factory=dict)


@dataclass
class SweepResult:
    """Full per-k arrays from a sweep plus its summary (index = k, 0 unused)."""

    summary: MomentSummary
    squarefree: np.ndarray
    psi: np.ndarray
    singular: np.ndarray

    @property
    def error(self) -> np.ndarray:
        """psi - S(k) x for every k, a new array (0 at index 0, where psi and S are 0)."""
        return _error(self.psi, self.singular, self.summary.x)


def _error(psi: np.ndarray, singular: np.ndarray, x: int) -> np.ndarray:
    """psi - singular x elementwise, as one multiply and one in-place subtract."""
    error = np.multiply(singular, float(x))
    return np.subtract(psi, error, out=error)


def _exceptional_threshold(x: int, b: float) -> float:
    """The exceptional-set threshold x / (log x)^b."""
    return x / math.log(x) ** b


def _check_psi_args(x: int, k: int) -> None:
    if x < 1 or k < 1:
        raise ValueError(f"psi_value: need x >= 1 and k >= 1, got x={x}, k={k}")


def psi_value(x: int, k: int, lam: LambdaTable) -> float:
    """sum_{n <= x} Lambda(n^2 + k) from a prebuilt table."""
    _check_psi_args(x, k)
    n = np.arange(1, x + 1, dtype=np.int64)
    return float(np.sum(lam.at(n * n + k)))


def _psi_bulk(x: int, y: int, lam: LambdaTable) -> np.ndarray:
    """psi(x; k) for all k = 1..y (index 0 unused, set to 0).

    k runs in blocks of _PSI_BLOCK, and each block in its two parities of k,
    each accumulated in its own contiguous array while it stays in cache.
    For each n in ascending order, the half where n^2 + k is odd gets one
    add of a contiguous run of the odd-m table (m = n^2 + k steps by 2 with
    k), and the half where it is even gets Lambda(2^j) at the k with
    n^2 + k = 2^j, if it has one.  What is skipped is Lambda's exact zeros
    at the other even m, and adding +0.0 to a partial sum >= +0.0 leaves it
    as it is; so every k sees the same nonzero additions in the same order
    as one dense add per n over all k would give it, whatever the block size.
    """
    psi = np.zeros(y + 1, dtype=np.float64)
    for lo in range(1, y + 1, _PSI_BLOCK):
        hi = min(lo + _PSI_BLOCK, y + 1)
        halves = [(k0, np.zeros(len(range(k0, hi, 2)))) for k0 in (lo, lo + 1)]
        for n in range(1, x + 1):
            for k0, half in halves:
                m0 = n * n + k0  # the m of the half's first k
                if m0 & 1:
                    half += lam.values[m0 >> 1 : (m0 >> 1) + len(half)]
                    continue
                pj = 1 << (m0 - 1).bit_length()  # the least power of two >= m0
                while pj < m0 + 2 * len(half):
                    half[(pj - m0) >> 1] += lam.twos[pj.bit_length() - 2]
                    pj <<= 1
        for k0, half in halves:
            psi[k0:hi:2] = half
    return psi


def run_sweep(x: int, y: int, cfg: SingularCfg) -> SweepResult:
    """Full error sweep over k = 1..y at fixed x.

    The Euler cutoff is raised to max(cfg.euler_cutoff, x) so the main-term
    truncation error stays well below the psi fluctuation being measured;
    lmethod reads every S(k) from one _lmethod_bulk call.  Warns (without
    failing) if y is outside [x^2/(log x)^3, x^2].  The Lambda table, the psi
    and main-term arrays (16 (y + 1) bytes together), each table of the main
    term and the squarefree flags are checked against the budget first.

    The error E = psi - S x is not stored: the summary computes it a block of
    _CSV_BLOCK k at a time (|E| at the squarefree k counted against each
    threshold, then squared into one fsum), so past the Lambda table and the
    main term the sweep holds its two arrays, the flags and one block, with
    the floats of whole-array arithmetic.
    """
    if x < 2:
        raise ValueError(f"run_sweep: x must be >= 2, got {x}")
    if y < 1:
        raise ValueError(f"run_sweep: y must be >= 1, got {y}")
    lo_ok = x * x / math.log(x) ** 3
    if not lo_ok <= y <= x * x:
        warnings.warn(
            f"sweep at x={x}: y={y} outside the designed window [{lo_ok:.1f}, {x * x}]",
            stacklevel=2,
        )

    _check_budget(16 * (y + 1), f"psi and main-term arrays over k <= {y}")
    # no name holds the Lambda table, so it is freed before the main term is built
    psi = _psi_bulk(x, y, build_lambda_table(x * x + y))

    if cfg.method == "euler":
        sing = singular_series_euler_bulk(y, max(cfg.euler_cutoff, x))
    else:
        sing = np.concatenate([[0.0], _lmethod_bulk(np.arange(1, y + 1), cfg.tol)])

    sf = build_squarefree_table(y)

    thresholds = {b: _exceptional_threshold(x, b) for b in EXCEPTIONAL_B_GRID}
    exceptional = dict.fromkeys(EXCEPTIONAL_B_GRID, 0)

    def squares():
        for lo in range(1, y + 1, _CSV_BLOCK):
            hi = lo + _CSV_BLOCK
            block = _error(psi[lo:hi], sing[lo:hi], x)[sf[lo:hi]]  # a copy, made |E| and squared in place
            np.abs(block, out=block)
            for b, t in thresholds.items():
                exceptional[b] += int(np.count_nonzero(block > t))
            yield np.square(block, out=block).tolist()

    second_moment = math.fsum(itertools.chain.from_iterable(squares()))  # the counts are complete once fsum returns
    count_sf = int(np.count_nonzero(sf))
    normalized = second_moment / (y * float(x) * float(x))

    summary = MomentSummary(
        x=x,
        y=y,
        count_squarefree=count_sf,
        second_moment=second_moment,
        normalized=normalized,
        exceptional=exceptional,
    )
    return SweepResult(summary=summary, squarefree=sf, psi=psi, singular=sing)


def phi_moment(y: int, q1: int, tol: float) -> float:
    """sum over squarefree k <= y of |Phi(k)|^2, the truncated-tail second moment.

    Phi(k) is the q > q1 tail of the Dirichlet form of S(k), computed by
    subtraction (accelerated full value minus exact partial sum) for all k in
    one bulk pass; each Phi(k) equals tail_phi(k, q1, tol) exactly, and the
    square sum is reduced with fsum.
    """
    if y < 1:
        raise ValueError(f"phi_moment: y must be >= 1, got {y}")
    if q1 < 1:
        raise ValueError(f"phi_moment: q1 must be >= 1, got {q1}")
    if not 0 < tol < math.inf:
        raise ValueError(f"phi_moment: tol must be positive and finite, got {tol}")
    mu, phi = build_mobius_phi_tables(q1)
    q = np.arange(1, q1 + 1, 2, dtype=np.int64)
    tails = _lmethod_bulk(np.flatnonzero(build_squarefree_table(y)), tol, q, mu[q] / phi[q])
    return math.fsum((tails * tails).tolist())


# --- CSV emission ------------------------------------------------------------


def _fmt(v: float) -> str:
    return format(v, ".12g")


def _slots(chars: np.ndarray) -> np.ndarray:
    """Rows of 4 ASCII codes (0 where a character is dropped) as one uint32 slot each."""
    return np.ascontiguousarray(chars, dtype=np.uint8).view(np.uint32)[:, 0]


def _digit_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Digit slots (lead, last, trail, head) for the errors.csv kernel, each indexed by value + size * flag.

    lead: a 4-digit group g, then (flag set) g without leading zeros, empty for 0.
    last: the same, but "0" for 0 when flagged.
    trail: g, then g without trailing zeros, empty for 0.
    head: ".ddd" for 0 <= h < 1000, then the same without trailing zeros, empty
    (point included) for 0.

    write_errors_csv builds them once per call (about 0.25 MB), so no other
    command pays for them.
    """
    g = np.arange(10_000, dtype=np.uint16)[:, None]  # small dtypes keep the build's peak memory low
    place = np.array([1000, 100, 10, 1], dtype=np.uint16)
    full = (g // place % 10 + ord("0")).astype(np.uint8)
    lead = np.where(g >= place, full, 0)
    last = lead.copy()
    last[0, 3] = ord("0")
    trail = np.where(g % (10 * place) != 0, full, 0)
    head = np.hstack([np.full((1000, 1), ord("."), dtype=np.uint8), full[:1000, 1:]])
    head_strip = np.where(g[:1000] % np.array([1000, 1000, 100, 10], dtype=np.uint16) != 0, head, 0)
    return (
        np.concatenate([_slots(full), _slots(lead)]),
        np.concatenate([_slots(full), _slots(last)]),
        np.concatenate([_slots(full), _slots(trail)]),
        np.concatenate([_slots(head), _slots(head_strip)]),
    )


_COMMA, _COMMA_MINUS, _ZERO, _ONE, _CRLF = _slots(
    [list(c.ljust(4, b"\0")) for c in (b",", b",-", b",0", b",1", b"\r\n")]
)
_POW10 = (10 ** np.arange(16)).astype(np.float64)  # exact doubles
_FLOAT_SLOTS = 8  # ",-", three integer groups, ".ddd", three fraction groups
_HALF_WINDOW = 2.5e-4


def _put_int(out: np.ndarray, row: int, x: np.ndarray, groups: int, digits: tuple[np.ndarray, ...]) -> None:
    """Write integer-valued x, 0 <= x < 10^(4 groups), into out[row : row + groups].

    Leading zeros are dropped and x = 0 is written "0".  Each group is an exact
    floor division of x < 2^53 by a power of 10^4.  digits are the tables of
    _digit_tables.
    """
    lead, last = digits[:2]
    r = x
    for i in range(groups):
        place = 1e4 ** (groups - 1 - i)
        q = np.floor(r / place)
        r = r - q * place
        table = last if i == groups - 1 else lead
        out[row + i] = table[(q + 1e4 * (x < 1e4 * place)).astype(np.intp)]


def _put_floats(out: np.ndarray, row: int, v: np.ndarray, digits: tuple[np.ndarray, ...]) -> None:
    """Write "," + format(v, ".12g") for each v into out[row : row + _FLOAT_SLOTS].

    A value a = |v| in [1e-4, 1e11) with e = floor(log10 a) prints in fixed
    notation as the 12-digit significand N = round(a 10^(11-e)) with the point
    after e + 1 digits: floor(N / 10^(11-e)), then the remainder left-aligned
    to 15 fraction digits, each split into 4-digit groups.  s = a 10^(11-e)
    is one rounding of the exact product (10^(11-e) is an exact double), off
    by at most half an ulp, 6.1e-5 below 10^12; so when s lies more than
    _HALF_WINDOW from a half-integer, rint(s) is the correctly rounded N that
    Python's dtoa prints.  The splits are exact, every operand being an
    integer below 2^53.  A carry to N = 10^12 needs no check: it splits as
    10^(e+1), which format() also prints in fixed notation, since e + 1 <= 11.
    format() writes every other value into the same 32 bytes: zeros, NaN,
    infinities, subnormals, a outside the range, and s within the window.

    log10 rounds some a just below 10^j up to j (999.9999999999999 gives 3.0),
    and could round some a at or just above 10^j down.  log10 is off by an
    ulp or two at most, so such an a is within 10^-14 of 10^j, relative: s
    then lies within 10^-2 of 10^11 or 10^12, rint(s) is that power of ten,
    and 10^j is printed, as format() prints it, since a 12-digit rounding
    step is 10^-12.
    """
    trail, head = digits[2:]
    a = np.abs(v)
    fast = (a >= 1e-4) & (a < 1e11)
    a = np.where(fast, a, 1.0)
    e = np.clip(np.floor(np.log10(a)), -4, 10).astype(np.intp)
    p = _POW10[11 - e]
    s = a * p
    n = np.rint(s)
    fast &= np.abs(s - n) < 0.5 - _HALF_WINDOW
    ipart = np.floor(n / p)
    frac = (n - ipart * p) * _POW10[4 + e]  # left-aligned to 15 digits
    out[row] = np.where(v < 0, _COMMA_MINUS, _COMMA)
    _put_int(out, row + 1, ipart, 3, digits)
    h = np.floor(frac / 1e12)
    r12 = frac - h * 1e12
    f1 = np.floor(r12 / 1e8)
    r8 = r12 - f1 * 1e8
    f2 = np.floor(r8 / 1e4)
    f3 = r8 - f2 * 1e4
    out[row + 4] = head[(h + 1000 * (r12 == 0)).astype(np.intp)]
    out[row + 5] = trail[(f1 + 1e4 * (r8 == 0)).astype(np.intp)]
    out[row + 6] = trail[(f2 + 1e4 * (f3 == 0)).astype(np.intp)]
    out[row + 7] = trail[(f3 + 1e4).astype(np.intp)]
    slow = np.flatnonzero(~fast)
    if slow.size:
        text = b"".join(("," + _fmt(x)).encode().ljust(4 * _FLOAT_SLOTS, b"\0") for x in v[slow].tolist())
        out[row : row + _FLOAT_SLOTS, slow] = np.frombuffer(text, np.uint32).reshape(-1, _FLOAT_SLOTS).T


def write_errors_csv(result: SweepResult, path: str) -> None:
    """Per-k rows: k, squarefree, psi, singular, error (floats at 12 significant digits).

    The bytes are those of csv.writer (CRLF, no quoting) over "%d" k and
    squarefree and format(v, ".12g") floats.  The error column is computed
    a block at a time, as SweepResult.error computes it; the rows are
    written by _write_rows.
    """
    x = result.summary.x

    def columns(lo: int, hi: int) -> tuple[np.ndarray, ...]:
        psi, sing = result.psi[lo:hi], result.singular[lo:hi]
        return psi, sing, _error(psi, sing, x)

    _write_rows(path, result.squarefree, columns)


def _write_rows(path: str, squarefree: np.ndarray, columns) -> None:
    """errors.csv for k = 1..len(squarefree) - 1, the floats of rows lo..hi - 1 from columns(lo, hi).

    Rows go out in blocks of _CSV_BLOCK, formatted in numpy: each field
    fills fixed 4-byte slots from the digit tables, laid out slot-major (one
    contiguous row per slot), and one transpose puts the block in row order
    before the unused 0 bytes are deleted.  Floats take the exact kernel of
    _put_floats, and format() only where that kernel cannot prove the
    digits.
    """
    y = len(squarefree) - 1
    k_groups = (len(str(y)) + 3) // 4
    digits = _digit_tables()
    with open(path, "wb") as fh:
        fh.write(b"k,squarefree,psi,singular,error\r\n")
        for lo in range(1, y + 1, _CSV_BLOCK):
            hi = min(lo + _CSV_BLOCK, y + 1)
            out = np.empty((k_groups + 2 + 3 * _FLOAT_SLOTS, hi - lo), dtype=np.uint32)
            _put_int(out, 0, np.arange(lo, hi, dtype=np.float64), k_groups, digits)
            out[k_groups] = np.where(squarefree[lo:hi], _ONE, _ZERO)
            for j, col in enumerate(columns(lo, hi)):
                _put_floats(out, k_groups + 1 + j * _FLOAT_SLOTS, col, digits)
            out[-1] = _CRLF
            fh.write(out.T.tobytes().translate(None, b"\0"))


def write_moments_csv(summaries: list[MomentSummary], path: str) -> None:
    """One row per (x, y) with the moment and exceptional-count columns."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(
            ["x", "y", "count_squarefree", "second_moment", "normalized"]
            + [f"exc_B{b:g}" for b in EXCEPTIONAL_B_GRID]
        )
        for s in summaries:
            w.writerow(
                [s.x, s.y, s.count_squarefree, _fmt(s.second_moment), _fmt(s.normalized)]
                + [s.exceptional[b] for b in EXCEPTIONAL_B_GRID]
            )
