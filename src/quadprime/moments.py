"""Error statistics for psi(x; k) = sum_{n <= x} Lambda(n^2 + k) against S(k) x.

A sweep fixes x, runs k over 1..y, and compares the sieved count psi(x; k)
with the predicted main term S(k) * x.  The headline statistics are the
second moment of the error over squarefree k, its normalisation by y x^2,
and exceptional counts at thresholds x / (log x)^B.

Determinism contract: a sweep's output is bit-identical across runs.  psi
accumulation is single-threaded: per block of k, one ascending-n array add
per n, so every k gets the same additions in the same order whatever the
block size, and every moment is reduced with math.fsum (exact summation) in
ascending k.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .sieve import LambdaTable, _check_budget, build_lambda_table, build_squarefree_table, build_mobius_phi_tables
from .singular import (
    SingularCfg,
    _tail_phi_bulk,
    singular_series_euler_bulk,
    singular_series_lmethod,
)

EXCEPTIONAL_B_GRID = (0.5, 1.0, 1.5, 2.0)
_CSV_BLOCK = 1 << 16
_PSI_BLOCK = 1 << 15
_CSV_ROW = "%d,%d,%.12g,%.12g,%.12g\r\n"


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
    error: np.ndarray


def _exceptional_threshold(x: int, b: float) -> float:
    """The exceptional-set threshold x / (log x)^b."""
    return x / math.log(x) ** b


def psi_value(x: int, k: int, lam: LambdaTable) -> float:
    """sum_{n <= x} Lambda(n^2 + k) from a prebuilt table."""
    if x < 1 or k < 1:
        raise ValueError(f"psi_value: need x >= 1 and k >= 1, got x={x}, k={k}")
    n = np.arange(1, x + 1, dtype=np.int64)
    idx = n * n + k
    if not lam.covers(1 + k, x * x + k):
        raise IndexError(f"Lambda table covers [1, {lam.hi}], psi needs up to {x * x + k}")
    return float(np.sum(lam.values[idx]))


def _psi_bulk(x: int, y: int, lam: LambdaTable) -> np.ndarray:
    """psi(x; k) for all k = 1..y (index 0 unused, set to 0).

    k runs in blocks of _PSI_BLOCK, and each block gets one window add per n,
    in ascending n, while it stays in cache.  Every k sees the same additions
    in the same order as a full-width pass would give it.
    """
    psi = np.zeros(y + 1, dtype=np.float64)
    for lo in range(1, y + 1, _PSI_BLOCK):
        hi = min(lo + _PSI_BLOCK, y + 1)
        block = psi[lo:hi]
        for n in range(1, x + 1):
            block += lam.values[n * n + lo : n * n + hi]
    return psi


def run_sweep(x: int, y: int, cfg: SingularCfg) -> SweepResult:
    """Full error sweep over k = 1..y at fixed x.

    The Euler cutoff is raised to max(cfg.euler_cutoff, x) so the main-term
    truncation error stays well below the psi fluctuation being measured.
    Warns (without failing) if y falls outside [x^2/(log x)^3, x^2].
    The Lambda table, the psi, main-term and error arrays (24 (y + 1) bytes
    together), the main term's prime sieve and the squarefree flags are each
    checked against the memory budget before they are allocated.
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

    _check_budget(24 * (y + 1), f"psi, main-term and error arrays over k <= {y}")
    # no name holds the Lambda table, so it is freed before the main term is built
    psi = _psi_bulk(x, y, build_lambda_table(x * x + y))

    if cfg.method == "euler":
        sing = singular_series_euler_bulk(y, max(cfg.euler_cutoff, x))
    else:
        sing = np.zeros(y + 1)
        for k in range(1, y + 1):
            sing[k] = singular_series_lmethod(k, cfg.tol)

    error = psi - sing * float(x)
    error[0] = 0.0
    sf = build_squarefree_table(y)

    sf_errors = error[1:][sf[1:]]
    second_moment = math.fsum(v * v for v in sf_errors.tolist())
    count_sf = int(np.count_nonzero(sf))
    normalized = second_moment / (y * float(x) * float(x))
    exceptional = {
        b: int(np.count_nonzero(np.abs(sf_errors) > _exceptional_threshold(x, b))) for b in EXCEPTIONAL_B_GRID
    }

    summary = MomentSummary(
        x=x,
        y=y,
        count_squarefree=count_sf,
        second_moment=second_moment,
        normalized=normalized,
        exceptional=exceptional,
    )
    return SweepResult(summary=summary, squarefree=sf, psi=psi, singular=sing, error=error)


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
    if not tol > 0:
        raise ValueError(f"phi_moment: tol must be positive, got {tol}")
    mu, phi = build_mobius_phi_tables(q1)
    tails = _tail_phi_bulk(np.flatnonzero(build_squarefree_table(y)), q1, tol, mu, phi)
    return math.fsum((tails * tails).tolist())


# --- CSV emission ------------------------------------------------------------


def _fmt(v: float) -> str:
    return format(v, ".12g")


def write_errors_csv(result: SweepResult, path: str) -> None:
    """Per-k rows: k, squarefree, psi, singular, error (floats at 12 significant digits).

    Rows go out in blocks of _CSV_BLOCK.  A block's values are laid row by row
    into one flat list and formatted by a single % of the row format repeated
    once per row, so only one block at a time is held as Python objects; the
    bytes match csv.writer's (CRLF, no quoting).
    """
    y = result.summary.y
    cols = (result.squarefree, result.psi, result.singular, result.error)
    with open(path, "w", newline="") as fh:
        fh.write("k,squarefree,psi,singular,error\r\n")
        for lo in range(1, y + 1, _CSV_BLOCK):
            hi = min(lo + _CSV_BLOCK, y + 1)
            flat = [None] * (5 * (hi - lo))
            flat[0::5] = range(lo, hi)
            for j, col in enumerate(cols, 1):
                flat[j::5] = col[lo:hi].tolist()
            fh.write(_CSV_ROW * (hi - lo) % tuple(flat))


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
