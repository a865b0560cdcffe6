"""Command-line front end.

Subcommands: psi, singular, sigma, sweep, phi-moment, check, tables.
Exit codes: 0 success, 1 usage error, 2 a verification/invariant check failed.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import random
import sys
import time

import numpy as np

from . import __version__
from .arith import mobius_phi
from .errors import VerificationError
from .expsum import (
    ArcPoint,
    _check_modulus,
    _pv_bound,
    _tau_bars,
    build_character_table,
    circle_psi_oracle,
    decompose_s1,
    decompose_s2,
    g_quadratic,
    pv_check,
    s1,
    s2,
    weyl_ratio,
)
from .moments import _check_psi_args, phi_moment, psi_value, run_sweep, write_errors_csv, write_moments_csv
from .sieve import _check_budget, build_lambda_table, build_prime_table, build_squarefree_table
from .singular import SingularCfg, sandwich_violations, sigma_q, singular_series

# Max |s2| / Weyl envelope over the seeded calibration grid (seed 0, see check_weyl).
# Re-runs must stay within 5% of this recorded value.
WEYL_CALIBRATION_C = 0.039036613241745885
_COPRIME_AS = 3  # residues a per modulus q that check decompose runs


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _meta(started: float) -> dict:
    return {"version": __version__, "wall_time_s": round(time.monotonic() - started, 3)}


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        json.dump(payload, sys.stdout, indent=2)
        print()
    elif fmt == "csv":
        scalars = {k: v for k, v in payload.items() if k != "meta"}
        writer = csv.writer(sys.stdout)
        writer.writerow(scalars.keys())
        writer.writerow(scalars.values())
    else:
        for key, value in payload.items():
            if key == "meta":
                continue
            print(f"{key} = {value}")


def cmd_psi(args: argparse.Namespace) -> int:
    started = time.monotonic()
    _check_psi_args(args.x, args.k)  # before the table, whose size they set
    lam = build_lambda_table(args.x * args.x + args.k)
    value = psi_value(args.x, args.k, lam)
    payload = {"x": args.x, "k": args.k, "psi": value}
    if args.x <= 20:
        oracle = circle_psi_oracle(args.x, args.k, lam)
        payload["oracle"] = oracle
        if abs(oracle - value) > 1e-6:
            print(f"psi mismatch: sieve {value} vs circle oracle {oracle}", file=sys.stderr)
            return 2
    payload["meta"] = _meta(started)
    _emit(payload, args.format)
    return 0


def cmd_singular(args: argparse.Namespace) -> int:
    started = time.monotonic()
    cfg = SingularCfg(method=args.method, euler_cutoff=args.p, tol=args.tol)
    value = singular_series(args.k, cfg)
    payload = {"k": args.k, "method": args.method, "singular": value, "meta": _meta(started)}
    _emit(payload, args.format)
    return 0


def cmd_sigma(args: argparse.Namespace) -> int:
    started = time.monotonic()
    value = sigma_q(args.q, args.k)
    payload = {"q": args.q, "k": args.k, "sigma": value, "meta": _meta(started)}
    _emit(payload, args.format)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    started = time.monotonic()
    cfg = SingularCfg(method=args.method, euler_cutoff=args.p, tol=args.tol)
    os.makedirs(args.out, exist_ok=True)  # before the sweep, so an --out that cannot be made fails at once
    if args.format == "json":  # sweep.json's five per-k lists, 144 bytes a k by tracemalloc, and the derived error, 8
        _check_budget(152 * args.y, f"sweep.json lists over k <= {args.y}")
    result = run_sweep(args.x, args.y, cfg)
    s = result.summary
    if args.format != "json":
        write_errors_csv(result, os.path.join(args.out, "errors.csv"))
        write_moments_csv([s], os.path.join(args.out, "moments.csv"))
    else:
        data = {
            "errors": {
                "k": list(range(1, s.y + 1)),
                "squarefree": result.squarefree[1:].tolist(),
                "psi": result.psi[1:].tolist(),
                "singular": result.singular[1:].tolist(),
                "error": result.error[1:].tolist(),
            },
            "moments": {
                "x": s.x,
                "y": s.y,
                "count_squarefree": s.count_squarefree,
                "second_moment": s.second_moment,
                "normalized": s.normalized,
                "exceptional": {f"B{b:g}": n for b, n in s.exceptional.items()},
            },
            "meta": _meta(started),
        }
        with open(os.path.join(args.out, "sweep.json"), "w") as fh:
            json.dump(data, fh, indent=2)
    print(
        f"x={s.x} y={s.y} squarefree={s.count_squarefree} "
        f"second_moment={s.second_moment:.6g} normalized={s.normalized:.6g} "
        f"exceptional={[s.exceptional[b] for b in sorted(s.exceptional)]}"
    )
    return 0


def cmd_phi_moment(args: argparse.Namespace) -> int:
    started = time.monotonic()
    value = phi_moment(args.y, args.q1, args.tol)
    payload = {"y": args.y, "q1": args.q1, "tol": args.tol, "phi_moment": value, "meta": _meta(started)}
    _emit(payload, args.format)
    return 0


def cmd_tables(args: argparse.Namespace) -> int:
    primes = build_prime_table(args.limit)
    flags = build_squarefree_table(args.limit)
    print(f"primes <= {args.limit}: {primes.count()}")
    print(f"squarefree <= {args.limit}: {np.count_nonzero(flags)}")
    return 0


# --- invariant suites (check ...) -------------------------------------------


def check_weyl() -> tuple[float, bool]:
    """Max Weyl ratio over the seed-0 random grid; pass iff within 5% of the record."""
    rng = random.Random(0)
    worst = 0.0
    for x in (100, 1000, 10_000):
        for _ in range(50):
            q = rng.randint(1, x)
            if q == 1:
                a = 0
            else:
                a = rng.randrange(1, q)
                while math.gcd(a, q) != 1:
                    a = rng.randrange(1, q)
            beta = rng.uniform(-1.0 / (q * q), 1.0 / (q * q))
            worst = max(worst, weyl_ratio(ArcPoint(a, q, beta), x))
    passed = worst <= 1.05 * WEYL_CALIBRATION_C
    print(f"weyl: max ratio {worst:.6f}, calibration {WEYL_CALIBRATION_C:.6f} -> {'ok' if passed else 'FAIL'}")
    return worst, passed


def check_pv(q_max: int) -> bool:
    """Print the q <= q_max whose walks break 6 sqrt(q) log q, then the tightest q and its ratio.

    q runs upwards under a running floor, min(worst ratio so far, 1) times
    the bound of q: pv_check returns None for a q whose every walk is
    shorter than that, and such a q passes and is not the tightest (that
    takes a strictly larger ratio), so it is skipped before any exact
    diameter.  The output is that of taking pv_check(q) for every q.
    """
    if q_max < 3:  # mod 2 no character is walked, so no q < 3 has anything to report
        raise ValueError(f"check pv: --qmax must be >= 3, got {q_max}")
    _check_modulus(q_max, "check pv: --qmax")  # before the walk over every smaller q
    worst_q, worst_excess = 0, 0.0
    ok = True
    for q in range(2, q_max + 1):
        rep = pv_check(q, min(worst_excess, 1.0) * _pv_bound(q))
        if rep is None:
            continue
        if not rep.passed:
            ok = False
            print(f"pv: q={q} max window sum {rep.max_sum:.3f} exceeds bound {rep.bound:.3f}")
        excess = rep.max_sum / rep.bound
        if excess > worst_excess:
            worst_q, worst_excess = q, excess
    print(f"pv: q <= {q_max}, tightest at q={worst_q} (ratio {worst_excess:.3f}) -> {'ok' if ok else 'FAIL'}")
    return ok


def _coprime_as(q: int) -> list[int]:
    if q == 1:
        return [0]
    return [a for a in range(1, q) if math.gcd(a, q) == 1][:_COPRIME_AS]


def check_decompose(q_max: int) -> bool:
    if q_max < 1:
        raise ValueError(f"check decompose: --qmax must be >= 1, got {q_max}")
    lam = build_lambda_table(1000)
    worst1 = worst2 = 0.0
    r_bound_ok = True
    for q in range(1, q_max + 1):
        for a in _coprime_as(q):
            for beta in (0.0, 1e-4, -1e-4):
                arc = ArcPoint(a, q, beta)
                for x in (10, 100):
                    t2, e2 = decompose_s2(arc, x)
                    worst2 = max(worst2, abs((t2 + e2) - s2(arc.theta, x)) / x)
                for z in (100, 1000):
                    t1, e1, r = decompose_s1(arc, z, lam)
                    worst1 = max(worst1, abs((t1 + e1 + r) - s1(arc.theta, z, lam)) / z)
                    if abs(r) > math.log(z) ** 2 + 1:
                        r_bound_ok = False
    ok = worst1 <= 1e-8 and worst2 <= 1e-8 and r_bound_ok
    print(
        f"decompose: worst |T1+E1+R-s1|/z = {worst1:.3e}, worst |T2+E2-s2|/x = {worst2:.3e}, "
        f"residual bound {'ok' if r_bound_ok else 'FAIL'} -> {'ok' if ok else 'FAIL'}"
    )
    return ok


def check_gauss(q_max: int) -> bool:
    if q_max < 1:
        raise ValueError(f"check gauss: --qmax must be >= 1, got {q_max}")
    worst_mod = worst_id = 0.0
    for q in range(1, q_max + 1):
        table = build_character_table(q)
        tau_bars = _tau_bars(table)  # conj permutes the primitive characters, so |tau(conj chi)| serves for |tau(chi)|
        for tau_bar, ch in zip(tau_bars, table.chars):
            if ch.is_primitive:
                worst_mod = max(worst_mod, abs(abs(tau_bar) - math.sqrt(q)))
        if q % 2 == 0 or mobius_phi(q)[0] == 0:
            continue
        real = [(tau_bar, ch) for tau_bar, ch in zip(tau_bars, table.chars) if ch.order <= 2]
        for a in range(1, q + 1):
            if math.gcd(a, q) != 1:
                continue
            via_chars = sum(tau_bar * ch((-a) % q) for tau_bar, ch in real)
            worst_id = max(worst_id, abs(via_chars - g_quadratic(a, q)))
    ok = worst_mod <= 1e-9 and worst_id <= 1e-9
    print(f"gauss: worst | |tau|-sqrt(q) | = {worst_mod:.3e}, worst quadratic-identity gap = {worst_id:.3e} -> {'ok' if ok else 'FAIL'}")
    return ok


def check_sandwich(k_max: int, tol: float) -> bool:
    if k_max < 1:
        raise ValueError(f"check sandwich: --kmax must be >= 1, got {k_max}")
    bad = sandwich_violations(k_max, tol)
    ok = not bad
    print(f"sandwich: squarefree k <= {k_max} at tol {tol:g}, {len(bad)} violations -> {'ok' if ok else 'FAIL'}")
    for k, product in bad[:10]:
        print(f"  k={k}: product {product}")
    return ok


def cmd_check(args: argparse.Namespace) -> int:
    ok = True
    if args.suite == "weyl":
        _, ok = check_weyl()
    elif args.suite == "pv":
        ok = check_pv(args.qmax)
    elif args.suite == "decompose":
        ok = check_decompose(min(args.qmax, 60))
    elif args.suite == "gauss":
        ok = check_gauss(min(args.qmax, 50))
    elif args.suite == "sandwich":
        ok = check_sandwich(args.kmax, args.tol)
    return 0 if ok else 2


def _build_parser() -> _Parser:
    parser = _Parser(prog="quadprime", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("plain", "csv", "json"), default="plain")

    p = sub.add_parser("psi", help="psi(x; k) from the sieve (+ circle oracle at small x)")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    add_format(p)
    p.set_defaults(func=cmd_psi)

    p = sub.add_parser("singular", help="singular series S(k)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--method", choices=("euler", "lmethod"), default="euler")
    p.add_argument("--p", type=int, default=10_000, help="Euler product cutoff")
    p.add_argument("--tol", type=float, default=1e-6)
    add_format(p)
    p.set_defaults(func=cmd_singular)

    p = sub.add_parser("sigma", help="exact complete exponential sum Sigma(q) at offset k")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    add_format(p)
    p.set_defaults(func=cmd_sigma)

    p = sub.add_parser("sweep", help="error sweep over k = 1..y at fixed x; writes errors + moments")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--y", type=int, required=True)
    p.add_argument("--method", choices=("euler", "lmethod"), default="euler")
    p.add_argument("--p", type=int, default=10_000)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--out", default=".")
    add_format(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("phi-moment", help="second moment of the Dirichlet tail Phi(k)")
    p.add_argument("--y", type=int, required=True)
    p.add_argument("--q1", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-3)
    add_format(p)
    p.set_defaults(func=cmd_phi_moment)

    p = sub.add_parser("check", help="run an invariant suite")
    p.add_argument("suite", choices=("weyl", "pv", "decompose", "gauss", "sandwich"))
    p.add_argument("--qmax", type=int, default=500, help="largest modulus q (decompose caps it at 60, gauss at 50)")
    p.add_argument("--kmax", type=int, default=10_000)
    p.add_argument("--tol", type=float, default=1e-4)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("tables", help="count primes and squarefree integers up to --limit")
    p.add_argument("--limit", type=int, required=True)
    p.set_defaults(func=cmd_tables)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # usage errors funnel to exit 1, --help to 0
        return int(exc.code or 0)
    try:
        return args.func(args)
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, MemoryError, IndexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
