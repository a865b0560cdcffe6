"""The four benchmark workloads, the spans the traced pass records, and where quadprime lives.

Every workload is one `quadprime` CLI invocation of fixed size.  The seed
never changes the work; it only picks which k and q the oracles sample.
"""

from __future__ import annotations

import importlib
import math
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# name -> (argv without the output directory, writes files into --out)
WORKLOADS: dict[str, tuple[list[str], bool]] = {
    "sweep": (["sweep", "--x", "800", "--y", "640000"], True),
    "pv": (["check", "pv", "--qmax", "300"], False),
    "phi-moment": (["phi-moment", "--y", "3000", "--q1", "500", "--tol", "1e-4"], False),
    "sandwich": (["check", "sandwich", "--kmax", "2000"], False),
}


def invocation(workload: str, out_dir: str) -> list[str]:
    """The argv handed to quadprime.cli.run for one pass of `workload`."""
    argv, writes = WORKLOADS[workload]
    return argv + ["--out", out_dir] if writes else list(argv)


def import_quadprime():
    """Import quadprime from this checkout's src/, never from an installed copy."""
    if not (SRC / "quadprime" / "__init__.py").is_file():
        raise ImportError(f"no quadprime package under {SRC}")
    sys.path.insert(0, str(SRC))
    qp = importlib.import_module("quadprime")
    if Path(qp.__file__).resolve().parent != SRC / "quadprime":
        raise ImportError(f"quadprime imported from {qp.__file__}, not from {SRC}")
    importlib.import_module("quadprime.cli")
    return qp


def primes_upto(n: int) -> np.ndarray:
    """Ascending primes <= n by a plain sieve, kept apart from the package under test."""
    flags = np.ones(max(n, 1) + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.nonzero(flags)[0]


# --- span targets ------------------------------------------------------------
# Each entry wraps `module.attribute` as the calling module sees it.  The
# optional `info` function turns (args, kwargs, result) into a small dict
# that the per-layer counts are computed from; it must stay O(1).


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _lambda_info(args, kwargs, result) -> dict:
    return {"values": len(result.values)}


def _primes_info(args, kwargs, result) -> dict:
    return {"limit": result.limit, "primes": len(result.primes)}


def _euler_info(args, kwargs, result) -> dict:
    return {"y": _arg(args, kwargs, 0, "y"), "cutoff": _arg(args, kwargs, 1, "cutoff")}


def _sweep_info(args, kwargs, result) -> dict:
    return {"x": _arg(args, kwargs, 0, "x"), "y": _arg(args, kwargs, 1, "y")}


def _table_info(args, kwargs, result) -> dict:
    return {"q": result.q, "phi": result.phi}


TRACE_TARGETS: list[tuple[str, str, str, object]] = [
    ("quadprime.cli", "run_sweep", "moments.sweep", _sweep_info),
    ("quadprime.cli", "write_errors_csv", "moments.emit", None),
    ("quadprime.cli", "write_moments_csv", "moments.emit", None),
    ("quadprime.cli", "phi_moment", "moments.phi", None),
    ("quadprime.cli", "pv_check", "expsum.pv", None),
    ("quadprime.cli", "build_squarefree_table", "sieve.squarefree", None),
    ("quadprime.moments", "build_lambda_table", "sieve.lambda", _lambda_info),
    ("quadprime.moments", "build_squarefree_table", "sieve.squarefree", None),
    ("quadprime.moments", "build_mobius_phi_tables", "sieve.muphi", None),
    ("quadprime.moments", "singular_series_euler_bulk", "singular.euler_bulk", _euler_info),
    ("quadprime.moments", "singular_series_lmethod", "singular.lmethod", None),
    ("quadprime.singular", "build_prime_table", "sieve.primes", _primes_info),
    ("quadprime.singular", "build_mobius_phi_tables", "sieve.muphi", None),
    ("quadprime.singular", "singular_series_lmethod", "singular.lmethod", None),
    ("quadprime.singular", "l_value", "singular.l_value", None),
    ("quadprime.singular", "sl_product", "singular.sl_product", None),
    ("quadprime.singular", "dirichlet_partial", "singular.dirichlet", None),
    ("quadprime.singular", "sandwich_bounds", "singular.bounds", None),
    ("quadprime.expsum", "build_character_table", "expsum.table", _table_info),
]

ROOT_SPAN = "cli"

# per-layer time metric -> the span whose summed self time it reports.  Self
# times of all spans add up to the root span, so these partition traced wall.
SELF_TIME_METRICS: dict[str, str] = {
    "sieve.lambda_s": "sieve.lambda",
    "sieve.primes_s": "sieve.primes",
    "sieve.squarefree_s": "sieve.squarefree",
    "sieve.muphi_s": "sieve.muphi",
    "singular.euler_bulk_s": "singular.euler_bulk",
    "singular.lmethod_s": "singular.lmethod",
    "singular.l_value_s": "singular.l_value",
    "singular.sl_product_s": "singular.sl_product",
    "singular.dirichlet_s": "singular.dirichlet",
    "singular.bounds_self_s": "singular.bounds",
    "moments.sweep_self_s": "moments.sweep",
    "moments.emit_s": "moments.emit",
    "moments.phi_self_s": "moments.phi",
    "expsum.table_s": "expsum.table",
    "expsum.pv_self_s": "expsum.pv",
    "cli.self_s": ROOT_SPAN,
}


def layer_metrics(by_name: dict, emit_bytes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass from its aggregated spans.

    `by_name` maps span name -> {"self_s", "calls", "infos"} (see spans.aggregate).
    Bytes and counts marked computed in the doc come from array sizes, not
    from measuring memory traffic.
    """

    def agg(name: str) -> dict:
        return by_name.get(name, {"self_s": 0.0, "calls": 0, "infos": []})

    out: dict[str, tuple[float, str]] = {m: (agg(s)["self_s"], "s") for m, s in SELF_TIME_METRICS.items()}
    out["sieve.lambda_bytes"] = (sum(8 * i["values"] for i in agg("sieve.lambda")["infos"]), "bytes")
    out["sieve.primes_bytes"] = (
        sum(i["limit"] + 1 + 8 * i["primes"] for i in agg("sieve.primes")["infos"]),
        "bytes",
    )
    out["singular.euler_updates"] = (
        sum((len(primes_upto(i["cutoff"])) - 1) * (i["y"] + 1) for i in agg("singular.euler_bulk")["infos"]),
        "count",
    )
    for layer in ("lmethod", "l_value", "sl_product"):
        out[f"singular.{layer}_calls"] = (agg(f"singular.{layer}")["calls"], "count")
    out["moments.psi_adds"] = (sum(i["x"] * i["y"] for i in agg("moments.sweep")["infos"]), "count")
    out["moments.emit_bytes"] = (emit_bytes, "bytes")
    tables = {i["q"]: i["phi"] for i in agg("expsum.table")["infos"]}
    out["expsum.characters"] = (sum(tables.values()), "count")
    out["expsum.table_bytes"] = (sum(16 * phi * q for q, phi in tables.items()), "bytes")
    out["expsum.walks"] = (sum(phi - 1 for phi in tables.values()), "count")
    return out
