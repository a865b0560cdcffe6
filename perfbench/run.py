"""quadprime benchmark: time to a verified result for one CLI workload.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 35 --trace 0

Runs closed-loop passes of one workload, each a single `quadprime.cli.run`
call in a fresh interpreter (see child.py), until --seconds is spent.  With
--trace 0 every pass is untraced and the end-to-end metrics are reported;
with --trace 1 untraced and traced passes alternate and the per-layer
metrics are reported.  Outputs are checked against independent oracles
outside the timed interval, and every pass must produce the same bytes.
The last line of stdout is one JSON object; a result file with the samples,
checks and environment goes to perfbench/out/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracles
import spans
from workloads import ROOT, SRC, WORKLOADS, import_quadprime, invocation, layer_metrics

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SETUP_SAMPLES = 5  # fewest interpreter set-ups per run; passes count, setup-only children top up
PASS_TIMEOUT_S = 170


def _log(msg: str) -> None:
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def _git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_sha() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "quadprime").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _spawn(workload: str, pass_dir: Path, *, trace: bool = False, setup_only: bool = False, probe: list[int] | None = None) -> dict:
    """Run child.py once in a fresh interpreter and return its result plus output digests."""
    pass_dir.mkdir(parents=True)
    out_dir, result_path = pass_dir / "out", pass_dir / "child.json"
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload, "--out", str(out_dir),
           "--result", str(result_path), "--trace", str(int(trace))]
    if setup_only:
        cmd.append("--setup-only")
    if probe:
        cmd += ["--probe", ",".join(map(str, probe))]
    started = time.monotonic()
    with open(pass_dir / "stdout.txt", "wb") as out, open(pass_dir / "stderr.txt", "wb") as err:
        proc = subprocess.run(cmd + ["--spawned", repr(time.monotonic())], stdout=out, stderr=err, cwd=ROOT, timeout=PASS_TIMEOUT_S)
    duration = time.monotonic() - started
    if proc.returncode != 0:
        raise RuntimeError(f"child exited {proc.returncode}: {(pass_dir / 'stderr.txt').read_text()[-2000:]}")
    result = json.loads(result_path.read_text())
    result["duration_s"] = duration
    if not setup_only:
        files = sorted(out_dir.iterdir()) if out_dir.is_dir() else []
        result["digests"] = {"stdout": _digest(pass_dir / "stdout.txt"), **{f.name: _digest(f) for f in files}}
        result["emit_bytes"] = sum(f.stat().st_size for f in files)
        result["stdout"] = (pass_dir / "stdout.txt").read_text()
    return result


def _median(values: list[float]) -> float:
    return float(statistics.median(values))


def measure(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    t_start = time.monotonic()
    sample = oracles.samples(workload, seed)
    passes: list[dict] = []
    kinds = itertools.cycle([False, True] if trace else [False])
    for i in itertools.count():
        traced = next(kinds)
        p = _spawn(workload, work / f"pass{i}", trace=traced, probe=None if i else sample)
        p["traced"] = traced
        passes.append(p)
        _log(f"{workload} pass {i} traced={int(traced)} wall {p['wall_s']:.3f} s")
        if i:
            shutil.rmtree(work / f"pass{i}")
        spent = time.monotonic() - t_start
        if len(passes) >= (2 if trace else 1) and spent + _median([q["duration_s"] for q in passes]) > seconds:
            break
    first = passes[0]
    setups = [p["setup_s"] for p in passes]
    for i in range(SETUP_SAMPLES - len(setups)):
        setups.append(_spawn(workload, work / f"setup{i}", setup_only=True)["setup_s"])

    checks = [oracles.Check(f"pass{i}.exit", p["rc"] == 0, f"rc {p['rc']}") for i, p in enumerate(passes)]
    for i, p in enumerate(passes[1:], 1):
        kind = "traced" if p["traced"] else "untraced"
        checks.append(oracles.Check(f"pass{i}.{kind}_bytes_identical", p["digests"] == first["digests"], str(p["digests"])))
    oracle_checks, main_term_err = oracles.verify(workload, seed, first["stdout"], first["probe"], work / "pass0" / "out", import_quadprime())
    checks += oracle_checks

    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    metrics: dict[str, tuple[float, str]] = {}
    if trace:
        per_pass = [layer_metrics(spans.aggregate(p["spans"]), p["emit_bytes"]) for p in traced]
        for name, (_, unit) in per_pass[0].items():
            pick = _median if unit == "s" else statistics.median_low  # counts repeat exactly
            metrics[name] = (pick([m[name][0] for m in per_pass]), unit)
        metrics["trace.overhead_s"] = (_median([p["wall_s"] for p in traced]) - _median([p["wall_s"] for p in untraced]), "s")
        for p in traced:
            for target in p["absent"]:
                _log(f"span target {target} is absent; its metrics read 0")
    else:
        metrics = {
            "wall_s": (_median([p["wall_s"] for p in untraced]), "s"),
            "cpu_s": (_median([p["cpu_s"] for p in untraced]), "s"),
            "setup_s": (_median(setups), "s"),
            "peak_rss_mb": (_median([p["peak_rss_mb"] for p in untraced]), "MB"),
            "main_term_err": (main_term_err, "abs"),
        }
    failed = sum(not c.ok for c in checks)
    for c in checks:
        if not c.ok:
            _log(f"check failed: {c.name}: {c.detail[:300]}")
    return {
        "meta": {
            "git_sha": _git_sha(),
            "src_sha256": _src_sha(),
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": first["versions"]["numpy"],
            "scipy": first["versions"]["scipy"],
            "platform": platform.platform(),
            "workload": workload,
            "invocation": ["quadprime"] + invocation(workload, "<tmpdir>"),
            "seed": seed,
            "seconds": seconds,
            "trace": int(trace),
        },
        "setup_s_samples": setups,
        "passes": [{k: v for k, v in p.items() if k not in ("spans", "probe", "stdout")} for p in passes],
        "spans": [p["spans"] for p in traced],
        "checks": [vars(c) for c in checks],
        "fail_frac": failed / len(checks),
        "main_term_err": main_term_err,
        "result": {
            "correct": failed == 0,
            "attempted": len(checks),
            "failed": failed,
            "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        },
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "quadprime" / "__init__.py").is_file():
        _log(f"no quadprime sources under {SRC}; run from a full checkout")
        return 2
    work = OUT / "work" / f"{args.workload}-{os.getpid()}"
    try:
        record = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    path = results / f"{args.workload}_seed{args.seed}_trace{args.trace}_{stamp}_{os.getpid()}.json"
    path.write_text(json.dumps(record, indent=1))
    _log(f"result file {path.relative_to(ROOT)}")
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
