"""One benchmark pass in a fresh interpreter: import quadprime, time one cli.run call.

Run by run.py, never by hand.  The CLI's stdout goes to this process's
stdout (run.py points it at a file); the pass's measurements go to the JSON
file named by --result.  A fresh interpreter means every module cache of
quadprime starts empty, as it does for a user of the command line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--probe", default="", help="comma-separated k or q to probe after the pass")
    ap.add_argument("--spawned", type=float, required=True, help="time.monotonic() just before spawn")
    args = ap.parse_args()

    from workloads import ROOT_SPAN, TRACE_TARGETS, import_quadprime, invocation

    qp = import_quadprime()
    cli = sys.modules["quadprime.cli"]
    os.makedirs(args.out, exist_ok=True)
    argv = invocation(args.workload, args.out)
    result: dict = {"setup_s": time.monotonic() - args.spawned}
    if not args.setup_only:
        recorder, run = None, cli.run
        if args.trace:
            from spans import Recorder

            recorder = Recorder()
            recorder.install(TRACE_TARGETS)
            run = recorder.wrap(cli.run, ROOT_SPAN)
        c0 = time.process_time()
        t0 = time.perf_counter()
        rc = run(argv)
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
        sys.stdout.flush()
        result.update(
            rc=rc,
            wall_s=wall,
            cpu_s=cpu,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            argv=argv,
            versions={
                "python": platform.python_version(),
                "numpy": sys.modules["numpy"].__version__,
                "scipy": sys.modules["scipy"].__version__,
            },
        )
        if recorder is not None:
            result.update(spans=recorder.dump(), absent=recorder.absent)
        if args.probe:
            from oracles import probe

            result["probe"] = probe(args.workload, [int(v) for v in args.probe.split(",")], qp)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
