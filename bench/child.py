"""One measured run in a fresh process; started by ``run.py``.

Imports summakit from the checkout's ``src``, builds the job's inputs, runs
the timed work once (traced or not), gates the outputs and writes one JSON
result to ``--result``.  With ``--setup-only`` it stops after the inputs.  ``setup_s`` counts from ``--spawned-at``, the
parent's monotonic clock reading just before it started this process, so it
includes interpreter start-up, the summakit import and input generation.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
import traceback
from contextlib import nullcontext

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--command", required=True, choices=("check", "transform", "verify", "exact"))
    parser.add_argument("--order", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import tracing
    import workloads

    job = workloads.make_job(args.command, args.order, args.seed, args.workdir)
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        with open(args.result, "w", encoding="utf-8") as fh:
            json.dump({"setup_s": setup_s, "digest": job.digest, "failures": []}, fh)
        return 0

    tracer = tracing.Tracer(working_rows=args.order + 1) if args.trace else None
    error = None
    with tracing.installed(tracer) if tracer else nullcontext():
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        try:
            job.run()
        except Exception:  # a run that raises is a failed run, not a crash
            error = traceback.format_exc(limit=3)
        wall_s = time.perf_counter() - t0
        cpu_s = time.process_time() - cpu0

    result = {"setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu_s, "digest": job.digest, "environment": environment()}
    if error:
        result["failures"] = [error]
    else:
        try:
            result["failures"] = job.gate()
            result.update(job.extras())
        except Exception:  # a missing or unreadable report fails the run too
            result["failures"] = [traceback.format_exc(limit=3)]
    if tracer:
        self_s, calls = tracer.layers()
        result["layers"] = {"self_s": self_s, "calls": calls, "carrier_bytes": sum(tracer.carriers.values())}
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
