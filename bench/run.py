#!/usr/bin/env python3
"""summakit benchmark: one workload per invocation, one fresh process per run.

    python3 bench/run.py --workload check-riesz --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; summakit is imported from ``src``.
Each measured run is a child process (``child.py``), so peak memory is per
run.  The parent keeps starting runs until ``--seconds`` have passed (at
least three) and prints every run, the environment, and as its last line one
JSON object with the metrics:

- ``--trace 0``: ``wall_s`` (the timed work), ``peak_rss_mb`` (the child's
  peak resident memory, read by the parent from ``wait4``) and ``setup_s``
  (from starting the child until summakit is imported and the inputs exist).
  Set-up is short next to the work, so after the timed runs the parent
  also starts set-up-only children, until it holds SETUP_SAMPLES set-up
  times; ``setup_s`` is the median of all of them.  ``wall_s`` is the 90th
  percentile of the timed runs, not their median: on a shared host the work
  runs up to 2x slower while other tenants keep the machine busy, and the
  share of such moments changes from minute to minute.  The median follows
  that share; the 90th percentile sits on the busy-host time, which holds
  still (see README.md for the spreads measured).
- ``--trace 1``: one plain and one traced run of the workload, then the
  ladder (one plain run of ``check``, ``transform`` and ``verify`` per
  order).  Reports per-layer self time and call counts from the traced run
  (see ``tracing.py``), the tracing overhead (traced minus plain wall), the
  coverage (the share of the traced wall inside named layer spans, command
  glue excluded), the ladder's wall time and peak memory, and
  ``failed_frac``.  It ignores ``--seconds``: on a 2-core x86-64 host it
  took 36-60 s, most of it in ``check`` N=800 and ``verify`` N=400.

A run fails when its process exits non-zero or times out, the work raises,
or a correctness gate in ``workloads.py`` rejects its outputs; ``failed``
counts those runs.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import tracing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "child.py")

# workload -> (command, order N).  check-riesz is dominated by the dense tail
# carrier and the C10/C11 tail loops, verify-riesz by the probe loop in the
# harness, exact-oracle takes the Fraction side of every is_exact branch.
# check-riesz runs at N=400, not the ROADMAP's 600: a 600 run takes 4-7 s, so
# a run of the benchmark held only 4-6 of them, too few for a steady wall_s.
WORKLOADS = {"check-riesz": ("check", 400), "verify-riesz": ("verify", 300), "exact-oracle": ("exact", 24)}
# The ROADMAP ladder of orders; verify is O(N^3), so it stops at 400.
LADDER = {"check": (100, 200, 400, 800), "transform": (100, 200, 400, 800), "verify": (100, 200, 400)}

MIN_RUNS = 3
SETUP_SAMPLES = 24  # set-up times wanted, the timed runs' own included
BUDGET_S = 170.0  # the whole invocation ends within 180 s

END_TO_END = ("wall_s", "peak_rss_mb", "setup_s")
SPANS = tuple(dict.fromkeys([*tracing.LAYERS.values(), tracing.CARRIER]))
COUNTED = (
    "matrices.build",
    "matrices.hat",
    "matrices.invert_hat",
    "matrices.apply_lower",
    "series.delta_transform",
    "series.norms",
    "harness.run_probe",
    "harness.decompose",
    "harness.key_identity",
)
LAYER_EXTRAS = (
    "cli.report_kb",
    "matrices.tail_carrier_mb",
    "conditions.c16_noise_rows",
    "process.cpu_s",
    "trace.overhead_s",
    "trace.coverage",
    "failed_frac",
)


def ladder_names() -> list[str]:
    return [f"ladder.{cmd}.n{n}.{m}" for cmd, orders in LADDER.items() for n in orders for m in ("wall_s", "peak_rss_mb")]


def per_layer_names() -> list[str]:
    return [f"{s}_s" for s in SPANS] + [f"{s}_calls" for s in COUNTED] + list(LAYER_EXTRAS) + ladder_names()


def unit_of(name: str) -> str:
    for suffix, unit in (("_s", "s"), ("_calls", "count"), ("_rows", "count"), ("_mb", "MB"), ("_kb", "KB")):
        if name.endswith(suffix):
            return unit
    return "ratio"


class Runner:
    """Starts child runs one at a time and waits for each to end."""

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.deadline = time.monotonic() + BUDGET_S
        self.samples: list[dict] = []

    def spawn(self, command: str, order: int, trace: int = 0, setup_only: bool = False) -> dict:
        index = len(self.samples)
        result_path = os.path.join(self.workdir, f"result-{index}.json")
        log_path = os.path.join(self.workdir, f"child-{index}.log")
        argv = [
            sys.executable, CHILD, "--command", command, "--order", str(order), "--seed", str(self.seed),
            "--trace", str(trace), "--workdir", self.workdir, "--result", result_path,
        ] + (["--setup-only"] if setup_only else [])
        with open(log_path, "wb") as log:
            spawned_at = time.monotonic()
            proc = subprocess.Popen(argv + ["--spawned-at", repr(spawned_at)], stdout=log, stderr=subprocess.STDOUT, cwd=ROOT)
            code, usage, timed_out = self._wait(proc)
            elapsed = time.monotonic() - spawned_at
        if code == 0 and os.path.exists(result_path):
            with open(result_path, encoding="utf-8") as fh:
                sample = json.load(fh)
        else:
            with open(log_path, encoding="utf-8", errors="replace") as fh:
                tail = fh.read()[-2000:]
            reason = "timed out" if timed_out else f"exited with {code}"
            sample = {"setup_s": elapsed, "wall_s": elapsed, "cpu_s": usage.ru_utime + usage.ru_stime, "failures": [f"child {reason}: {tail}"]}
        sample.update(
            command=command, order=order, trace=trace, setup_only=setup_only, peak_rss_mb=usage.ru_maxrss / 1024, elapsed_s=elapsed
        )
        self.samples.append(sample)
        return sample

    def _wait(self, proc: subprocess.Popen):
        """Exit code and resource usage of this one child, killed at the deadline."""
        timed_out = False
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() > self.deadline:
                    proc.kill()
                    _, status, usage = os.wait4(proc.pid, 0)
                    timed_out = True
                    break
                time.sleep(0.01)
        except BaseException:  # interrupted or terminated: leave no child behind
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, usage, timed_out


def end_to_end(runner: Runner, command: str, order: int, seconds: float) -> dict:
    """Metrics over timed runs started while one more, as long as the last,
    still ends within ``seconds`` together with the set-up-only children
    still wanted; at least MIN_RUNS timed runs after a warm-up run.  The
    warm-up run is gated like the others but its time is not used: the first
    check of an invocation took a median 17% longer than the rest.  The set-up-only
    children come after every timed run: a check run started right after a
    burst of them took 11-18% longer than one started after another timed
    run."""
    start = time.monotonic()
    while True:
        run_start = time.monotonic()
        runner.spawn(command, order)
        now = time.monotonic()
        timed = len(runner.samples)
        setup_each = statistics.median(s["elapsed_s"] - s["wall_s"] for s in runner.samples)
        predicted_end = 2 * now - run_start + max(0, SETUP_SAMPLES - timed - 1) * setup_each
        if timed > MIN_RUNS and predicted_end - start > seconds or predicted_end > runner.deadline:
            break
    runs = list(runner.samples)
    while len(runner.samples) < SETUP_SAMPLES and time.monotonic() + 2 * setup_each < runner.deadline:
        runner.spawn(command, order, setup_only=True)
    walls = [s["wall_s"] for s in runs[1:]] or [runs[0]["wall_s"]]
    return {
        "wall_s": statistics.quantiles(walls, n=10, method="inclusive")[8] if len(walls) > 1 else walls[0],
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in runs),
        "setup_s": statistics.median(s["setup_s"] for s in runner.samples),
    }


def per_layer(runner: Runner, command: str, order: int) -> dict:
    plain = runner.spawn(command, order)
    traced = runner.spawn(command, order, trace=1)
    layers = traced.get("layers", {"self_s": {}, "calls": {}, "carrier_bytes": 0})
    metrics = {f"{span}_s": layers["self_s"].get(span, 0.0) for span in SPANS}
    metrics.update({f"{span}_calls": layers["calls"].get(span, 0) for span in COUNTED})
    covered = sum(v for k, v in layers["self_s"].items() if k not in tracing.GLUE)
    metrics.update(
        {
            "cli.report_kb": plain.get("report_kb", 0.0),
            "matrices.tail_carrier_mb": layers["carrier_bytes"] / 2**20,
            "conditions.c16_noise_rows": plain.get("c16_noise_rows", 0),
            "process.cpu_s": plain["cpu_s"],
            "trace.overhead_s": traced["wall_s"] - plain["wall_s"],
            "trace.coverage": covered / traced["wall_s"] if traced["wall_s"] > 0 else 0.0,
        }
    )
    for cmd, orders in LADDER.items():
        for n in orders:
            sample = runner.spawn(cmd, n)
            metrics[f"ladder.{cmd}.n{n}.wall_s"] = sample["wall_s"]
            metrics[f"ladder.{cmd}.n{n}.peak_rss_mb"] = sample["peak_rss_mb"]
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "summakit", "__init__.py")):
        print(f"error: no summakit sources under {os.path.join(ROOT, 'src')}; run from a source checkout", file=sys.stderr)
        return 2
    command, order = WORKLOADS[args.workload]
    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".bench_work")) as workdir:
        runner = Runner(args.seed, workdir)
        if args.trace:
            metrics = per_layer(runner, command, order)
        else:
            metrics = end_to_end(runner, command, order, args.seconds)

    samples = runner.samples
    failed = sum(1 for s in samples if s["failures"])
    digests = {s["digest"] for s in samples if s["command"] == command and s["order"] == order and "digest" in s}
    if len(digests) > 1:
        print(f"error: the seed gave {len(digests)} different inputs", file=sys.stderr)
        failed = len(samples)
    if args.trace:
        metrics["failed_frac"] = failed / len(samples)
    for i, s in enumerate(samples):
        status = "ok" if not s["failures"] else "FAILED " + "; ".join(f.strip() for f in s["failures"])
        work = "set-up only" if s["setup_only"] else f"trace={s['trace']} wall_s={s['wall_s']:.4f}"
        print(f"run {i}: {s['command']} N={s['order']} {work} setup_s={s['setup_s']:.4f} peak_rss_mb={s['peak_rss_mb']:.1f} {status}")
    environment = next((s["environment"] for s in samples if "environment" in s), {})
    print("environment: " + json.dumps({**environment, "workload": args.workload, "N": order, "seed": args.seed, "inputs_sha256": sorted(digests)}))
    names = END_TO_END if not args.trace else per_layer_names()
    result = {
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit_of(name)} for name in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())
