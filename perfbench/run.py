"""levyestim benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload symmetric_tables --seed 0 \
        --seconds 20 --trace 0

Run from the repository root (any directory whose ``src/levyestim`` holds
the sources).  Set-up is timed over several fresh interpreters, each
importing levyestim and preparing the workload inputs up to its first
request; the median is ``setup_s``.  The measuring worker is one more fresh
interpreter.  Times are normalized to the reference host's full speed
(hostspeed.py).  ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
the per-layer table.  Exits 1 when an output check fails and 2 when the
sources are missing.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
WORKLOADS = ("symmetric_tables", "skewed_tables", "analyst_requests")
# set-up-only interpreters before and after the worker; spreading the
# samples over the run keeps one slow phase of a shared host from setting
# the median
SETUP_PROBES = 2
WORKER_LIMIT_S = 150.0    # a worker still running after this is killed


def _env() -> dict:
    env = dict(os.environ)
    # single process, one BLAS thread, one Monte Carlo worker
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["LEVY_ESTIM_THREADS"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def _start(args, extra=()) -> tuple[subprocess.Popen, float]:
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            env=_env())
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        if line.strip() != "ready":
            raise RuntimeError(f"worker failed during set-up: {line!r}")
        # the host's slowdown right after set-up: normalized like every
        # other time (see hostspeed.py)
        slowdown = float(proc.stdout.readline()) / hostspeed.PROBE_NOMINAL_S
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    return proc, elapsed / slowdown


def _probe(args) -> float:
    proc, elapsed = _start(args, ("--setup-only",))
    try:
        proc.communicate()
    finally:
        proc.kill()
        proc.wait()
    return elapsed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (HERE.parent / "src" / "levyestim" / "__init__.py").is_file():
        print("error: levyestim sources not found under src/",
              file=sys.stderr)
        return 2

    # a terminated benchmark still stops and reaps its worker (finally)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    probes = 0 if args.trace else SETUP_PROBES
    setups = [_probe(args) for _ in range(probes)]
    proc, elapsed = _start(args)
    setups.append(elapsed)
    timer = threading.Timer(WORKER_LIMIT_S, proc.kill)
    timer.start()
    try:
        out, _ = proc.communicate()
    finally:
        timer.cancel()
        proc.kill()
        proc.wait()
    setups += [_probe(args) for _ in range(probes)]
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"error: worker exited {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}

    summary = result["summary"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: "
          f"{summary['rounds']} rounds, {result['attempted']} ops, "
          f"{summary['latency_samples']} latency samples, "
          f"set-up samples {[round(s, 3) for s in setups]}")
    print(f"# ops/s per round: {summary['round_rates']}")
    print(f"# host slowdown {summary['mean_slowdown']:.3f} (mean over requests); "
          f"raw ops/s {summary['raw_ops_per_s']:.6g}; "
          f"RSS at end {summary['rss_mb_at_end']:.1f} MB")
    print(f"# failed_ops_ratio {summary['failed_ops_ratio']:.6g} "
          f"(ended in an EstimationError {summary['dropped']}, "
          f"failed ops {result['failed']})")
    for name, metric in metrics.items():
        print(f"#   {name:32s} {metric['value']:>14.6g} {metric['unit']}")
    if summary["absent"]:
        print(f"# absent trace targets: {', '.join(summary['absent'])}")
    for problem in summary["problems"]:
        print(f"# CHECK FAILED: {problem}")
    print("# summary " + json.dumps(summary))
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
