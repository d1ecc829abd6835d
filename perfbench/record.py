"""Measure every workload over several seeds and append a trajectory entry.

    python3 perfbench/record.py [--note TEXT]

For each workload: ten timed runs (``--trace 0``), seeds 1 to 10, reduced
to median and quartiles per end-to-end metric, with the spread
(q3 - q1) / median printed next to the metric's bound from BENCHMARK.json;
then one traced run at the default seed for the per-layer table.  Each
timed run also keeps its raw (not normalized) ops/s and the host slowdown
it was normalized by.  The entry (git sha, machine, results) is appended
to perfbench/trajectory.json; an entry for a sha already recorded is marked
``"repeat": true``.  Run from the repository root; takes about
10 x workloads x (run_seconds + 10 s).
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRAJECTORY = HERE / "trajectory.json"
SEEDS = range(1, 11)


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    """(result line, summary line) of one run.py run."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if proc.returncode != 0 or not result["correct"]:
        sys.exit(f"{workload} seed {seed} failed:\n{proc.stdout[-3000:]}")
    summary = next(json.loads(line[len("# summary "):]) for line in lines
                   if line.startswith("# summary "))
    return result, summary


def _machine() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def _sha() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--note", default="")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf8"))
    seconds = spec["run_seconds"]
    history = (json.loads(TRAJECTORY.read_text(encoding="utf8"))
               if TRAJECTORY.exists() else [])
    sha = _sha()
    entry = {
        "sha": sha,
        "repeat": any(e["sha"] == sha for e in history),
        "date": datetime.datetime.now(datetime.timezone.utc)
                        .strftime("%Y-%m-%dT%H:%M:%SZ"),
        "note": args.note,
        "machine": _machine(),
        "run_seconds": seconds,
        "seeds": list(SEEDS),
        "workloads": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {}
        raw = {"raw_ops_per_s": [], "mean_slowdown": []}
        for seed in SEEDS:
            result, summary = _run(workload, seed, seconds, trace=0)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            for name, vals in raw.items():
                vals.append(summary[name])
        end_to_end = {}
        for metric in spec["end_to_end"]:
            vals = values[metric["name"]]
            q1, median, q3 = statistics.quantiles(vals, n=4)
            median = statistics.median(vals)
            spread = (q3 - q1) / median
            end_to_end[metric["name"]] = {
                "unit": metric["unit"], "median": median, "q1": q1,
                "q3": q3, "spread": spread, "values": vals}
            print(f"{workload:18s} {metric['name']:16s} median {median:12.5g}"
                  f"  spread {spread:.4f}  bound {metric['bound']}",
                  flush=True)
        traced, _ = _run(workload, 0, seconds, trace=1)
        entry["workloads"][workload] = {
            "end_to_end": end_to_end,
            "raw": raw,
            "per_layer": {k: m["value"] for k, m in traced["metrics"].items()},
        }
    history.append(entry)
    TRAJECTORY.write_text(json.dumps(history, indent=1) + "\n",
                          encoding="utf8")
    print(f"appended entry {len(history)} to {TRAJECTORY}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
