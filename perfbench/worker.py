"""One benchmark process: import levyestim, prepare a workload, run rounds.

Started by run.py, which times this interpreter from spawn to the
``ready`` line as set-up.  Prints ``ready`` once the workload is prepared,
then runs rounds until ``--seconds`` have passed and prints one JSON object
as its last line.  With ``--trace 1`` rounds alternate between untraced and
traced (wrappers installed), so the per-layer table and the tracing
overhead come from the same run.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
# peak_rss_mb is read after this many rounds, a fixed amount of work: the
# density point caches grow with every fresh index, so the peak at the end
# of a timed run would depend on how fast the host happened to be
RSS_ROUNDS = 5


def _quantile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def _rate(rounds, normalized=True) -> float:
    """Operations per second of (normalized) request time over ``rounds``."""
    busy = sum(sum(r.normalized) if normalized else r.busy_s for r in rounds)
    return sum(r.ops for r in rounds) / busy


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_metrics(rounds, rss_mb: float) -> dict:
    latencies = [lat for r in rounds for lat in r.normalized]
    return {
        "ops_per_s": (_rate(rounds), "1/s"),
        "latency_p50_ms": (_quantile(latencies, 50) * 1e3, "ms"),
        "latency_p90_ms": (_quantile(latencies, 90) * 1e3, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def layer_metrics(tracer, plain, traced) -> dict:
    from spans import COUNT_METRICS, ERROR_CODES, TIME_METRICS

    # self seconds per round at the reference host's full speed
    per_round = [({layer: s / (r.busy_s / sum(r.normalized))
                   for layer, s in r.layers[0].items()}, r.layers[1])
                 for r in traced]
    out = {}
    for metric, layer in TIME_METRICS.items():
        out[metric] = (statistics.fmean(s.get(layer, 0.0)
                                        for s, _ in per_round), "s")
    # counts of the first traced round: they repeat exactly for a seed
    counts = per_round[0][1]
    for metric in COUNT_METRICS:
        out[metric] = (counts.get(metric, 0), "count")
    for code in ERROR_CODES + ("other",):
        out[f"errors.{code}"] = (counts.get(f"errors.{code}", 0), "count")
    attempted = counts.get("mc.reps_attempted", 0)
    out["mc.kept_ratio"] = (counts.get("mc.reps_kept", 0) / attempted
                            if attempted else 0.0, "ratio")
    out["trace.overhead_ratio"] = (_rate(plain) / _rate(traced), "ratio")
    out["trace.round_s"] = (statistics.fmean(sum(r.normalized)
                                             for r in traced), "s")
    out["trace.absent_targets"] = (len(tracer.absent), "count")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "levyestim" / "__init__.py").is_file():
        print(f"error: no levyestim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import levyestim.cli  # noqa: F401  (set-up includes this import)

    import workloads

    workdir = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    try:
        workload = workloads.make_workload(args.workload, args.seed, workdir)
        print("ready", flush=True)
        # the host's speed at the end of set-up, for run.py to normalize it
        print(statistics.median(hostspeed.probe() for _ in range(3)),
              flush=True)
        if args.setup_only:
            return 0
        return run(workload, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(workload, args) -> int:
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
    rounds = []
    rss_mb = None
    deadline = time.perf_counter() + args.seconds
    while True:
        index = len(rounds)
        traced = tracer is not None and index % 2 == 1
        if traced:
            mark = tracer.mark()
            tracer.install()
            try:
                rnd = workload.run_round(index, tracer)
            finally:
                tracer.uninstall()
            rnd.layers = tracer.since(mark)
        else:
            rnd = workload.run_round(index)
        rounds.append(rnd)
        if len(rounds) == RSS_ROUNDS:
            rss_mb = _rss_mb()
        if time.perf_counter() >= deadline and len(rounds) >= RSS_ROUNDS:
            break

    ops = sum(r.ops for r in rounds)
    failed = sum(r.failed for r in rounds)
    problems = [p for r in rounds for p in r.problems]
    ratio = sum(r.unsuccessful for r in rounds) / ops
    if tracer is None:
        metrics = timed_metrics(rounds, rss_mb)
    else:
        plain = [r for r in rounds if r.layers is None]
        traced = [r for r in rounds if r.layers is not None]
        metrics = layer_metrics(tracer, plain, traced)
        metrics["failed_ops_ratio"] = (ratio, "ratio")
        trace_dir = HERE / ".work" / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        tracer.dump(trace_dir / f"{args.workload}-seed{args.seed}.jsonl")
    summary = {
        "rounds": len(rounds),
        "round_rates": [round(_rate([r]), 3) for r in rounds],
        "raw_ops_per_s": _rate(rounds, normalized=False),
        "mean_slowdown": statistics.fmean(
            s for r in rounds for s in hostspeed.slowdowns(r.probes)),
        "rss_mb_at_end": _rss_mb(),
        "latency_samples": sum(len(r.latencies) for r in rounds),
        "failed_ops_ratio": ratio,
        "dropped": sum(r.dropped for r in rounds),
        "problems": problems[:20],
        "absent": tracer.absent if tracer else [],
    }
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": ops,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "summary": summary,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
