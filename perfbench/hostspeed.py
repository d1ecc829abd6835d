"""Host-speed probe used to normalize the benchmark's times.

The reference host (a 2-vCPU VM on a shared machine) switches between
speed levels for seconds to minutes at a time: identical benchmark rounds
take 0.64 s, 0.93 s or 1.25 s, CPU time equal to wall time.  Raw times of
two runs minutes apart therefore differ by up to 40%, far beyond any bound
a regression check could use.

``probe()`` times a fixed piece of work that does not touch levyestim and
mixes what the workloads do: interpreted loops and calls, small NumPy
array arithmetic, Generator construction and draws, float formatting and
parsing.  The workloads run it around every request; a request's
*normalized* time is its raw time divided by ``probe time /
PROBE_NOMINAL_S``, the host's slowdown at that moment.  On the reference
host this cut the round-to-round variation of identical rounds from 17-19%
to 3.5-7% (coefficient of variation).  Normalized times read as "seconds at
the reference host's full speed".  The probe never calls levyestim, but it
shares the process (heap, CPU caches) with it, so run.py also reports each
run's raw throughput and mean slowdown for checking the normalization.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

#: Probe time at the reference host's fastest level: the 1st percentile of
#: 15000 probes (median 1.56 ms) on an Intel Xeon (Sapphire Rapids) VM with
#: 2 vCPUs under KVM, Python 3.11, NumPy 2.4.
PROBE_NOMINAL_S = 0.90e-3

_X = np.random.default_rng(0).standard_normal(2000)
_TEXT = [repr(float(v)) for v in _X[:300]]


def _profile(t: float) -> float:
    return 0.4 * (math.cos(2.0 * math.pi * t) + 1.5)


def _work() -> float:
    acc = 0
    for i in range(3000):
        acc += i * i
    total = float(acc % 7)
    for j in range(1000):
        total += _profile(j / 1000.0)
    for _ in range(20):
        y = np.abs(_X) ** 0.25
        total += float(np.sum(y[:-1] * y[1:]))
    for k in range(10):
        total += float(np.random.default_rng(k).uniform(size=500).sum())
    total += sum(float(s) for s in "\n".join(_TEXT).split("\n"))
    return total


def probe() -> float:
    """Seconds one run of the fixed probe work takes right now."""
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start


def slowdowns(probes: list[float]) -> list[float]:
    """Host slowdown for each of ``len(probes) - 1`` requests, given the
    probe times before each request and after the last: the median of the
    probes before the previous request, before and after this one, over
    PROBE_NOMINAL_S (a single interrupted probe does not count)."""
    return [statistics.median(probes[max(0, i - 1):i + 2]) / PROBE_NOMINAL_S
            for i in range(len(probes) - 1)]
