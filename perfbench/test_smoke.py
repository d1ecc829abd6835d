"""Smoke test of the benchmark itself, at the smallest scale it runs.

    python3 -m pytest perfbench/test_smoke.py -q

Runs every workload for one round through run.py (timed, and traced for
one workload), checks the result line against BENCHMARK.json, and shows
that a perturbed golden row makes the output check fail.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf8"))


def _run(workload: str, trace: int) -> tuple[int, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "0.1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=180)
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_workload_runs_and_checks(workload):
    code, result = _run(workload, trace=0)
    assert code == 0 and result["correct"], result
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for spec in SPEC["end_to_end"]:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"] and metric["value"] > 0


def test_traced_run_reports_every_layer():
    code, result = _run("analyst_requests", trace=1)
    assert code == 0 and result["correct"], result
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    assert metrics["trace.absent_targets"] == 0
    assert metrics["cli.requests"] == 20
    assert metrics["stable_density.points"] == 2 * 101
    # two time-varying simulations of n = 2000: both ends of every block
    assert metrics["stable_core.primitive_evals"] == 2 * 2 * 2000


def test_perturbed_golden_row_fails_the_check(tmp_path):
    golden_path = workloads.GOLDEN_DIR / "symmetric_tables.csv"
    golden = workloads.read_rows(golden_path)
    assert workloads.check_rows(copy.deepcopy(golden), golden, exact=True) == []

    for column, change in (("mean", lambda v: v * (1 + 1e-4)),
                           ("rmse", lambda v: v * (1 - 1e-4)),
                           ("failures", lambda v: v + 1)):
        perturbed = copy.deepcopy(golden)
        perturbed[7][column] = change(perturbed[7][column])
        problems = workloads.check_rows(golden, perturbed, exact=True)
        assert len(problems) == 1 and column in problems[0]

    # the band check at other seeds: a mean 10 standard errors off fails
    shifted = copy.deepcopy(golden)
    row = shifted[3]
    row["mean"] += 10 * row["sd"] * (2.0 / row["replications"]) ** 0.5
    assert workloads.check_rows(golden, shifted, exact=False) != []
    assert workloads.check_rows(golden, golden, exact=False) == []

    # end to end: one real round against a golden copy with one row off
    perturbed = copy.deepcopy(golden)
    perturbed[0]["mean"] *= 1 + 1e-3
    bad_golden = tmp_path / "golden.csv"
    workloads.write_rows(bad_golden, perturbed)
    workload = workloads.TableWorkload("symmetric_tables", 0, tmp_path,
                                       golden_path=bad_golden)
    result = workload.run_round(0)
    assert result.failed == result.ops > 0
    assert len(result.problems) == 1 and "mean" in result.problems[0]
