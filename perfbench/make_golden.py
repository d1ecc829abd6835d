"""Rewrite the golden summary rows of the table workloads.

    python3 perfbench/make_golden.py

Runs one round of each table workload at the default seed and writes its
rows to perfbench/golden/<workload>.csv, with an "sd" column holding each
estimator's spread over REFERENCE_REPS replications (used for the
standard-error band at other seeds).  Only for a commit whose table numbers
are meant to change: every later run is checked against these files.
"""

import math
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def reference_sd(workload) -> dict:
    """Estimator spread per row key over REFERENCE_REPS replications."""
    sd = {}
    for argv, out in workload.requests:
        argv = list(argv)
        argv[argv.index("--reps") + 1] = str(workloads.REFERENCE_REPS)
        if workloads.invoke(argv) != 0:
            raise SystemExit(f"reference run failed: {' '.join(argv)}")
        for row in workloads.read_rows(out):
            var = row["rmse"] ** 2 - (row["mean"] - row["truth"]) ** 2
            sd[workloads.row_key(row)] = math.sqrt(max(var, 0.0))
    return sd


if __name__ == "__main__":
    out_dir = workloads.GOLDEN_DIR
    out_dir.mkdir(exist_ok=True)
    for name in workloads.TABLE_WORKLOADS:
        workdir = HERE / ".work" / f"golden-{name}"
        workload = workloads.make_workload(name, workloads.DEFAULT_SEED,
                                           workdir)
        rows = workload.all_rows()
        sd = reference_sd(workload)
        for row in rows:
            row["sd"] = sd[workloads.row_key(row)]
        workloads.write_rows(out_dir / f"{name}.csv", rows)
        shutil.rmtree(workdir)
        print(f"wrote {out_dir / f'{name}.csv'}")
