"""The three benchmark workloads and their output checks.

Every workload is a sequence of in-process ``levyestim.cli.main`` requests
built from the benchmark seed alone; the program sees only the generated
argument lists and the files earlier requests wrote.  A *round* is one pass
over a workload's request list; rounds repeat until the run's time is up.

* ``symmetric_tables``: the full table1 + table2 designs (132 cells) at
  40 replications, one ``table`` request per (table, beta, n).
* ``skewed_tables``: the full table3 + table4 designs (96 cells), table3 at
  20 replications per (beta, n), table4 at 5 per beta (TABLE_WORKLOADS).
* ``analyst_requests``: one client in a closed loop that simulates every
  model to CSV, estimates with every method on those files, and asks for
  Fisher / density dumps at indices not seen earlier in the run.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

from levyestim import cli, mc
from levyestim.errors import EstimationError

import hostspeed
import spans

DEFAULT_SEED = 0

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# table id -> (true indices, sample sizes); the paper's designs
_TABLE_GRID = {
    "table1": ((0.8, 1.0, 1.5, 1.8), (501, 1001, 2001)),
    "table2": ((0.8, 1.0, 1.5, 1.8), (501, 1001, 2001)),
    "table3": ((1.2, 1.5, 1.7, 1.9), (500, 1000, 2000, 5000)),
    "table4": ((1.2, 1.5, 1.7, 1.9), (500, 1000, 2000, 5000)),
}

# workload -> ((table id, replications, one request per n?), ...).
# table4 replications cost about five times table3's (ScalePath), so
# table3 runs at 4x the replications, one request per (beta, n), and table4
# one request per beta covering all n: the four table4 requests are then
# the slowest 20% of a round and the 90th percentile falls in their middle
# instead of on the edge of a small cluster.
TABLE_WORKLOADS = {
    "symmetric_tables": (("table1", 40, True), ("table2", 40, True)),
    "skewed_tables": (("table3", 20, True), ("table4", 5, False)),
}

# A cell mean at a non-default seed must lie within this many standard
# errors of the golden mean.  The standard error of the difference of the
# two Monte Carlo means uses the golden "sd" column, the spread of the
# estimator over REFERENCE_REPS replications: at 5-40 replications a
# per-run spread is itself too noisy to set a band.
BAND_Z = 8.0
REFERENCE_REPS = 200

_ROW_KEY = ("table", "estimator", "param", "n")


def master_seed(seed: int) -> int:
    """Monte Carlo master seed of a benchmark seed; the default seed runs
    the published master seed."""
    return mc.DEFAULT_MASTER_SEED + int(seed)


def invoke(argv: list[str]) -> int:
    """One in-process CLI request; returns its exit code."""
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse flag errors
        return exc.code if isinstance(exc.code, int) else 1


@dataclass
class RoundResult:
    latencies: list = field(default_factory=list)  # raw seconds per request
    probes: list = field(default_factory=list)  # host probe around requests
    ops: int = 0          # replications or requests attempted
    failed: int = 0       # ops with a nonzero exit or a failed check
    dropped: int = 0      # replications or estimates ending in an EstimationError
    problems: list = field(default_factory=list)
    layers: tuple | None = None  # (self seconds, counts) of a traced round

    @property
    def busy_s(self) -> float:
        return sum(self.latencies)

    @property
    def normalized(self) -> list[float]:
        """Request times at the reference host's full speed."""
        return [lat / slow for lat, slow in
                zip(self.latencies, hostspeed.slowdowns(self.probes))]

    def timed(self, request) -> int:
        """Run one request, timing it and probing the host before it."""
        self.probes.append(hostspeed.probe())
        start = time.perf_counter()
        code = request()
        self.latencies.append(time.perf_counter() - start)
        return code

    @property
    def unsuccessful(self) -> int:
        """Ops that count toward failed_ops_ratio."""
        return min(self.ops, self.dropped + self.failed)


# ---------------------------------------------------------------------------
# summary rows and the golden check

def read_rows(path) -> list[dict]:
    """Parse a summary CSV written by ``levyestim table``."""
    with open(path, encoding="utf8") as fh:
        lines = [line for line in fh if line.strip() and not line.startswith("#")]
    rows = []
    for rec in csv.DictReader(lines):
        rows.append({
            "table": rec["table"], "estimator": rec["estimator"],
            "param": rec["param"], "n": int(rec["n"]),
            "truth": float(rec["truth"]), "mean": float(rec["mean"]),
            "rmse": float(rec["rmse"]), "failures": int(rec["failures"]),
            "replications": int(rec["replications"]),
        })
        if rec.get("sd"):
            rows[-1]["sd"] = float(rec["sd"])
    return rows


def write_rows(path, rows: list[dict]) -> None:
    cols = ("table", "estimator", "param", "n", "truth", "mean", "rmse",
            "failures", "replications", "sd")
    with open(path, "w", encoding="utf8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=cols, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow({c: row[c] for c in cols})


def row_key(row: dict) -> tuple:
    return tuple(row[k] for k in _ROW_KEY)


def _within_sixth_digit(value: float, ref: float) -> bool:
    """|value - ref| at most one unit in the 6th significant digit of ref."""
    if math.isnan(ref) or math.isnan(value):
        return math.isnan(ref) and math.isnan(value)
    if ref == 0.0:
        return value == 0.0
    unit = 10.0 ** (math.floor(math.log10(abs(ref))) - 5)
    return abs(value - ref) <= unit * (1.0 + 1e-9)


def check_rows(rows: list[dict], golden: list[dict], exact: bool) -> list[str]:
    """Compare summary rows with the golden rows.

    exact (default seed): same cells, ``failures`` equal, ``mean`` and
    ``rmse`` within one unit in the 6th significant digit.  Otherwise each
    mean must lie within BAND_Z standard errors of the golden mean; cells
    where every replication failed are not compared.
    """
    problems = []
    got = {row_key(r): r for r in rows}
    want = {row_key(r): r for r in golden}
    for key in sorted(set(want) ^ set(got), key=str):
        side = "missing" if key in want else "unexpected"
        problems.append(f"{side} row {key}")
    for key in sorted(set(want) & set(got), key=str):
        row, ref = got[key], want[key]
        if row["replications"] != ref["replications"]:
            problems.append(f"{key}: replications {row['replications']} != "
                            f"{ref['replications']}")
            continue
        if exact:
            if row["failures"] != ref["failures"]:
                problems.append(f"{key}: failures {row['failures']} != "
                                f"{ref['failures']}")
            for col in ("mean", "rmse"):
                if not _within_sixth_digit(row[col], ref[col]):
                    problems.append(f"{key}: {col} {row[col]!r} != "
                                    f"{ref[col]!r}")
            continue
        kept = row["replications"] - row["failures"]
        kept_ref = ref["replications"] - ref["failures"]
        if kept == 0 or kept_ref == 0:
            continue  # every replication failed: no mean to compare
        band = BAND_Z * ref["sd"] * math.sqrt(1.0 / kept + 1.0 / kept_ref)
        if abs(row["mean"] - ref["mean"]) > band:
            problems.append(f"{key}: mean {row['mean']!r} outside "
                            f"{ref['mean']!r} +- {band:.3g}")
    return problems


def cell_counts(rows: list[dict]) -> tuple[int, int]:
    """(replications attempted, replications dropped) over distinct cells."""
    cells = {(r["table"], r["estimator"], r["n"]): r for r in rows}
    return (sum(r["replications"] for r in cells.values()),
            sum(r["failures"] for r in cells.values()))


# ---------------------------------------------------------------------------
# table workloads

class TableWorkload:
    """Full table designs at reduced replications, one request per
    (table, beta, n) or per (table, beta)."""

    def __init__(self, name: str, seed: int, workdir: Path,
                 golden_path: Path | None = None):
        self.name = name
        self.seed = int(seed)
        self.workdir = workdir
        self.requests = []  # (argv, output path)
        for table_id, reps, per_n in TABLE_WORKLOADS[name]:
            betas, sizes = _TABLE_GRID[table_id]
            for beta in betas:
                for n in (sizes if per_n else (None,)):
                    out = workdir / f"{table_id}_b{beta:g}_n{n}.csv"
                    argv = ["table", "--id", table_id, "--reps", str(reps),
                            "--seed", str(master_seed(seed)),
                            "--beta", repr(beta), "--out", str(out)]
                    if n is not None:
                        argv += ["--n", str(n)]
                    self.requests.append((argv, out))
        path = golden_path or GOLDEN_DIR / f"{name}.csv"
        self.golden = read_rows(path) if path.exists() else None
        self._first_outputs = None

    def run_round(self, index: int, tracer=None) -> RoundResult:
        result = RoundResult()
        codes = []
        for op, (argv, _) in enumerate(self.requests):
            if tracer is not None:
                tracer.op = op
            codes.append(result.timed(lambda: invoke(argv)))
        result.probes.append(hostspeed.probe())
        outputs, rows = [], []
        for code, (argv, out) in zip(codes, self.requests):
            if code != 0:
                result.problems.append(f"exit {code}: {' '.join(argv)}")
                result.ops += 1  # at least one replication was attempted
                outputs.append("")
                continue
            outputs.append(out.read_text(encoding="utf8"))
            rows += read_rows(out)
        ops, result.dropped = cell_counts(rows)
        result.ops += ops
        if self._first_outputs is None:
            self._first_outputs = outputs
            result.problems += self.check(rows)
        elif outputs != self._first_outputs:
            result.problems.append("output differs from the first round "
                                   "at the same seed")
        if result.problems:
            result.failed = result.ops
        return result

    def check(self, rows: list[dict]) -> list[str]:
        if self.golden is None:
            return [f"no golden rows for {self.name}"]
        return check_rows(rows, self.golden, exact=self.seed == DEFAULT_SEED)

    def all_rows(self) -> list[dict]:
        """Rows of one round, for writing the golden copy."""
        self.run_round(0)
        return [r for _, out in self.requests for r in read_rows(out)]


# ---------------------------------------------------------------------------
# analyst requests

def _strict_json(text: str):
    def reject(name):
        raise ValueError(f"non-finite JSON constant {name}")
    return json.loads(text, parse_constant=reject)


def _finite_csv(path, expect_rows: int) -> str | None:
    with open(path, encoding="utf8") as fh:
        lines = fh.read().splitlines()
    if len(lines) != expect_rows + 1:
        return f"{path.name}: {len(lines) - 1} rows, expected {expect_rows}"
    for line in lines[1:]:
        if not all(math.isfinite(float(v)) for v in line.split(",")):
            return f"{path.name}: non-finite value in {line!r}"
    return None


def _check_increments(path: Path, n: int) -> str | None:
    values = []
    with open(path, encoding="utf8") as fh:
        for line in fh:
            if line.strip() and not line.startswith("#"):
                values.append(float(line))
    if len(values) != n:
        return f"{path.name}: {len(values)} increments, expected {n}"
    if not all(math.isfinite(v) for v in values):
        return f"{path.name}: non-finite increment"
    return None


def _check_report(path: Path, method: str) -> str | None:
    try:
        report = _strict_json(path.read_text(encoding="utf8"))
    except ValueError as exc:
        return f"{path.name}: not strict JSON ({exc})"
    if report.get("method") != method:
        return f"{path.name}: method {report.get('method')!r} != {method!r}"
    estimates = [report.get(k) for k in ("beta_hat", "sigma_hat", "gamma_hat")]
    estimates.append(report.get("extra", {}).get("delta_hat"))
    estimates = [v for v in estimates if v is not None]
    if not estimates or not all(math.isfinite(v) for v in estimates):
        return f"{path.name}: estimates not finite: {estimates}"
    return None


# EstimationError codes: an estimator with no value for this sample, a
# correct and typed outcome of ``estimate`` (exit 1, JSON on stderr)
ESTIMATION_CODES = frozenset(spans.error_codes(EstimationError))


def _estimation_error(stderr: str) -> bool:
    """Whether the last stderr line is a strict-JSON EstimationError."""
    lines = stderr.strip().splitlines()
    try:
        payload = _strict_json(lines[-1]) if lines else None
    except ValueError:
        return False
    return isinstance(payload, dict) and payload.get("code") in ESTIMATION_CODES


def _positivity(rng: random.Random, beta: float) -> float:
    # inside the admissible (1 - 1/beta, 1/beta), away from both ends
    half = 1.0 / beta - 0.5
    return round(0.5 + rng.uniform(-0.6, 0.6) * half, 6)


class AnalystWorkload:
    """Closed loop, one client: every request waits for the previous one.

    A round holds 20 requests: 6 simulate (every model), 8 estimate (every
    method, on the files just written), 2 density dumps of 101 points and
    4 Fisher dumps.  An ``estimate`` that exits 1 with a typed
    EstimationError is a correct answer and counts as dropped.  Simulate/estimate are I/O bound (~6-8 ms), density and
    Fisher are quadrature bound (~45 ms and ~90-120 ms), so the median falls
    inside the I/O-bound 70% and the 90th percentile inside the Fisher 20%.
    Density and Fisher indices are drawn fresh, never repeating within a
    run, so the information-integral caches give no free hits.
    """

    name = "analyst_requests"
    DENSITY_POINTS = 101

    def __init__(self, seed: int, workdir: Path):
        self.seed = int(seed)
        self.workdir = workdir
        self.seen_betas: set[float] = set()

    def _fresh_beta(self, rng: random.Random) -> float:
        while True:
            beta = round(rng.uniform(1.2, 1.9), 6)
            if beta not in self.seen_betas:
                self.seen_betas.add(beta)
                return beta

    def requests(self, index: int) -> list[tuple]:
        """(argv, check) pairs of round ``index``; check() -> problem|None."""
        rng = random.Random(f"analyst:{self.seed}:{index}")
        d = self.workdir
        reqs = []

        def seed() -> str:
            return str(rng.randrange(2 ** 31))

        def simulate(name, model, params, n, extra=()):
            out = d / f"{name}.csv"
            argv = ["simulate", "--model", model, "--params", params,
                    "--n", str(n), "--seed", seed(), "--out", str(out), *extra]
            reqs.append((argv, lambda: _check_increments(out, n)))
            return out

        def estimate(src, method, extra=()):
            out = d / f"{src.stem}-{method}.json"
            argv = ["estimate", "--in", str(src), "--method", method,
                    "--out", str(out), *extra]
            reqs.append((argv, lambda: _check_report(out, method)))

        # Every request must succeed.  The pipeline needs its symmetrized
        # index estimate below 2: at n = 2001 its spread is ~0.1, so the
        # true index stays <= 1.35.  The bipower root must stay inside
        # (1, 2): at n = 2000 its spread is ~0.06, so indices stay in
        # [1.35, 1.55] (n = 1000 and index 1.6 failed about once in 300
        # rounds with root_out_of_bracket).
        b = rng.uniform(1.15, 1.35)
        stable = simulate(
            "stable", "stable",
            f"beta={b:.6f},sigma=0.5,rho={rng.uniform(-0.5, 0.5):.6f},"
            "gamma=-0.5", 2001, ("--T", "5"))
        b = rng.uniform(1.35, 1.55)
        skewed = simulate("skewed", "stable",
                          f"beta={b:.6f},p_pos={_positivity(rng, b)}",
                          2000, ("--T", "1"))
        b = rng.uniform(1.35, 1.55)
        cosine = simulate("cosine", "timevarying",
                          f"beta={b:.6f},p_pos={_positivity(rng, b)}",
                          2000, ("--path", "cosine"))
        b = rng.uniform(1.35, 1.55)
        constant = simulate("constant", "timevarying",
                            f"beta={b:.6f},p_pos={_positivity(rng, b)},"
                            "sigma=0.8", 2000, ("--path", "constant"))
        gamma = simulate("gamma", "gamma",
                         f"delta={rng.uniform(1, 3):.6f},"
                         f"gamma={rng.uniform(1, 3):.6f}", 2000, ("--T", "200"))
        ig = simulate("ig", "ig",
                      f"delta={rng.uniform(1, 3):.6f},"
                      f"gamma={rng.uniform(1, 3):.6f}", 2000, ("--T", "200"))
        estimate(stable, "log")
        estimate(stable, "frac", ("--p", "0.1"))
        estimate(stable, "pipeline", ("--q", "0.25"))
        estimate(skewed, "sign-bipower")
        estimate(cosine, "tripower")
        estimate(constant, "sign-bipower")
        estimate(gamma, "gamma-mle")
        estimate(ig, "ig-mle")
        for k in range(2):
            out = d / f"density{k}.csv"
            reqs.append((["density", "--beta", str(self._fresh_beta(rng)),
                          "--points", str(self.DENSITY_POINTS),
                          "--out", str(out)],
                         lambda out=out: _finite_csv(out, self.DENSITY_POINTS)))
        for k in range(4):
            out = d / f"fisher{k}.csv"
            reqs.append((["fisher", "--beta", str(self._fresh_beta(rng)),
                          "--out", str(out)],
                         lambda out=out: _finite_csv(out, 1)))
        # spread the quadrature-bound requests through the round
        return reqs[:6] + reqs[14:16] + reqs[6:10] + reqs[16:18] \
            + reqs[10:14] + reqs[18:]

    def run_round(self, index: int, tracer=None) -> RoundResult:
        result = RoundResult()
        for op, (argv, check) in enumerate(self.requests(index)):
            if tracer is not None:
                tracer.op = op
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr):
                code = result.timed(lambda: invoke(argv))
            result.ops += 1
            if code == 0:
                problem = check()
            elif argv[0] == "estimate" and _estimation_error(stderr.getvalue()):
                # rare heavy-tail samples (bipower index estimate above 2
                # at n = 2000, about once in 12000 estimates): counted in
                # failed_ops_ratio, like dropped Monte Carlo replications
                result.dropped += 1
                problem = None
            else:
                problem = f"exit {code}: {' '.join(argv)}"
            if problem:
                result.problems.append(problem)
                result.failed += 1
        result.probes.append(hostspeed.probe())
        return result


def make_workload(name: str, seed: int, workdir: Path):
    workdir.mkdir(parents=True, exist_ok=True)
    if name in TABLE_WORKLOADS:
        return TableWorkload(name, seed, workdir)
    if name == AnalystWorkload.name:
        return AnalystWorkload(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")
