"""Serialization: increment CSV files, estimate reports, summary tables.

Increment files are one value per line, full repr precision, preceded by
'#'-prefixed key=value metadata lines that always include h and n.  Summary
tables are plain CSV with a '#'-prefixed config echo, or JSON; floats are
written with 6 significant digits.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DataError, EstimationError, plain
from .stable_core import IncrementSample

__all__ = [
    "EstimateReport",
    "check_finite",
    "SummaryRow",
    "write_increments",
    "read_increments",
    "write_summary",
    "write_summary_json",
    "read_summary",
    "SUMMARY_COLUMNS",
]


def _meta_value(raw: str):
    try:
        as_float = float(raw)
    except ValueError:
        return raw
    if as_float.is_integer() and "." not in raw and "e" not in raw.lower():
        return int(raw)
    return as_float


def write_increments(path, sample: IncrementSample) -> None:
    """Write an increment sample: '#' k=v metadata lines, then one value
    per line at full precision."""
    lines = [f"# h={sample.h!r}", f"# n={sample.n}"]
    for key, val in sorted(sample.meta.items()):
        if key in ("h", "n"):
            continue
        lines.append(f"# {key}={val!r}" if isinstance(val, str) else f"# {key}={val}")
    lines.extend(map(repr, sample.values.tolist()))
    with open(path, "w", encoding="utf8") as fh:
        fh.write("\n".join(lines) + "\n")


def _read_line(lineno: int, line: str, meta: dict, values: list) -> None:
    # the format rule for one line: blank lines are skipped, '#' lines are
    # key=value metadata, any other line is one finite value
    line = line.strip()
    if not line:
        return
    if line.startswith("#"):
        body = line[1:].strip()
        if "=" not in body:
            raise DataError("metadata line is not key=value",
                            line=lineno, text=line)
        key, _, raw = body.partition("=")
        key = key.strip()
        raw = raw.strip()
        if raw.startswith("'") and raw.endswith("'") and len(raw) >= 2:
            meta[key] = raw[1:-1]
        else:
            meta[key] = _meta_value(raw)
        return
    try:
        value = float(line)
    except ValueError as exc:
        raise DataError("unparseable increment value",
                        line=lineno, text=line) from exc
    if not math.isfinite(value):
        raise DataError("non-finite increment value",
                        line=lineno, text=line)
    values.append(value)


def _increment_sample(path, meta: dict, values) -> IncrementSample:
    # the file-level rules, once every line has been read: a finite h, n
    # (when given) an integer equal to the count, and at least one value
    if "h" not in meta:
        raise DataError("increment file lacks an h metadata line", path=str(path))
    raw_h = meta.pop("h")
    try:
        h = float(raw_h)
    except ValueError:
        h = math.nan
    if not math.isfinite(h):
        raise DataError(f"metadata h={raw_h!r} is not a finite number",
                        path=str(path), key="h", value=str(raw_h))
    declared_n = meta.pop("n", None)
    if declared_n is not None:
        if not isinstance(declared_n, (int, float)) \
                or not float(declared_n).is_integer():
            raise DataError(f"metadata n={declared_n!r} is not a finite "
                            "integer", path=str(path), key="n",
                            value=str(declared_n))
        if int(declared_n) != len(values):
            raise DataError("declared n disagrees with the number of values",
                            declared=int(declared_n), found=len(values))
    if not len(values):
        raise DataError("increment file holds no values", path=str(path))
    return IncrementSample(values, h, meta)


def read_increments(path) -> IncrementSample:
    """Read an increment file, as write_increments writes it.

    Each line is stripped of whitespace.  A blank line is skipped.  A line
    starting with '#' is "# key=value" metadata: a quoted value ('...') is
    kept as a string, else it is an int or float where it parses as one,
    else the raw text.  Any other line is one increment value and must
    parse as a finite float.  The metadata must hold a finite h; n, when
    present, must be an integer equal to the number of values; and there
    must be at least one value.  A file that breaks a rule raises
    DataError: the first bad line in file order, named by its line number
    and text, else the first metadata or count rule it breaks.

    Past the leading metadata, a block of lines that are all finite
    numbers is converted in one pass; any other block is read line by
    line, with the same result."""
    with open(path, "r", encoding="utf8") as fh:
        lines = fh.read().rstrip().split("\n")
    meta: dict = {}
    values: list[float] = []
    start = 0
    while start < len(lines) and lines[start].lstrip()[:1] in ("", "#"):
        _read_line(start + 1, lines[start], meta, values)
        start += 1
    try:
        # float() strips the same whitespace as str.strip()
        block = np.array(list(map(float, lines[start:])))
        plain = np.isfinite(block).all()
    except ValueError:
        plain = False
    if not plain:
        for lineno, line in enumerate(lines[start:], start=start + 1):
            _read_line(lineno, line, meta, values)
        block = values
    return _increment_sample(path, meta, block)


# ---------------------------------------------------------------------------
# estimate reports

@dataclass(frozen=True)
class EstimateReport:
    """One estimation outcome: point estimates, gamma confidence interval,
    plug-in asymptotic covariance, and method-specific extras.

    Every number a report carries is finite: a NaN or infinity anywhere in
    it, e.g. a variance that overflowed, raises EstimationError naming the
    field, so a written report is always strict JSON."""

    method: str
    n: int
    h: float
    beta_hat: float | None = None
    sigma_hat: float | None = None
    gamma_hat: float | None = None
    ci_gamma: tuple[float, float] | None = None
    cov_matrix: np.ndarray | None = None
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        check_finite(self.method, beta_hat=self.beta_hat,
                     sigma_hat=self.sigma_hat, gamma_hat=self.gamma_hat,
                     ci_gamma=self.ci_gamma, cov_matrix=self.cov_matrix,
                     extra=self.extra)

    def to_json_dict(self) -> dict:
        cov = self.cov_matrix
        return plain({
            "method": self.method,
            "beta_hat": self.beta_hat,
            "sigma_hat": self.sigma_hat,
            "gamma_hat": self.gamma_hat,
            "ci_gamma": self.ci_gamma,
            "cov_matrix": None if cov is None else np.ravel(cov),
            "n": self.n,
            "h": float(self.h),
            "extra": self.extra,
        })

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True,
                          allow_nan=False)

    @classmethod
    def from_json_dict(cls, payload: dict) -> "EstimateReport":
        cov = payload.get("cov_matrix")
        if cov is not None:
            flat = np.asarray(cov, dtype=float)
            side = int(round(math.sqrt(flat.size)))
            if side * side != flat.size:
                raise DataError("cov_matrix payload is not square",
                                size=int(flat.size))
            cov = flat.reshape(side, side)
        ci = payload.get("ci_gamma")
        if ci is not None:
            ci = (float(ci[0]), float(ci[1]))
        return cls(
            method=payload["method"],
            n=int(payload["n"]),
            h=float(payload["h"]),
            beta_hat=_opt_float(payload.get("beta_hat")),
            sigma_hat=_opt_float(payload.get("sigma_hat")),
            gamma_hat=_opt_float(payload.get("gamma_hat")),
            ci_gamma=ci,
            cov_matrix=cov,
            extra=dict(payload.get("extra", {})),
        )

    @classmethod
    def from_json(cls, text: str) -> "EstimateReport":
        return cls.from_json_dict(json.loads(text))


def check_finite(method: str, /, **fields) -> None:
    """Raise EstimationError naming, by its report path (e.g.
    cov_matrix[1][1]), the first NaN or infinity in fields, taken in order
    and searched through nested dicts, sequences and arrays."""
    for name, value in fields.items():
        if isinstance(value, dict):
            check_finite(method, **{f"{name}.{key}": item
                                    for key, item in value.items()})
        elif isinstance(value, (list, tuple, np.ndarray)):
            check_finite(method, **{f"{name}[{i}]": item
                                    for i, item in enumerate(value)})
        elif isinstance(value, (float, np.floating)) \
                and not math.isfinite(value):
            raise EstimationError("report value is not finite",
                                  method=method, field=name)


def _opt_float(value):
    return None if value is None else float(value)


# ---------------------------------------------------------------------------
# Monte Carlo summary tables

SUMMARY_COLUMNS = ("table", "estimator", "param", "n", "T", "truth",
                   "mean", "rmse", "failures", "replications", "seed")
# the columns as_record writes with 6 significant digits
_SIG6_COLUMNS = ("T", "truth", "mean", "rmse")


@dataclass(frozen=True)
class SummaryRow:
    """One aggregated Monte Carlo cell."""

    table: str
    estimator: str
    param: str
    n: int
    T: float
    truth: float
    mean: float
    rmse: float
    failures: int
    replications: int
    seed: int

    def as_record(self) -> tuple:
        return (self.table, self.estimator, self.param, self.n,
                _sig6(self.T), _sig6(self.truth), _sig6(self.mean),
                _sig6(self.rmse), self.failures, self.replications, self.seed)


def _sig6(x: float) -> str:
    if x != x:  # NaN: every replication failed
        return "nan"
    return f"{x:.6g}"


def write_summary(path, rows: Sequence[SummaryRow],
                  config_echo: dict | None = None) -> None:
    lines = []
    for key, val in sorted((config_echo or {}).items()):
        lines.append(f"# {key}={val}")
    lines.append(",".join(SUMMARY_COLUMNS))
    for row in rows:
        lines.append(",".join(str(v) for v in row.as_record()))
    with open(path, "w", encoding="utf8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_summary_json(path, rows: Sequence[SummaryRow],
                       config_echo: dict | None = None) -> None:
    """The rows of write_summary as strict JSON: lowercase keys ("t" for
    "T"), the same 6-digit numbers, and null where the CSV writes nan or
    inf."""
    payload = plain({
        "config": {k: str(v) for k, v in (config_echo or {}).items()},
        "rows": [{key.lower(): float(value) if key in _SIG6_COLUMNS else value
                  for key, value in zip(SUMMARY_COLUMNS, row.as_record())}
                 for row in rows],
    })
    with open(path, "w", encoding="utf8") as fh:
        json.dump(payload, fh, indent=2, allow_nan=False)
        fh.write("\n")


def read_summary(path) -> tuple[list[SummaryRow], dict]:
    """The inverse of write_summary: the rows of a summary CSV and its '#'
    echo lines as a dict of strings.  Nothing in the package reads summary
    files back; this is kept for readers of them (the tests round-trip
    through it)."""
    meta: dict = {}
    rows: list[SummaryRow] = []
    header_seen = False
    with open(path, "r", encoding="utf8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                key, _, raw = line[1:].strip().partition("=")
                meta[key.strip()] = raw.strip()
                continue
            parts = line.split(",")
            if not header_seen:
                if tuple(parts) != SUMMARY_COLUMNS:
                    raise DataError("unexpected summary header",
                                    header=line)
                header_seen = True
                continue
            if len(parts) != len(SUMMARY_COLUMNS):
                raise DataError("summary row has wrong arity", text=line)
            rows.append(SummaryRow(
                table=parts[0], estimator=parts[1], param=parts[2],
                n=int(parts[3]), T=float(parts[4]), truth=float(parts[5]),
                mean=float(parts[6]), rmse=float(parts[7]),
                failures=int(parts[8]), replications=int(parts[9]),
                seed=int(parts[10])))
    if not header_seen:
        raise DataError("summary file lacks a header", path=str(path))
    return rows, meta
