"""Serialization: increment CSV files, estimate reports, summary tables.

Increment files are one value per line, full repr precision, preceded by
'#'-prefixed key=value metadata lines: h, n, then the header of the run that
wrote them.  They are written and read back, their metadata as text of
which only h and n are read.  Estimate reports
and summary tables are written only: a report is strict JSON, a summary
table plain CSV with a '#'-prefixed config echo, or JSON, its floats with 6
significant digits.
"""

from __future__ import annotations

import json
import math
import os
import stat
import sys
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DataError, EstimationError, plain
from .stable_core import IncrementSample

__all__ = [
    "EstimateReport",
    "check_finite",
    "SummaryRow",
    "write_lines",
    "write_increments",
    "read_increments",
    "write_summary",
    "write_summary_json",
    "SUMMARY_COLUMNS",
]


def write_lines(path, lines: Sequence[str]) -> None:
    """Write lines, each ended by a newline, to the file at path, or to
    stdout when path is None.  The text is built before the file opens, so
    a payload that fails to build leaves an existing file untouched.

    An existing file is overwritten in place, then a regular file is cut
    to the written length.  It is not opened with truncation, because ext4
    and XFS flush a file truncated to zero and rewritten to the device
    when it closes, which would make each rewrite wait on a writeback.
    A write that raises leaves a regular file empty.  A process killed
    between the write and the cut can leave the new text over the tail
    of a longer old file."""
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
        return
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    regular = False
    try:
        regular = stat.S_ISREG(os.fstat(fd).st_mode)
        # closing the text layer flushes it and leaves fd open, so a
        # failed write is cut to 0 after its last buffered bytes land
        with open(fd, "w", encoding="utf8", closefd=False) as fh:
            fh.write(text)
        if regular:
            os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))
    except BaseException:
        if regular:
            os.ftruncate(fd, 0)
        raise
    finally:
        os.close(fd)


def write_increments(path, sample: IncrementSample, header: dict) -> None:
    """Write an increment sample: '# h=' and '# n=' lines, a '# key=value'
    line for each header key in sorted order (a string quoted, a number
    plain), then one value per line at full precision."""
    lines = [f"# h={sample.h!r}", f"# n={sample.n}"]
    lines += [f"# {key}={val!r}" if isinstance(val, str) else f"# {key}={val}"
              for key, val in sorted(header.items())]
    lines.extend(map(repr, sample.values.tolist()))
    write_lines(path, lines)


def _read_line(lineno: int, line: str, meta: dict, values: list) -> None:
    # the format rule for one line: blank lines are skipped, '#' lines are
    # key=value metadata kept as text, each key once, and any other line is
    # one finite value
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
        if key in meta:
            raise DataError("metadata key is given twice",
                            line=lineno, text=line)
        meta[key] = raw.strip()
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


def _meta_number(path, meta: dict, key: str, what: str) -> float:
    # the one rule for h and n: the text parses as a finite float, and an
    # integer-valued one where what is "integer"
    raw = meta[key]
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not math.isfinite(value) \
            or (what == "integer" and not value.is_integer()):
        raise DataError(f"metadata {key}={raw} is not a finite {what}",
                        path=str(path), key=key, value=raw)
    return value


def _increment_sample(path, meta: dict, values) -> IncrementSample:
    # the file-level rules, once every line has been read: a finite h, n
    # (when given) an integer equal to the count, and at least one value
    if "h" not in meta:
        raise DataError("increment file lacks an h metadata line", path=str(path))
    h = _meta_number(path, meta, "h", "number")
    if "n" in meta:
        declared_n = int(_meta_number(path, meta, "n", "integer"))
        if declared_n != len(values):
            raise DataError("declared n disagrees with the number of values",
                            declared=declared_n, found=len(values))
    if not len(values):
        raise DataError("increment file holds no values", path=str(path))
    return IncrementSample(values, h)


def read_increments(path) -> IncrementSample:
    """Read an increment file, as write_increments writes it.

    Each line is stripped of whitespace.  A blank line is skipped.  A line
    starting with '#' is "# key=value" metadata, its value kept as text,
    and a key may appear once.  Any other line is one increment value and
    must parse as a finite float.  The metadata must hold h, whose text
    parses as a finite float; n, when present, must parse as an
    integer-valued finite float equal to the number of values; and there
    must be at least one value.  Other keys are dropped.  A quoted value
    is text like any other, so "# h='0.5'" is refused.  A file that
    breaks a rule raises DataError: the first bad line in file order,
    named by its line number and text, else the first metadata or count
    rule it breaks.

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

    def to_json(self) -> str:
        cov = self.cov_matrix
        return json.dumps(plain({
            "method": self.method,
            "beta_hat": self.beta_hat,
            "sigma_hat": self.sigma_hat,
            "gamma_hat": self.gamma_hat,
            "ci_gamma": self.ci_gamma,
            "cov_matrix": None if cov is None else np.ravel(cov),
            "n": self.n,
            "h": float(self.h),
            "extra": self.extra,
        }), indent=2, sort_keys=True, allow_nan=False)


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
                  config_echo: dict) -> None:
    lines = [f"# {key}={val}" for key, val in sorted(config_echo.items())]
    lines.append(",".join(SUMMARY_COLUMNS))
    for row in rows:
        lines.append(",".join(str(v) for v in row.as_record()))
    write_lines(path, lines)


def write_summary_json(path, rows: Sequence[SummaryRow],
                       config_echo: dict) -> None:
    """The rows of write_summary as strict JSON: lowercase keys ("t" for
    "T"), the same 6-digit numbers, and null where the CSV writes nan or
    inf."""
    payload = plain({
        "config": {k: str(v) for k, v in config_echo.items()},
        "rows": [{key.lower(): float(value) if key in _SIG6_COLUMNS else value
                  for key, value in zip(SUMMARY_COLUMNS, row.as_record())}
                 for row in rows],
    })
    write_lines(path, [json.dumps(payload, indent=2, allow_nan=False)])
