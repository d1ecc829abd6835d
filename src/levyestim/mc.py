"""Deterministic Monte Carlo harness reproducing the simulation tables.

Each replication draws its own RNG stream from
hash(master_seed, n, estimator_id, replication_index), so it is a pure
function of the design and the master seed, in whatever order replications
run and however they are grouped.  The MODELS and ESTIMATORS tables drive
simulation and estimation.

A design is checked once, when its ExperimentConfig is built (``preset``
builds only the designs a filter selects, with their overrides), and
seeded once: ``run_experiment`` derives the seeds of all its streams, in
design order, and computes their PCG64 states in one pass into one
``Streams`` with one Generator, re-stated per row.  Each (n, estimator)
cell then runs on its slice of those streams in three steps:

1. Draw a block.  A model's cell, built once per (config, n), does the
   parameter work (checks, increment scale, block averages of a scale
   path) once.  ``Cell.blocks`` draws the cell's streams in stacked
   (rows, n) blocks of at most _BLOCK_VALUES values, one CMS evaluation
   per block, each row from its own stream, so every value equals the
   one a single-stream draw gives.  A block is checked for
   finiteness once and handed over read-only.  The ``sign`` kind reads
   only signs: on a model whose cell has a sign fill (``skewed_stable``,
   ``timevarying_stable``) its block holds the signs of those values,
   drawn from the uniforms alone, with no exponentials and no CMS
   evaluation; the sign of a sign is itself, so its estimates are the
   same.
2. Estimate the block.  An estimator is a block core of ``symmetric`` or
   ``skewed``: it computes the order statistics, log residuals, moment
   means, sign means and power sums of all rows at once and returns one
   point estimate or EstimationError per row; each row's index root is
   still one scalar solve.  The per-sample point cores are the same block
   cores on a one-row block, and no replication computes a covariance;
   the subordinator kinds map a per-sample point estimator over the rows.
3. Reduce in replication order.  Estimation failures (EstimationError
   subclasses, e.g. an index root outside the admissible interval, and
   estimates that are not finite) are counted per cell and excluded from
   mean/RMSE; RMSE uses the population convention
   RMSE^2 = (mean - truth)^2 + (1/R') sum (est - mean)^2 over the R'
   successes.
"""

from __future__ import annotations

import math
import numbers
import sys
from collections.abc import Mapping
from dataclasses import MISSING, dataclass, fields
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import DomainError, EstimationError, each_row
from .serialize import SummaryRow, write_summary, write_summary_json
from .skewed import (
    bipower_block,
    sign_block,
    sign_bipower_block,
    tripower_block,
)
from .stable_core import (
    Cell,
    IncrementSample,
    ScalePath,
    Streams,
    derive_seed,
    increments_cell,
    skew_to_positivity,
    sprime_cell,
    timevarying_cell,
)
from .subordinators import (
    gamma_mle,
    gamma_moment,
    gamma_sub_cell,
    ig_mle,
    ig_sub_cell,
)
from .symmetric import (
    frac_moment_block,
    known_scale_block,
    log_moment_block,
    median_block,
)

__all__ = [
    "ExperimentConfig",
    "MODELS", "ESTIMATORS", "check_truth",
    "run_experiment",
    "preset",
    "run_preset",
    "emit",
    "DEFAULT_MASTER_SEED",
    "PRESET_NAMES",
]

DEFAULT_MASTER_SEED = 20260814

# Values in one stacked block of a cell's replications: 16 rows at
# n = 500, 1 at n = 5000.  A block this size keeps the sampler's
# temporaries in cache; larger blocks run slower.
_BLOCK_VALUES = 8192

# The table entries call the cells and block cores through this module's
# names at call time (lambdas, not bound references), so a caller that
# replaces a name here, such as a tracer, sees every call.


class Model(NamedTuple):
    required: tuple[str, ...]  # truth keys the sampler needs
    optional: tuple[str, ...]  # truth keys it reads when present
    cell: Callable  # (truth, h, n) -> stable_core.Cell


class Estimator(NamedTuple):
    params: tuple[str, ...]  # reported parameters, in row order
    tuning: tuple[str, ...]  # keys of the estimator entry, floats
    # (block, h, entry) -> one tuple of params or EstimationError per row
    # of the (rows, n) block
    block: Callable
    # the block core reads only the signs of the increments: the block is
    # drawn with Cell.blocks(..., signs=True)
    signs: bool = False


# scale path name -> (truth keys it reads besides beta, constructor)
_PATHS = {
    "cosine": ((), lambda truth: ScalePath.cosine(truth["beta"])),
    "constant": (("sigma",), lambda truth: ScalePath.constant(
        truth.get("sigma", 1.0), truth["beta"])),
}


MODELS = {
    "symmetric_stable": Model(
        ("beta",), ("sigma", "rho", "gamma"),
        lambda t, h, n: increments_cell(
            t["beta"], t.get("sigma", 1.0), t.get("rho", 0.0),
            t.get("gamma", 0.0), h, n)),
    "skewed_stable": Model(
        ("beta", "p_pos"), ("sigma",),
        lambda t, h, n: sprime_cell(
            t["beta"], t["p_pos"], t.get("sigma", 1.0), h, n)),
    # the scale path fixes the horizon [0, 1], so h is not read
    "timevarying_stable": Model(
        ("beta", "p_pos"), ("path",),
        lambda t, h, n: timevarying_cell(
            _PATHS[t.get("path", "cosine")][1](t), t["p_pos"], n)),
    "gamma_sub": Model(
        ("delta", "gamma"), (),
        lambda t, h, n: gamma_sub_cell(t["delta"], t["gamma"], h, n)),
    "ig_sub": Model(
        ("delta", "gamma"), (),
        lambda t, h, n: ig_sub_cell(t["delta"], t["gamma"], h, n)),
}


def _each_row(estimate, block: np.ndarray, h: float) -> list:
    # a per-sample point estimator mapped over the rows: subordinator kinds
    return each_row(lambda row: estimate(IncrementSample(row, h)), block)


def _take(results: list, start: int, stop: int) -> list:
    # the params start:stop of each row's point; an error stays an error
    return [r if isinstance(r, EstimationError) else r[start:stop]
            for r in results]


ESTIMATORS = {
    "log": Estimator(("beta", "sigma", "gamma"), (),
                     lambda b, h, e: log_moment_block(b, h)),
    "frac": Estimator(("beta", "sigma", "gamma"), ("p",),
                      lambda b, h, e: frac_moment_block(b, h, e["p"])),
    "known_scale": Estimator(("beta",), ("sigma",),
                             lambda b, h, e: known_scale_block(
                                 b, h, e["sigma"])),
    "median": Estimator(("gamma",), (), lambda b, h, e: median_block(b, h)),
    "sign": Estimator(("p_pos",), (), lambda b, h, e: sign_block(b),
                      signs=True),
    "bipower": Estimator(("beta",), ("q",),
                         lambda b, h, e: bipower_block(b, e["q"])),
    "power_scale": Estimator(("sigma",), ("q",), lambda b, h, e: _take(
        sign_bipower_block(b, e["q"]), 2, 3)),
    "tripower": Estimator(("sigma_star",), ("q",), lambda b, h, e: _take(
        tripower_block(b, e["q"]), 2, 3)),
    "gamma_mle": Estimator(("delta", "gamma"), (),
                           lambda b, h, e: _each_row(gamma_mle, b, h)),
    "gamma_moment": Estimator(("delta", "gamma"), (),
                              lambda b, h, e: _each_row(gamma_moment, b, h)),
    "ig_mle": Estimator(("delta", "gamma"), (),
                        lambda b, h, e: _each_row(ig_mle, b, h)),
}


def _finite(value, field: str) -> float:
    # the bound also rejects nan, inf and ints past the float range
    if (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max):
        return float(value)
    raise DomainError(f"{field} must be a finite number", field=field)


def _integer(value, field: str, low=-math.inf) -> int:
    if (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and value >= low):
        return int(value)
    raise DomainError(f"{field} must be an integer >= {low}", field=field)


def _refuse_unknown(given, allowed, what: str, prefix: str) -> None:
    # a key that nothing reads is a DomainError naming it, not dropped
    unknown = sorted(map(str, set(given) - set(allowed)))
    if unknown:
        raise DomainError(f"unknown key {unknown[0]!r} for {what} "
                          f"(allowed: {', '.join(sorted(set(allowed)))})",
                          field=prefix + unknown[0])


def _refuse_repeats(values, field: str) -> None:
    # a sample size or estimator id given twice would run its cells twice,
    # on the same streams, and write the same rows twice
    seen = set()
    for value in values:
        if value in seen:
            raise DomainError(f"{field} value {value!r} is given more than "
                              "once", field=field, value=value)
        seen.add(value)


def _model_keys(model: str, truth: Mapping) -> tuple[str, ...]:
    # the truth keys the model's cell reads, its scale path's among them
    entry = MODELS[model]
    keys = entry.required + entry.optional
    if "path" in entry.optional:
        path = truth.get("path", "cosine")
        if not isinstance(path, str) or path not in _PATHS:
            raise DomainError("unknown scale path", field="truth.path",
                              path=str(path), known=list(_PATHS))
        keys += _PATHS[path][0]
    return keys


def check_truth(model: str, truth: Mapping, exact: bool = False) -> Model:
    """The MODELS entry of ``model`` after checking ``truth``: required keys
    present, read keys finite numbers, ``path`` a known scale path and, if
    ``exact``, no other key.  Raises DomainError naming the key."""
    entry = MODELS[model]
    allowed = _model_keys(model, truth)
    for key in allowed:
        if key in truth and key != "path":
            _finite(truth[key], f"truth.{key}")
        elif key in entry.required:
            raise DomainError(f"{model} model needs key {key!r}",
                              field=f"truth.{key}")
    if exact:
        _refuse_unknown(truth, allowed, f"the {model} model", "truth.")
    return entry


def _check_estimator(est, truth: dict) -> dict:
    if not isinstance(est, Mapping) or "id" not in est or "kind" not in est:
        raise DomainError("estimator entries need id and kind",
                          field="estimators")
    est = dict(est)
    kind = est["kind"]
    if not isinstance(kind, str) or kind not in ESTIMATORS:
        raise DomainError("unknown estimator kind", field="estimators.kind",
                          kind=str(kind), known=sorted(ESTIMATORS))
    entry = ESTIMATORS[kind]
    _refuse_unknown(est, ("id", "kind") + entry.tuning,
                    f"the {kind} estimator", "estimators.")
    for key in entry.tuning:
        # a key the entry lacks is read from the truth: known_scale's sigma
        if key not in est and key not in truth:
            raise DomainError(f"{kind} estimator needs {key!r}",
                              field=f"estimators.{key}",
                              estimator=str(est["id"]))
        est[key] = _finite(est.get(key, truth.get(key)), f"estimators.{key}")
    for param in entry.params:
        if param not in truth:
            raise DomainError("truth record lacks a parameter the "
                              "estimator reports",
                              field=f"truth.{param}",
                              estimator=str(est["id"]))
        _finite(truth[param], f"truth.{param}")
    return est


@dataclass(frozen=True)
class ExperimentConfig:
    """One Monte Carlo design: a model with true parameters, sample sizes,
    a mesh rule, estimators with tuning, and a master seed.

    Construction checks every field against MODELS and ESTIMATORS and
    raises DomainError naming the first bad one, a truth or estimator key
    that nothing reads, a repeated sample size or a repeated estimator id
    among them; tuning keys become floats.
    """

    model: str
    truth: dict
    n_list: tuple[int, ...]
    h_rule: dict
    replications: int
    estimators: tuple[dict, ...]
    master_seed: int = DEFAULT_MASTER_SEED
    label: str = "custom"

    def __post_init__(self):
        if not isinstance(self.model, str) or self.model not in MODELS:
            raise DomainError("unknown model", field="model",
                              model=str(self.model), known=list(MODELS))
        if not isinstance(self.label, str):
            raise DomainError("label must be a string", field="label")
        for name, types in (("truth", Mapping), ("h_rule", Mapping),
                            ("n_list", (list, tuple)),
                            ("estimators", (list, tuple))):
            if not isinstance(getattr(self, name), types) \
                    or not getattr(self, name):
                raise DomainError(f"{name} must be a nonempty "
                                  + ("object" if types is Mapping else "list"),
                                  field=name)
        truth = dict(self.truth)
        check_truth(self.model, truth)
        h_rule = dict(self.h_rule)
        kind = h_rule.get("kind")
        if kind not in ("fixed_T", "power"):
            raise DomainError("h_rule kind must be fixed_T or power",
                              field="h_rule.kind")
        key = "T" if kind == "fixed_T" else "a"
        if not _finite(h_rule.get(key), f"h_rule.{key}") > 0.0:
            raise DomainError(f"{kind} rule needs {key} > 0",
                              field=f"h_rule.{key}")
        if self.model == "timevarying_stable" and h_rule.get("T") != 1.0:
            # the scale path fixes the horizon [0, 1]: h = 1/n, T = 1
            raise DomainError("the timevarying_stable model needs h_rule "
                              "fixed_T with T = 1",
                              field="h_rule.T" if kind == "fixed_T"
                              else "h_rule.kind")
        checked = {
            "truth": truth,
            "h_rule": h_rule,
            "n_list": tuple(_integer(n, "n_list", 1) for n in self.n_list),
            "replications": _integer(self.replications, "replications", 1),
            "estimators": tuple(_check_estimator(e, truth)
                                for e in self.estimators),
            "master_seed": _integer(self.master_seed, "master_seed"),
        }
        _refuse_repeats(checked["n_list"], "n_list")
        # rows name an estimator by its id as written
        _refuse_repeats([str(est["id"]) for est in checked["estimators"]],
                        "estimators.id")
        # besides the keys its cell reads, the truth holds the parameters
        # the estimators report and tuning they may take from it
        entries = [ESTIMATORS[est["kind"]] for est in checked["estimators"]]
        reads = [key for e in entries for key in e.params + e.tuning]
        _refuse_unknown(truth, _model_keys(self.model, truth) + tuple(reads),
                        f"the {self.model} design", "truth.")
        for name, value in checked.items():
            object.__setattr__(self, name, value)

    def mesh(self, n: int) -> float:
        if self.h_rule["kind"] == "fixed_T":
            return float(self.h_rule["T"]) / n
        return float(n) ** (-float(self.h_rule["a"]))

    @classmethod
    def from_json_dict(cls, payload) -> "ExperimentConfig":
        if not isinstance(payload, dict):
            raise DomainError("config entry must be a JSON object",
                              field="config")
        _refuse_unknown(payload, [f.name for f in fields(cls)], "a design",
                        "")
        for f in fields(cls):
            if f.default is MISSING and f.name not in payload:
                raise DomainError(f"config lacks field {f.name!r}",
                                  field=f.name)
        return cls(**{f.name: payload[f.name] for f in fields(cls)
                      if f.name in payload})


def _kept(point):
    # None for a failed replication: an EstimationError, or an estimate
    # that overflowed to inf
    if isinstance(point, EstimationError) \
            or not all(map(math.isfinite, point)):
        return None
    return point


def _cell_points(cell: Cell, n: int, est: dict, streams: Streams) -> list:
    """Point estimates of one (n, estimator) cell in replication order,
    None for a failed replication.  ``streams`` is the cell's slice of its
    design's streams, seeded once by run_experiment: replication rep draws
    from the stream derive_seed(master_seed, n, estimator id, rep).  The
    cell is drawn in blocks of at most _BLOCK_VALUES values; each block is
    estimated in one pass and dropped, so only the streams' states, not
    their samples, grow with the replications."""
    entry = ESTIMATORS[est["kind"]]
    return [_kept(point)
            for block in cell.blocks(streams, max(1, _BLOCK_VALUES // n),
                                     entry.signs)
            for point in entry.block(block, cell.h, est)]


def _mean_rmse(vals: np.ndarray, truth: float) -> tuple[float, float]:
    # where the sum or the squares overflow, the value is recomputed on
    # scaled terms, so a finite mean or RMSE is never written as inf and a
    # cell that stays in range keeps its bits
    with np.errstate(over="ignore"):
        mean = float(vals.mean())
        dev = vals - truth
        rmse = math.sqrt(float(np.mean(dev ** 2)))
        if not math.isfinite(mean):
            mean = float(np.sum(vals / vals.size))
        if not math.isfinite(rmse):
            top = float(np.max(np.abs(dev)))  # inf if a deviation overflows
            rmse = top * math.sqrt(float(np.mean((dev / top) ** 2))) \
                if math.isfinite(top) else math.inf
    return mean, rmse


def run_experiment(config: ExperimentConfig) -> list[SummaryRow]:
    """Run the full design and return one SummaryRow per
    (n, estimator, parameter) cell, in that deterministic order."""
    rows: list[SummaryRow] = []
    model = MODELS[config.model]
    reps = config.replications
    # every stream of the design, in design order, seeded in one pass
    streams = Streams.from_seeds([
        derive_seed(config.master_seed, n, est["id"], rep)
        for n in config.n_list for est in config.estimators
        for rep in range(reps)])
    start = 0
    for n in config.n_list:
        h = config.mesh(n)
        t_total = n * h
        cell = model.cell(config.truth, h, n)
        for est in config.estimators:
            results = _cell_points(cell, n, est, streams[start:start + reps])
            start += reps
            failures = sum(1 for r in results if r is None)
            kept = [r for r in results if r is not None]
            for idx, param in enumerate(ESTIMATORS[est["kind"]].params):
                truth_val = float(config.truth[param])
                if kept:
                    mean, rmse = _mean_rmse(
                        np.array([r[idx] for r in kept]), truth_val)
                else:
                    mean = rmse = float("nan")
                rows.append(SummaryRow(
                    table=config.label, estimator=est["id"], param=param,
                    n=n, T=t_total, truth=truth_val, mean=mean, rmse=rmse,
                    failures=failures, replications=reps,
                    seed=config.master_seed))
    return rows


# ---------------------------------------------------------------------------
# table presets

PRESET_NAMES = ("table1", "table2", "table3", "table4")

_SYMMETRIC_BETAS = (0.8, 1.0, 1.5, 1.8)
_SKEWED_BETAS = (1.2, 1.5, 1.7, 1.9)
_FRAC_ORDERS = (0.05, 0.1, 0.2)


def _symmetric_estimators(beta: float) -> tuple[dict, ...]:
    ests = [{"id": "log", "kind": "log"}]
    for p in _FRAC_ORDERS:
        if p < beta / 6.0:  # blank cells: the moment order must stay below beta/6
            ests.append({"id": f"frac_{p:g}", "kind": "frac", "p": p})
    ests.append({"id": "known_scale", "kind": "known_scale", "sigma": 0.5})
    ests.append({"id": "median", "kind": "median"})
    return tuple(ests)


def _skewed_estimators(final: str) -> tuple[dict, ...]:
    return (
        {"id": "sign", "kind": "sign"},
        {"id": "bipower", "kind": "bipower", "q": 0.25},
        {"id": final, "kind": final, "q": 0.25},
    )


def preset(table_id: str, master_seed: int = DEFAULT_MASTER_SEED, *,
           beta: float | None = None, replications: int | None = None,
           n_list: Sequence[int] | None = None) -> list[ExperimentConfig]:
    """Exact designs of the four simulation tables, one config per true
    index; only the designs a filter selects are built.

    ``beta`` keeps the design whose true index is within 1e-12 of it;
    ``replications`` and ``n_list`` replace the design's values.  Each
    design built is checked once, with its overrides.

    table1: symmetric stable, (sigma, gamma) = (0.5, -0.5),
            beta in {0.8, 1, 1.5, 1.8}, n in {501, 1001, 2001}, h = 5/n;
            log-moment, fractional p in {0.05, 0.1, 0.2} where p < beta/6,
            known-scale, median; 1000 replications.
    table2: as table1 with h = n^{-3/5}.
    table3: skewed strictly stable on [0, 1], sigma = 1,
            beta in {1.2, 1.5, 1.7, 1.9} with p_pos mapped from rho = -0.5,
            n in {500, 1000, 2000, 5000}; sign, bipower(q=1/4),
            power-scale(q=1/4); 1000 replications.
    table4: as table3 with the cosine scale path (sigma*_beta = 0.6) and
            the tripower integrated-scale estimator.
    """
    if table_id not in PRESET_NAMES:
        raise DomainError("unknown preset", table_id=table_id,
                          known=list(PRESET_NAMES))
    symmetric = table_id in ("table1", "table2")
    sizes = (501, 1001, 2001) if symmetric else (500, 1000, 2000, 5000)
    h_rule = {"table1": {"kind": "fixed_T", "T": 5.0},
              "table2": {"kind": "power", "a": 0.6}}.get(
                  table_id, {"kind": "fixed_T", "T": 1.0})
    configs = []
    for truth_beta in _SYMMETRIC_BETAS if symmetric else _SKEWED_BETAS:
        if beta is not None and abs(truth_beta - beta) > 1e-12:
            continue
        if symmetric:
            model = "symmetric_stable"
            truth = {"beta": truth_beta, "sigma": 0.5, "gamma": -0.5,
                     "rho": 0.0}
            estimators = _symmetric_estimators(truth_beta)
        elif table_id == "table3":
            model = "skewed_stable"
            truth = {"beta": truth_beta,
                     "p_pos": skew_to_positivity(truth_beta, -0.5),
                     "sigma": 1.0}
            estimators = _skewed_estimators("power_scale")
        else:
            model = "timevarying_stable"
            truth = {"beta": truth_beta,
                     "p_pos": skew_to_positivity(truth_beta, -0.5),
                     "sigma_star": 0.6, "path": "cosine"}
            estimators = _skewed_estimators("tripower")
        configs.append(ExperimentConfig(
            model=model, truth=truth, h_rule=h_rule,
            n_list=sizes if n_list is None else tuple(int(n) for n in n_list),
            replications=1000 if replications is None else int(replications),
            estimators=estimators, master_seed=master_seed,
            label=f"{table_id}[beta={truth_beta:g}]"))
    return configs


def run_preset(table_id: str, replications: int | None = None,
               master_seed: int = DEFAULT_MASTER_SEED,
               beta: float | None = None,
               n_list: Sequence[int] | None = None) -> list[SummaryRow]:
    """Run one preset, optionally overriding replications, restricting to a
    single true index, or overriding the sample sizes."""
    configs = preset(table_id, master_seed, beta=beta,
                     replications=replications, n_list=n_list)
    if not configs:
        raise DomainError("preset filter selected no design",
                          table_id=table_id, beta=beta)
    return [row for config in configs for row in run_experiment(config)]


def emit(rows: Sequence[SummaryRow], fmt: str, path,
         config_echo: dict) -> None:
    """Write summary rows as CSV (with '#' config echo) or JSON."""
    if not rows:
        raise DomainError("no rows to emit")
    writer = {"csv": write_summary, "json": write_summary_json}.get(fmt)
    if writer is None:
        raise DomainError("unknown emit format", fmt=fmt)
    writer(path, rows, config_echo)
