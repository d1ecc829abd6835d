"""Command line front end.

Subcommands: simulate, estimate, montecarlo, table, fisher, density,
variance.  Exit codes: 0 success, 1 runtime error (machine-readable JSON
{code, message, context} on stderr), 2 flag validation (argparse usage on
stderr).  Exit 2 has one source, argparse: a rule on one flag is that
flag's type, a rule across flags calls the subcommand parser's error(),
which the handler reads as args.error.  A handler returns nothing: it runs
to completion (exit 0) or raises.  Each warning a command raises is one
more JSON line on stderr, {"code": "warning", ...}, before any error line.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import warnings

import numpy as np

from . import mc, serialize, skewed, subordinators, symmetric, transforms
from .errors import DomainError, LevyEstimError, only_row, stable_index
from .stable_density import fisher_matrix, median_asymptotic_sd, phi_pair

__all__ = ["main", "build_parser"]

_GRID_POINTS = 10_001  # most rows a dump may have: --beta-grid, --points


def _parse_params(text: str) -> dict:
    # simulate --params: comma-separated key=value pairs, each key once and
    # each value a finite number; anything else is a ValueError
    out = {}
    for chunk in filter(None, map(str.strip, text.split(","))):
        key, eq, raw = chunk.partition("=")
        if not eq:
            raise ValueError(f"expected key=value, got {chunk!r}")
        key = key.strip()
        value = float(raw)
        if not math.isfinite(value):
            raise ValueError(f"non-finite value for key {key!r}")
        if key in out:
            raise ValueError(f"key {key!r} is given twice")
        out[key] = value
    return out


def _params(text: str) -> dict:
    # argparse type of --params: a usage error that keeps the reason
    try:
        return _parse_params(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_grid(text: str) -> list[float]:
    # argparse type of --beta-grid: lo:hi:step, or a single value
    try:
        parts = [float(p) for p in text.split(":")]
    except ValueError:
        parts = []
    if len(parts) not in (1, 3):
        raise argparse.ArgumentTypeError("grid must be lo:hi:step numbers")
    # a single value is checked as the grid value:value:1
    lo, hi, step = parts if len(parts) == 3 else (parts[0], parts[0], 1.0)
    if step <= 0.0 or hi < lo:
        raise argparse.ArgumentTypeError("grid needs lo <= hi and step > 0")
    span = (hi - lo) / step
    if not all(map(math.isfinite, (lo, hi, step, span))):
        raise argparse.ArgumentTypeError(
            "grid lo, hi, step and step count must be finite")
    if len(parts) == 1:
        return parts
    count = int(round(span)) + 1
    if count > _GRID_POINTS:
        raise argparse.ArgumentTypeError(
            f"grid has {count:.3g} points, more than {_GRID_POINTS}")
    return [lo + i * step for i in range(count) if lo + i * step <= hi + 1e-12]


def _number(convert, ok, what: str):
    # an argparse type: convert(text) where ok(value) holds, else a usage
    # error naming the flag
    def parse(text: str):
        try:
            value = convert(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
    return parse


# --sigma, --h and --T; variance --p, estimate --q; estimate --p, the
# order frac and pipeline take; estimate --level; simulate --seed, the
# seeds a Cell takes; simulate --n, table --reps and --n; density --y-min
# and --y-max, table --beta; density --points
_scale = _number(float, lambda v: 0.0 < v < math.inf, "a finite number > 0")
_moment_order = _number(float, lambda v: 0.0 < v < 0.5, "a number in (0, 1/2)")
_frac_order = _number(float, lambda v: 0.0 < v < 1.0 / 3.0,
                      "a number in (0, 1/3)")
_level = _number(float, lambda v: 0.0 < v < 1.0, "a number in (0, 1)")
_stream_seed = _number(int, lambda v: 0 <= v < 1 << 128,
                       "an integer in [0, 2^128)")
_count = _number(int, lambda v: v >= 1, "an integer >= 1")
_bound = _number(float, math.isfinite, "a finite number")
_points = _number(int, lambda v: 1 <= v <= _GRID_POINTS,
                  f"an integer from 1 to {_GRID_POINTS}")


def _dump_row(header: list[str], cells) -> str:
    # one CSV line of the fisher, density and variance dumps; an infinite
    # cell is a DomainError naming its column and the row's first cell (a
    # NaN passes: variance's V^p where 4p >= beta)
    for name, value in zip(header, cells):
        if math.isinf(value):
            raise DomainError("dump value is beyond the double range",
                              column=name, **{header[0]: cells[0]})
    return ",".join(f"{v:.10g}" for v in cells)


# ---------------------------------------------------------------------------
# handlers

def _cmd_simulate(args) -> None:
    truth = args.params
    model = {"stable": "skewed_stable" if "p_pos" in truth
             else "symmetric_stable",
             "timevarying": "timevarying_stable", "gamma": "gamma_sub",
             "ig": "ig_sub"}[args.model]
    if args.model == "timevarying" and args.path is not None:
        truth["path"] = args.path
    try:
        entry = mc.check_truth(model, truth, exact=True)
    except DomainError as exc:
        args.error(f"--params: {exc}")
    h = args.h if args.T is None else args.T / args.n
    if args.model == "timevarying":
        if h is not None:
            flag = "--h" if args.T is None else "--T"
            args.error(f"--model timevarying takes no {flag}: the scale "
                       "path fixes the horizon [0, 1]")
    elif args.path is not None:
        args.error(f"--model {args.model} takes no --path: only "
                   "timevarying reads a scale path")
    elif h is None:
        args.error(f"--model {args.model} needs --T or --h")
    # the header is the request: what it leaves out takes its default
    serialize.write_increments(args.out,
                               entry.cell(truth, h, args.n).sample(args.seed),
                               {**truth, "model": args.model,
                                "seed": args.seed})


# estimate --method: name -> (the mc.ESTIMATORS kind whose block core gives
# the point, the defaults of the flags, the lookup of its report).  A
# method reads its kind's tuning keys and the flags it has defaults for,
# and needs each tuning key without one.  The report is looked up when it
# runs, so a patched report is seen; it gets the method, the sample, the
# point and the flags.  pipeline has no kind: its report runs three block
# cores on transformed samples and gets the sample and the flags
_ESTIMATE = {
    "log": ("log", {"level": 0.95}, lambda: symmetric.moment_report),
    "frac": ("frac", {"level": 0.95}, lambda: symmetric.moment_report),
    "sign-bipower": ("power_scale", {"q": 0.25}, lambda: skewed.power_report),
    "tripower": ("tripower", {"q": 0.25}, lambda: skewed.power_report),
    "gamma-mle": ("gamma_mle", {}, lambda: subordinators.mle_report),
    "ig-mle": ("ig_mle", {}, lambda: subordinators.mle_report),
    "pipeline": (None, {"p": None, "q": None, "level": 0.95},
                 lambda: transforms.full_pipeline),
}


def _estimate(method: str, sample, given: dict):
    # the report of method on sample, the flags given over its defaults
    kind, defaults, report = _ESTIMATE[method]
    flags = {**defaults, **given}
    if kind is None:
        return report()(sample, **flags)
    point = only_row(mc.ESTIMATORS[kind].block(sample.values[None],
                                               sample.h, flags))
    return report()(method, sample, point, **flags)


def _cmd_estimate(args) -> None:
    kind, defaults, _ = _ESTIMATE[args.method]
    tuning = () if kind is None else mc.ESTIMATORS[kind].tuning
    given = {flag: getattr(args, flag) for flag in ("p", "q", "level")
             if getattr(args, flag) is not None}
    for flag in tuning:
        if flag not in defaults and flag not in given:
            args.error(f"--method {args.method} needs --{flag}")
    for flag in given:
        if flag not in tuning and flag not in defaults:
            args.error(f"--method {args.method} does not read --{flag}")
    sample = serialize.read_increments(args.infile)
    serialize.write_lines(args.out,
                          [_estimate(args.method, sample, given).to_json()])


def _unique_keys(pairs: list) -> dict:
    # object_pairs_hook of a montecarlo config: a key given twice in one
    # object is refused by name, not resolved to its last value
    out = {}
    for key, value in pairs:
        if key in out:
            raise DomainError(f"config key {key!r} is given twice", key=key)
        out[key] = value
    return out


def _cmd_montecarlo(args) -> None:
    with open(args.config, "r", encoding="utf8") as fh:
        payload = json.load(fh, object_pairs_hook=_unique_keys)
    if not isinstance(payload, list):
        payload = [payload]
    # every entry is checked before any design runs
    configs = [mc.ExperimentConfig.from_json_dict(entry) for entry in payload]
    rows = []
    echo = {"configs": len(configs)}
    for index, config in enumerate(configs):
        rows.extend(mc.run_experiment(config))
        # keyed by position: designs may share a label or have none
        echo[f"config_{index}"] = f"{config.label}:{config.model}"
    mc.emit(rows, args.format, args.out, echo)


def _cmd_table(args) -> None:
    repeated = [n for i, n in enumerate(args.n or ()) if n in args.n[:i]]
    if repeated:
        args.error(f"--n: {repeated[0]} is given more than once")
    rows = mc.run_preset(args.table_id, replications=args.reps,
                         master_seed=args.seed, beta=args.beta,
                         n_list=args.n if args.n else None)
    echo = {"table": args.table_id, "master_seed": args.seed,
            "replications": args.reps if args.reps else "preset-default"}
    mc.emit(rows, args.format, args.out, echo)


def _betas(args) -> list[float]:
    return [args.beta] if args.beta_grid is None else args.beta_grid


def _cmd_fisher(args) -> None:
    header = ["beta", "sigma", "i_beta_beta", "i_beta_sigma",
              "i_sigma_sigma", "i_gamma_gamma", "top_left_det"]
    lines = [",".join(header)]
    for beta in _betas(args):
        info = fisher_matrix(beta, args.sigma)
        m = info.matrix
        lines.append(_dump_row(header, (beta, args.sigma, m[0, 0], m[0, 1],
                                        m[1, 1], m[2, 2],
                                        info.top_left_det())))
    serialize.write_lines(args.out, lines)


def _cmd_density(args) -> None:
    y_min = -args.y_max if args.y_min is None else args.y_min
    if not math.isfinite(args.y_max - y_min):
        # linspace's step would overflow and put non-finite points on the grid
        args.error(f"--y-min/--y-max span from {y_min} to {args.y_max} "
                   "overflows: y_max - y_min must be finite")
    grid = np.linspace(y_min, args.y_max, args.points)
    if args.points > 1 and y_min == -args.y_max:
        # mirror exactly, so y and -y share one |y| and are evaluated once
        # (a 1-point grid is y_min alone)
        grid = 0.5 * (grid - grid[::-1])
    dens, deriv = phi_pair(grid, args.beta, args.sigma)
    header = ["y", "phi", "dphi"]
    lines = [",".join(header)]
    lines += [_dump_row(header, cells) for cells in zip(grid, dens, deriv)]
    serialize.write_lines(args.out, lines)


def _cmd_variance(args) -> None:
    header = ["beta", "sigma", "v_log_11", "v_log_12", "v_log_22",
              "v_log_33", "median_sd"]
    if args.p is not None:
        header += ["v_p_11", "v_p_12", "v_p_22"]
    lines = [",".join(header)]
    for beta in _betas(args):
        # v_log takes a plug-in beta_hat > 2; a dumped beta is an index
        stable_index(beta)
        vlog = symmetric.v_log(beta, args.sigma)
        cells = [beta, args.sigma, vlog[0, 0], vlog[0, 1], vlog[1, 1],
                 vlog[2, 2], median_asymptotic_sd(beta, args.sigma)]
        if args.p is not None:
            if 4.0 * args.p < beta:
                vp = symmetric.v_p(beta, args.sigma, args.p)
                cells += [vp[0, 0], vp[0, 1], vp[1, 1]]
            else:  # V^p needs moments to order 4p < beta
                cells += [math.nan] * 3
        lines.append(_dump_row(header, cells))
    serialize.write_lines(args.out, lines)


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="levyestim",
        description="Simulation and parametric estimation for jump-type "
                    "Levy processes observed at high frequency.")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="write an increment CSV")
    sim.add_argument("--model", required=True,
                     choices=("stable", "timevarying", "gamma", "ig"))
    sim.add_argument("--params", type=_params, required=True,
                     help="comma-separated key=value parameter list")
    sim.add_argument("--n", type=_count, required=True)
    sim_mesh = sim.add_mutually_exclusive_group()
    sim_mesh.add_argument("--T", type=_scale, default=None,
                          help="horizon; the mesh is T/n")
    sim_mesh.add_argument("--h", type=_scale, default=None, help="mesh")
    sim.add_argument("--seed", type=_stream_seed, default=0)
    sim.add_argument("--path", choices=("cosine", "constant"), default=None,
                     help="scale path for timevarying (default cosine)")
    sim.add_argument("--out", required=True)
    sim.set_defaults(handler=_cmd_simulate, error=sim.error)

    est = sub.add_parser("estimate", help="estimate parameters from a CSV")
    est.add_argument("--in", dest="infile", required=True)
    est.add_argument("--method", required=True, choices=_ESTIMATE)
    est.add_argument("--p", type=_frac_order, default=None,
                     help="fractional moment power (frac, pipeline)")
    est.add_argument("--q", type=_moment_order, default=None,
                     help="power for sign-bipower/tripower (default 0.25) "
                          "or the pipeline consistency diagnostic")
    est.add_argument("--level", type=_level, default=None,
                     help="confidence level for intervals (log, frac, "
                          "pipeline; default 0.95)")
    est.add_argument("--out", default=None)
    est.set_defaults(handler=_cmd_estimate, error=est.error)

    mcp = sub.add_parser("montecarlo", help="run experiment configs (JSON)")
    mcp.add_argument("--config", required=True)
    mcp.add_argument("--out", required=True)
    mcp.add_argument("--format", choices=("csv", "json"), default="csv")
    mcp.set_defaults(handler=_cmd_montecarlo)

    tab = sub.add_parser("table", help="reproduce a simulation table")
    tab.add_argument("--id", dest="table_id", required=True,
                     choices=mc.PRESET_NAMES)
    tab.add_argument("--reps", type=_count, default=None)
    tab.add_argument("--seed", type=int, default=mc.DEFAULT_MASTER_SEED)
    tab.add_argument("--out", required=True)
    tab.add_argument("--format", choices=("csv", "json"), default="csv")
    tab.add_argument("--beta", type=_bound, default=None,
                     help="restrict to one true index")
    tab.add_argument("--n", type=_count, nargs="+", default=None,
                     help="override the preset sample sizes")
    tab.set_defaults(handler=_cmd_table, error=tab.error)

    # the flags the fisher and variance dumps share
    dump = argparse.ArgumentParser(add_help=False)
    dump_beta = dump.add_mutually_exclusive_group(required=True)
    dump_beta.add_argument("--beta", type=float)
    dump_beta.add_argument("--beta-grid", type=_parse_grid, help="lo:hi:step")
    dump.add_argument("--sigma", type=_scale, default=1.0)
    dump.add_argument("--out", default=None)

    fis = sub.add_parser("fisher", help="Fisher information dump",
                         parents=[dump])
    fis.set_defaults(handler=_cmd_fisher)

    den = sub.add_parser("density", help="density grid dump")
    den.add_argument("--beta", type=float, required=True)
    den.add_argument("--sigma", type=_scale, default=1.0)
    den.add_argument("--y-min", type=_bound, default=None)
    den.add_argument("--y-max", type=_bound, default=10.0)
    den.add_argument("--points", type=_points, default=201)
    den.add_argument("--out", default=None)
    den.set_defaults(handler=_cmd_density, error=den.error)

    var = sub.add_parser(
        "variance", help="fixed-mesh (h = 1) asymptotic variance dump",
        description="Dump the fixed-mesh (h = 1) covariances V^log and V^p. "
        "At a shrinking mesh sigma_hat carries an extra "
        "-sigma log(1/h) / beta^2 (beta_hat - beta) term they omit.",
        parents=[dump])
    var.add_argument("--p", type=_moment_order, default=None,
                     help="fractional moment order in (0, 1/2); V^p is nan "
                          "where 4p >= beta")
    var.set_defaults(handler=_cmd_variance)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # parse_args keeps no state between calls, so one parser serves every
    # main() call of the process; built on first use, not at import
    return build_parser()


def _report(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True, allow_nan=False), file=sys.stderr)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # a warning the command raises is one JSON line on stderr; the active
    # filters still apply ("error" raises it, "ignore" drops it)
    with warnings.catch_warnings(record=True) as caught:
        try:
            args.handler(args)
            return 0
        except LevyEstimError as exc:
            payload = exc.to_json_dict()
        except OSError as exc:
            payload = {"code": "io_error", "message": str(exc), "context": {}}
        except ValueError as exc:
            payload = {"code": "value_error", "message": str(exc),
                       "context": {}}
        except MemoryError as exc:
            # numpy refuses an array larger than it can allocate
            payload = {"code": "memory_error", "message": str(exc),
                       "context": {}}
        finally:
            for note in caught:
                _report({"code": "warning", "message": str(note.message),
                         "context": {"category": note.category.__name__}})
    _report(payload)
    return 1


if __name__ == "__main__":
    sys.exit(main())
