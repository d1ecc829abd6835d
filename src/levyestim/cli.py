"""Command line front end.

Subcommands: simulate, estimate, montecarlo, table, fisher, density,
variance.  Exit codes: 0 success, 1 runtime error (machine-readable JSON
{code, message, context} on stderr), 2 flag validation (argparse usage on
stderr).  Each warning a command raises is one more JSON line on stderr,
{"code": "warning", ...}, before any error line.
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
from .errors import DomainError, LevyEstimError
from .stable_density import fisher_matrix, median_asymptotic_sd, phi_pair

__all__ = ["main", "build_parser"]

_GRID_POINTS = 10_001  # most rows a dump may have: --beta-grid, --points


def _parse_params(text: str) -> dict:
    out = {}
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise ValueError(f"expected key=value, got {chunk!r}")
        key, _, raw = chunk.partition("=")
        key = key.strip()
        value = float(raw)
        if not math.isfinite(value):
            raise ValueError(f"non-finite value for key {key!r}")
        out[key] = value
    return out


def _parse_grid(text: str) -> list[float]:
    # argparse type of --beta-grid: lo:hi:step, or a single value
    try:
        parts = [float(p) for p in text.split(":")]
    except ValueError:
        parts = []
    if len(parts) == 1:
        return parts
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("grid must be lo:hi:step numbers")
    lo, hi, step = parts
    if step <= 0.0 or hi < lo:
        raise argparse.ArgumentTypeError("grid needs lo <= hi and step > 0")
    span = (hi - lo) / step
    if not all(map(math.isfinite, (lo, hi, step, span))):
        raise argparse.ArgumentTypeError(
            "grid lo, hi, step and step count must be finite")
    count = int(round(span)) + 1
    if count > _GRID_POINTS:
        raise argparse.ArgumentTypeError(
            f"grid has {count:.3g} points, more than {_GRID_POINTS}")
    return [lo + i * step for i in range(count) if lo + i * step <= hi + 1e-12]


def _positive_below(hi: float, what: str):
    # an argparse type: a number in (0, hi), else a usage error naming it
    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not 0.0 < value < hi:
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return value
    return parse


# --sigma, --h and --T; variance --p
_scale = _positive_below(math.inf, "a finite number > 0")
_moment_order = _positive_below(0.5, "a number in (0, 1/2)")


def _stream_seed(text: str) -> int:
    # argparse type of simulate --seed: an integer in [0, 2^128), the
    # seeds a Cell takes, else a usage error naming the flag
    try:
        value = int(text)
    except ValueError:
        value = -1
    if not 0 <= value < 1 << 128:
        raise argparse.ArgumentTypeError(
            f"must be an integer in [0, 2^128), got {text!r}")
    return value


def _dump_row(header: list[str], cells) -> str:
    # one CSV line of the fisher, density and variance dumps; an infinite
    # cell is a DomainError naming its column and the row's first cell (a
    # NaN passes: variance's V^p where 4p >= beta)
    for name, value in zip(header, cells):
        if math.isinf(value):
            raise DomainError("dump value is beyond the double range",
                              column=name, **{header[0]: cells[0]})
    return ",".join(f"{v:.10g}" for v in cells)


def _write_lines(path, lines: list[str]) -> None:
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf8") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# handlers

def _cmd_simulate(args) -> int:
    try:
        truth = _parse_params(args.params)
        model = {"stable": "skewed_stable" if "p_pos" in truth
                 else "symmetric_stable",
                 "timevarying": "timevarying_stable", "gamma": "gamma_sub",
                 "ig": "ig_sub"}[args.model]
        if args.model == "timevarying" and args.path is not None:
            truth["path"] = args.path
        entry = mc.check_truth(model, truth, exact=True)
    except (ValueError, DomainError) as exc:
        print(f"error: --params: {exc}", file=sys.stderr)
        return 2
    if args.n < 1:
        print(f"error: --n must be >= 1, got {args.n}", file=sys.stderr)
        return 2
    h = None
    if args.model == "timevarying":
        if args.T is not None or args.h is not None:
            flag = "--T" if args.T is not None else "--h"
            print(f"error: --model timevarying takes no {flag}: the scale "
                  "path fixes the horizon [0, 1]", file=sys.stderr)
            return 2
    elif args.path is not None:
        print(f"error: --model {args.model} takes no --path: only "
              "timevarying reads a scale path", file=sys.stderr)
        return 2
    elif args.T is None and args.h is None:
        print(f"error: --model {args.model} needs --T or --h",
              file=sys.stderr)
        return 2
    else:
        h = args.h if args.h is not None else args.T / args.n
    serialize.write_increments(args.out,
                               entry.cell(truth, h, args.n).sample(args.seed))
    return 0


# estimate --method: name -> (flag the method needs or None, the flags it
# reads, the lookup of its report).  The report is looked up when it runs,
# so a patched estimator is seen, and gets only the flags given, as
# keywords, so each default lives in the report's signature
_ESTIMATE = {
    "log": (None, ("level",), lambda: symmetric.log_moment_estimate),
    "frac": ("p", ("p", "level"), lambda: symmetric.frac_moment_estimate),
    "sign-bipower": (None, ("q",), lambda: skewed.sign_bipower_estimate),
    "tripower": (None, ("q",), lambda: skewed.tripower_estimate),
    "gamma-mle": (None, (), lambda: subordinators.gamma_mle_estimate),
    "ig-mle": (None, (), lambda: subordinators.ig_mle_estimate),
    "pipeline": (None, ("p", "q", "level"), lambda: transforms.full_pipeline),
}


def _cmd_estimate(args) -> int:
    needs, reads, report = _ESTIMATE[args.method]
    given = {flag: getattr(args, flag) for flag in ("p", "q", "level")
             if getattr(args, flag) is not None}
    if needs is not None and needs not in given:
        print(f"error: --method {args.method} needs --{needs}",
              file=sys.stderr)
        return 2
    for flag in given:
        if flag not in reads:
            print(f"error: --method {args.method} does not read --{flag}",
                  file=sys.stderr)
            return 2
    sample = serialize.read_increments(args.infile)
    _write_lines(args.out, [report()(sample, **given).to_json()])
    return 0


def _cmd_montecarlo(args) -> int:
    with open(args.config, "r", encoding="utf8") as fh:
        payload = json.load(fh)
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
    return 0


def _cmd_table(args) -> int:
    rows = mc.run_preset(args.table_id, replications=args.reps,
                         master_seed=args.seed, beta=args.beta,
                         n_list=args.n if args.n else None)
    echo = {"table": args.table_id, "master_seed": args.seed,
            "replications": args.reps if args.reps else "preset-default"}
    mc.emit(rows, args.format, args.out, echo)
    return 0


def _betas(args) -> list[float]:
    return [args.beta] if args.beta_grid is None else args.beta_grid


def _cmd_fisher(args) -> int:
    header = ["beta", "sigma", "i_beta_beta", "i_beta_sigma",
              "i_sigma_sigma", "i_gamma_gamma", "top_left_det"]
    lines = [",".join(header)]
    for beta in _betas(args):
        info = fisher_matrix(beta, args.sigma)
        m = info.matrix
        lines.append(_dump_row(header, (beta, args.sigma, m[0, 0], m[0, 1],
                                        m[1, 1], m[2, 2],
                                        info.top_left_det())))
    _write_lines(args.out, lines)
    return 0


def _cmd_density(args) -> int:
    for flag, value in (("--y-min", args.y_min), ("--y-max", args.y_max)):
        if value is not None and not math.isfinite(value):
            print(f"error: {flag} must be finite, got {value}",
                  file=sys.stderr)
            return 2
    if not 1 <= args.points <= _GRID_POINTS:
        print(f"error: --points must be from 1 to {_GRID_POINTS}, "
              f"got {args.points}", file=sys.stderr)
        return 2
    y_min = -args.y_max if args.y_min is None else args.y_min
    if not math.isfinite(args.y_max - y_min):
        # linspace's step would overflow and put non-finite points on the grid
        print(f"error: --y-min/--y-max span from {y_min} to {args.y_max} "
              "overflows: y_max - y_min must be finite", file=sys.stderr)
        return 2
    grid = np.linspace(y_min, args.y_max, args.points)
    if args.points > 1 and y_min == -args.y_max:
        # mirror exactly, so y and -y share one |y| and are evaluated once
        # (a 1-point grid is y_min alone)
        grid = 0.5 * (grid - grid[::-1])
    dens, deriv = phi_pair(grid, args.beta, args.sigma)
    header = ["y", "phi", "dphi"]
    lines = [",".join(header)]
    lines += [_dump_row(header, cells) for cells in zip(grid, dens, deriv)]
    _write_lines(args.out, lines)
    return 0


def _cmd_variance(args) -> int:
    header = ["beta", "sigma", "v_log_11", "v_log_12", "v_log_22",
              "v_log_33", "median_sd"]
    if args.p is not None:
        header += ["v_p_11", "v_p_12", "v_p_22"]
    lines = [",".join(header)]
    for beta in _betas(args):
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
    _write_lines(args.out, lines)
    return 0


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
    sim.add_argument("--params", required=True,
                     help="comma-separated key=value parameter list")
    sim.add_argument("--n", type=int, required=True)
    sim_mesh = sim.add_mutually_exclusive_group()
    sim_mesh.add_argument("--T", type=_scale, default=None,
                          help="horizon; the mesh is T/n")
    sim_mesh.add_argument("--h", type=_scale, default=None, help="mesh")
    sim.add_argument("--seed", type=_stream_seed, default=0)
    sim.add_argument("--path", choices=("cosine", "constant"), default=None,
                     help="scale path for timevarying (default cosine)")
    sim.add_argument("--out", required=True)
    sim.set_defaults(handler=_cmd_simulate)

    est = sub.add_parser("estimate", help="estimate parameters from a CSV")
    est.add_argument("--in", dest="infile", required=True)
    est.add_argument("--method", required=True, choices=_ESTIMATE)
    est.add_argument("--p", type=float, default=None,
                     help="fractional moment power (frac, pipeline)")
    est.add_argument("--q", type=float, default=None,
                     help="power for sign-bipower/tripower (default 0.25) "
                          "or the pipeline consistency diagnostic")
    est.add_argument("--level", type=float, default=None,
                     help="confidence level for intervals (log, frac, "
                          "pipeline; default 0.95)")
    est.add_argument("--out", default=None)
    est.set_defaults(handler=_cmd_estimate)

    mcp = sub.add_parser("montecarlo", help="run experiment configs (JSON)")
    mcp.add_argument("--config", required=True)
    mcp.add_argument("--out", required=True)
    mcp.add_argument("--format", choices=("csv", "json"), default="csv")
    mcp.set_defaults(handler=_cmd_montecarlo)

    tab = sub.add_parser("table", help="reproduce a simulation table")
    tab.add_argument("--id", dest="table_id", required=True,
                     choices=mc.PRESET_NAMES)
    tab.add_argument("--reps", type=int, default=None)
    tab.add_argument("--seed", type=int, default=mc.DEFAULT_MASTER_SEED)
    tab.add_argument("--out", required=True)
    tab.add_argument("--format", choices=("csv", "json"), default="csv")
    tab.add_argument("--beta", type=float, default=None,
                     help="restrict to one true index")
    tab.add_argument("--n", type=int, nargs="+", default=None,
                     help="override the preset sample sizes")
    tab.set_defaults(handler=_cmd_table)

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
    den.add_argument("--y-min", type=float, default=None)
    den.add_argument("--y-max", type=float, default=10.0)
    den.add_argument("--points", type=int, default=201)
    den.add_argument("--out", default=None)
    den.set_defaults(handler=_cmd_density)

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
            return args.handler(args)
        except LevyEstimError as exc:
            payload = exc.to_json_dict()
        except OSError as exc:
            payload = {"code": "io_error", "message": str(exc), "context": {}}
        except ValueError as exc:
            payload = {"code": "value_error", "message": str(exc),
                       "context": {}}
        finally:
            for note in caught:
                _report({"code": "warning", "message": str(note.message),
                         "context": {"category": note.category.__name__}})
    _report(payload)
    return 1


if __name__ == "__main__":
    sys.exit(main())
