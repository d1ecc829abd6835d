"""The levyestim command line contract: one ordered table of requests.

A case is a request (argv after the program name), the files written
first, and what it must do.  Its exit code: 0 success, 1 runtime error, 2
flag error.  Its stdout: empty.  Its stderr: at exit 0 or 1, exactly one
strict-JSON line per warning or error, each given by its code or as
(code, context); at exit 2, the subcommand's ``usage: levyestim <cmd>``
line first and an error line last that holds each given text.  Its files:
those the case names, ("lines", ...) whole lines held, ("same", name) or
("golden", name) byte-equal to a file written earlier or in tests/golden,
("json", key, value) a strict-JSON object with that key (NONEMPTY: present
and non-empty), or ABSENT; and its --out file, non-empty at exit 0 and
absent otherwise.

The cases run in order in one directory, so one may read what an earlier
one wrote.  tests/test_cli_contract.py replays them in-process.  Run as a
script, this file replays them twice in a fresh temporary directory, the
second pass overwriting the first's outputs, through the command its
arguments give, importing only the standard library:

    python tests/cli_contract.py levyestim
    PYTHONPATH=src python tests/cli_contract.py python -m levyestim.cli
"""

import json
import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"
NONEMPTY, ABSENT = "non-empty", "absent"


@dataclass
class Case:
    id: str
    argv: tuple
    exit: int
    err: tuple = ()
    files: dict = field(default_factory=dict)
    write: dict = field(default_factory=dict)

    def checks(self) -> dict:
        """Every file expectation: the case's own, then the --out rule."""
        out = dict(self.files)
        if "--out" in self.argv:
            name = self.argv[self.argv.index("--out") + 1]
            out.setdefault(name, NONEMPTY if self.exit == 0 else ABSENT)
        return out


def _kind(exit):
    # ok(id, argv, *warning codes), fails(id, argv, *error lines) and
    # usage(id, argv, *texts of the error line), each with files= and write=
    def case(id, argv, *err, **kw):
        return Case(id, tuple(argv.split()), exit, err, **kw)
    return case


ok, fails, usage = _kind(0), _kind(1), _kind(2)


def _config(id, text, context):
    # montecarlo on a config written first as id.json: one domain_error
    return fails(id, f"montecarlo --config {id}.json --out {id}.csv",
                 ("domain_error", context), write={f"{id}.json": text})


# one symmetric and one time-varying design, 2 replications each
_MC = """\
[{"model": "symmetric_stable",
  "truth": {"beta": 1.5, "sigma": 0.5, "gamma": -0.5},
  "n_list": [501], "h_rule": {"kind": "fixed_T", "T": 5.0},
  "replications": 2, "estimators": [{"id": "log", "kind": "log"}]},
 {"model": "timevarying_stable",
  "truth": {"beta": 1.5, "p_pos": 0.45, "sigma_star": 0.6, "path": "cosine"},
  "n_list": [500], "h_rule": {"kind": "fixed_T", "T": 1.0},
  "replications": 2,
  "estimators": [{"id": "tripower", "kind": "tripower", "q": 0.25}]}]
"""
_MODEL = '"model": "symmetric_stable",'
_LOG = '{"id": "log", "kind": "log"}'
_SIM = "simulate --model stable --params beta=1.5"
_TV = "simulate --model timevarying --params beta=1.5,p_pos=0.45 --n 100"
_DENSITY = "density --beta 1.5"
_MISSING = "estimate --in missing.csv --method"
_NO_INPUT = {"files": {"missing.csv": ABSENT}}

CASES = [
    ok("table4-csv", "table --id table4 --reps 2 --beta 1.5 --n 500 "
       "--out t.csv"),
    # the request is the header, though only h and n are read back; the
    # same seed writes the same file
    ok("simulate-stable", f"{_SIM},sigma=0.5 --n 2001 --T 5 --seed 1 "
       "--out s.csv", files={"s.csv": ("lines", "# model='stable'",
                                       "# seed=1")}),
    ok("simulate-same-seed", f"{_SIM},sigma=0.5 --n 2001 --T 5 --seed 1 "
       "--out s-again.csv", files={"s-again.csv": ("same", "s.csv")}),
    ok("simulate-gamma", "simulate --model gamma --params delta=2,gamma=1.5 "
       "--n 2000 --T 200 --seed 5 --out g.csv"),
    ok("simulate-ig", "simulate --model ig --params delta=2,gamma=1.5 "
       "--n 2000 --T 200 --seed 6 --out i.csv"),
    ok("simulate-timevarying", "simulate --model timevarying --params "
       "beta=1.5,p_pos=0.45 --n 500 --out tv.csv"),
    # a constant path's header names its scale
    ok("simulate-constant-path", "simulate --model timevarying --params "
       "beta=1.45,p_pos=0.55,sigma=0.8 --path constant --n 500 "
       "--out tvk.csv", files={"tvk.csv": ("lines", "# sigma=0.8")}),
    ok("simulate-skewed", f"{_SIM},p_pos=0.4 --n 2001 --T 1 --seed 2 "
       "--out k.csv"),
    # every method; a report names the method that wrote it
    *[ok(f"estimate-{method}", f"estimate --in {src} --method {method} "
         f"{flags} --out {method}.json",
         files={f"{method}.json": ("json", "method", method)})
      for src, method, flags in (
          ("s.csv", "frac", "--p 0.1"), ("s.csv", "log", ""),
          ("g.csv", "gamma-mle", ""), ("i.csv", "ig-mle", ""),
          ("k.csv", "sign-bipower", ""), ("k.csv", "tripower", ""),
          ("k.csv", "pipeline", ""))],
    # a '#' line and a blank line inside the value block: the per-line reader
    ok("estimate-per-line-reader", "estimate --in m.csv --method gamma-mle "
       "--out m.json", files={"m.json": ("json", "method", "gamma-mle")},
       write={"m.csv": "# h=0.5\n0.8\n1.3\n# note=mid\n0.4\n\n2.1\n0.9\n"
                       "1.6\n0.2\n1.1\n"}),
    ok("density", f"{_DENSITY} --out d.csv"),
    # a warning is one strict-JSON line on stderr, like an error
    ok("density-far-tail", f"{_DENSITY} --y-max 100 --points 5 --out dw.csv",
       "warning"),
    # phi(+-10; 1e-160) ~ 1e-243 is kept, though phi(1e161) underflows
    ok("density-tiny-scale", f"{_DENSITY} --sigma 1e-160 --points 3 "
       "--out dt.csv", "warning", files={"dt.csv": (
           "lines", "y,phi,dphi", "-10,9.461746958e-244,2.365436739e-244",
           "0,2.873527515e+159,0", "10,9.461746958e-244,-2.365436739e-244")}),
    ok("fisher-grid", "fisher --beta-grid 0.5:1.99:0.03 --out f.csv",
       files={"f.csv": ("golden", "fisher_grid.csv")}),
    # the band next to beta = 2, where the core's round count moves
    ok("fisher-near-two", "fisher --beta-grid 1.99:1.9999:0.0001 "
       "--out fn.csv", files={"fn.csv": ("golden", "fisher_near_two.csv")}),
    # next to beta = 2 phi' takes the direct weight, and the information
    # integrals converge
    ok("fisher-next-to-two", "fisher --beta 1.9999 --out f2.csv"),
    # a one-value grid is --beta; its output overwrites a longer file and
    # leaves none of that file's tail
    ok("fisher-one-value-grid", "fisher --beta-grid 1.9999 --out f2-grid.csv",
       files={"f2-grid.csv": ("same", "f2.csv")},
       write={"f2-grid.csv": "an earlier, longer file\n" * 20}),
    ok("variance-grid", "variance --beta-grid 0.5:2:0.5 --p 0.1 --out v.csv"),
    ok("table1-json", "table --id table1 --reps 2 --beta 1.5 --n 501 "
       "--format json --out t.json"),
    # one echo line per design, keyed by its position
    ok("montecarlo-csv", "montecarlo --config mc.json --out mc.csv",
       files={"mc.csv": ("lines", "# config_0=custom:symmetric_stable",
                         "# config_1=custom:timevarying_stable")},
       write={"mc.json": _MC}),
    ok("montecarlo-json", "montecarlo --config mc.json --format json "
       "--out mc-rows.json", files={"mc-rows.json": ("json", "rows",
                                                     NONEMPTY)}),

    # --- flag errors: argparse's exit 2, before any work
    usage("missing-required-flags", "simulate --model stable",
          "the following arguments are required: --params"),
    usage("unknown-choice", "table --id table9 --out x.csv",
          "argument --id: invalid choice: 'table9'"),
    usage("params-key-model-does-not-read", f"{_SIM},delta=1 --n 10 --T 5 "
          "--out unwritten.csv", "--params"),
    # the last value used to win: beta=1.5,beta=0.7 simulated beta = 0.7
    usage("params-key-twice", f"{_SIM},beta=0.7,sigma=1 --n 10 --T 5 "
          "--out twice.csv", "argument --params: key 'beta' is given twice"),
    # the scale path fixes the horizon [0, 1]: --T or --h would be ignored
    *[usage(f"timevarying{flag}", f"{_TV} {flag} {value} --out tv{flag}.csv",
            flag, "horizon [0, 1]")
      for flag, value in (("--T", "5"), ("--h", "0.01"))],
    # only the time-varying model reads a scale path
    *[usage(f"{path}-path-{model}-{params}", f"simulate --model {model} "
            f"--params {params} --n 10 --T 5 --path {path} --out p.csv",
            f"--model {model} takes no --path")
      for model, params, path in (
          ("gamma", "delta=1,gamma=1", "cosine"),
          ("stable", "beta=1.5", "constant"),
          ("stable", "beta=1.5,p_pos=0.45", "constant"),
          ("gamma", "delta=1,gamma=1", "constant"),
          ("ig", "delta=1,gamma=1", "constant"))],
    usage("ig-needs-a-mesh", "simulate --model ig --params delta=1,gamma=1 "
          "--n 10 --out unwritten.csv", "--model ig needs --T or --h"),
    usage("stable-needs-a-mesh", f"{_SIM} --n 10 --out unwritten.csv",
          "--model stable needs --T or --h"),
    usage("T-and-h", f"{_SIM} --n 10 --T 5 --h 0.01 --out both.csv", "--T",
          "--h"),
    # a stream seed is an integer in [0, 2^128)
    *[usage(f"seed-{seed}", f"{_SIM} --n 10 --T 1 --seed {seed} "
            "--out neg.csv", "argument --seed:")
      for seed in ("-1", str(2 ** 128), "1.5", "abc")],
    # a method refuses a flag it does not read, or lacks one it needs,
    # before its input is read
    usage("log-reads-no-p", "estimate --in s.csv --method log --p 0.1 "
          "--out unread.json", "does not read --p"),
    usage("frac-needs-p", "estimate --in s.csv --method frac "
          "--out needs.json", "--method frac needs --p"),
    usage("tripower-reads-no-level", "estimate --in s.csv --method tripower "
          "--level 0.9 --out unread-level.json", "does not read --level"),
    # a range rule on one flag is that flag's type
    usage("log--level-1.5", "estimate --in s.csv --method log --level 1.5 "
          "--out level.json", "argument --level:"),
    *[usage(f"{method}{flag}-{value}", f"{_MISSING} {method} {flag} {value}"
            + (" --p 0.1" if method == "frac" and flag != "--p" else ""),
            f"argument {flag}:", **_NO_INPUT)
      for method, flag, value in (
          ("frac", "--level", "0"), ("pipeline", "--level", "nan"),
          ("frac", "--p", "0.5"), ("pipeline", "--p", "-0.1"),
          ("tripower", "--q", "0.7"), ("pipeline", "--q", "0.5"),
          ("sign-bipower", "--q", "inf"))],
    *[usage(f"variance--p-{p}", f"variance --beta 1.5 --p {p}", "--p")
      for p in ("0.7", "0.5", "0", "-1", "nan", "inf")],
    # a dump has at most 10001 rows: more are refused before any allocation
    *[usage(f"density--points-{points}", f"{_DENSITY} --points {points}",
            "--points", *(("10001",) if int(points) > 1 else ()))
      for points in ("10002", "10000000000000", "0", "-1")],
    # "--y-max=-inf": argparse reads a separate "-inf" as an option
    *[usage(f"density{flag}-{value}", f"{_DENSITY} {flag}={value}", flag)
      for value in ("nan", "inf", "-inf") for flag in ("--y-min", "--y-max")],
    # finite bounds whose span overflows: the grid step would not be finite
    *[usage(f"density-span-{index}", f"{_DENSITY} --points 3 {bounds}",
            "--y-min/--y-max")
      for index, bounds in enumerate(("--y-max 1e308",
                                      "--y-min=-1e308 --y-max 1e308",
                                      "--y-min=-1e308 --y-max 9e307"))],
    *[usage(f"{command}-grid-{index}", f"{command} {grid}", "--beta-grid")
      for index, (command, grid) in enumerate((
          ("fisher", "--beta-grid 2:1:0.5"),
          ("fisher", "--beta-grid 1.2:inf:0.1"),
          ("variance", "--beta-grid 0.5:1e300:1e-300"),
          ("variance", "--beta-grid 1:2"), ("fisher", "--beta-grid a:2:0.1"),
          ("fisher", ""), ("variance", ""),
          ("fisher", "--beta 1.5 --beta-grid 1.2:1.3:0.1")))],
    # a one-value grid takes the finiteness rule of lo:hi:step
    *[usage(f"{command}-grid-{value}", f"{command} --beta-grid {value}",
            "argument --beta-grid: grid lo, hi, step and step count must "
            "be finite")
      for command, value in (("fisher", "nan"), ("fisher", "inf"),
                             ("variance", "1e400"))],
    # a --beta that is not finite filtered no design out
    *[usage(f"table{flags.split()[0]}", f"table --id table1 {flags} "
            "--out t1.csv", f"argument {flags.split()[0]}: must be {what}")
      for flags, what in (("--reps 0", "an integer >= 1"),
                          ("--n 501 0", "an integer >= 1"),
                          ("--beta nan --reps 1 --n 51", "a finite number"))],
    # a repeated n would run its designs again and write every row twice
    usage("table--n-twice", "table --id table1 --beta 1.5 --n 501 501 "
          "--reps 2 --out twice-n.csv", "--n: 501 is given more than once"),

    # --- runtime errors: exit 1, one strict-JSON line, no file
    fails("missing-input", f"{_MISSING} log", "io_error", **_NO_INPUT),
    # a metadata key given twice is refused, not resolved to its last value
    fails("metadata-key-twice", "estimate --in twice-h.csv --method log",
          "data_error",
          write={"twice-h.csv": "# h=0.1\n# h=0.2\n0.5\n-0.2\n0.3\n"}),
    # h^(1/beta) sigma underflows to 0: no file of 0.0 values; a sigma
    # outside its domain is named as the request wrote it; a scale that
    # underflows in the beta = 1 drift's log(h sigma), or overflows in a
    # power, is refused; values that overflow at a finite scale are one
    # data_error, with no numpy warning before it
    *[fails(name, f"simulate --model stable --params {params} --n 5 {mesh} "
            f"--out {name}.csv", err)
      for name, params, mesh, err in (
          ("scale-underflow", "beta=0.5,sigma=1", "--h 1e-300",
           ("domain_error", {"beta": 0.5, "h": 1e-300})),
          ("sigma-negative", "beta=1.5,p_pos=0.45,sigma=-1", "--T 1",
           ("domain_error", {"sigma": -1.0})),
          ("drift-log-underflow", "beta=1,sigma=1e-30", "--h 1e-300",
           ("domain_error", {"beta": 1.0, "h": 1e-300})),
          ("scale-overflow", "beta=0.5,sigma=1", "--h 1e300",
           ("domain_error", {"beta": 0.5, "h": 1e300})),
          ("sigma-power-overflow", "beta=1.9,p_pos=0.5,sigma=1e200", "--T 1",
           ("domain_error", {"beta": 1.9, "h": 0.2})),
          ("value-overflow", "beta=1,sigma=1,rho=0.3,gamma=0.5",
           "--h 1.7976931348623157e308", "data_error"),
          ("tiny-index-overflow", "beta=5e-324,sigma=1", "--h 1",
           "data_error"))],
    # 1e15 values, petabytes: numpy refuses the allocation outright
    *[fails(f"unallocatable-{argv.split()[0]}", f"{argv} --n "
            f"1000000000000000 --out huge-{argv.split()[0]}.csv",
            "memory_error")
      for argv in (f"{_SIM} --T 5", "table --id table1 --reps 2 --beta 1.5")],
    fails("fisher-overflow", "fisher --beta 1.5 --sigma 1e-170",
          "domain_error"),
    fails("variance-beta-3", "variance --beta 3", "domain_error"),
    fails("table-beta-selects-nothing", "table --id table1 --beta 0.7 "
          "--reps 2 --out miss.csv",
          ("domain_error", {"table_id": "table1", "beta": 0.7})),
    # a time-varying design lives on [0, 1]: T = 5 is refused; a misspelt
    # field is refused, not dropped, and so is a key given twice in one
    # object; an estimator id given twice would draw the same streams and
    # write its rows twice
    _config("mc-T5", _MC.replace('"T": 1.0', '"T": 5'),
            {"field": "h_rule.T"}),
    _config("mc-misspelt-field", _MC.replace(
        _MODEL, f'{_MODEL} "master_sead": 7,'), {"field": "master_sead"}),
    _config("mc-key-twice", _MC.replace(
        '"replications": 2,', '"replications": 2, "replications": 3,'),
        {"key": "replications"}),
    _config("mc-id-twice", _MC.replace(
        _LOG, f'{_LOG}, {{"id": "log", "kind": "median"}}'),
        {"field": "estimators.id", "value": "log"}),
    # a label or id is written unquoted into CSV cells and echo lines: a
    # comma, quote or line break splits them, a leading '#' makes a comment
    *[_config(f"mc-label-{i}", _MC.replace(
        _MODEL, f'"label": {json.dumps(text)}, {_MODEL}'),
        {"field": "label", "value": text})
      for i, text in enumerate(("a\nb,c", "#t", 'say "hi"', "a\rb"))],
    *[_config(f"mc-id-{i}", _MC.replace(
        '"id": "log"', f'"id": {json.dumps(text)}'),
        {"field": "estimators.id", "value": text})
      for i, text in enumerate(("log\nx,y", "#log"))],
    # a residual that overflows is one error, no numpy warning before it:
    # a pair of values near +-1.7e308, or a median near 1.7e308 with one
    # value near -1.7e308
    fails("residual-overflow-pipeline", "estimate --in overflow.csv --method "
          "pipeline", ("data_error", {"count": 1, "first_index": 2}),
          write={"overflow.csv": "# h=1\n1.0\n2.0\n-1.0\n0.5\n1.7e308\n"
                                 "-1.7e308\n3.0\n-2.0\n0.25\n"}),
    *[fails(f"residual-overflow-{method}", "estimate --in overflow-median.csv"
            f" --method {method}{flags}", ("estimation_error", context),
            write={"overflow-median.csv": "# h=1\n1.7e308\n1.65e308\n"
                   "1.75e308\n1.6e308\n-1.7e308\n1.78e308\n1.55e308\n"})
      for method, flags, context in (
          ("log", "", {"field": "beta_hat", "method": "log"}),
          ("frac", " --p 0.1", {"h1": None, "h2": None}))],
    # equal increments leave the MLE statistics at rounding level
    fails("gamma-mle-equal-values", "estimate --in equal-gamma.csv "
          "--method gamma-mle", "nonpositive_k",
          write={"equal-gamma.csv": "# h=0.01\n" + "0.28\n" * 101}),
    fails("ig-mle-equal-values", "estimate --in equal-ig.csv --method ig-mle",
          "nonpositive_brace",
          write={"equal-ig.csv": "# h=0.1\n" + "1\n" * 10}),
]


def _strict(text: str):
    # the JSON value of text, or None where it is not strict JSON
    def refuse(name):
        raise ValueError(name)
    try:
        return json.loads(text, parse_constant=refuse)
    except ValueError:
        return None


def check(case: Case, invoke, cwd) -> None:
    """Write the case's input files in ``cwd``, run its request through
    ``invoke(argv, cwd) -> (exit code, stdout, stderr)``, and raise
    AssertionError naming the case and the first expectation it breaks."""
    cwd = Path(cwd)
    for name, text in case.write.items():
        (cwd / name).write_text(text, encoding="utf8")
    code, out, err = invoke(list(case.argv), cwd)

    def expect(holds, what):
        if not holds:
            raise AssertionError(f"case {case.id} (levyestim "
                                 f"{' '.join(case.argv)}): {what}\n"
                                 f"stderr: {err}")

    expect(code == case.exit, f"exit {code}, expected {case.exit}")
    expect(out == "", f"stdout is not empty: {out[:200]!r}")
    got = err.splitlines()
    if case.exit == 2:
        expect(got and got[0].startswith(f"usage: levyestim {case.argv[0]} "),
               "stderr does not start with the subcommand's usage line")
        for text in case.err:
            expect(text in got[-1], f"the error line lacks {text!r}")
    else:
        expect(len(got) == len(case.err),
               f"{len(got)} stderr lines, expected {len(case.err)}")
        for line, want in zip(got, case.err):
            want_code, context = (want, None) if isinstance(want, str) \
                else want
            payload = _strict(line)
            expect(isinstance(payload, dict)
                   and set(payload) == {"code", "message", "context"}
                   and payload["code"] == want_code
                   and context in (None, payload["context"]),
                   f"stderr line {line!r} is not {want!r}")
    for name, want in case.checks().items():
        path = cwd / name
        if want == ABSENT:
            expect(not path.exists(), f"{name} exists")
            continue
        expect(path.is_file() and path.stat().st_size,
               f"{name} is missing or empty")
        if want[0] == "lines":
            held = path.read_text(encoding="utf8").splitlines()
            for line in want[1:]:
                expect(line in held, f"{name} lacks the line {line!r}")
        elif want[0] in ("same", "golden"):
            other = (cwd if want[0] == "same" else GOLDEN) / want[1]
            expect(path.read_bytes() == other.read_bytes(),
                   f"{name} differs from {other}")
        elif want[0] == "json":
            payload = _strict(path.read_text(encoding="utf8"))
            key, value = want[1:]
            found = payload.get(key) if isinstance(payload, dict) else None
            expect(found if value == NONEMPTY else found == value,
                   f"{name} holds {key}={found!r}, expected {value!r}")


def run(invoke, cwd, cases=CASES) -> list:
    """Check every case in order in ``cwd``; the failure messages."""
    failures = []
    for case in cases:
        try:
            check(case, invoke, cwd)
        except AssertionError as exc:
            failures.append(str(exc))
    return failures


def command(prefix):
    """An invoke that runs ``prefix + argv`` as a subprocess.  Relative
    PYTHONPATH entries keep pointing where they did from this directory."""
    env = dict(os.environ)
    if env.get("PYTHONPATH"):
        env["PYTHONPATH"] = os.pathsep.join(
            map(os.path.abspath, env["PYTHONPATH"].split(os.pathsep)))

    def invoke(argv, cwd):
        done = subprocess.run([*prefix, *argv], cwd=cwd, env=env, text=True,
                              capture_output=True, check=False)
        return done.returncode, done.stdout, done.stderr
    return invoke


def main(prefix) -> int:
    """Replay the table twice in one directory, so the second pass
    overwrites every output the first wrote; print each pass's count."""
    if not prefix:
        sys.exit("usage: python cli_contract.py PROGRAM [ARG ...]")
    failed = 0
    with tempfile.TemporaryDirectory() as cwd:
        for replay in ("first", "second"):
            failures = run(command(prefix), cwd)
            for message in failures:
                print(f"FAIL {message}")
            print(f"{replay} pass: {len(CASES) - len(failures)} of "
                  f"{len(CASES)} cases passed")
            failed += len(failures)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
