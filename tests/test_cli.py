"""Command line round trips, exit codes, and dump formats."""

import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import trapezoid

import levyestim
import levyestim.cli
from levyestim import mc, stable_density
from levyestim.cli import _parse_grid, build_parser, main
from levyestim.errors import (
    DataError,
    DomainError,
    EstimationError,
    LevyEstimError,
)
from levyestim.mc import MODELS, ExperimentConfig, run_experiment
from levyestim.serialize import (
    SUMMARY_COLUMNS,
    EstimateReport,
    read_increments,
    write_increments,
)
from levyestim.stable_core import (
    IncrementSample,
    increments_cell,
)
from levyestim.subordinators import gamma_mle, ig_mle


def run_cli(*argv):
    return main(list(argv))


def flag_error(capsys, *argv):
    # a flag error is argparse's SystemExit(2); returns what it printed
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 2
    return capsys.readouterr()


# ---------------------------------------------------------------------------
# exit code contract


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("--help")
    assert exc.value.code == 0
    assert "simulate" in capsys.readouterr().out


def test_runtime_error_emits_json_and_exits_one(tmp_path, capsys):
    assert run_cli("simulate", "--model", "stable",
                   "--params", "beta=0.8,sigma=0.5",
                   "--n", "500", "--T", "5", "--seed", "3",
                   "--out", str(tmp_path / "b08.csv")) == 0
    capsys.readouterr()
    rc = run_cli("estimate", "--in", str(tmp_path / "b08.csv"),
                 "--method", "frac", "--p", "0.2")
    assert rc == 1
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert set(payload) == {"code", "message", "context"}
    assert payload["code"] == "root_out_of_bracket"


# one case per exit-2 rule that spans flags, and one flag-type case: each
# is argparse's SystemExit(2) with the subcommand's usage line first and an
# error line naming the flag (name -> argv, the flag named)
_UNWRITTEN = ("--out", "unwritten.csv")
_FLAG_RULES = {
    "points-type": (("density", "--beta", "1.5", "--points", "10002"),
                    "--points"),
    "params-model": (("simulate", "--model", "stable", "--params",
                      "beta=1.5,delta=1", "--n", "10", "--T", "5",
                      *_UNWRITTEN), "--params"),
    "timevarying-T": (("simulate", "--model", "timevarying", "--params",
                       "beta=1.5,p_pos=0.45", "--n", "10", "--T", "5",
                       *_UNWRITTEN), "--T"),
    "timevarying-h": (("simulate", "--model", "timevarying", "--params",
                       "beta=1.5,p_pos=0.45", "--n", "10", "--h", "0.1",
                       *_UNWRITTEN), "--h"),
    "path": (("simulate", "--model", "gamma", "--params", "delta=1,gamma=1",
              "--n", "10", "--T", "5", "--path", "cosine", *_UNWRITTEN),
             "--path"),
    "mesh": (("simulate", "--model", "ig", "--params", "delta=1,gamma=1",
              "--n", "10", *_UNWRITTEN), "--T or --h"),
    "estimate-needs": (("estimate", "--in", "unread.csv", "--method", "frac"),
                       "--p"),
    "estimate-reads": (("estimate", "--in", "unread.csv", "--method",
                        "tripower", "--level", "0.9"), "--level"),
    "density-span": (("density", "--beta", "1.5", "--y-min=-1e308",
                      "--y-max", "9e307"), "--y-min/--y-max"),
}


@pytest.mark.parametrize("rule", list(_FLAG_RULES))
def test_every_flag_error_is_a_usage_error_naming_the_flag(capsys, rule):
    argv, flag = _FLAG_RULES[rule]
    captured = flag_error(capsys, *argv)
    assert captured.err.startswith(f"usage: levyestim {argv[0]} ")
    assert flag in captured.err.splitlines()[-1]
    assert captured.out == ""


def test_frac_without_p_is_flag_error(tmp_path, capsys):
    run_cli("simulate", "--model", "stable", "--params", "beta=1.5",
            "--n", "50", "--T", "1", "--out", str(tmp_path / "x.csv"))
    capsys.readouterr()
    assert "--p" in flag_error(capsys, "estimate", "--in",
                               str(tmp_path / "x.csv"), "--method",
                               "frac").err


# the estimate flag rules, the whole method x {--p, --q, --level} matrix:
# a method refuses each flag it does not read (given with the flags it
# needs) and accepts each flag it reads
_REFUSED_FLAGS = [
    ("log", ["--p", "0.1"], "--p"), ("log", ["--q", "0.3"], "--q"),
    ("frac", ["--p", "0.1", "--q", "0.3"], "--q"),
    ("sign-bipower", ["--level", "0.9"], "--level"),
    ("tripower", ["--p", "0.1"], "--p"),
    ("gamma-mle", ["--level", "0.95"], "--level"),
    ("ig-mle", ["--q", "0.25"], "--q"),
    ("sign-bipower", ["--p", "0.1"], "--p"),
    ("tripower", ["--level", "0.9"], "--level"),
    ("gamma-mle", ["--p", "0.1"], "--p"),
    ("gamma-mle", ["--q", "0.25"], "--q"),
    ("ig-mle", ["--p", "0.1"], "--p"),
    ("ig-mle", ["--level", "0.9"], "--level"),
]
_ACCEPTED_FLAGS = [
    ("log", ["--level", "0.9"]), ("frac", ["--p", "0.1"]),
    ("frac", ["--p", "0.1", "--level", "0.9"]),
    ("sign-bipower", ["--q", "0.3"]), ("tripower", ["--q", "0.3"]),
    ("pipeline", ["--p", "0.1"]), ("pipeline", ["--q", "0.3"]),
    ("pipeline", ["--level", "0.9"]),
]


def test_estimate_flag_rules_cover_every_method_and_flag():
    refused = [(method, flag) for method, _, flag in _REFUSED_FLAGS]
    accepted = [(method, flags[-2]) for method, flags in _ACCEPTED_FLAGS]
    methods = ("log", "frac", "sign-bipower", "tripower", "gamma-mle",
               "ig-mle", "pipeline")
    assert sorted(refused + accepted) == sorted(
        (method, flag) for method in methods
        for flag in ("--p", "--q", "--level"))


def _gamma_file(tmp_path, capsys):
    src = tmp_path / "x.csv"
    assert run_cli("simulate", "--model", "gamma", "--params",
                   "delta=2,gamma=1.5", "--n", "50", "--T", "5",
                   "--out", str(src)) == 0
    capsys.readouterr()
    return src


@pytest.mark.parametrize("method,flags,refused", _REFUSED_FLAGS)
def test_estimate_refuses_a_flag_its_method_does_not_read(tmp_path, capsys,
                                                         method, flags,
                                                         refused):
    src = _gamma_file(tmp_path, capsys)
    err = flag_error(capsys, "estimate", "--in", str(src), "--method",
                     method, *flags).err
    assert f"does not read {refused}" in err


@pytest.mark.parametrize("method,flags", _ACCEPTED_FLAGS)
def test_estimate_accepts_a_flag_its_method_reads(tmp_path, capsys, method,
                                                  flags):
    # a flag error would raise SystemExit(2); exit 1 is an estimate that
    # failed on this sample
    src = _gamma_file(tmp_path, capsys)
    assert run_cli("estimate", "--in", str(src), "--method", method,
                   *flags) in (0, 1)


def test_estimate_level_defaults_to_95_percent(tmp_path, capsys):
    src = tmp_path / "x.csv"
    assert run_cli("simulate", "--model", "stable", "--params",
                   "beta=1.25,sigma=0.5,rho=0.2,gamma=-0.5", "--n", "2001",
                   "--T", "5", "--seed", "1", "--out", str(src)) == 0
    for method in (["log"], ["frac", "--p", "0.1"], ["pipeline"]):
        capsys.readouterr()
        assert run_cli("estimate", "--in", str(src), "--method",
                       *method) == 0
        bare = capsys.readouterr().out
        assert run_cli("estimate", "--in", str(src), "--method", *method,
                       "--level", "0.95") == 0
        assert capsys.readouterr().out == bare
        assert run_cli("estimate", "--in", str(src), "--method", *method,
                       "--level", "0.5") == 0
        assert capsys.readouterr().out != bare


def test_grid_point_count_is_capped(capsys):
    # 10 001 points pass; one step finer is refused before any work
    assert len(_parse_grid("1:2:1e-4")) == 10_001
    for argv in (("variance", "--beta-grid", "1:2:1e-5"),
                 ("fisher", "--beta-grid", "1.2:1.3:1e-300")):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 2
        assert "--beta-grid" in capsys.readouterr().err


_SCALE_FLAGS = {  # command -> argv up to the flag that takes a scale
    "fisher": ("fisher", "--beta", "1.5", "--sigma"),
    "density": ("density", "--beta", "1.5", "--sigma"),
    "variance": ("variance", "--beta", "1.5", "--sigma"),
    "simulate-h": ("simulate", "--model", "stable", "--params", "beta=1.5",
                   "--n", "10", "--out", "unwritten.csv", "--h"),
    "simulate-T": ("simulate", "--model", "stable", "--params", "beta=1.5",
                   "--n", "10", "--out", "unwritten.csv", "--T"),
}


@pytest.mark.parametrize("command", list(_SCALE_FLAGS))
@pytest.mark.parametrize("sigma", ["inf", "-inf", "nan", "0", "-1", "abc"])
def test_sigma_must_be_finite_and_positive(command, sigma, capsys):
    # --sigma, and simulate's --h and --T, exit 2 naming the flag
    argv = _SCALE_FLAGS[command]
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv, sigma)
    assert exc.value.code == 2
    assert argv[-1] in capsys.readouterr().err


# ---------------------------------------------------------------------------
# simulate / estimate round trips


def test_simulate_writes_increment_file(tmp_path):
    out = tmp_path / "x.csv"
    rc = run_cli("simulate", "--model", "stable",
                 "--params", "beta=1.5,sigma=0.5,rho=0,gamma=-0.5",
                 "--n", "2001", "--T", "5", "--seed", "42", "--out", str(out))
    assert rc == 0
    sample = read_increments(out)
    assert sample.n == 2001
    assert sample.h == pytest.approx(5.0 / 2001, rel=1e-15)
    # the request is written as the header, but only h and n are read back
    lines = out.read_text().splitlines()
    assert "# seed=42" in lines
    # one value per line after the metadata comments
    body = [ln for ln in lines if not ln.startswith("#")]
    assert len(body) == 2001


def test_simulate_is_deterministic_per_seed(tmp_path):
    args = ("simulate", "--model", "stable", "--params", "beta=1.2",
            "--n", "300", "--h", "0.01", "--seed", "9")
    run_cli(*args, "--out", str(tmp_path / "a.csv"))
    run_cli(*args, "--out", str(tmp_path / "b.csv"))
    run_cli(*args[:-1], "10", "--out", str(tmp_path / "c.csv"))
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert (tmp_path / "a.csv").read_bytes() != (tmp_path / "c.csv").read_bytes()


def test_simulate_subordinators_are_positive(tmp_path):
    for model in ("ig", "gamma"):
        out = tmp_path / f"{model}.csv"
        rc = run_cli("simulate", "--model", model,
                     "--params", "delta=1,gamma=2",
                     "--n", "500", "--h", "0.2", "--seed", "5",
                     "--out", str(out))
        assert rc == 0
        assert np.all(read_increments(out).values > 0.0)


def test_simulate_timevarying_cosine(tmp_path):
    out = tmp_path / "tv.csv"
    rc = run_cli("simulate", "--model", "timevarying", "--path", "cosine",
                 "--params", "beta=1.5,p_pos=0.5984", "--n", "400",
                 "--seed", "11", "--out", str(out))
    assert rc == 0
    assert read_increments(out).n == 400


@pytest.mark.parametrize("flag", [["--T", "5"], ["--h", "0.01"]])
def test_simulate_timevarying_refuses_a_mesh(tmp_path, capsys, flag):
    # the scale path fixes the horizon [0, 1]: --T or --h would be ignored
    out = tmp_path / "tv.csv"
    err = flag_error(capsys, "simulate", "--model", "timevarying",
                     "--params", "beta=1.5,p_pos=0.45", "--n", "100", *flag,
                     "--out", str(out)).err
    assert flag[0] in err and "horizon [0, 1]" in err
    assert not out.exists()


def test_simulate_timevarying_path_defaults_to_cosine(tmp_path):
    files = []
    for path in ([], ["--path", "cosine"]):
        files.append(tmp_path / f"tv{len(files)}.csv")
        assert run_cli("simulate", "--model", "timevarying", "--params",
                       "beta=1.5,p_pos=0.45", "--n", "50", "--seed", "4",
                       *path, "--out", str(files[-1])) == 0
    # the header records the request, so only the second names its path
    texts = [f.read_text().splitlines() for f in files]
    assert [line for line in texts[1] if line not in texts[0]] == \
        ["# path='cosine'"]
    assert [ln for ln in texts[0] if not ln.startswith("#")] == \
        [ln for ln in texts[1] if not ln.startswith("#")]


# every model and scale path that simulate writes
_WRITTEN = [("symmetric_stable", {"beta": 1.3, "sigma": 0.5, "rho": 0.2,
                                  "gamma": -0.5}, 0.005),
            ("skewed_stable", {"beta": 1.45, "p_pos": 0.55}, 0.001),
            ("timevarying_stable", {"beta": 1.45, "p_pos": 0.55,
                                    "path": "cosine"}, None),
            ("timevarying_stable", {"beta": 1.45, "p_pos": 0.55,
                                    "path": "constant", "sigma": 0.8}, None),
            ("gamma_sub", {"delta": 2.0, "gamma": 1.5}, 0.1),
            ("ig_sub", {"delta": 2.0, "gamma": 1.5}, 0.1)]


@pytest.mark.parametrize("model,truth,h", _WRITTEN,
                         ids=[f"{m}-{t.get('path', '')}" for m, t, _ in
                              _WRITTEN])
def test_written_values_are_the_repr_of_each_float(tmp_path, model, truth,
                                                   h):
    # the value lines are byte for byte repr(float(v)) of each value, after
    # the '#' metadata lines
    sample = MODELS[model].cell(truth, h, 500).sample(7)
    out = tmp_path / "x.csv"
    write_increments(out, sample, {})
    head = [line for line in out.read_text(encoding="utf8").splitlines()
            if line.startswith("#")]
    expected = "\n".join(head + [repr(float(v)) for v in sample.values])
    assert out.read_bytes() == (expected + "\n").encode("utf8")
    assert head[:2] == [f"# h={sample.h!r}", "# n=500"]


# the '#' lines simulate writes for each _WRITTEN case, as literal text: h,
# n and the request, though only h and n are read back
_WRITTEN_HEADERS = [
    ["# h=0.005", "# n=500", "# beta=1.3", "# gamma=-0.5",
     "# model='stable'", "# rho=0.2", "# seed=7", "# sigma=0.5"],
    ["# h=0.001", "# n=500", "# beta=1.45", "# model='stable'",
     "# p_pos=0.55", "# seed=7"],
    ["# h=0.002", "# n=500", "# beta=1.45", "# model='timevarying'",
     "# p_pos=0.55", "# path='cosine'", "# seed=7"],
    ["# h=0.002", "# n=500", "# beta=1.45", "# model='timevarying'",
     "# p_pos=0.55", "# path='constant'", "# seed=7", "# sigma=0.8"],
    ["# h=0.1", "# n=500", "# delta=2.0", "# gamma=1.5", "# model='gamma'",
     "# seed=7"],
    ["# h=0.1", "# n=500", "# delta=2.0", "# gamma=1.5", "# model='ig'",
     "# seed=7"],
]


@pytest.mark.parametrize("model,truth,h,header",
                         [(*case, head) for case, head in
                          zip(_WRITTEN, _WRITTEN_HEADERS)],
                         ids=[f"{m}-{t.get('path', '')}" for m, t, _ in
                              _WRITTEN])
def test_written_header_lines(tmp_path, model, truth, h, header):
    # simulate writes the header, then the values its cell draws
    flag = {"symmetric_stable": "stable", "skewed_stable": "stable",
            "timevarying_stable": "timevarying", "gamma_sub": "gamma",
            "ig_sub": "ig"}[model]
    params = ",".join(f"{k}={v}" for k, v in truth.items() if k != "path")
    argv = ["--path", truth["path"]] if "path" in truth else ["--h", str(h)]
    out = tmp_path / "x.csv"
    assert run_cli("simulate", "--model", flag, "--params", params, "--n",
                   "500", "--seed", "7", *argv, "--out", str(out)) == 0
    sample = MODELS[model].cell(truth, h, 500).sample(7)
    assert out.read_text(encoding="utf8").splitlines() == \
        header + [repr(v) for v in sample.values.tolist()]


_MISSING_CASES = [
    ("gamma", "delta=1", "'gamma'", "10"),
    ("stable", "sigma=1", "'beta'", "10"),
    ("timevarying", "beta=1.5", "'p_pos'", "10"),
    # a non-finite value is as unusable as a missing one
    ("stable", "beta=nan", "'beta'", "10"),
    ("stable", "beta=inf", "'beta'", "10"),
    ("gamma", "delta=1,gamma=-inf", "'gamma'", "10"),
    # so is a sample size below 1, for every model (0 was a
    # ZeroDivisionError in T / n)
    *[(model, params, "--n", n) for n in ("0", "-3")
      for model, params in (("gamma", "delta=1,gamma=1"),
                            ("ig", "delta=1,gamma=1"),
                            ("stable", "beta=1.5"),
                            ("stable", "beta=1.5,p_pos=0.45"),
                            ("timevarying", "beta=1.5,p_pos=0.45"))],
]


@pytest.mark.parametrize("model,params,key,n", _MISSING_CASES, ids=[
    f"{m}-{p}-{k}" if n == "10" else f"{m}-{p}-n={n}"
    for m, p, k, n in _MISSING_CASES])
def test_simulate_missing_param_key_exits_two(tmp_path, capsys, model,
                                              params, key, n):
    assert key in flag_error(capsys, "simulate", "--model", model,
                             "--params", params, "--n", n, "--T", "1",
                             "--seed", "1",
                             "--out", str(tmp_path / "x.csv")).err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("model,params,key", [
    ("gamma", "delta=1,gamma=2,rho=0", "'rho'"),
    ("stable", "beta=1.5,delta=1", "'delta'"),
    ("timevarying", "beta=1.5,p_pos=0.6,gamma=0", "'gamma'"),
    # the skewed form reads no rho or gamma, the cosine path no sigma
    ("stable", "beta=1.5,p_pos=0.6,rho=0.9", "'rho'"),
    ("stable", "beta=1.5,p_pos=0.6,gamma=7", "'gamma'"),
    ("timevarying", "beta=1.5,p_pos=0.6,sigma=9", "'sigma'"),
])
def test_simulate_unknown_param_key_exits_two(tmp_path, capsys, model,
                                              params, key):
    assert key in flag_error(capsys, "simulate", "--model", model,
                             "--params", params, "--n", "10", "--T", "1",
                             "--seed", "1",
                             "--out", str(tmp_path / "x.csv")).err


def _strict_json(text):
    def reject(name):
        raise ValueError(f"non-finite JSON constant {name}")

    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("lines,bad_line", [
    (["# h=0.01", "# n=3", "0.5", "nan", "1.0"], 4),
    (["# h=0.01", "# n=3", "0.5", "-0.2", "inf"], 5),
    (["# h=0.01", "-inf", "0.5"], 2),
])
def test_estimate_rejects_non_finite_increments(tmp_path, capsys, lines,
                                                bad_line):
    src = tmp_path / "bad.csv"
    src.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError):
        read_increments(src)
    assert run_cli("estimate", "--in", str(src), "--method", "log") == 1
    payload = _strict_json(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["code"] == "data_error"
    assert payload["context"]["line"] == bad_line


def test_non_finite_mesh_is_data_error(tmp_path):
    src = tmp_path / "bad.csv"
    src.write_text("# h=inf\n0.5\n")
    with pytest.raises(DataError):
        read_increments(src)


@pytest.mark.parametrize("key,raw", [
    ("n", "1e400"), ("n", "nan"), ("n", "2.5"), ("n", "'2'"),
    ("h", "'abc'"), ("h", "abc"), ("h", "1e400"),
    # a quoted value is text, for h as for n
    ("h", "'0.01'"),
])
def test_bad_n_or_h_metadata_is_data_error(tmp_path, capsys, key, raw):
    meta = {"h": "0.01", "n": "2", key: raw}
    src = tmp_path / "bad.csv"
    src.write_text(f"# h={meta['h']}\n# n={meta['n']}\n0.5\n-0.2\n")
    with pytest.raises(DataError, match=f"metadata {key}="):
        read_increments(src)
    assert run_cli("estimate", "--in", str(src), "--method", "log") == 1
    payload = _strict_json(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["code"] == "data_error"
    assert payload["context"]["key"] == key


def test_integer_valued_n_metadata_is_accepted(tmp_path):
    src = tmp_path / "ok.csv"
    src.write_text("# h=0.01\n# n=2.0\n0.5\n-0.2\n")
    assert read_increments(src).n == 2


@pytest.mark.parametrize("lines,bad_line", [
    (["# h=0.1", "# h=0.2", "0.5", "-0.2"], 2),
    # a line past the values overrode the header's h
    (["# h=0.1", "# n=2", "0.5", "-0.2", "# h=0.7"], 5),
    (["# h=0.1", "# model='a'", "0.5", "#model = 'b'", "-0.2"], 4),
])
def test_repeated_metadata_key_is_data_error(tmp_path, capsys, lines,
                                             bad_line):
    # the last value used to win; the repeat is refused by its line
    src = tmp_path / "bad.csv"
    src.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match="given twice"):
        read_increments(src)
    assert run_cli("estimate", "--in", str(src), "--method", "log") == 1
    payload = _strict_json(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["code"] == "data_error"
    assert payload["context"] == {"line": bad_line,
                                  "text": lines[bad_line - 1]}


def test_error_payload_is_strict_json(tmp_path, capsys):
    rc = run_cli("fisher", "--beta", "nan")
    assert rc == 1
    payload = _strict_json(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["code"] == "domain_error"
    assert payload["context"] == {"beta": None}
    err = DomainError("x", values=[np.float64(np.inf), 1.0], level=np.nan)
    assert err.to_json_dict()["context"] == {"values": [None, 1.0],
                                             "level": None}


def test_error_context_arrays_are_strict_json():
    payload = LevyEstimError("x", v=np.array([1.0, np.nan])).to_json_dict()
    assert payload["context"] == {"v": [1.0, None]}
    json.dumps(payload, allow_nan=False)


def _extreme_sample(kind):
    # increments whose plug-in variances overflow a double: a stable sample
    # scaled by 1e290, or log|x| ~ N(80, 128^2), where beta_hat ~ 0.01
    if kind == "scaled":
        sample = increments_cell(1.5, 1.0, 0.0, 0.0, 0.001, 2001).sample(3)
        return IncrementSample(sample.values * 1e290, 0.001)
    rng = np.random.default_rng(0)
    signs = rng.choice([-1.0, 1.0], 2001)
    return IncrementSample(signs * np.exp(rng.normal(80.0, 128.0, 2001)),
                           0.001)


@pytest.mark.parametrize("kind,method,code,field", [
    ("scaled", ["log"], "estimation_error", "cov_matrix[1][1]"),
    ("scaled", ["frac", "--p", "0.1"], "estimation_error", "cov_matrix[1][1]"),
    ("scaled", ["tripower"], "estimation_error", "sigma_hat"),
    ("lognormal", ["log"], "estimation_error", "cov_matrix[1][1]"),
], ids=["scaled-log", "scaled-frac", "scaled-tripower", "lognormal-log"])
def test_overflowing_estimate_is_a_strict_json_error(tmp_path, capsys, kind,
                                                     method, code, field):
    src = tmp_path / "x.csv"
    write_increments(src, _extreme_sample(kind), {})
    assert run_cli("estimate", "--in", str(src), "--method", *method) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err_lines = captured.err.splitlines()
    assert len(err_lines) == 1
    payload = _strict_json(err_lines[0])
    assert payload["code"] == code
    if field is not None:
        assert payload["context"]["field"] == field


def test_scaled_sign_bipower_report_matches_unscaled(tmp_path, capsys):
    # the 1e290-scaled sample's sigma* values stay finite, and beta_hat and
    # its variance do not depend on the data's scale
    src = tmp_path / "x.csv"
    write_increments(src, _extreme_sample("scaled"), {})
    assert run_cli("estimate", "--in", str(src), "--method",
                   "sign-bipower") == 0
    report = _strict_json(capsys.readouterr().out)
    cov = np.reshape(report["cov_matrix"], (3, 3))
    assert cov[1, 1] == pytest.approx(8.0852743, rel=1e-7)


@pytest.mark.parametrize("method", ["gamma-mle", "ig-mle"])
@pytest.mark.parametrize("mu", [-600.0, -300.0, 0.0, 300.0, 600.0])
@pytest.mark.parametrize("h", [1e-300, 1e-3, 1.0, 1e300])
def test_extreme_scale_subordinator_mle_is_typed(tmp_path, capsys, method,
                                                 mu, h):
    # |x| = exp(N(mu, 1)): a report, or one strict-JSON package error; the
    # RuntimeWarning filter of the suite turns a numpy overflow into a failure
    values = np.exp(np.random.default_rng(1).normal(mu, 1.0, 500))
    src = tmp_path / "x.csv"
    write_increments(src, IncrementSample(values, h), {})
    rc = run_cli("estimate", "--in", str(src), "--method", method)
    captured = capsys.readouterr()
    if rc == 0:
        assert _strict_json(captured.out)["gamma_hat"] > 0.0
    else:
        assert rc == 1 and captured.out == ""
        payload = _strict_json(captured.err.strip())
        assert payload["code"] not in ("value_error", "io_error")


def test_extreme_scale_subordinator_mle_keeps_the_estimate():
    # where Delta X / h or h^2 leaves the double range, the estimates are
    # those of the same increments at h = 1, rescaled: delta_hat by 1/h,
    # gamma_hat not at all
    values = np.exp(np.random.default_rng(1).normal(0.0, 1.0, 500))
    for mle in (gamma_mle, ig_mle):
        delta_1, gamma_1 = mle(IncrementSample(values, 1.0))
        delta_h, gamma_h = mle(IncrementSample(values, 1e-300))
        assert delta_h * 1e-300 == pytest.approx(delta_1, rel=1e-9)
        assert gamma_h == pytest.approx(gamma_1, rel=1e-9)


@pytest.mark.parametrize("beta", ["1e-100", "1e-200", "1e-78", "1e-320"])
def test_variance_at_a_vanishing_index_is_a_typed_error(capsys, beta):
    assert run_cli("variance", "--beta", beta) == 1
    payload = _strict_json(capsys.readouterr().err.strip())
    assert payload["code"] == "domain_error"


@pytest.mark.filterwarnings("ignore:.*zero increment")
def test_pipeline_overflowing_triples_print_only_json(tmp_path, capsys):
    # log|x| ~ N(-300, 250^2): beta_hat is tiny, so the deskew weight
    # 2^{1/beta_hat} overflows some triples; no numpy warning may precede
    # the error payload
    src = tmp_path / "x.csv"
    for seed in range(40):
        rng = np.random.default_rng(seed)
        signs = rng.choice([-1.0, 1.0], 2001)
        values = signs * np.exp(rng.normal(-300.0, 250.0, 2001))
        write_increments(src, IncrementSample(values, 0.001), {})
        rc = run_cli("estimate", "--in", str(src), "--method", "pipeline")
        captured = capsys.readouterr()
        if rc == 1:
            assert captured.out == ""
            _strict_json(captured.err.strip())
        else:
            assert rc == 0
            _strict_json(captured.out)


def test_report_refuses_non_finite_numbers():
    with pytest.raises(EstimationError) as info:
        EstimateReport(method="pipeline", n=3, h=1.0, beta_hat=1.5,
                       extra={"step1": {"beta_hat": 1.5,
                                        "sigma_hat": math.inf}})
    assert info.value.context["field"] == "extra.step1.sigma_hat"
    with pytest.raises(EstimationError) as info:
        EstimateReport(method="log", n=3, h=1.0,
                       cov_matrix=np.array([[1.0, 0.0], [0.0, np.nan]]))
    assert info.value.context["field"] == "cov_matrix[1][1]"


def test_quadrature_failure_exits_one(monkeypatch, capsys):
    # a one-panel budget runs out in the first round of the information
    # integrals' panel rule, the only quadrature left that can fail
    monkeypatch.setattr(stable_density, "_PANEL_LIMIT", 1)
    assert run_cli("fisher", "--beta", "1.5") == 1
    payload = _strict_json(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["code"] == "quadrature_error"
    assert payload["context"]["beta"] == 1.5


def test_estimate_log_reports_three_parameters(tmp_path, capsys):
    src = tmp_path / "x.csv"
    run_cli("simulate", "--model", "stable",
            "--params", "beta=1.5,sigma=0.5,rho=0,gamma=-0.5",
            "--n", "2001", "--T", "5", "--seed", "42", "--out", str(src))
    capsys.readouterr()
    assert run_cli("estimate", "--in", str(src), "--method", "log") == 0
    report = _strict_json(capsys.readouterr().out)
    assert report["method"] == "log"
    assert abs(report["beta_hat"] - 1.5) < 0.4
    assert abs(report["gamma_hat"] + 0.5) < 0.05
    assert len(report["cov_matrix"]) == 3 * 3
    low, high = report["ci_gamma"]
    assert low < report["gamma_hat"] < high


def test_estimate_pipeline_emits_per_step_json(tmp_path, capsys):
    src = tmp_path / "skewed.csv"
    run_cli("simulate", "--model", "stable",
            "--params", "beta=1.5,sigma=1,rho=-0.5,gamma=0.3",
            "--n", "3000", "--T", "5", "--seed", "42", "--out", str(src))
    capsys.readouterr()
    out = tmp_path / "report.json"
    rc = run_cli("estimate", "--in", str(src), "--method", "pipeline",
                 "--out", str(out))
    assert rc == 0
    report = _strict_json(out.read_text())
    assert report["method"] == "pipeline"
    assert {"step1", "step2", "step3"} <= set(report["extra"])
    assert 1.2 < report["beta_hat"] < 1.8


def test_estimate_gamma_mle_report(tmp_path, capsys):
    src = tmp_path / "g.csv"
    run_cli("simulate", "--model", "gamma", "--params", "delta=2,gamma=1",
            "--n", "2000", "--h", "0.01", "--seed", "4", "--out", str(src))
    capsys.readouterr()
    assert run_cli("estimate", "--in", str(src), "--method", "gamma-mle") == 0
    extra = _strict_json(capsys.readouterr().out)["extra"]
    assert abs(extra["delta_hat"] - 2.0) < 0.5
    assert len(extra["fisher"]) == 4


# ---------------------------------------------------------------------------
# table / montecarlo


def _summary_csv(path):
    # a summary CSV's '#' echo lines as a dict of strings, and its lines
    # after the header
    lines = Path(path).read_text().splitlines()
    echo = dict(line[2:].split("=", 1) for line in lines
                if line.startswith("# "))
    body = [line for line in lines if not line.startswith("#")]
    assert body[0] == ",".join(SUMMARY_COLUMNS)
    return echo, body[1:]


def _csv_lines(rows):
    return [",".join(map(str, row.as_record())) for row in rows]


def test_table_smoke_run_is_deterministic(tmp_path):
    args = ("table", "--id", "table1", "--reps", "5", "--seed", "7",
            "--beta", "0.8", "--n", "201")
    run_cli(*args, "--out", str(tmp_path / "a.csv"))
    run_cli(*args, "--out", str(tmp_path / "b.csv"))
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    echo, lines = _summary_csv(tmp_path / "a.csv")
    assert echo["table"] == "table1"
    rows = [dict(zip(SUMMARY_COLUMNS, line.split(","))) for line in lines]
    assert all(r["replications"] == "5" and r["n"] == "201" for r in rows)
    assert {r["estimator"] for r in rows} == {
        "log", "frac_0.05", "frac_0.1", "known_scale", "median"}


def test_table_json_format(tmp_path):
    out = tmp_path / "t4.json"
    rc = run_cli("table", "--id", "table4", "--reps", "3", "--beta", "1.5",
                 "--n", "300", "--format", "json", "--out", str(out))
    assert rc == 0
    payload = json.loads(out.read_text())
    assert any(r["estimator"] == "tripower" for r in payload["rows"])


def test_montecarlo_matches_library_run(tmp_path):
    cfg = ExperimentConfig(
        model="symmetric_stable",
        truth={"beta": 1.5, "sigma": 0.5, "gamma": -0.5},
        n_list=(301,),
        h_rule={"kind": "fixed_T", "T": 5.0},
        replications=4,
        estimators=({"id": "log", "kind": "log"},),
        master_seed=99,
        label="demo")
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(dataclasses.asdict(cfg)))
    out = tmp_path / "rows.csv"
    assert run_cli("montecarlo", "--config", str(cfg_path),
                   "--out", str(out)) == 0
    assert _summary_csv(out)[1] == _csv_lines(run_experiment(cfg))


_GOOD_ENTRY = {
    "model": "symmetric_stable",
    "truth": {"beta": 1.5, "sigma": 0.5, "gamma": -0.5},
    "n_list": [101], "h_rule": {"kind": "fixed_T", "T": 5.0},
    "replications": 2, "estimators": [{"id": "log", "kind": "log"}],
}


def _with(**changes):
    entry = json.loads(json.dumps(_GOOD_ENTRY))
    for dotted, value in changes.items():
        *path, last = dotted.split("__")
        target = entry
        for key in path:
            target = target[key]
        if value is None:
            del target[last]
        else:
            target[last] = value
    return entry


@pytest.mark.parametrize("payload,field", [
    (_with(model="skewed_stable",
           estimators=[{"id": "sign", "kind": "sign"}]), "truth.p_pos"),
    # no sigma: the sampler defaults it to 1, the log estimator reports it
    (_with(truth__sigma=None), "truth.sigma"),
    (_with(estimators=[{"id": "f", "kind": "frac"}]), "estimators.p"),
    (_with(estimators=[{"id": "b", "kind": "bipower"}],
           truth={"beta": 1.5, "p_pos": 0.6}, model="skewed_stable"),
     "estimators.q"),
    (_with(truth__sigma=None,
           estimators=[{"id": "k", "kind": "known_scale"}]),
     "estimators.sigma"),
    (_with(model=None), "model"),
    ([[1, 2]], "config"),
    ([1, 2], "config"),
    (_with(replications="3"), "replications"),
    (_with(truth__beta="1.5"), "truth.beta"),
    (_with(truth__gamma=float("nan")), "truth.gamma"),
    (_with(n_list=[101.5]), "n_list"),
    (_with(h_rule={"kind": "fixed_T", "T": "5"}), "h_rule.T"),
    (_with(model="timevarying_stable",
           truth={"beta": 1.5, "p_pos": 0.6, "path": "sine"},
           estimators=[{"id": "sign", "kind": "sign"}]), "truth.path"),
    (_with(estimators=[{"id": "m", "kind": ["median"]}]),
     "estimators.kind"),
    # the label is written into the output as it is
    (_with(label={"x": float("nan")}), "label"),
    # the scale path fixes the horizon [0, 1]: rows would report T = 5
    (_with(model="timevarying_stable", truth={"beta": 1.5, "p_pos": 0.6},
           estimators=[{"id": "sign", "kind": "sign"}]), "h_rule.T"),
    (_with(model="timevarying_stable", truth={"beta": 1.5, "p_pos": 0.6},
           h_rule={"kind": "power", "a": 0.6},
           estimators=[{"id": "sign", "kind": "sign"}]), "h_rule.kind"),
    # keys that nothing reads: a misspelt field would run at the default
    # seed, tuning the kind lacks and a misspelt truth key would be dropped
    (_with(master_sead=7), "master_sead"),
    (_with(estimators=[{"id": "log", "kind": "log", "p": 0.1}]),
     "estimators.p"),
    (_with(truth={"beta": 1.5, "sigam": 0.5, "gamma": -0.5},
           estimators=[{"id": "m", "kind": "median"}]), "truth.sigam"),
    # a repeated id or sample size would write its rows twice, drawn from
    # the same streams
    (_with(estimators=[{"id": "a", "kind": "log"},
                       {"id": "a", "kind": "median"}]), "estimators.id"),
    (_with(n_list=[101, 201, 101]), "n_list"),
])
def test_montecarlo_bad_config_exits_one_naming_field(tmp_path, capsys,
                                                      payload, field):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(payload))
    out = tmp_path / "rows.csv"
    assert run_cli("montecarlo", "--config", str(cfg_path),
                   "--out", str(out)) == 1
    err = _strict_json(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["code"] == "domain_error"
    assert err["context"]["field"] == field
    assert not out.exists()


@pytest.mark.parametrize("given,twice", [
    ('"replications": 2', '"replications": 2, "replications": 3'),
    ('"beta": 1.5', '"beta": 1.5, "beta": 0.8'),
], ids=["replications", "truth.beta"])
def test_montecarlo_refuses_a_key_given_twice(tmp_path, capsys, given,
                                              twice):
    # json.load keeps the last value of a key given twice, at any depth
    text = json.dumps(_GOOD_ENTRY)
    assert text.count(given) == 1
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(text.replace(given, twice))
    out = tmp_path / "rows.csv"
    assert run_cli("montecarlo", "--config", str(cfg_path),
                   "--out", str(out)) == 1
    err = _strict_json(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["code"] == "domain_error"
    assert err["context"] == {"key": given.split('"')[1]}
    assert not out.exists()


def test_montecarlo_checks_every_entry_before_running_any(tmp_path, capsys,
                                                        monkeypatch):
    ran = []
    monkeypatch.setattr(mc, "run_experiment", ran.append)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(
        [_GOOD_ENTRY, _with(estimators=[{"id": "x", "kind": "mystery"}])]))
    assert run_cli("montecarlo", "--config", str(cfg_path),
                   "--out", str(tmp_path / "rows.csv")) == 1
    err = _strict_json(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["context"]["field"] == "estimators.kind"
    assert ran == []


def test_montecarlo_huge_cell_writes_finite_strict_json(tmp_path):
    # estimates near 1e160: their squared deviations overflow, yet the
    # rmse is finite, no numpy warning is raised and the JSON is strict
    entry = _with(model="gamma_sub", truth={"delta": 2.0, "gamma": 1e160},
                  n_list=[200], h_rule={"kind": "fixed_T", "T": 20.0},
                  replications=3,
                  estimators=[{"id": "gm", "kind": "gamma_moment"}])
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(entry))
    out = tmp_path / "rows.json"
    assert run_cli("montecarlo", "--config", str(cfg_path), "--out",
                   str(out), "--format", "json") == 0
    gamma_row = _strict_json(out.read_text())["rows"][1]
    assert gamma_row["param"] == "gamma"
    assert gamma_row["rmse"] == pytest.approx(1.899e159, rel=1e-3)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_montecarlo_echoes_every_design(tmp_path, fmt):
    # two unlabelled designs and two sharing a label: each gets its own
    # echo line, keyed by its position in the config
    tv = _with(model="timevarying_stable",
               truth={"beta": 1.5, "p_pos": 0.45, "path": "cosine"},
               h_rule={"kind": "fixed_T", "T": 1.0},
               estimators=[{"id": "sign", "kind": "sign"}])
    payload = [_GOOD_ENTRY, tv, dict(_GOOD_ENTRY, label="same"),
               dict(tv, label="same")]
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(payload))
    out = tmp_path / f"rows.{fmt}"
    assert run_cli("montecarlo", "--config", str(cfg_path), "--out",
                   str(out), "--format", fmt) == 0
    echo = (_summary_csv(out)[0] if fmt == "csv"
            else json.loads(out.read_text())["config"])
    assert echo == {"configs": "4",
                    "config_0": "custom:symmetric_stable",
                    "config_1": "custom:timevarying_stable",
                    "config_2": "same:symmetric_stable",
                    "config_3": "same:timevarying_stable"}


def test_montecarlo_symmetric_sigma_defaults_to_one(tmp_path):
    # the same default as simulate --model stable without sigma
    median = [{"id": "m", "kind": "median"}]
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(_with(truth__sigma=None,
                                         estimators=median)))
    out = tmp_path / "rows.csv"
    assert run_cli("montecarlo", "--config", str(cfg_path),
                   "--out", str(out)) == 0
    with_sigma = ExperimentConfig.from_json_dict(
        _with(truth__sigma=1.0, estimators=median))
    assert _summary_csv(out)[1] == _csv_lines(run_experiment(with_sigma))


@pytest.mark.parametrize("command", [
    ("table", "--id", "table1", "--out", "x.csv"),
    ("montecarlo", "--config", "c.json", "--out", "x.csv"),
])
def test_threads_flag_is_gone(capsys, command):
    with pytest.raises(SystemExit) as exc:
        run_cli(*command, "--threads", "1")
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# figure-data dumps


def _run_to_lines(capsys, *argv):
    assert run_cli(*argv) == 0
    return capsys.readouterr().out.strip().splitlines()


def test_fisher_dump_at_the_degenerate_point(capsys):
    lines = _run_to_lines(capsys, "fisher", "--beta", "1", "--sigma", "1")
    assert lines[0].startswith("beta,sigma,i_beta_beta")
    cells = [float(v) for v in lines[1].split(",")]
    assert cells[2:6] == [0.5, 0.5, 0.5, 0.5]
    assert cells[6] == 0.0


@pytest.mark.parametrize("command,column", [
    (("fisher", "--beta", "1.5", "--sigma", "1e-170"), "i_sigma_sigma"),
    (("variance", "--beta", "1.5", "--sigma", "1e300", "--p", "0.1"),
     "v_log_22")])
def test_dump_refuses_an_infinite_cell_by_column(capsys, command, column):
    # sigma^2 beyond the double range: a ZeroDivisionError in fisher, an
    # inf printed by variance
    assert run_cli(*command) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    payload = _strict_json(captured.err.strip())
    assert payload["code"] == "domain_error"
    assert payload["context"] == {"column": column, "beta": 1.5}


def test_fisher_dump_saturates_underflowing_entries_to_zero(capsys):
    # 1/sigma^2 underflows: those entries are 0, not an OverflowError
    lines = _run_to_lines(capsys, "fisher", "--beta", "1.5",
                          "--sigma", "1e200")
    cells = [float(v) for v in lines[1].split(",")]
    assert cells[2] > 0.0 and 0.0 < cells[3] < 1e-199
    assert cells[4:] == [0.0, 0.0, 0.0]


@pytest.mark.filterwarnings("ignore:density evaluated")
def test_density_dump_at_a_vanishing_scale(capsys):
    # phi(+-10) underflows to 0: no floor lifts it to 1, no sigma^2 = 0
    # turns phi' into nan
    lines = _run_to_lines(capsys, "density", "--beta", "1.5",
                          "--sigma", "1e-300", "--points", "3")
    arr = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    assert not np.isnan(arr).any()
    assert arr[[0, 2], 1].tolist() == [0.0, 0.0]
    assert arr[1, 1] == pytest.approx(stable_density.phi_zero(1.5) / 1e-300)


@pytest.mark.parametrize("argv,code", [
    (["--y-max", "100", "--points", "5"], 0),
    (["--sigma", "1e-310", "--points", "3"], 1)])
def test_warnings_reach_stderr_as_strict_json_lines(capsys, argv, code):
    # the far-tail warning is one JSON line, not Python's warning text with
    # its source line; a runtime error stays the last line
    assert run_cli("density", "--beta", "1.5", *argv) == code
    payloads = [_strict_json(line)
                for line in capsys.readouterr().err.splitlines()]
    assert payloads[0] == {
        "code": "warning",
        "message": "density evaluated at |y|/sigma > 50: series tail "
                   "accuracy only",
        "context": {"category": "UserWarning"}}
    assert [p["code"] for p in payloads[1:]] == (
        ["domain_error"] if code else [])


def test_warning_filters_still_apply_to_commands(monkeypatch, capsys):
    # an "error" filter still raises the warning, an "ignore" one drops it
    def noisy(*args):
        warnings.warn("overflow somewhere", RuntimeWarning)
        return stable_density.phi_pair(*args)

    monkeypatch.setattr(levyestim.cli, "phi_pair", noisy)
    with pytest.raises(RuntimeWarning):  # the suite's error::RuntimeWarning
        run_cli("density", "--beta", "1.5", "--points", "3")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert run_cli("density", "--beta", "1.5", "--points", "3") == 0
    assert capsys.readouterr().err == ""


@pytest.mark.filterwarnings("ignore:density evaluated")
def test_density_dump_keeps_tail_values_below_unit_scale_range(capsys):
    # phi(+-10; 1e-160) ~ 9.5e-244, where phi(1e161) itself underflows
    lines = _run_to_lines(capsys, "density", "--beta", "1.5",
                          "--sigma", "1e-160", "--points", "3")
    assert lines[1].split(",")[:2] == ["-10", "9.461746958e-244"]
    assert lines[3].split(",")[:2] == ["10", "9.461746958e-244"]


def test_density_dump_normalizes(capsys):
    lines = _run_to_lines(capsys, "density", "--beta", "1.9",
                          "--y-max", "50", "--points", "2501")
    assert lines[0] == "y,phi,dphi"
    arr = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    assert arr.shape == (2501, 3)
    assert trapezoid(arr[:, 1], arr[:, 0]) == pytest.approx(1.0, abs=1e-4)
    # symmetric density, antisymmetric derivative
    assert np.allclose(arr[:, 1], arr[::-1, 1], rtol=1e-8, atol=1e-12)
    assert np.allclose(arr[:, 2], -arr[::-1, 2], rtol=1e-8, atol=1e-10)


@pytest.mark.parametrize("bounds", [("--y-max", "1e308"),
                                    ("--y-min=-1e308", "--y-max", "1e308"),
                                    ("--y-min=-1e308", "--y-max", "9e307")])
def test_density_overflowing_span_exits_two(capsys, bounds):
    # finite bounds whose difference overflows: the grid step would not be
    # finite, so the flags are refused before any point is evaluated (a
    # negative bound is passed as --y-min=-x, which argparse does not read
    # as an option)
    captured = flag_error(capsys, "density", "--beta", "1.5", "--points",
                          "3", *bounds)
    assert "--y-min/--y-max" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("points", ["10002", "10000000000000"])
def test_density_points_above_the_row_cap_exits_two(capsys, points):
    # the bound of --beta-grid: a count past it is refused before any
    # allocation, not ended by numpy's memory error
    captured = flag_error(capsys, "density", "--beta", "1.5", "--points",
                          points)
    assert "--points" in captured.err and "10001" in captured.err
    assert captured.out == ""


def test_density_single_point_is_the_lower_bound(capsys):
    lines = _run_to_lines(capsys, "density", "--beta", "1.5", "--points", "1")
    assert [float(v) for v in lines[1].split(",")][0] == -10.0
    assert len(lines) == 2


def test_density_dump_evaluates_each_abs_y_once(monkeypatch, capsys):
    # 101 symmetric points share 51 distinct |y|, all in one pass for phi
    # and phi'
    sizes = []
    real_unit = stable_density._unit

    def counting_unit(z, beta):
        sizes.append(z.size)
        return real_unit(z, beta)

    monkeypatch.setattr(stable_density, "_unit", counting_unit)
    lines = _run_to_lines(capsys, "density", "--beta", "1.4567",
                          "--points", "101")
    assert len(lines) == 102
    assert sizes == [51]


def test_variance_grid_with_inadmissible_cells(tmp_path, capsys):
    out = tmp_path / "var.csv"
    rc = run_cli("variance", "--beta-grid", "0.5:1.95:0.05", "--p", "0.2",
                 "--out", str(out))
    assert rc == 0
    capsys.readouterr()
    lines = out.read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header[:2] == ["beta", "sigma"] and "v_p_11" in header
    assert len(lines) - 1 == 30
    j = header.index("v_p_11")
    for ln in lines[1:]:
        cells = ln.split(",")
        beta = float(cells[0])
        # the 2p-th moment variance exists only where 4p < beta
        if beta <= 0.8 + 1e-9:
            assert cells[j] == "nan"
        else:
            assert math.isfinite(float(cells[j])) and float(cells[j]) > 0.0
        assert float(cells[header.index("v_log_11")]) > 0.0
        assert float(cells[header.index("median_sd")]) > 0.0


@pytest.mark.parametrize("flags", [("--beta", "3"),
                                   ("--beta-grid", "1.5:2.5:0.5")],
                         ids=["beta", "grid"])
def test_variance_refuses_a_beta_above_two(tmp_path, capsys, flags):
    # V^log was dumped, exit 0, for an index no stable law has
    out = tmp_path / "v.csv"
    assert run_cli("variance", *flags, "--out", str(out)) == 1
    (line,) = capsys.readouterr().err.splitlines()
    payload = _strict_json(line)
    assert payload["code"] == "domain_error"
    assert payload["context"]["beta"] > 2.0
    assert not out.exists()


def test_variance_single_beta_without_p(capsys):
    lines = _run_to_lines(capsys, "variance", "--beta", "1.5")
    assert "v_p_11" not in lines[0]
    assert len(lines) == 2


# ---------------------------------------------------------------------------
# one parser per process


def test_build_parser_returns_a_fresh_parser():
    assert build_parser() is not build_parser()


def _fresh_process(*argv):
    src = str(Path(levyestim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "levyestim.cli", *argv],
                          capture_output=True, text=True, env=env, check=True)
    return proc.stdout


def test_repeated_main_calls_match_fresh_processes(tmp_path, capsys):
    src = tmp_path / "x.csv"
    assert run_cli("simulate", "--model", "stable",
                   "--params", "beta=1.5,sigma=0.5,rho=0,gamma=-0.5",
                   "--n", "1001", "--T", "5", "--seed", "7",
                   "--out", str(src)) == 0
    table_args = ("table", "--id", "table1", "--reps", "2", "--beta", "1.5",
                  "--n", "501")
    # one process: a frac call sets --p, then pipeline and table run without
    # it; any argument state kept by the shared parser would show here
    capsys.readouterr()
    assert run_cli("estimate", "--in", str(src), "--method", "frac",
                   "--p", "0.1") == 0
    frac_out = capsys.readouterr().out
    assert run_cli("estimate", "--in", str(src), "--method", "pipeline") == 0
    pipeline_out = capsys.readouterr().out
    assert run_cli(*table_args, "--out", str(tmp_path / "in.csv")) == 0

    assert frac_out == _fresh_process("estimate", "--in", str(src),
                                      "--method", "frac", "--p", "0.1")
    assert pipeline_out == _fresh_process("estimate", "--in", str(src),
                                          "--method", "pipeline")
    _fresh_process(*table_args, "--out", str(tmp_path / "fresh.csv"))
    assert ((tmp_path / "in.csv").read_text()
            == (tmp_path / "fresh.csv").read_text())


# every request through main in a single interpreter, then the scipy
# modules it loaded; pytest's own filterwarnings setting imports
# scipy.integrate, so this has to be a fresh process
_IMPORT_PROBE = """
import json, sys
from levyestim.cli import main
failed = [argv for argv in json.loads(sys.argv[1]) if main(argv) != 0]
loaded = sorted(m for m in sys.modules
                if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"failed": failed, "loaded": loaded}))
"""


@pytest.fixture(scope="module")
def every_command_probe(tmp_path_factory):
    """{"failed": requests that did not exit 0, "loaded": scipy modules}
    after running every command through main in one fresh interpreter."""
    tmp_path = tmp_path_factory.mktemp("probe")

    def out(name):
        return str(tmp_path / name)

    config = tmp_path / "config.json"
    config.write_text(json.dumps(_GOOD_ENTRY))
    requests = [
        ["simulate", "--model", "stable", "--params",
         "beta=1.25,sigma=0.5,rho=0.2,gamma=-0.5", "--n", "2001", "--T", "5",
         "--seed", "1", "--out", out("stable.csv")],
        ["simulate", "--model", "stable", "--params", "beta=1.45,p_pos=0.55",
         "--n", "2000", "--T", "1", "--seed", "2", "--out", out("skewed.csv")],
        ["simulate", "--model", "timevarying", "--path", "cosine", "--params",
         "beta=1.45,p_pos=0.55", "--n", "2000", "--seed", "3",
         "--out", out("cosine.csv")],
        ["simulate", "--model", "timevarying", "--path", "constant",
         "--params", "beta=1.45,p_pos=0.55,sigma=0.8", "--n", "2000",
         "--seed", "4", "--out", out("constant.csv")],
        ["simulate", "--model", "gamma", "--params", "delta=2,gamma=1.5",
         "--n", "2000", "--T", "200", "--seed", "5", "--out", out("gamma.csv")],
        ["simulate", "--model", "ig", "--params", "delta=2,gamma=1.5",
         "--n", "2000", "--T", "200", "--seed", "6", "--out", out("ig.csv")],
    ]
    for src, method, extra in (
            ("stable", "log", []), ("stable", "frac", ["--p", "0.1"]),
            ("stable", "pipeline", ["--q", "0.25"]),
            ("skewed", "sign-bipower", []), ("constant", "sign-bipower", []),
            ("cosine", "tripower", []), ("gamma", "gamma-mle", []),
            ("ig", "ig-mle", [])):
        requests.append(["estimate", "--in", out(f"{src}.csv"),
                         "--method", method, *extra,
                         "--out", out(f"{src}-{method}.json")])
    for table in ("table1", "table2", "table3", "table4"):
        requests.append(["table", "--id", table, "--reps", "2",
                         "--out", out(f"{table}.csv")])
    requests += [
        ["montecarlo", "--config", str(config), "--out", out("mc.csv")],
        ["fisher", "--beta", "1.5", "--out", out("fisher.csv")],
        ["density", "--beta", "1.5", "--points", "11",
         "--out", out("density.csv")],
        ["variance", "--beta", "1.5", "--out", out("variance.csv")],
    ]
    src = str(Path(levyestim.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, json.dumps(requests)],
        capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=src))
    return json.loads(proc.stdout.splitlines()[-1])


def test_commands_load_neither_optimize_nor_integrate(every_command_probe):
    assert every_command_probe["failed"] == []
    assert [m for m in every_command_probe["loaded"]
            if m.startswith(("scipy.optimize", "scipy.integrate"))] == []


def test_commands_load_no_scipy(every_command_probe):
    # numpy is the only runtime dependency
    assert every_command_probe == {"failed": [], "loaded": []}


# ---------------------------------------------------------------------------
# one path from estimate to report


def test_estimate_methods_are_one_table():
    # the --method choices are the keys of one table; each row but
    # pipeline's names the mc.ESTIMATORS kind whose block core gives its
    # point.  cli restates no tuning key: a row names a flag only to give
    # its default, and a method reads and needs what its kind's tuning
    # says.  cli names each method once and builds no report itself
    from levyestim import cli

    assert list(cli._ESTIMATE) == ["log", "frac", "sign-bipower", "tripower",
                                   "gamma-mle", "ig-mle", "pipeline"]
    parser = build_parser()
    for method in cli._ESTIMATE:
        args = parser.parse_args(["estimate", "--in", "x", "--method", method])
        assert args.method == method
    source = Path(cli.__file__).read_text(encoding="utf8")
    for method, (kind, defaults, _) in cli._ESTIMATE.items():
        if method == "pipeline":
            assert kind is None
        else:
            assert kind in mc.ESTIMATORS, method
            assert None not in defaults.values(), method
        assert source.count(f'"{method}"') == 1 + (kind == method), method
    for name in ("gamma_fisher", "ig_fisher", "EstimateReport", "delta_cov",
                 "check_finite"):
        assert name not in source


# method -> (model, params, mesh flag, estimate flags, the sorted extra
# keys of its report) of a seeded sample that estimates
_REPORT_SHAPES = {
    "log": ("stable", "beta=1.5,sigma=0.5,gamma=-0.5", "--T", [],
            ["k", "level"]),
    "frac": ("stable", "beta=1.5,sigma=0.5,gamma=-0.5", "--T",
             ["--p", "0.1"], ["k", "level", "p"]),
    "sign-bipower": ("stable", "beta=1.5,p_pos=0.6", "--T", [],
                     ["cov_coords", "p_pos_hat", "q", "sigma_star_2p",
                      "sigma_star_p"]),
    "tripower": ("stable", "beta=1.5,p_pos=0.6", "--T", [],
                 ["avar_sigma_star", "estimand", "p_pos_hat", "q", "rate"]),
    "gamma-mle": ("gamma", "delta=2,gamma=1.5", "--h", [],
                  ["delta_hat", "fisher"]),
    "ig-mle": ("ig", "delta=2,gamma=1.5", "--h", [], ["delta_hat", "fisher"]),
    "pipeline": ("stable", "beta=1.5,sigma=0.5,gamma=-0.5", "--T",
                 ["--q", "0.25"],
                 ["beta_hat_centered", "ci_note", "level", "p_pos_hat", "q",
                  "rho_hat", "step1", "step2", "step3"]),
}


@pytest.mark.parametrize("method", list(_REPORT_SHAPES))
def test_estimate_reports_keep_their_shape(tmp_path, capsys, method):
    # keys and n only, so the check holds whatever SIMD path numpy takes;
    # n is the odd count 2k + 1 for log and frac, the sample size otherwise
    model, params, mesh, flags, extra = _REPORT_SHAPES[method]
    src = tmp_path / "x.csv"
    assert run_cli("simulate", "--model", model, "--params", params,
                   "--n", "2000", mesh, "0.1" if mesh == "--h" else "5",
                   "--seed", "1", "--out", str(src)) == 0
    capsys.readouterr()
    assert run_cli("estimate", "--in", str(src), "--method", method,
                   *flags) == 0
    report = json.loads(capsys.readouterr().out)
    assert sorted(report) == ["beta_hat", "ci_gamma", "cov_matrix", "extra",
                              "gamma_hat", "h", "method", "n", "sigma_hat"]
    assert sorted(report["extra"]) == extra
    assert report["n"] == (1999 if method in ("log", "frac") else 2000)


def test_check_finite_names_the_first_bad_value_by_its_report_path():
    from levyestim.serialize import check_finite

    check_finite("m", a=1.0, b=None, c="text", d=3, e=[1.0, (2.0,)],
                 f=np.eye(2), g={"h": np.float64(1.0)})
    with pytest.raises(EstimationError) as info:
        check_finite("m", a=1.0, extra={"x": [1.0, np.inf], "y": math.nan})
    assert info.value.context == {"method": "m", "field": "extra.x[1]"}
    with pytest.raises(EstimationError) as info:
        check_finite("m", cov_matrix=np.array([[1.0, np.nan]]),
                     gamma_hat=math.inf)
    assert info.value.context["field"] == "cov_matrix[0][1]"


def _one_error_line(captured) -> dict:
    # a failed estimate prints nothing on stdout and one strict-JSON line,
    # and no warning, on stderr
    assert captured.out == ""
    err_lines = captured.err.splitlines()
    assert len(err_lines) == 1, captured.err
    return _strict_json(err_lines[0])


@pytest.mark.parametrize("h", [1e-300, 1e-200])
@pytest.mark.parametrize("method", [["log"], ["frac", "--p", "0.05"],
                                    ["pipeline"]],
                         ids=["log", "frac", "pipeline"])
def test_overflowing_scale_is_named_before_any_plug_in(tmp_path, capsys, h,
                                                       method):
    # a beta = 0.6 sample read at a tiny mesh: sigma_hat overflows to inf
    # and is named before V^log, V^p or the drift interval see it
    sample = increments_cell(0.6, 1.0, 0.0, 0.0, 1.0, 2001).sample(3)
    src = tmp_path / "x.csv"
    write_increments(src, IncrementSample(sample.values, h), {})
    assert run_cli("estimate", "--in", str(src), "--method", *method) == 1
    payload = _one_error_line(capsys.readouterr())
    assert payload["code"] == "estimation_error"
    assert payload["context"]["field"] == "sigma_hat"
    if method == ["pipeline"]:
        assert payload["context"]["pipeline_step"] == "symmetrize"


@pytest.mark.filterwarnings("ignore:.*zero increment")
def test_pipeline_overflowing_scale_is_an_estimation_error(tmp_path, capsys):
    # log|x| ~ N(-300, 250^2): the step-1 scale overflows, which is an
    # estimation error naming sigma_hat, not a domain error of a plug-in
    src = tmp_path / "x.csv"
    for seed in range(5):
        rng = np.random.default_rng(seed)
        signs = rng.choice([-1.0, 1.0], 2001)
        values = signs * np.exp(rng.normal(-300.0, 250.0, 2001))
        write_increments(src, IncrementSample(values, 0.001), {})
        assert run_cli("estimate", "--in", str(src), "--method",
                       "pipeline") == 1
        payload = _one_error_line(capsys.readouterr())
        assert payload["code"] == "estimation_error"
        assert payload["context"]["field"] == "sigma_hat"


def test_subordinator_mle_outside_the_double_range_is_an_estimation_error(
        tmp_path, capsys):
    # |x| = exp(N(mu, 1)) where delta_hat or its Fisher entries leave the
    # double range: estimation_error, never a parameter-domain error
    src = tmp_path / "x.csv"
    for mu, h in ((-600.0, 1e300), (600.0, 1e-300), (600.0, 1e300)):
        values = np.exp(np.random.default_rng(1).normal(mu, 1.0, 500))
        write_increments(src, IncrementSample(values, h), {})
        for method in ("gamma-mle", "ig-mle"):
            assert run_cli("estimate", "--in", str(src), "--method",
                           method) == 1
            payload = _one_error_line(capsys.readouterr())
            assert payload["code"] == "estimation_error", (mu, h, method)


def test_huge_skewed_sample_names_the_statistic_without_warnings(tmp_path,
                                                                 capsys):
    # scaled to max |x| = 1e307, the bipower sum behind sigma*_2p overflows;
    # the report names it before delta_cov, and numpy warns of nothing
    src = tmp_path / "x.csv"
    assert run_cli("simulate", "--model", "stable", "--params",
                   "beta=1.5,p_pos=0.4", "--n", "2001", "--T", "1",
                   "--seed", "4", "--out", str(src)) == 0
    sample = read_increments(src)
    values = sample.values / np.abs(sample.values).max() * 1e307
    write_increments(src, IncrementSample(values, sample.h), {})
    for method, field in (("sign-bipower", "extra.sigma_star_2p"),
                          ("tripower", "sigma_hat")):
        assert run_cli("estimate", "--in", str(src), "--method", method) == 1
        payload = _one_error_line(capsys.readouterr())
        assert payload["code"] == "estimation_error"
        assert payload["context"]["field"] == field


def test_overflowing_power_scale_is_named_not_raised(tmp_path, capsys):
    # near-Gaussian increments scaled to max |x| = 1.7e308: sigma_hat =
    # s_p^{1/p} overflows, which the sign-bipower report names instead of
    # raising OverflowError
    values = np.random.default_rng(0).normal(size=2001) + 0.3
    src = tmp_path / "x.csv"
    write_increments(src, IncrementSample(
        values / np.abs(values).max() * 1.7e308, 1 / 2001), {})
    assert run_cli("estimate", "--in", str(src), "--method",
                   "sign-bipower") == 1
    payload = _one_error_line(capsys.readouterr())
    assert payload["code"] == "estimation_error"
    assert payload["context"]["field"] == "sigma_hat"


# ---------------------------------------------------------------------------
# flag domains


def test_simulate_takes_the_largest_seed(tmp_path):
    out = tmp_path / "x.csv"
    assert run_cli("simulate", "--model", "stable", "--params", "beta=1.5",
                   "--n", "10", "--T", "1", "--seed", str(2 ** 128 - 1),
                   "--out", str(out)) == 0
    assert read_increments(out).n == 10


def test_variance_writes_nan_only_where_4p_reaches_beta(capsys):
    # V^p needs moments to order 4p < beta; any other failure is an error
    assert _run_to_lines(capsys, "variance", "--beta", "0.4",
                         "--p", "0.1")[1].endswith(",nan,nan,nan")
    cells = _run_to_lines(capsys, "variance", "--beta", "0.41",
                          "--p", "0.1")[1].split(",")
    assert all(math.isfinite(float(c)) for c in cells)
    assert run_cli("variance", "--beta", "2.5", "--p", "0.1") == 1
    payload = _strict_json(capsys.readouterr().err.strip())
    assert payload["code"] == "domain_error"
    assert payload["context"] == {"beta": 2.5}
