"""The command line contract table (tests/cli_contract.py), replayed
in-process one case per item, and checks of the table and its runner."""

import ast
import contextlib
import io
import os
import sys
import warnings
from pathlib import Path

import pytest

import cli_contract
from cli_contract import ABSENT, CASES, check, command, run
from levyestim.cli import main

BY_ID = {case.id: case for case in CASES}


def invoke(argv, cwd):
    # main(argv) in cwd, under a fresh interpreter's warning filters, so no
    # filter or "once" record of an earlier case or test applies
    out, err, start = io.StringIO(), io.StringIO(), os.getcwd()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.resetwarnings()
        for category in (DeprecationWarning, PendingDeprecationWarning,
                         ImportWarning, ResourceWarning):
            warnings.simplefilter("ignore", category)
        os.chdir(cwd)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        finally:
            os.chdir(start)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def replay(tmp_path_factory):
    # one directory for the table; an item selected alone first runs the
    # cases before it that have not run
    return {"cwd": tmp_path_factory.mktemp("contract"), "next": 0}


@pytest.mark.parametrize("index", range(len(CASES)),
                         ids=[case.id for case in CASES])
def test_contract_case(replay, index):
    while replay["next"] <= index:
        replay["next"] += 1
        check(CASES[replay["next"] - 1], invoke, replay["cwd"])


def test_runner_calls_a_subprocess(tmp_path, monkeypatch):
    # the path the console-script job takes: a request that writes a file,
    # a flag error and a runtime error, through python -m levyestim.cli
    monkeypatch.setenv("PYTHONPATH", str(Path(__file__).parents[1] / "src"))
    cases = [BY_ID[name] for name in ("density", "T-and-h", "variance-beta-3")]
    assert run(command([sys.executable, "-m", "levyestim.cli"]), tmp_path,
               cases) == []


def test_a_second_replay_overwrites_every_output(monkeypatch, capsys):
    # the script's two passes in one directory, run in-process: every
    # --out file of the second pass is one the first pass wrote
    monkeypatch.setattr(cli_contract, "command", lambda prefix: invoke)
    code = cli_contract.main(["levyestim"])
    total = len(CASES)
    assert capsys.readouterr().out.splitlines() == [
        f"first pass: {total} of {total} cases passed",
        f"second pass: {total} of {total} cases passed"]
    assert code == 0


def test_a_case_sees_warnings_as_a_fresh_process_would(tmp_path):
    # an outer "once" filter would drop the second run's warning line
    with warnings.catch_warnings():
        warnings.simplefilter("once")
        for _ in range(2):
            check(BY_ID["density-far-tail"], invoke, tmp_path)


def test_every_case_has_a_unique_id_an_exit_code_and_an_outcome():
    assert len(BY_ID) == len(CASES)
    for case in CASES:
        assert case.exit in (0, 1, 2) and (case.err or case.checks()), case.id


def test_every_input_is_written_before_it_is_read():
    # an --in or --config file, or one an output is compared with, is
    # written by the table or by an earlier case that exits 0, unless the
    # case expects it absent
    written = set()
    for case in CASES:
        written |= set(case.write)
        argv, checks = case.argv, case.checks()
        inputs = {argv[i + 1] for i, arg in enumerate(argv)
                  if arg in ("--in", "--config")}
        inputs |= {want[1] for want in checks.values() if want[0] == "same"}
        assert inputs <= written | {name for name, want in checks.items()
                                    if want == ABSENT}, case.id
        written |= set(checks) if case.exit == 0 else set()


def test_runner_imports_only_the_standard_library():
    tree = ast.parse(Path(cli_contract.__file__).read_text(encoding="utf8"))
    names = [alias.name for node in ast.walk(tree)
             if isinstance(node, ast.Import) for alias in node.names]
    names += [node.module for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom)]
    assert {name.partition(".")[0] for name in names} \
        <= sys.stdlib_module_names
