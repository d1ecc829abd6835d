"""Generated inputs at four boundaries: the increment CSV reader, the
``simulate --params`` parser, the ``montecarlo`` config decoder and a
model's cell, built and drawn.  Each either accepts its input or fails with
its documented error type, never with anything else."""

import itertools
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from levyestim.cli import _parse_params
from levyestim.errors import LevyEstimError
from levyestim.mc import ESTIMATORS, MODELS, ExperimentConfig, check_truth
from levyestim.serialize import _increment_sample, _read_line, read_increments
from levyestim.stable_core import IncrementSample

# text that survives a utf8 round trip (no lone surrogates)
_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)
_NUMBER_TEXT = st.one_of(
    st.floats().map(repr),
    st.integers(min_value=-10 ** 6, max_value=10 ** 6).map(str),
    st.sampled_from(["nan", "inf", "-inf", "1e400", "-1e400", "2.5", "0",
                     "1_000", "0x10", "", " ", "'abc'", "'0.01'", "+3"]),
)
_META_LINE = st.builds(
    lambda key, value, quote: f"# {key}={value!r}" if quote
    else f"# {key}={value}",
    st.sampled_from(["h", "n", "model", "beta", ""]) | _TEXT,
    _NUMBER_TEXT | _TEXT,
    st.booleans(),
)
_LINE = st.one_of(_META_LINE, _NUMBER_TEXT, _TEXT,
                  st.sampled_from(["#", "# no equals sign", "#h=0.01"]))


@given(st.lists(_LINE, max_size=12),
       st.sampled_from([[], ["# h=0.01"], ["# h=0.01", "# n=3"]]))
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_read_increments_accepts_or_raises_typed_error(tmp_path, lines, head):
    src = tmp_path / "fuzz.csv"
    src.write_text("\n".join(head + lines) + "\n", encoding="utf8")
    try:
        sample = read_increments(src)
    except LevyEstimError:
        return
    assert isinstance(sample, IncrementSample)
    assert sample.n >= 1 and np.isfinite(sample.values).all()
    assert math.isfinite(sample.h) and sample.h > 0.0


def _read_by_lines(path):
    # the per-line rule on every line of the file, then the file-level rules
    meta, values = {}, []
    with open(path, "r", encoding="utf8") as fh:
        for lineno, line in enumerate(fh, start=1):
            _read_line(lineno, line, meta, values)
    return _increment_sample(path, meta, values)


def _outcome(read, path):
    # a sample as its exact bits, or the error payload with its context
    try:
        sample = read(path)
    except LevyEstimError as exc:
        return exc.to_json_dict()
    return sample.values.tobytes(), repr(sample.h)


_VALUE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(min_value=-10 ** 6, max_value=10 ** 6).map(str),
    st.sampled_from(["1_000", "+3", "-0.0", ".5", "1e-320", "1E5"]),
)
# a value line as written, or whitespace-padded
_VALUE_LINE = st.one_of(_VALUE, st.builds(
    lambda pad, value: pad + value + pad[::-1], st.sampled_from(
        [" ", "\t", "  \t", "\xa0", "\x1c"]), _VALUE))
# what breaks a plain block: '#' and blank lines, bad values, fuzz lines
_ODD_LINE = st.one_of(_LINE, st.sampled_from(
    ["", "   ", "\t", "nan", "inf", "-inf", "1e400", "1_000", "0x10", "#",
     "# n=2", "# h=0.5"]))


@st.composite
def _increment_files(draw):
    block = draw(st.lists(_VALUE_LINE, max_size=20))
    for _ in range(draw(st.integers(0, 3))):
        block.insert(draw(st.integers(0, len(block))), draw(_ODD_LINE))
    head = draw(st.one_of(
        st.sampled_from([[], ["# h=0.01"], ["# h=0.01", f"# n={len(block)}"],
                         ["", "  # h=0.01 ", "", f"#n={len(block)}", "  "]]),
        st.lists(_META_LINE, max_size=3).map(lambda lines: ["# h=1"] + lines)))
    tail = draw(st.sampled_from(["", "\n", "\n  \n\n", "0.5"]))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return newline.join(head + block) + newline + tail


@given(_increment_files())
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_read_increments_matches_the_per_line_rule(tmp_path, text):
    # the one-pass block conversion gives the same bits, h and errors
    # (code, message, line and text) as reading line by line
    src = tmp_path / "file.csv"
    src.write_text(text, encoding="utf8", newline="")
    assert _outcome(read_increments, src) == _outcome(_read_by_lines, src)


_CHUNK = st.one_of(
    st.builds(lambda key, value: f"{key}={value}",
              st.sampled_from(["beta", "sigma", " rho ", "p_pos", ""]) | _TEXT,
              _NUMBER_TEXT | _TEXT),
    _TEXT,
)


@given(st.one_of(st.lists(_CHUNK, max_size=6).map(",".join), _TEXT))
@settings(max_examples=150, deadline=None)
def test_parse_params_returns_finite_floats_or_value_error(text):
    try:
        params = _parse_params(text)
    except ValueError:
        return
    assert isinstance(params, dict)
    for key, value in params.items():
        assert isinstance(key, str)
        assert isinstance(value, float) and math.isfinite(value)


# JSON-like values: what json.load can return, nan/inf and huge ints included
_SCALAR = (st.none() | st.booleans() | st.floats() | st.integers()
           | st.sampled_from([10 ** 400, 0, -1, 2.5, "cosine", "log"]) | _TEXT)
_JSON = _SCALAR | st.lists(_SCALAR, max_size=3) \
    | st.dictionaries(_TEXT, _SCALAR, max_size=2)

# valid entries, one per model; each generated config mutates one of them
_BASES = [
    {"model": "symmetric_stable",
     "truth": {"beta": 1.5, "sigma": 0.5, "gamma": -0.5, "rho": 0.0},
     "n_list": [101, 201], "h_rule": {"kind": "fixed_T", "T": 5.0},
     "replications": 3, "master_seed": 7, "label": "s",
     "estimators": [{"id": "k", "kind": "known_scale"},
                    {"id": "f", "kind": "frac", "p": 0.1}]},
    {"model": "skewed_stable", "truth": {"beta": 1.5, "p_pos": 0.6},
     "n_list": [500], "h_rule": {"kind": "power", "a": 1.0},
     "replications": 2,
     "estimators": [{"id": "b", "kind": "bipower", "q": 0.25}]},
    {"model": "timevarying_stable",
     "truth": {"beta": 1.5, "p_pos": 0.6, "sigma_star": 0.6,
               "path": "constant", "sigma": 0.8},
     "n_list": [500], "h_rule": {"kind": "fixed_T", "T": 1.0},
     "replications": 2,
     "estimators": [{"id": "t", "kind": "tripower", "q": 0.25}]},
    {"model": "gamma_sub", "truth": {"delta": 2.0, "gamma": 1.5},
     "n_list": [400], "h_rule": {"kind": "fixed_T", "T": 200.0},
     "replications": 2, "estimators": [{"id": "g", "kind": "gamma_mle"}]},
]
# where an edit lands: the key path to a field, a truth/h_rule key, the
# first n or a key of the first estimator
_SPOTS = st.sampled_from(
    [(k,) for k in ("model", "truth", "n_list", "h_rule", "replications",
                    "estimators", "master_seed", "label", "extra")]
    + [("truth", k) for k in ("beta", "sigma", "gamma", "rho", "p_pos",
                              "delta", "sigma_star", "path")]
    + [("h_rule", k) for k in ("kind", "T", "a")]
    + [("n_list", 0), ("estimators", 0)]
    + [("estimators", 0, k) for k in ("id", "kind", "p", "q", "sigma")])


def _mutate(base, edits, repeat_id):
    entry = json.loads(json.dumps(base))
    if repeat_id:
        # the first estimator twice: both would draw the same streams
        entry["estimators"].append(dict(entry["estimators"][0]))
    for (*path, key), delete, value in edits:
        owner = entry
        for step in path:
            try:
                owner = owner[step]
            except (KeyError, IndexError, TypeError):
                owner = None  # an earlier edit replaced the container
        if isinstance(owner, dict):
            if delete:
                owner.pop(key, None)
            else:
                owner[key] = value
        elif isinstance(owner, list) and isinstance(key, int) \
                and key < len(owner):
            owner[key] = value
    return entry


_CONFIG = st.builds(_mutate, st.sampled_from(_BASES),
                    st.lists(st.tuples(_SPOTS, st.booleans(), _JSON),
                             max_size=2),
                    st.integers(0, 4).map(lambda k: k == 0))
# one payload in ten is not built from an entry: a scalar, list or dict
_PAYLOAD = st.integers(0, 9).flatmap(lambda k: _JSON if k == 0 else _CONFIG)


@given(_PAYLOAD)
@settings(max_examples=150, deadline=None)
def test_config_decoder_builds_config_or_raises_typed_error(payload):
    # construction only: no design is run
    try:
        config = ExperimentConfig.from_json_dict(payload)
    except LevyEstimError as exc:
        # the CLI writes this payload as strict JSON
        json.dumps(exc.to_json_dict(), allow_nan=False)
        return
    assert isinstance(config, ExperimentConfig) and config.model in MODELS
    assert isinstance(config.label, str)
    assert config.replications >= 1 and config.n_list
    assert all(isinstance(n, int) and n >= 1 for n in config.n_list)
    assert len(set(config.n_list)) == len(config.n_list)
    ids = [str(est["id"]) for est in config.estimators]
    assert len(set(ids)) == len(ids)
    for est in config.estimators:
        entry = ESTIMATORS[est["kind"]]
        for key in entry.tuning:
            assert isinstance(est[key], float) and math.isfinite(est[key])
        for param in entry.params:
            assert math.isfinite(config.truth[param])


# a valid truth of each model, with beta = 1 and rho != 0 (the logarithmic
# drift) and the constant scale path besides; each run sets one key to an
# extreme value and draws at an extreme or a plain mesh
_TRUTHS = [
    ("symmetric_stable", {"beta": 1.5, "sigma": 1.0, "rho": 0.3,
                          "gamma": 0.5}),
    ("symmetric_stable", {"beta": 1.0, "sigma": 1.0, "rho": 0.3,
                          "gamma": 0.5}),
    ("skewed_stable", {"beta": 1.5, "p_pos": 0.5, "sigma": 1.0}),
    ("timevarying_stable", {"beta": 1.5, "p_pos": 0.5}),
    ("timevarying_stable",
     {"beta": 1.5, "p_pos": 0.5, "path": "constant", "sigma": 1.0}),
    ("gamma_sub", {"delta": 1.0, "gamma": 1.0}),
    ("ig_sub", {"delta": 1.0, "gamma": 1.0}),
]
_EXTREMES = (0.0, -1.0, 1e-300, 1e300)
_MESHES = (1e-300, 0.01, 1e300)


@pytest.mark.parametrize("model, truth, key", [
    pytest.param(model, truth, key, id="-".join(filter(None, [
        model, f"beta={truth['beta']}" if "beta" in truth else "",
        truth.get("path"), key])))
    for model, truth in _TRUTHS for key in truth if key != "path"])
def test_model_cell_draws_a_sample_or_raises_typed_error(model, truth, key):
    for value, h in itertools.product(_EXTREMES, _MESHES):
        bad = {**truth, key: value}
        try:
            with warnings.catch_warnings():
                # a subordinator's degenerate-shape warning at a tiny delta h
                warnings.filterwarnings("ignore", "per-increment shape",
                                        UserWarning)
                sample = check_truth(model, bad).cell(bad, h, 5).sample(3)
        except LevyEstimError:
            continue
        assert isinstance(sample, IncrementSample)
        assert sample.n == 5 and np.isfinite(sample.values).all()
