"""Generated inputs at the two text boundaries: the increment CSV reader and
the ``simulate --params`` parser.  Each either accepts its input or fails
with its documented error type, never with anything else."""

import math

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from levyestim.cli import _parse_params
from levyestim.errors import LevyEstimError
from levyestim.serialize import read_increments
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
