"""Block cores: every row of a stacked (rows, n) block is estimated exactly
as the per-sample core estimates that row alone."""

import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levyestim.errors import (
    DomainError,
    EstimationError,
    NonpositiveVarianceGap,
    RootOutOfBracket,
    ZeroResidual,
    only_row,
)
from levyestim.mc import ESTIMATORS
from levyestim.skewed import (
    bipower_beta,
    bipower_block,
    sign_bipower_block,
    sign_bipower_point,
    sign_statistic,
    tripower_block,
    tripower_point,
)
from levyestim.stable_core import IncrementSample, sample_standard_stable
from levyestim.subordinators import gamma_mle, gamma_moment, ig_mle
from levyestim.symmetric import (
    frac_moment_block,
    frac_moment_point,
    known_scale_block,
    log_moment_block,
    log_moment_point,
    median_block,
    median_gamma,
)

# kind -> the per-sample core of that kind, as mc reported it before the
# block cores: one sample in, the reported params out
_PER_SAMPLE = {
    "log": lambda s, e: log_moment_point(s),
    "frac": lambda s, e: frac_moment_point(s, e["p"]),
    "known_scale": lambda s, e: only_row(known_scale_block(
        s.values[None], s.h, e["sigma"])),
    "median": lambda s, e: (median_gamma(s),),
    "sign": lambda s, e: (sign_statistic(s),),
    "bipower": lambda s, e: (bipower_beta(s, e["q"], sign_statistic(s)),),
    "power_scale": lambda s, e: sign_bipower_point(s, e["q"])[2:3],
    "tripower": lambda s, e: tripower_point(s, e["q"])[2:3],
    "gamma_mle": lambda s, e: gamma_mle(s),
    "gamma_moment": lambda s, e: gamma_moment(s),
    "ig_mle": lambda s, e: ig_mle(s),
}
_SUBORDINATOR_KINDS = ("gamma_mle", "gamma_moment", "ig_mle")

_ROW_KINDS = ("stable", "gaussian", "tie", "zeros", "constant", "tight",
              "huge")


def _stable(rng, n, beta):
    u = rng.uniform(-0.5 * np.pi, 0.5 * np.pi, size=n)
    v = rng.standard_exponential(size=n)
    return sample_standard_stable(beta, rng.uniform(-0.7, 0.7), u, v)


def _row(kind, n, rng):
    beta = rng.uniform(0.7, 1.95)
    if kind == "stable":
        return _stable(rng, n, beta) * rng.uniform(0.01, 10.0)
    if kind == "gaussian":  # beta = 2: index roots may leave their bracket
        return rng.standard_normal(n)
    if kind == "tie":  # an off-median increment equals the median
        x = _stable(rng, n, beta)
        odd = n if n % 2 else n - 1
        xs = np.sort(x[:odd])
        m = xs[(odd - 1) // 2]
        others = np.flatnonzero(x[:odd] != m)
        x[others[rng.integers(others.size)]] = m
        return x
    if kind == "zeros":  # signed exact zeros, often the median itself
        x = _stable(rng, n, beta)
        at = rng.random(n) < rng.uniform(0.2, 0.8)
        x[at] = np.where(rng.random(n) < 0.5, 0.0, -0.0)[at]
        return x
    if kind == "constant":
        return np.full(n, rng.choice([0.0, -0.0, 1.5]))
    if kind == "tight":  # median 0, log residuals with variance below
        # pi^2/12: k values near -1, k near +1
        odd = n if n % 2 else n - 1
        k = (odd - 1) // 2
        signs = rng.permutation(np.r_[-np.ones(k), np.zeros(1), np.ones(k),
                                      np.ones(n - odd)])
        return signs * (1.0 + 1e-3 * rng.random(n))
    # huge: scale estimates overflow to inf
    return np.clip(_stable(rng, n, beta), -1e15, 1e15) * 1e290


def _bits(value):
    # repr keeps -0.0, inf and the Python-float type apart
    return repr(value)


def _singles(kind, block, h, est):
    out = []
    for row in block:
        try:
            out.append(_PER_SAMPLE[kind](IncrementSample(row, h), est))
        except EstimationError as exc:
            out.append(exc)
    return out


def _assert_block_is_rows(kind, block, h, est):
    with warnings.catch_warnings(record=True) as alone:
        warnings.simplefilter("always", UserWarning)
        try:
            expect = _singles(kind, block, h, est)
        except Exception as exc:
            # an error that is not an estimation failure stops both alike
            with pytest.raises(type(exc)) as info:
                ESTIMATORS[kind].block(block, h, est)
            assert str(info.value) == str(exc)
            assert _bits(getattr(info.value, "context", None)) == \
                _bits(getattr(exc, "context", None))
            return []
    with warnings.catch_warnings(record=True) as stacked:
        warnings.simplefilter("always", UserWarning)
        got = ESTIMATORS[kind].block(block, h, est)
    assert [str(w.message) for w in stacked] == \
        [str(w.message) for w in alone], kind
    assert len(got) == len(expect)
    for row, (g, e) in enumerate(zip(got, expect)):
        if isinstance(e, EstimationError):
            assert type(g) is type(e), (kind, row, g)
            assert g.message == e.message, (kind, row)
            assert _bits(g.context) == _bits(e.context), (kind, row)
        else:
            assert _bits(g) == _bits(e), (kind, row, g, e)
    return got


@given(seed=st.integers(0, 2**32 - 1),
       n=st.sampled_from((3, 4, 7, 500)),
       kinds=st.lists(st.sampled_from(_ROW_KINDS), min_size=1, max_size=6),
       h=st.sampled_from((1e-200, 1e-12, 1e-3, 5.0 / 501, 1.0)),
       p=st.sampled_from((0.05, 0.1, 0.2, 0.3)),
       q=st.sampled_from((0.1, 0.25, 0.4)))
@settings(max_examples=60, deadline=None)
def test_block_rows_equal_the_per_sample_core(seed, n, kinds, h, p, q):
    rng = np.random.default_rng(seed)
    block = np.array([_row(kind, n, rng) for kind in kinds])
    block.flags.writeable = False
    est = {"p": p, "q": q, "sigma": 0.5}
    positive = np.abs(block) + 0.5
    positive.flags.writeable = False
    for kind in ESTIMATORS:
        _assert_block_is_rows(
            kind, positive if kind in _SUBORDINATOR_KINDS else block, h, est)


def test_mixed_block_names_each_failure():
    # one block whose rows pass or fail in each of the ways a row can
    rng = np.random.default_rng(11)
    n = 501
    block = np.array([_stable(rng, n, 1.5), _row("tie", n, rng),
                      _row("tight", n, rng), _stable(rng, n, 0.8),
                      _row("huge", n, rng)])
    block.flags.writeable = False
    est = {"p": 0.2, "q": 0.25, "sigma": 0.5}
    h = 1e-200
    logs = _assert_block_is_rows("log", block, h, est)
    assert all(map(math.isfinite, logs[0]))
    assert isinstance(logs[1], ZeroResidual)
    assert isinstance(logs[2], NonpositiveVarianceGap)
    assert logs[4][1] == math.inf
    fracs = _assert_block_is_rows("frac", block, h, est)
    assert all(map(math.isfinite, fracs[0]))
    assert isinstance(fracs[3], RootOutOfBracket)
    for kind in ESTIMATORS:
        if kind not in _SUBORDINATOR_KINDS:
            _assert_block_is_rows(kind, block, h, est)


@pytest.mark.parametrize("n", (1, 2))
@pytest.mark.parametrize("core", (
    lambda b: log_moment_block(b, 1.0),
    lambda b: frac_moment_block(b, 1.0, 0.1),
    lambda b: known_scale_block(b, 1.0, 0.5),
    lambda b: median_block(b, 1.0),
    lambda b: log_moment_point(IncrementSample(b[0], 1.0)),
    lambda b: median_gamma(IncrementSample(b[0], 1.0)),
), ids=("log", "frac", "known_scale", "median", "log_point",
        "median_point"))
def test_short_one_row_block_is_a_domain_error(core, n):
    with pytest.raises(DomainError) as info:
        core(np.arange(1.0, n + 1.0)[None])
    assert info.value.context == {"n": n}


# block core -> the power of c that multiplies each of its estimates on cX:
# an index or positivity estimate is unchanged, a scale or drift estimate
# is multiplied by c, s_p (p = 2q = 0.5) by c^p and the tripower
# integrated scale sigma*^beta by c^beta_hat
_EQUIVARIANT = {
    "log": (lambda b: log_moment_block(b, 1.0), (0, 1, 1)),
    "frac": (lambda b: frac_moment_block(b, 1.0, 0.1), (0, 1, 1)),
    "median": (lambda b: median_block(b, 1.0), (1,)),
    "bipower": (lambda b: bipower_block(b, 0.25), (0,)),
    "sign_bipower": (lambda b: sign_bipower_block(b, 0.25), (0, 0, 1, 0.5)),
    "tripower": (lambda b: tripower_block(b, 0.25), (0, 0, "beta", 0.5)),
}


# logs of the least and the largest normal double
_LOG_NORMAL = (math.log(sys.float_info.min), math.log(sys.float_info.max))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("beta", (1.2, 1.5, 1.9))
def test_block_cores_are_scale_equivariant(beta):
    # every c = 10^k for which each value of cX is normal; a subnormal cX
    # has lost digits of the sample itself, so it is not a scaled copy
    x = _stable(np.random.default_rng(2001), 2001, beta)
    least = float(np.abs(x[x != 0.0]).min())
    largest = float(np.abs(x).max())
    ks = [k for k in range(-323, 309)
          if sys.float_info.min <= 10.0 ** k * least
          and 10.0 ** k * largest <= sys.float_info.max]
    block = np.array([10.0 ** k * x for k in ks])
    for name, (core, powers) in _EQUIVARIANT.items():
        rows = core(block)
        base = rows[ks.index(0)]
        for k, row in zip(ks, rows):
            assert not isinstance(row, EstimationError), (name, k, row)
            for value, ref, power in zip(row, base, powers):
                power = base[1] if power == "beta" else power
                # log |estimate| moves by k power log 10; its sign stays
                shift = k * power * math.log(10.0)
                if not sys.float_info.min <= abs(value) < math.inf:
                    # only an estimate outside the normal range, such as
                    # c^beta sigma*^beta past the largest double
                    assert not (_LOG_NORMAL[0] <= math.log(ref) + shift
                                <= _LOG_NORMAL[1]), (name, k, value)
                    continue
                assert math.copysign(1.0, value) == math.copysign(1.0, ref)
                assert math.log(abs(value)) - shift == pytest.approx(
                    math.log(abs(ref)), rel=0.0, abs=1e-9), (name, k)
