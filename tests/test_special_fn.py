"""Log-gamma, digamma, constants and the monotone root finder."""

import math

import numpy as np
import pytest
import scipy.special as ss
from scipy.optimize import brentq
from hypothesis import given, settings
from hypothesis import strategies as st

from levyestim import skewed, special_fn, symmetric
from levyestim.errors import (
    DomainError,
    LevyEstimError,
    MaxIterExceeded,
    NoSignChange,
)
from levyestim.special_fn import (
    EULER_GAMMA,
    ZETA3,
    digamma,
    find_root_monotone,
    log_gamma,
    log_gamma_ratio,
)
from levyestim.stable_core import (
    PositivityStable,
    StableParams,
    sample_increments,
    sprime_increment_sampler,
)

# frozen reference values (math.lgamma / scipy at higher context, checked once)
LGAMMA_HALF = 0.5723649429247004       # log sqrt(pi)
LGAMMA_FOUR = 1.791759469228055        # log 6
PSI_TWO = 0.4227843350984671           # 1 - euler_gamma
PSI_HALF = -1.9635100260214235         # -euler_gamma - 2 log 2
LOG_PSI_ROOT = 0.6155567664795943      # root of log x - psi(x) - 1, brentq/scipy


def test_constants():
    assert abs(EULER_GAMMA - (-ss.digamma(1.0))) < 1e-15
    assert abs(ZETA3 - ss.zeta(3)) < 1e-15


def test_log_gamma_frozen_values():
    assert abs(log_gamma(0.5) - LGAMMA_HALF) < 1e-12
    assert abs(log_gamma(4.0) - LGAMMA_FOUR) < 1e-12
    assert abs(log_gamma(0.5) - 0.5 * math.log(math.pi)) < 1e-14
    assert abs(log_gamma(4.0) - math.log(6.0)) < 1e-14


def test_digamma_frozen_values():
    assert abs(digamma(2.0) - PSI_TWO) < 1e-10
    assert abs(digamma(0.5) - PSI_HALF) < 1e-10


@pytest.mark.parametrize("x", [0.1, 0.5, 1.5, 7.3])
def test_recurrences(x):
    assert log_gamma(x + 1.0) == pytest.approx(log_gamma(x) + math.log(x),
                                               rel=1e-12, abs=1e-12)
    assert digamma(x + 1.0) == pytest.approx(digamma(x) + 1.0 / x,
                                             rel=1e-12, abs=1e-12)


def test_against_scipy_grid():
    xs = np.concatenate([np.linspace(0.02, 1.0, 23),
                         np.linspace(1.0, 60.0, 47)])
    for x in xs:
        assert abs(log_gamma(x) - ss.gammaln(x)) < 1e-10 * (1 + abs(ss.gammaln(x)))
        assert abs(digamma(x) - ss.digamma(x)) < 1e-10 * (1 + abs(ss.digamma(x)))


def test_digamma_is_scipy_digamma():
    # the package's own psi (recurrence plus asymptotic series) stays
    # within 1e-15 relative of scipy's, returned as a Python float
    for x in np.geomspace(1e-6, 1e6, 241):
        psi = digamma(float(x))
        assert type(psi) is float
        assert abs(psi - ss.digamma(x)) <= 1e-15 * abs(ss.digamma(x))


@given(st.floats(min_value=0.05, max_value=50.0,
                 allow_nan=False, allow_infinity=False))
@settings(max_examples=200, deadline=None)
def test_digamma_recurrence_property(x):
    assert digamma(x + 1.0) == pytest.approx(digamma(x) + 1.0 / x, rel=1e-9)


def test_domain_errors():
    with pytest.raises(DomainError):
        log_gamma(0.0)
    with pytest.raises(DomainError):
        log_gamma(-1.5)
    with pytest.raises(DomainError):
        digamma(0.0)
    with pytest.raises(DomainError):
        digamma(-2.0)


def test_root_log_minus_psi():
    root = find_root_monotone(lambda x: math.log(x) - digamma(x) - 1.0,
                              0.1, 10.0)
    assert abs(root - LOG_PSI_ROOT) < 1e-10
    assert abs(math.log(root) - digamma(root) - 1.0) < 1e-10


def test_root_cube():
    root = find_root_monotone(lambda x: x ** 3 - 2.0, 0.0, 2.0)
    assert abs(root - 2.0 ** (1.0 / 3.0)) < 1e-12


def test_root_at_endpoint():
    assert find_root_monotone(lambda x: x - 1.0, 1.0, 2.0) == 1.0
    assert find_root_monotone(lambda x: x - 2.0, 1.0, 2.0) == 2.0


def test_root_no_sign_change():
    with pytest.raises(NoSignChange):
        find_root_monotone(lambda x: x + 10.0, 1.0, 2.0)


def test_bracket_validation():
    with pytest.raises(DomainError):
        find_root_monotone(lambda x: x, 2.0, 1.0)
    with pytest.raises(DomainError):
        find_root_monotone(lambda x: x, -1.0, math.inf)


def _two_pass_root(f, lo, hi):
    # reference: sign check at both ends, then a brentq that evaluates
    # them again
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise NoSignChange("same sign", lo=lo, hi=hi)
    return float(brentq(f, lo, hi, xtol=1e-12, maxiter=200))


def test_root_evaluates_each_end_once():
    calls = []

    def f(x):
        calls.append(x)
        return x - 0.3

    assert find_root_monotone(f, 0.0, 1.0) == 0.3
    assert calls == [0.0, 1.0, 0.3]


@pytest.mark.parametrize("seed", range(6))
def test_estimator_roots_equal_two_pass_roots(seed, monkeypatch):
    frac_sample = sample_increments(StableParams(1.4, 1.0), 1.0 / 2000, 2001,
                                    seed=seed)
    bip_sample = sprime_increment_sampler(PositivityStable(1.5, 0.55), 1e-3,
                                          2000, seed=seed)

    def roots():
        return (symmetric.frac_moment_estimate(frac_sample, 0.2).beta_hat,
                skewed.bipower_beta(bip_sample, 0.25, 0.55))

    new = roots()
    monkeypatch.setattr(symmetric, "find_root_monotone", _two_pass_root)
    monkeypatch.setattr(skewed, "find_root_monotone", _two_pass_root)
    assert roots() == new


def _counted(f):
    def g(x):
        g.calls += 1
        return f(x)
    g.calls = 0
    return g


def _monotone_cases(seed, count):
    # strictly monotone functions with a root in a random bracket: steep
    # and flat slopes, odd powers, saturating and exponential shapes, roots
    # anywhere inside and within 1e-9 or 1e-15 of either end (about a sixth
    # of them round to an exact zero at an end), both orientations
    rng = np.random.default_rng(seed)
    for _ in range(count):
        lo = float(rng.uniform(-5.0, 1.0))
        hi = lo + float(10.0 ** rng.uniform(-3.0, 1.5))
        u = float(rng.choice([rng.uniform(), 1e-9, 1.0 - 1e-9, 1e-15,
                              1.0 - 1e-15]))
        r = lo + (hi - lo) * u
        s = float(10.0 ** rng.uniform(-8.0, 8.0))
        kind = int(rng.integers(5))
        sign = float(rng.choice([-1.0, 1.0]))
        if kind == 0:
            f = lambda x, r=r, s=s: s * (x - r)
        elif kind == 1:
            f = lambda x, r=r, s=s: s * math.copysign(abs(x - r) ** 3, x - r)
        elif kind == 2:
            f = lambda x, r=r, s=s: math.atan(s * (x - r))
        elif kind == 3:
            a = float(rng.uniform(0.1, 4.0))
            f = lambda x, r=r, a=a: math.exp(a * x) - math.exp(a * r)
        else:
            f = lambda x, r=r, s=s: math.tanh(s * (x - r)) + 1e-3 * (x - r)
        yield (lambda x, f=f, sign=sign: sign * f(x)), lo, hi


@pytest.mark.parametrize("seed", range(4))
def test_root_is_scipy_brentq_bit_for_bit(seed):
    # the solver ports scipy's brentq.c: the same root, compared with ==,
    # from the same number of evaluations
    for f, lo, hi in _monotone_cases(seed, 100):
        ours, ref = _counted(f), _counted(f)
        root = find_root_monotone(ours, lo, hi)
        assert root == brentq(ref, lo, hi, xtol=1e-12, maxiter=200)
        assert ours.calls == ref.calls


@pytest.mark.parametrize("lo, hi", [(0.5, 2.0), (-2.0, 0.5), (0.5, 0.5 + 1e-13)])
def test_exact_zero_at_an_end_matches_brentq(lo, hi):
    f = lambda x: (x - 0.5) * 3.0
    ours, ref = _counted(f), _counted(f)
    assert find_root_monotone(ours, lo, hi) == 0.5
    assert brentq(ref, lo, hi, xtol=1e-12, maxiter=200) == 0.5
    assert ours.calls == ref.calls == 2


@pytest.mark.parametrize("scale", [1e-150, 1e-300, 1e-320])
def test_underflowing_extrapolation_matches_brentq(scale):
    # tiny f values underflow the extrapolation denominator to 0, where C's
    # division gives inf and brentq bisects
    f = lambda x: scale * (x ** 3 - 0.2)
    ours, ref = _counted(f), _counted(f)
    root = find_root_monotone(ours, 0.0, 1.0)
    assert root == brentq(ref, 0.0, 1.0, xtol=1e-12, maxiter=200)
    assert ours.calls == ref.calls


@pytest.mark.parametrize("maxiter", [1, 3, 6])
def test_iteration_budget_matches_brentq(maxiter, monkeypatch):
    monkeypatch.setattr(special_fn, "_MAXITER", maxiter)
    f = lambda x: math.exp(x) - 3.0
    _, info = brentq(f, -10.0, 10.0, xtol=1e-12, maxiter=maxiter,
                     full_output=True, disp=False)
    assert not info.converged
    with pytest.raises(MaxIterExceeded) as exc:
        find_root_monotone(f, -10.0, 10.0)
    assert exc.value.context["iterations"] == maxiter


def test_nan_inside_the_bracket_is_a_typed_error():
    def f(x):
        return math.nan if 0.3 < x < 0.7 else x - 0.5

    with pytest.raises(LevyEstimError) as exc:
        find_root_monotone(f, 0.0, 1.0)
    assert exc.value.code == "domain_error"
    assert 0.3 < exc.value.context["x"] < 0.7
    payload = exc.value.to_json_dict()["context"]
    assert (payload["lo"], payload["hi"]) == (0.0, 1.0)


@given(st.floats(min_value=-5.0, max_value=5.0,
                 allow_nan=False, allow_infinity=False))
@settings(max_examples=100, deadline=None)
def test_root_image_property(c):
    # for a strictly increasing function the returned point nearly zeroes it
    f = lambda x: x ** 3 + x - c
    root = find_root_monotone(f, -10.0, 10.0)
    assert abs(f(root)) < 1e-8


# ---------------------------------------------------------------------------
# log-Gamma ratio of the index equations


@pytest.mark.parametrize("r", [0.05, 0.1, 0.25, 0.3])
def test_log_gamma_ratio_matches_scipy_and_increases(r):
    betas = np.linspace(2.0 * r + 0.05, 2.0, 60)
    got = np.array([log_gamma_ratio(b, r) for b in betas])
    ref = 2.0 * ss.gammaln(1.0 - r / betas) - ss.gammaln(1.0 - 2.0 * r / betas)
    # math.lgamma and scipy gammaln agree to ~1e-15 absolute near 1
    np.testing.assert_allclose(got, ref, rtol=1e-13, atol=1e-14)
    assert np.all(np.diff(got) > 0.0)
