"""Log-gamma, digamma, constants and the monotone root finder."""

import math

import numpy as np
import pytest
import scipy.special as ss
from scipy.optimize import brentq
from hypothesis import given, settings
from hypothesis import strategies as st

from levyestim import skewed, symmetric
from levyestim.errors import DomainError, NoSignChange
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
    # the package evaluates scipy.special.digamma, returned as a Python float
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
