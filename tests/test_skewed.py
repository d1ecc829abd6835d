"""Sign, moment and multipower-variation estimators for skewed stable laws."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from levyestim.errors import DomainError, InadmissiblePositivity, RootOutOfBracket
from levyestim.skewed import (
    a_cross,
    b_cross,
    bipower_beta,
    delta_cov,
    mpv,
    mpv_cov,
    mu_abs,
    mu_product,
    nu_signed,
    sigma_star_bipower,
    sigma_star_power,
    sign_bipower_estimate,
    sign_bipower_point,
    sign_statistic,
    tripower_estimate,
    tripower_integrated_scale,
    tripower_point,
)
from levyestim.stable_core import (
    IncrementSample,
    PositivityStable,
    StableParams,
    sample_increments,
    skew_to_positivity,
    sprime_increment_sampler,
)
from levyestim.symmetric import c_moment

# positivity value of the (beta, rho) = (1.5, -0.5) law, frozen from
# skew_to_positivity (arctan identity, cross-checked in test_stable_core)
P_POS = 0.5983890784336222

LAW = PositivityStable(1.5, P_POS, 1.0)


def _sample(values):
    return IncrementSample(np.asarray(values, dtype=float), 1.0, {})


# ---------------------------------------------------------------------------
# sign statistic


def test_sign_statistic_hand_values():
    assert sign_statistic(_sample([1.0, -1.0, 2.0])) == pytest.approx(2.0 / 3.0)
    assert sign_statistic(_sample([0.3, 5.0, 1e-12])) == 1.0
    assert sign_statistic(_sample([-0.3, -5.0])) == 0.0


def test_sign_statistic_negation_reversal():
    # any sample equal to its own negation-reversal balances signs exactly
    vals = [1.5, -2.0, 0.7, -0.7, 2.0, -1.5]
    assert np.allclose(vals, -np.asarray(vals)[::-1])
    assert sign_statistic(_sample(vals)) == 0.5


def test_sign_statistic_zero_counts_as_zero_sign():
    with pytest.warns(UserWarning, match="zero increment"):
        p = sign_statistic(_sample([1.0, 0.0, -1.0, 1.0]))
    assert p == pytest.approx(0.5 * (0.25 + 1.0))


@given(st.lists(st.floats(min_value=1e-6, max_value=1e6), min_size=1, max_size=40),
       st.lists(st.booleans(), min_size=1, max_size=40))
@settings(max_examples=100, deadline=None)
def test_sign_statistic_negation_flips(mags, signs):
    n = min(len(mags), len(signs))
    vals = np.array([m if s else -m for m, s in zip(mags[:n], signs[:n])])
    p = sign_statistic(_sample(vals))
    assert 0.0 <= p <= 1.0
    assert sign_statistic(_sample(-vals)) == pytest.approx(1.0 - p)


# ---------------------------------------------------------------------------
# closed-form fractional moments


def test_nu_vanishes_at_symmetry():
    for r in (-1.5, -0.5, 0.25, 0.5, 1.0, 1.3):
        assert nu_signed(1.5, 0.5, r) == 0.0


def test_nu_order_zero_is_sign_mean():
    assert nu_signed(1.5, P_POS, 0.0) == pytest.approx(2.0 * P_POS - 1.0)
    assert nu_signed(1.5, 0.5, 0.0) == 0.0


def test_nu_first_moment_centered():
    # strictly stable with beta > 1 has mean zero; the reflection form
    # carries an exact-zero cos(pi/2) factor up to rounding
    assert abs(nu_signed(1.5, P_POS, 1.0)) < 1e-15


def test_mu_reduces_to_symmetric_constant():
    for beta in (1.1, 1.5, 1.9):
        for r in (0.1, 0.25, 0.5, 0.75):
            assert mu_abs(beta, 0.5, r) == pytest.approx(
                c_moment(beta, r), rel=1e-9)


def test_mu_against_mc_mean():
    # E|zeta|^{1/2} for the skewed law, against 1e6 simulated draws
    mu = mu_abs(1.5, P_POS, 0.5)
    s = sprime_increment_sampler(LAW, 1.0, 1_000_000, seed=31)
    draws = np.abs(s.values) ** 0.5
    se = draws.std(ddof=1) / math.sqrt(draws.size)
    assert abs(draws.mean() - mu) <= 1e-3
    assert abs(draws.mean() - mu) <= 3.0 * se


def test_mu_negative_orders():
    # moments extend down to r > -1 through the signed-gamma recurrence
    assert mu_abs(1.5, P_POS, -0.5) > 0.0
    assert math.isfinite(nu_signed(1.5, P_POS, -1.5))


def test_moment_domain_errors():
    with pytest.raises(DomainError):
        mu_abs(1.5, P_POS, 1.5)
    with pytest.raises(DomainError):
        mu_abs(1.5, P_POS, -1.0)
    with pytest.raises(DomainError):
        nu_signed(1.5, P_POS, -1.0)
    with pytest.raises(DomainError):
        nu_signed(1.5, P_POS, -2.0)
    with pytest.raises(DomainError):
        mu_abs(2.5, 0.5, 0.3)
    with pytest.raises(DomainError):
        mu_abs(1.5, -0.1, 0.3)
    with pytest.raises(InadmissiblePositivity):
        mu_abs(1.9, 0.9, 0.3)


@given(st.floats(min_value=1.05, max_value=1.95),
       st.floats(min_value=0.05, max_value=0.95),
       st.floats(min_value=0.01, max_value=0.99))
@settings(max_examples=150, deadline=None)
def test_mu_positive_on_admissible_range(beta, t_pos, t_r):
    lo, hi = 1.0 - 1.0 / beta, 1.0 / beta
    p_pos = lo + t_pos * (hi - lo)
    r = t_r * 0.5 * beta
    assert mu_abs(beta, p_pos, r) > 0.0


def test_mu_product_is_product():
    vals = [mu_abs(1.5, P_POS, v) for v in (0.5, 0.2)]
    assert mu_product(1.5, P_POS, (0.5, 0.2)) == pytest.approx(
        vals[0] * vals[1], rel=1e-12)
    with pytest.raises(DomainError):
        mu_product(1.5, P_POS, (0.0, 0.0))
    with pytest.raises(DomainError):
        mu_product(1.5, P_POS, (0.8, 0.1))
    with pytest.raises(DomainError):
        mu_product(1.5, P_POS, (-0.1, 0.2))


# ---------------------------------------------------------------------------
# multipower variation


def test_mpv_zero_power_is_one():
    s = _sample([0.4, -1.0, 2.5, 0.1])
    assert mpv(s, 1.5, (0.0,)) == 1.0


def test_mpv_constant_data():
    n, c, q, beta = 50, 0.7, 0.2, 1.4
    s = _sample(np.full(n, c))
    expect = (n - 1) / n * abs(n ** (1.0 / beta) * c) ** (2.0 * q)
    assert mpv(s, beta, (q, q)) == pytest.approx(expect, rel=1e-12)


def test_mpv_lln():
    beta, q, n = 1.5, 0.25, 10_000
    r = (2.0 * q, 0.0)
    mu_r = mu_product(beta, P_POS, r)
    se = math.sqrt(b_cross(beta, P_POS, r, r) / n)
    s = sprime_increment_sampler(LAW, 1.0 / n, n, seed=97)
    assert abs(mpv(s, beta, r) - mu_r) <= 3.0 * se


def test_mpv_ratio_lln_symmetric():
    # M_n(q,q) / M_n(2q,0) -> mu_q^2 / mu_2q for symmetric stable data;
    # band from the delta method on the joint MPV CLT
    beta, q, n = 1.5, 0.25, 10_000
    r, rp = (2.0 * q, 0.0), (q, q)
    s = sample_increments(StableParams(beta, 1.0, 0.0, 0.0), 1.0 / n, n, seed=55)
    ratio = mpv(s, beta, rp) / mpv(s, beta, r)
    target = mu_abs(beta, 0.5, q) ** 2 / mu_abs(beta, 0.5, 2.0 * q)
    cov = mpv_cov(beta, 0.5, rp, r, lambda v: 1.0)
    mu_num = mu_product(beta, 0.5, rp)
    mu_den = mu_product(beta, 0.5, r)
    grad = np.array([1.0 / mu_den, -mu_num / mu_den ** 2])
    se = math.sqrt(grad @ cov[1:, 1:] @ grad / n)
    assert abs(ratio - target) <= 3.0 * se


def test_mpv_validation():
    s = _sample([1.0, 2.0])
    with pytest.raises(DomainError):
        mpv(s, 1.5, (0.2, 0.2, 0.2))
    with pytest.raises(DomainError):
        mpv(s, 2.5, (0.2,))
    with pytest.raises(DomainError):
        mpv(s, 1.5, ())


# ---------------------------------------------------------------------------
# bipower index estimate


def _ratio_const(q, p_hat):
    # C_1(q) C_2(q, p_hat)
    c1 = math.gamma(1.0 - 2.0 * q) * math.cos(math.pi * q) \
        / (math.gamma(1.0 - q) * math.cos(0.5 * math.pi * q)) ** 2
    ang = math.pi * q * (p_hat - 0.5)
    c2 = math.cos(ang) ** 2 / math.cos(2.0 * ang)
    return c1 * c2


def _ratio_rhs(beta, q, p_hat):
    return _ratio_const(q, p_hat) * math.gamma(1.0 - q / beta) ** 2 \
        / math.gamma(1.0 - 2.0 * q / beta)


def test_ratio_rhs_equals_moment_ratio():
    # C1(q) C2(q,p) Gamma(1-q/b)^2/Gamma(1-2q/b) == mu_q^2 / mu_2q
    for p_pos in (0.5, P_POS):
        lhs = mu_abs(1.5, p_pos, 0.2) ** 2 / mu_abs(1.5, p_pos, 0.4)
        assert lhs == pytest.approx(_ratio_rhs(1.5, 0.2, p_pos), rel=1e-10)


def test_bipower_symmetric_correction_is_one():
    ang = math.pi * 0.25 * (0.5 - 0.5)
    assert math.cos(ang) ** 2 / math.cos(2.0 * ang) == 1.0


def test_bipower_root_residual():
    q = 0.25
    s = sprime_increment_sampler(LAW, 1.0 / 4000, 4000, seed=13)
    p_hat = sign_statistic(s)
    beta_hat = bipower_beta(s, q, p_hat)
    x = np.abs(s.values)
    lhs = float(np.sum(x[:-1] ** q * x[1:] ** q)) / float(np.sum(x ** (2 * q)))
    assert abs(lhs - _ratio_rhs(beta_hat, q, p_hat)) <= 1e-10 * lhs


def test_bipower_scale_free():
    s = sprime_increment_sampler(LAW, 1.0 / 4000, 4000, seed=13)
    p_hat = sign_statistic(s)
    b1 = bipower_beta(s, 0.25, p_hat)
    scaled = IncrementSample(37.0 * s.values, s.h, {})
    assert bipower_beta(scaled, 0.25, p_hat) == pytest.approx(b1, abs=1e-6)


@pytest.mark.parametrize("q", [0.2, 0.25])
def test_bipower_map_strictly_increasing(q):
    lo = max(4.0 * q, 1.0) + 1e-3
    grid = np.linspace(lo, 2.0 - 1e-3, 200)
    g = [math.gamma(1.0 - q / b) ** 2 / math.gamma(1.0 - 2.0 * q / b)
         for b in grid]
    assert np.all(np.diff(g) > 0.0)


def test_bipower_out_of_bracket():
    # heavy-tailed beta = 0.8 data pushes the ratio below the map's image
    s = sample_increments(StableParams(0.8, 1.0, 0.0, 0.0), 1.0 / 4000, 4000,
                          seed=11)
    with pytest.raises(RootOutOfBracket):
        bipower_beta(s, 0.25, 0.5)


@pytest.mark.parametrize("beta", [1.2, 1.5, 1.9])
@pytest.mark.parametrize("q", [0.2, 0.25])
def test_bipower_root_matches_the_ratio_equation(beta, q):
    # reference: Brent on the ratio itself, Gamma(1-q/b)^2/Gamma(1-2q/b) =
    # target, where bipower_beta solves the log of both sides
    law = PositivityStable(beta, skew_to_positivity(beta, -0.5), 1.0)
    s = sprime_increment_sampler(law, 1.0 / 4000, 4000, seed=17)
    p_hat = sign_statistic(s)
    x = np.abs(s.values)
    ratio = float(np.sum(x[:-1] ** q * x[1:] ** q)) / float(np.sum(x ** (2 * q)))
    target = ratio / _ratio_const(q, p_hat)

    def gap(b):
        return math.exp(2.0 * math.lgamma(1.0 - q / b)
                        - math.lgamma(1.0 - 2.0 * q / b)) - target

    ref = brentq(gap, max(4.0 * q, 1.0) + 1e-9, 2.0 - 1e-9, xtol=1e-12,
                 maxiter=200)
    assert abs(bipower_beta(s, q, p_hat) - ref) <= 1e-10


def test_bipower_validation():
    s = _sample([1.0, -2.0, 0.5])
    with pytest.raises(DomainError):
        bipower_beta(s, 0.6, 0.5)
    with pytest.raises(DomainError):
        bipower_beta(s, 0.25, 1.5)
    with pytest.raises(DomainError):
        bipower_beta(_sample([1.0]), 0.25, 0.5)


# ---------------------------------------------------------------------------
# scale functionals


def test_sigma_star_power_lln():
    beta, q, n = 1.5, 0.25, 10_000
    r = (2.0 * q, 0.0)
    s = sprime_increment_sampler(LAW, 1.0 / n, n, seed=97)
    est = sigma_star_power(s, P_POS, beta, 2.0 * q)
    se = math.sqrt(b_cross(beta, P_POS, r, r) / n) / mu_product(beta, P_POS, r)
    assert abs(est - 1.0) <= 3.0 * se


def test_sigma_star_bipower_lln():
    beta, q, n = 1.5, 0.25, 10_000
    rp = (q, q)
    s = sprime_increment_sampler(LAW, 1.0 / n, n, seed=97)
    est = sigma_star_bipower(s, P_POS, beta, q)
    se = math.sqrt(b_cross(beta, P_POS, rp, rp) / n) / mu_product(beta, P_POS, rp)
    assert abs(est - 1.0) <= 3.0 * se


def test_sigma_star_scaling():
    s = sprime_increment_sampler(LAW, 1.0 / 500, 500, seed=5)
    scaled = IncrementSample(3.0 * s.values, s.h, {})
    power = 0.5
    assert sigma_star_power(scaled, P_POS, 1.5, power) == pytest.approx(
        3.0 ** power * sigma_star_power(s, P_POS, 1.5, power), rel=1e-12)
    assert sigma_star_bipower(scaled, P_POS, 1.5, 0.25) == pytest.approx(
        3.0 ** 0.5 * sigma_star_bipower(s, P_POS, 1.5, 0.25), rel=1e-12)


def test_tripower_lln():
    beta, n = 1.5, 10_000
    rt = (beta / 3.0,) * 3
    s = sprime_increment_sampler(LAW, 1.0 / n, n, seed=97)
    est = tripower_integrated_scale(s, P_POS, beta)
    se = math.sqrt(b_cross(beta, P_POS, rt, rt) / n) / mu_product(beta, P_POS, rt)
    assert abs(est - 1.0) <= 3.0 * se


def test_tripower_homogeneity():
    s = sprime_increment_sampler(LAW, 1.0 / 500, 500, seed=5)
    scaled = IncrementSample(2.0 * s.values, s.h, {})
    beta_hat = 1.47
    assert tripower_integrated_scale(scaled, P_POS, beta_hat) == pytest.approx(
        2.0 ** beta_hat * tripower_integrated_scale(s, P_POS, beta_hat),
        rel=1e-12)


def test_power_sums_equal_per_slice_powers():
    # one |x|^r array multiplied along shifted slices is bit-identical to
    # raising every slice separately
    s = sprime_increment_sampler(LAW, 1.0 / 2000, 2000, seed=23)
    x = np.abs(s.values)
    n = x.size
    for q in (0.2, 0.25, 0.3):
        xq = x ** q
        np.testing.assert_array_equal(xq[:-1] * xq[1:], x[:-1] ** q * x[1:] ** q)
    for beta_hat in (1.2, 1.47, 1.9):
        third = beta_hat / 3.0
        mstar = float(np.sum(x[:-2] ** third * x[1:-1] ** third
                             * x[2:] ** third))
        mu = mu_abs(beta_hat, P_POS, third)
        assert tripower_integrated_scale(s, P_POS, beta_hat) == mstar / mu ** 3
        for power in (0.2, 0.25):
            num = float(np.sum(x[:-1] ** power * x[1:] ** power))
            mu = mu_abs(beta_hat, P_POS, power)
            assert sigma_star_bipower(s, P_POS, beta_hat, power) == \
                n ** (2.0 * power / beta_hat - 1.0) * num / (mu * mu)


def test_mpv_mixed_powers_equal_per_slice_reference():
    # repeated and distinct powers share one |x|^r array per distinct power;
    # the reference raises every shifted slice separately
    s = sprime_increment_sampler(LAW, 1.0 / 2000, 2000, seed=29)
    x = np.abs(s.values)
    n = x.size
    for r in ((0.2, 0.4, 0.2), (0.3,), (0.25, 0.25), (0.5, 0.0),
              (0.1, 0.3, 0.1, 0.3)):
        m = len(r)
        prod = np.ones(n - m + 1)
        for l, rl in enumerate(r):
            prod = prod * x[l:n - m + 1 + l] ** rl
        for beta in (1.2, 1.5, 1.9):
            expect = n ** (float(np.sum(r)) / beta - 1.0) * float(prod.sum())
            assert mpv(s, beta, r) == expect


def test_scale_functionals_need_enough_data():
    with pytest.raises(DomainError):
        sigma_star_bipower(_sample([1.0]), P_POS, 1.5, 0.25)
    with pytest.raises(DomainError):
        tripower_integrated_scale(_sample([1.0, 2.0]), P_POS, 1.5)


# ---------------------------------------------------------------------------
# covariance assembly


def test_cov_sign_entry():
    cov = mpv_cov(1.5, 0.5, (0.5, 0.0), (0.25, 0.25), lambda v: 1.0)
    assert cov[0, 0] == 1.0
    cov = mpv_cov(1.5, P_POS, (0.5, 0.0), (0.25, 0.25), lambda v: 1.0)
    assert cov[0, 0] == pytest.approx(4.0 * P_POS * (1.0 - P_POS), rel=1e-14)


def test_a_cross_vanishes_at_symmetry():
    assert a_cross(1.5, 0.5, (0.4, 0.2)) == 0.0


def test_b_cross_single_power_variance():
    s = 0.3
    expect = mu_abs(1.5, P_POS, 2 * s) - mu_abs(1.5, P_POS, s) ** 2
    assert b_cross(1.5, P_POS, (s,), (s,)) == pytest.approx(expect, rel=1e-12)


def test_b_cross_two_powers_closed_form():
    s, t = 0.3, 0.2

    def mu(v):
        return mu_abs(1.5, P_POS, v)

    expect = (mu(2 * s) * mu(2 * t) - 3.0 * mu(s) ** 2 * mu(t) ** 2
              + 2.0 * mu(s) * mu(t) * mu(s + t))
    assert b_cross(1.5, P_POS, (s, t), (s, t)) == pytest.approx(
        expect, rel=1e-12)


def test_mpv_cov_symmetric_psd():
    for p_pos in (0.5, P_POS):
        cov = mpv_cov(1.5, p_pos, (0.5, 0.0), (0.25, 0.25), lambda v: 1.0)
        assert np.allclose(cov, cov.T)
        assert np.linalg.eigvalsh(cov).min() > -1e-12


def test_delta_cov_symmetric_pd():
    v = delta_cov(1.5, P_POS, 0.25, 1.0, 1.0)
    assert np.allclose(v, v.T)
    assert np.linalg.eigvalsh(v).min() > 0.0


def test_delta_cov_validation():
    with pytest.raises(DomainError):
        delta_cov(1.5, P_POS, 0.4, 1.0, 1.0)


@pytest.mark.parametrize("c", [1e3, 1e10, 1e20, 1e100, 1e250, 1e-100])
def test_delta_cov_singularity_test_is_scale_free(c):
    # beta_hat and its variance V_22 do not depend on the data's scale, so
    # neither may the Jacobian's singularity test
    base = sample_increments(StableParams(1.5, 1.0), 0.001, 2001, 3)
    v22 = sign_bipower_estimate(base).cov_matrix[1, 1]
    scaled = IncrementSample(base.values * c, 0.001)
    assert sign_bipower_estimate(scaled).cov_matrix[1, 1] == pytest.approx(
        v22, rel=1e-7)


def test_delta_cov_matches_mc():
    # sample covariance of sqrt(n) (p_hat - p, beta_hat - beta, s_hat - 1)
    # over 2000 replications at n = 1e4; the scale statistic is normalized
    # at the true index (the estimating equations the CLT describes), since
    # plugging beta_hat into n^{2q/beta} adds a log n-order error term that
    # is not part of the limit covariance
    beta, q, n, reps = 1.5, 0.25, 10_000, 2000
    v = delta_cov(beta, P_POS, q, 1.0, 1.0)
    est = np.empty((reps, 3))
    for rep in range(reps):
        s = sprime_increment_sampler(LAW, 1.0 / n, n, seed=900_000 + rep)
        x = np.abs(s.values)
        p_hat = sign_statistic(s)
        beta_hat = bipower_beta(s, q, p_hat)
        m_r = n ** (2.0 * q / beta - 1.0) * float(np.sum(x ** (2.0 * q)))
        est[rep] = (p_hat, beta_hat, m_r / mu_abs(beta_hat, p_hat, 2.0 * q))
    mc = np.cov((math.sqrt(n) * (est - np.array([P_POS, beta, 1.0]))).T)
    scale = np.sqrt(np.outer(np.diag(v), np.diag(v)))
    assert np.all(np.abs(mc - v) / scale <= 0.10)


# ---------------------------------------------------------------------------
# drivers


def test_sign_bipower_estimate_report():
    s = sprime_increment_sampler(LAW, 1.0 / 20_000, 20_000, seed=71)
    rep = sign_bipower_estimate(s)
    assert rep.method == "sign-bipower"
    assert rep.n == 20_000
    assert 1.4 < rep.beta_hat < 1.6
    assert 0.9 < rep.sigma_hat < 1.1
    assert abs(rep.extra["p_pos_hat"] - P_POS) < 0.02
    assert rep.extra["p_pos_hat"] == sign_statistic(s)
    assert np.asarray(rep.cov_matrix).shape == (3, 3)
    assert rep.extra["sigma_star_p"] > 0.0


@pytest.mark.parametrize("seed", [3, 4, 5])
@pytest.mark.parametrize("q", [0.2, 0.25, 0.3])
def test_point_cores_equal_their_reports(seed, q):
    s = sprime_increment_sampler(LAW, 1.0 / 2000, 2000, seed=seed)
    rep = sign_bipower_estimate(s, q)
    assert sign_bipower_point(s, q) == (
        rep.extra["p_pos_hat"], rep.beta_hat, rep.sigma_hat,
        rep.extra["sigma_star_p"])
    rep = tripower_estimate(s, q)
    assert tripower_point(s, q) == (rep.extra["p_pos_hat"], rep.beta_hat,
                                    rep.sigma_hat)


def test_tripower_estimate_report():
    s = sprime_increment_sampler(LAW, 1.0 / 20_000, 20_000, seed=71)
    rep = tripower_estimate(s)
    assert rep.method == "tripower"
    assert rep.extra["estimand"] == "sigma_star_beta"
    assert 0.8 < rep.sigma_hat < 1.2
    assert rep.extra["avar_sigma_star"] > 0.0
    assert rep.extra["rate"] == "sqrt(n)/log(n)"
    # same first two steps as the constant-scale driver
    assert rep.beta_hat == sign_bipower_estimate(s).beta_hat
