"""Sign, moment and multipower-variation estimators for skewed stable laws."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from levyestim.cli import _estimate
from levyestim.errors import (
    DomainError,
    InadmissiblePositivity,
    RootOutOfBracket,
    only_row,
)
from levyestim.skewed import (
    _lag_sum,
    _system_cov,
    bipower_beta,
    delta_cov,
    mu_abs,
    nu_signed,
    sigma_star_bipower,
    sign_bipower_block,
    sign_block,
    tripower_block,
    tripower_integrated_scale,
)
from levyestim.stable_core import (
    IncrementSample,
    increments_cell,
    skew_to_positivity,
    sprime_cell,
)
from levyestim.symmetric import c_moment

# positivity value of the (beta, rho) = (1.5, -0.5) law, frozen from
# skew_to_positivity (arctan identity, cross-checked in test_stable_core)
P_POS = 0.5983890784336222

LAW = (1.5, P_POS, 1.0)  # (beta, p_pos, sigma)


def _sample(values):
    return IncrementSample(np.asarray(values, dtype=float), 1.0)


def _sign_hat(sample):
    # p_hat of one sample: the sign block core on one row
    (p_hat,) = only_row(sign_block(sample.values[None]))
    return p_hat


def _three_step(core, sample, q):
    # (p_hat, beta_hat, scale, s_p) of one sample: sign_bipower_block or
    # tripower_block on one row
    return only_row(core(sample.values[None], q))


# ---------------------------------------------------------------------------
# sign statistic


def test_sign_statistic_hand_values():
    assert _sign_hat(_sample([1.0, -1.0, 2.0])) == pytest.approx(2.0 / 3.0)
    assert _sign_hat(_sample([0.3, 5.0, 1e-12])) == 1.0
    assert _sign_hat(_sample([-0.3, -5.0])) == 0.0


def test_sign_statistic_negation_reversal():
    # any sample equal to its own negation-reversal balances signs exactly
    vals = [1.5, -2.0, 0.7, -0.7, 2.0, -1.5]
    assert np.allclose(vals, -np.asarray(vals)[::-1])
    assert _sign_hat(_sample(vals)) == 0.5


def test_sign_statistic_zero_counts_as_zero_sign():
    with pytest.warns(UserWarning, match="zero increment"):
        p = _sign_hat(_sample([1.0, 0.0, -1.0, 1.0]))
    assert p == pytest.approx(0.5 * (0.25 + 1.0))


@given(st.lists(st.floats(min_value=1e-6, max_value=1e6), min_size=1, max_size=40),
       st.lists(st.booleans(), min_size=1, max_size=40))
@settings(max_examples=100, deadline=None)
def test_sign_statistic_negation_flips(mags, signs):
    n = min(len(mags), len(signs))
    vals = np.array([m if s else -m for m, s in zip(mags[:n], signs[:n])])
    p = _sign_hat(_sample(vals))
    assert 0.0 <= p <= 1.0
    assert _sign_hat(_sample(-vals)) == pytest.approx(1.0 - p)


# ---------------------------------------------------------------------------
# closed-form fractional moments


def test_nu_vanishes_at_symmetry():
    for r in (0.25, 0.5, 1.0, 1.3):
        assert nu_signed(1.5, 0.5, r) == 0.0


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
    s = sprime_cell(*LAW, 1.0, 1_000_000).sample(seed=31)
    draws = np.abs(s.values) ** 0.5
    se = draws.std(ddof=1) / math.sqrt(draws.size)
    assert abs(draws.mean() - mu) <= 1e-3
    assert abs(draws.mean() - mu) <= 3.0 * se


def test_mu_negative_orders():
    # the estimators use orders in (0, beta): q to 4q and beta/3; a
    # negative order, finite in closed form above -1, is refused
    for r in (-0.5, -1.5, -1e-300):
        with pytest.raises(DomainError):
            mu_abs(1.5, P_POS, r)
        with pytest.raises(DomainError):
            nu_signed(1.5, P_POS, r)


def test_moment_domain_errors():
    with pytest.raises(DomainError):
        mu_abs(1.5, P_POS, 1.5)
    with pytest.raises(DomainError):
        mu_abs(1.5, P_POS, 0.0)
    with pytest.raises(DomainError):
        nu_signed(1.5, P_POS, 0.0)
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


def test_positivity_rule_is_cos_xi_positive():
    # only |p - 1/2| >= 1/(2 beta) is refused, a wider set of p than the
    # law's range (1 - 1/beta, 1/beta): p = 0.7 passes at beta = 1.5
    assert mu_abs(1.5, 0.7, 0.5) == pytest.approx(1.2267, abs=1e-4)
    with pytest.raises(InadmissiblePositivity) as exc:
        mu_abs(1.5, 0.84, 0.5)
    assert "|p - 1/2| >= 1/(2 beta)" in exc.value.message


@given(st.floats(min_value=1.05, max_value=1.95),
       st.floats(min_value=0.05, max_value=0.95),
       st.floats(min_value=0.01, max_value=0.99))
@settings(max_examples=150, deadline=None)
def test_mu_positive_on_admissible_range(beta, t_pos, t_r):
    lo, hi = 1.0 - 1.0 / beta, 1.0 / beta
    p_pos = lo + t_pos * (hi - lo)
    r = t_r * 0.5 * beta
    assert mu_abs(beta, p_pos, r) > 0.0


# ---------------------------------------------------------------------------
# power variations


def test_mpv_constant_data():
    # M_n(q, q) on constant data, through sigma_star_bipower's normalization
    n, c, q, beta = 50, 0.7, 0.2, 1.4
    s = _sample(np.full(n, c))
    mu = mu_abs(beta, P_POS, q)
    expect = (n - 1) / n * abs(n ** (1.0 / beta) * c) ** (2.0 * q) / mu ** 2
    assert sigma_star_bipower(s, P_POS, beta, q) == pytest.approx(
        expect, rel=1e-12)


def test_mpv_lln():
    beta, q, n = 1.5, 0.25, 10_000
    se = math.sqrt(_system_cov(beta, P_POS, q, 1.0, 1.0)[1, 1] / n)
    s = sprime_cell(*LAW, 1.0 / n, n).sample(seed=97)
    # M_n(2q, 0) = n^{2q/beta - 1} sum_{j<n} |D_j|^{2q}
    x = np.abs(s.values)
    m_r = n ** (2.0 * q / beta - 1.0) * float(np.sum(x[:-1] ** (2.0 * q)))
    assert abs(m_r - mu_abs(beta, P_POS, 2.0 * q)) <= 3.0 * se


def test_mpv_ratio_lln_symmetric():
    # M_n(q,q) / M_n(2q,0) -> mu_q^2 / mu_2q for symmetric stable data;
    # band from the delta method on the joint CLT.  The n-powers cancel,
    # so the ratio is one of plain sums
    beta, q, n = 1.5, 0.25, 10_000
    s = increments_cell(beta, 1.0, 0.0, 0.0, 1.0 / n,
                        n).sample(seed=55)
    x = np.abs(s.values)
    ratio = (float(np.sum(x[:-1] ** q * x[1:] ** q))
             / float(np.sum(x[:-1] ** (2.0 * q))))
    mu_den = mu_abs(beta, 0.5, 2.0 * q)
    mu_num = mu_abs(beta, 0.5, q) ** 2
    target = mu_num / mu_den
    cov = _system_cov(beta, 0.5, q, 1.0, 1.0)
    grad = np.array([-mu_num / mu_den ** 2, 1.0 / mu_den])
    se = math.sqrt(grad @ cov[1:, 1:] @ grad / n)
    assert abs(ratio - target) <= 3.0 * se


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
    s = sprime_cell(*LAW, 1.0 / 4000, 4000).sample(seed=13)
    p_hat = _sign_hat(s)
    beta_hat = bipower_beta(s, q, p_hat)
    x = np.abs(s.values)
    lhs = float(np.sum(x[:-1] ** q * x[1:] ** q)) / float(np.sum(x ** (2 * q)))
    assert abs(lhs - _ratio_rhs(beta_hat, q, p_hat)) <= 1e-10 * lhs


def test_bipower_scale_free():
    s = sprime_cell(*LAW, 1.0 / 4000, 4000).sample(seed=13)
    p_hat = _sign_hat(s)
    b1 = bipower_beta(s, 0.25, p_hat)
    scaled = IncrementSample(37.0 * s.values, s.h)
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
    s = increments_cell(0.8, 1.0, 0.0, 0.0, 1.0 / 4000,
                        4000).sample(seed=11)
    with pytest.raises(RootOutOfBracket):
        bipower_beta(s, 0.25, 0.5)


@pytest.mark.parametrize("beta", [1.2, 1.5, 1.9])
@pytest.mark.parametrize("q", [0.2, 0.25])
def test_bipower_root_matches_the_ratio_equation(beta, q):
    # reference: Brent on the ratio itself, Gamma(1-q/b)^2/Gamma(1-2q/b) =
    # target, where bipower_beta solves the log of both sides
    s = sprime_cell(beta, skew_to_positivity(beta, -0.5), 1.0, 1.0 / 4000,
                    4000).sample(seed=17)
    p_hat = _sign_hat(s)
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
    s = sprime_cell(*LAW, 1.0 / n, n).sample(seed=97)
    # the plug-in sigma*_hat_p at the true (p, beta): at an estimated
    # beta_hat, as sign_bipower_block's s_p, the factor n^{p/beta_hat - 1}
    # adds the log(n)-rate error of beta_hat, which this band leaves out
    x = np.abs(s.values)
    mu = mu_abs(beta, P_POS, 2.0 * q)
    est = n ** (2.0 * q / beta - 1.0) * float(np.sum(x ** (2.0 * q))) / mu
    se = math.sqrt(_system_cov(beta, P_POS, q, 1.0, 1.0)[1, 1] / n) / mu
    assert abs(est - 1.0) <= 3.0 * se


def test_sigma_star_bipower_lln():
    beta, q, n = 1.5, 0.25, 10_000
    s = sprime_cell(*LAW, 1.0 / n, n).sample(seed=97)
    est = sigma_star_bipower(s, P_POS, beta, q)
    se = (math.sqrt(_system_cov(beta, P_POS, q, 1.0, 1.0)[2, 2] / n)
          / mu_abs(beta, P_POS, q) ** 2)
    assert abs(est - 1.0) <= 3.0 * se


def test_sigma_star_scaling():
    s = sprime_cell(*LAW, 1.0 / 500, 500).sample(seed=5)
    scaled = IncrementSample(3.0 * s.values, s.h)
    # s_p at q = 0.25: power 2q = 0.5, and (p_hat, beta_hat) are scale free
    s_p = _three_step(sign_bipower_block, s, 0.25)[3]
    assert _three_step(sign_bipower_block, scaled, 0.25)[3] == \
        pytest.approx(3.0 ** 0.5 * s_p, rel=1e-12)
    assert sigma_star_bipower(scaled, P_POS, 1.5, 0.25) == pytest.approx(
        3.0 ** 0.5 * sigma_star_bipower(s, P_POS, 1.5, 0.25), rel=1e-12)


def test_tripower_lln():
    beta, n = 1.5, 10_000
    s = sprime_cell(*LAW, 1.0 / n, n).sample(seed=97)
    est = tripower_integrated_scale(np.abs(s.values), P_POS, beta)
    # the variance weight of three equal powers t = beta/3
    t = beta / 3.0
    mu_t, mu_2t = mu_abs(beta, P_POS, t), mu_abs(beta, P_POS, 2.0 * t)
    weight = (mu_2t * mu_2t * mu_2t - 5.0 * mu_t ** 6 + 2.0 * mu_t ** 4 * mu_2t
              + 2.0 * mu_t ** 2 * mu_2t ** 2)
    se = math.sqrt(weight / n) / mu_t ** 3
    assert abs(est - 1.0) <= 3.0 * se


def test_tripower_homogeneity():
    s = sprime_cell(*LAW, 1.0 / 500, 500).sample(seed=5)
    x = np.abs(s.values)
    beta_hat = 1.47
    assert tripower_integrated_scale(2.0 * x, P_POS, beta_hat) == \
        pytest.approx(2.0 ** beta_hat
                      * tripower_integrated_scale(x, P_POS, beta_hat),
                      rel=1e-12)


@pytest.mark.filterwarnings("error")
def test_tripower_is_finite_where_only_its_raw_sum_overflows():
    # at beta = 1.2 the raw sum M*_n is mu^3 = 1.42 times the estimate, so
    # an estimate of 1.3e308 has a sum past the largest double, though
    # every term of it is finite
    x = np.abs(sprime_cell(1.2, 0.5, 1.0, 1 / 2001, 2001).sample(7).values)
    base = tripower_integrated_scale(x, 0.5, 1.2)
    for target in (1.0e308, 1.3e308, 1.6e308):
        c = (target / base) ** (1 / 1.2)
        assert tripower_integrated_scale(c * x, 0.5, 1.2) == pytest.approx(
            target, rel=1e-12)


def test_power_sums_equal_per_slice_powers():
    # one |x|^r array multiplied along shifted slices is bit-identical to
    # raising every slice separately
    s = sprime_cell(*LAW, 1.0 / 2000, 2000).sample(seed=23)
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
        assert tripower_integrated_scale(x, P_POS, beta_hat) == mstar / mu ** 3
        for power in (0.2, 0.25):
            num = float(np.sum(x[:-1] ** power * x[1:] ** power))
            mu = mu_abs(beta_hat, P_POS, power)
            assert sigma_star_bipower(s, P_POS, beta_hat, power) == \
                n ** (2.0 * power / beta_hat - 1.0) * num / (mu * mu)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_lag_sum_equals_per_slice_reference(m):
    # one |x|^r array multiplied along m shifted slices, left to right; the
    # reference raises every shifted slice separately
    s = sprime_cell(*LAW, 1.0 / 2000, 2000).sample(seed=29)
    x = np.abs(s.values)
    n = x.size
    for r in (0.1, 0.25, 0.5):
        prod = x[:n - m + 1] ** r
        for l in range(1, m):
            prod = prod * x[l:n - m + 1 + l] ** r
        assert float(_lag_sum(x[None], r, m)[0]) == float(prod.sum())


# (sigma_star_bipower(s, 0.58, 1.45, 0.25),
#  tripower_integrated_scale(|D|, 0.58, 1.45)) as float64 bytes (hex) of
# seeded S'_1.5(0.6) samples: the order of the lag products is part of the
# result
_POWER_STATISTIC_BITS = {
    3: ("09a6edbcae93f03f", "58360c50ec48f13f"),
    11: ("0a922130aaebf03f", "a31f2eae8b2bf23f"),
    29: ("70519d2004adf03f", "6cb84a9f2d0df23f"),
}


@pytest.mark.parametrize("seed", list(_POWER_STATISTIC_BITS))
def test_power_statistic_bits_are_pinned(seed):
    s = sprime_cell(1.5, 0.6, 1.0, 1 / 400, 400).sample(seed=seed)
    got = (sigma_star_bipower(s, 0.58, 1.45, 0.25),
           tripower_integrated_scale(np.abs(s.values), 0.58, 1.45))
    assert tuple(np.float64(v).tobytes().hex() for v in got) == \
        _POWER_STATISTIC_BITS[seed]


def test_scale_functionals_need_enough_data():
    with pytest.raises(DomainError, match="shorter") as info:
        sigma_star_bipower(_sample([1.0]), P_POS, 1.5, 0.25)
    assert info.value.context == {"n": 1, "m": 2}
    with pytest.raises(DomainError, match="shorter") as info:
        tripower_integrated_scale(np.array([1.0, 2.0]), P_POS, 1.5)
    assert info.value.context == {"n": 2, "m": 3}


# ---------------------------------------------------------------------------
# covariance assembly


def test_cov_sign_entry():
    cov = _system_cov(1.5, 0.5, 0.25, 1.0, 1.0)
    assert cov[0, 0] == 1.0
    cov = _system_cov(1.5, P_POS, 0.25, 1.0, 1.0)
    assert cov[0, 0] == pytest.approx(4.0 * P_POS * (1.0 - P_POS), rel=1e-14)


def test_a_cross_vanishes_at_symmetry():
    # the sign/power covariances A(r) s and A(r') s vanish at p = 1/2
    for q in (0.1, 0.2, 0.25):
        cov = _system_cov(1.5, 0.5, q, 1.0, 1.0)
        assert cov[0, 1] == cov[0, 2] == 0.0


def test_b_cross_single_power_variance():
    # M_n(2q, 0) has the variance weight of the single power 2q
    s = 0.3
    expect = mu_abs(1.5, P_POS, 2 * s) - mu_abs(1.5, P_POS, s) ** 2
    assert _system_cov(1.5, P_POS, s / 2, 1.0, 1.0)[1, 1] == pytest.approx(
        expect, rel=1e-12)


def test_b_cross_two_powers_closed_form():
    q = 0.2

    def mu(v):
        return mu_abs(1.5, P_POS, v)

    cov = _system_cov(1.5, P_POS, q, 1.0, 1.0)
    assert cov[2, 2] == pytest.approx(
        mu(2 * q) ** 2 - 3.0 * mu(q) ** 4 + 2.0 * mu(q) ** 2 * mu(2 * q),
        rel=1e-12)
    assert cov[1, 2] == pytest.approx(
        2.0 * mu(q) * mu(3 * q) - 2.0 * mu(2 * q) * mu(q) ** 2, rel=1e-12)


def test_mpv_cov_symmetric_psd():
    for p_pos in (0.5, P_POS):
        cov = _system_cov(1.5, p_pos, 0.25, 1.0, 1.0)
        assert np.allclose(cov, cov.T)
        assert np.linalg.eigvalsh(cov).min() > -1e-12


def test_delta_cov_symmetric_pd():
    v = delta_cov(1.5, P_POS, 0.25, 1.0, 1.0)
    assert np.allclose(v, v.T)
    assert np.linalg.eigvalsh(v).min() > 0.0


def test_delta_cov_validation():
    with pytest.raises(DomainError):
        delta_cov(1.5, P_POS, 0.4, 1.0, 1.0)


# delta_cov(beta, p_pos, q, 1.3, 0.7).tobytes().hex() at (beta, p_pos, q),
# one matrix row a line, so that any moved bit fails; the last two q lie
# within 1e-3 relative of beta/4
_DELTA_COV_BITS = {
    (1.2, 0.5, 0.1):
        "000000000000d03f00000000000000000000000000000000"
        "000000000000000031535cc86664fa3f1447e5e4dc0ac93f"
        "0000000000000000fe46e5e4dc0ac93f3a77e10878c9b33f",
    (1.2, 0.5, 0.25):
        "000000000000d03f00000000000000000000000000000000"
        "0000000000000000461c9021113c1340e7e39e889d61fc3f"
        "0000000000000000e4e39e889d61fc3f1c7ec2c29046f03f",
    (1.2, P_POS, 0.1):
        "f09a32d4cac2ce3f5ec105936110c1bf15199c48db82b6bf"
        "5ec105936110c1bf2630029be2c4f93ff00f21148cfaca3f"
        "15199c48db82b6bfd10f21148cfaca3f9d29cd1558c0b93f",
    (1.2, P_POS, 0.25):
        "f09a32d4cac2ce3f50c42a457b94b6bf8dc1dd6559d8c9bf"
        "50c42a457b94b6bf8cbe2ed9c58b1240d4222cfb2cd8f93f"
        "8dc1dd6559d8c9bfd1222cfb2cd8f93f27ca9228d272f03f",
    (1.5, 0.5, 0.1):
        "000000000000d03f00000000000000000000000000000000"
        "0000000000000000542a9c21d81f0a40f4e16c9b5552d53f"
        "0000000000000000ffe16c9b5552d53f4a1d73eaae96b23f",
    (1.5, 0.5, 0.25):
        "000000000000d03f00000000000000000000000000000000"
        "0000000000000000728f103af7930a406a537506f34de83f"
        "000000000000000073537506f34de83f2049c89cead6da3f",
    (1.5, P_POS, 0.1):
        "f09a32d4cac2ce3fd613f5516b65d1bf943b9d3460b1bcbf"
        "d613f5516b65d1bffe4a34ee8ae90940e66d13eeb347d93f"
        "943b9d3460b1bcbfe26d13eeb347d93fffa223b208c5bc3f",
    (1.5, P_POS, 0.25):
        "f09a32d4cac2ce3fe3d3ac1bad83c9bf1ad352b948eed0bf"
        "e3d3ac1bad83c9bfd4acf716ba80094037615c240af4e93f"
        "1ad352b948eed0bf35615c240af4e93f61b956b48b46e43f",
    (1.9, 0.5, 0.1):
        "000000000000d03f00000000000000000000000000000000"
        "00000000000000004093af01cfc62040929577122e4fe53f"
        "00000000000000008b9577122e4fe53f1189dc264667b33f",
    (1.9, 0.5, 0.25):
        "000000000000d03f00000000000000000000000000000000"
        "00000000000000005b24ff15ac5e0b40170ca68048b5e93f"
        "00000000000000000a0ca68048b5e93fbfb511faeb37d53f",
    (1.9, P_POS, 0.1):
        "f09a32d4cac2ce3f5c0d156b464ee2bf42f0d5ecbca1c2bf"
        "5c0d156b464ee2bf1ed76d2e163c2140a463871e6054eb3f"
        "42f0d5ecbca1c2bfa463871e6054eb3f5f363c2c2a35c23f",
    (1.9, P_POS, 0.25):
        "f09a32d4cac2ce3fb31469c088eddcbf13c715622978d6bf"
        "b31469c088eddcbf593794b371510c40b7786b03916ff43f"
        "13c715622978d6bfb3786b03916ff43f80d5069e5084e83f",
    (1.5, P_POS, 0.3748125):
        "f09a32d4cac2ce3fa6aa3e3a16d9c1bf0d754730baaad7bf"
        "a6aa3e3a16d9c1bfa73958784971a140de89939ee7278d40"
        "0d754730baaad7bfdf89939ee7278d40aa38c7c19a6d7840",
    (1.9, 0.5, 0.474905):
        "000000000000d03f00000000000000000000000000000000"
        "000000000000000018747f70a293a54062c3715974069040"
        "000000000000000062c37159740690407cdd5ba2c7d67740",
}


@pytest.mark.parametrize("point", list(_DELTA_COV_BITS))
def test_delta_cov_bits_are_pinned(point):
    beta, p_pos, q = point
    v = delta_cov(beta, p_pos, q, 1.3, 0.7)
    assert v.tobytes().hex() == _DELTA_COV_BITS[point]


@pytest.mark.parametrize("c", [1e3, 1e10, 1e20, 1e100, 1e250, 1e-100])
def test_delta_cov_singularity_test_is_scale_free(c):
    # beta_hat and its variance V_22 do not depend on the data's scale, so
    # neither may the Jacobian's singularity test
    base = increments_cell(1.5, 1.0, 0.0, 0.0, 0.001, 2001).sample(3)
    v22 = _estimate("sign-bipower", base, {}).cov_matrix[1, 1]
    scaled = IncrementSample(base.values * c, 0.001)
    assert _estimate("sign-bipower", scaled, {}).cov_matrix[1, 1] == \
        pytest.approx(v22, rel=1e-7)


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
        s = sprime_cell(*LAW, 1.0 / n, n).sample(seed=900_000 + rep)
        x = np.abs(s.values)
        p_hat = _sign_hat(s)
        beta_hat = bipower_beta(s, q, p_hat)
        m_r = n ** (2.0 * q / beta - 1.0) * float(np.sum(x ** (2.0 * q)))
        est[rep] = (p_hat, beta_hat, m_r / mu_abs(beta_hat, p_hat, 2.0 * q))
    mc = np.cov((math.sqrt(n) * (est - np.array([P_POS, beta, 1.0]))).T)
    scale = np.sqrt(np.outer(np.diag(v), np.diag(v)))
    assert np.all(np.abs(mc - v) / scale <= 0.10)


# ---------------------------------------------------------------------------
# drivers


def test_sign_bipower_estimate_report():
    s = sprime_cell(*LAW, 1.0 / 20_000, 20_000).sample(seed=71)
    rep = _estimate("sign-bipower", s, {})
    assert rep.method == "sign-bipower"
    assert rep.n == 20_000
    assert 1.4 < rep.beta_hat < 1.6
    assert 0.9 < rep.sigma_hat < 1.1
    assert abs(rep.extra["p_pos_hat"] - P_POS) < 0.02
    assert rep.extra["p_pos_hat"] == _sign_hat(s)
    assert np.asarray(rep.cov_matrix).shape == (3, 3)
    assert rep.extra["sigma_star_p"] > 0.0


@pytest.mark.parametrize("seed", [3, 4, 5])
@pytest.mark.parametrize("q", [0.2, 0.25, 0.3])
def test_point_cores_equal_their_reports(seed, q):
    s = sprime_cell(*LAW, 1.0 / 2000, 2000).sample(seed=seed)
    rep = _estimate("sign-bipower", s, {"q": q})
    assert _three_step(sign_bipower_block, s, q) == (
        rep.extra["p_pos_hat"], rep.beta_hat, rep.sigma_hat,
        rep.extra["sigma_star_p"])
    rep = _estimate("tripower", s, {"q": q})
    assert _three_step(tripower_block, s, q) == (
        rep.extra["p_pos_hat"], rep.beta_hat, rep.sigma_hat,
        _three_step(sign_bipower_block, s, q)[3])


def test_tripower_estimate_report():
    s = sprime_cell(*LAW, 1.0 / 20_000, 20_000).sample(seed=71)
    rep = _estimate("tripower", s, {})
    assert rep.method == "tripower"
    assert rep.extra["estimand"] == "sigma_star_beta"
    assert 0.8 < rep.sigma_hat < 1.2
    assert rep.extra["avar_sigma_star"] > 0.0
    assert rep.extra["rate"] == "sqrt(n)/log(n)"
    # same first two steps as the constant-scale driver
    assert rep.beta_hat == _estimate("sign-bipower", s, {}).beta_hat
