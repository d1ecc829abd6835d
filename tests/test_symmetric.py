"""Median, log-moment and fractional-moment estimators with covariances."""

import math

import numpy as np
import pytest
import scipy.special as ss
from scipy.optimize import brentq

from levyestim.errors import (
    DenominatorNearZero,
    DomainError,
    EstimationError,
    NotPositiveDefinite,
    RootOutOfBracket,
    ZeroResidual,
    only_row,
)
from levyestim.special_fn import log_gamma_ratio
from levyestim.stable_core import IncrementSample, increments_cell
from levyestim.stable_density import median_asymptotic_sd
from levyestim.symmetric import (
    _log_block,
    _log_frac_k,
    _medians,
    c_moment,
    frac_moment_estimate,
    frac_moment_point,
    gamma_confidence_interval,
    known_scale_block,
    log_moment_estimate,
    log_moment_point,
    median_gamma,
    psi_transform,
    v_log,
    v_p,
)

EULER = 0.5772156649015329

# direct gamma-function oracle values for C(beta, q) (scipy, frozen)
C_15_025 = 0.99704065931686
C_15_05 = 1.080429797374515
C_08_01 = 1.0323838475753233


def _sym_sample(beta, sigma, gamma, n, T, seed):
    return increments_cell(beta, sigma, 0.0, gamma, T / n,
                           n).sample(seed)


# ---------------------------------------------------------------------------
# median

def test_median_hand_values():
    assert median_gamma(IncrementSample(np.array([-1.0, 0.0, 3.0]), 0.5)) == 0.0
    assert median_gamma(IncrementSample(np.array([1., 2., 3., 4., 5.]), 1.0)) == 3.0


def test_median_even_drops_last():
    # even n: the final increment is dropped before taking the median
    vals = np.array([1.0, 2.0, 100.0, -50.0])
    est = median_gamma(IncrementSample(vals, 1.0))
    assert est == 2.0


def test_median_translation():
    vals = np.array([0.3, -1.2, 0.7, 2.0, -0.4])
    h = 0.25
    base = median_gamma(IncrementSample(vals, h))
    shifted = median_gamma(IncrementSample(vals + 5.0 * h, h))
    assert shifted == pytest.approx(base + 5.0, rel=1e-12)


def test_median_standardized_variance():
    # sqrt(n) h^{1-1/beta} (gamma_hat - gamma) / medsd has variance ~ 1
    beta, sigma, gamma, n = 1.0, 0.5, -0.5, 2001
    h = 5.0 / n
    sd = median_asymptotic_sd(beta, sigma)
    zs = []
    for rep in range(1000):
        s = _sym_sample(beta, sigma, gamma, n, 5.0, 50_000 + rep)
        zs.append(math.sqrt(n) * h ** (1 - 1 / beta)
                  * (median_gamma(s) - gamma) / sd)
    assert abs(np.var(zs) - 1.0) < 0.15


# ---------------------------------------------------------------------------
# log-moment estimator

def test_log_moment_basic_report():
    s = _sym_sample(1.5, 0.5, -0.5, 2001, 5.0, 77)
    rep = log_moment_estimate(s)
    assert rep.method == "log"
    assert abs(rep.beta_hat - 1.5) < 0.25
    assert abs(rep.sigma_hat - 0.5) < 0.2
    assert rep.ci_gamma[0] < rep.gamma_hat < rep.ci_gamma[1]
    assert rep.cov_matrix.shape == (3, 3)
    assert rep.extra["k"] == 1000


@pytest.mark.parametrize("beta,n,seed", [
    (1.5, 2001, 1), (1.5, 2000, 2), (0.8, 501, 3), (1.8, 1000, 4),
])
def test_point_cores_equal_their_reports(beta, n, seed):
    s = _sym_sample(beta, 0.5, -0.5, n, 5.0, seed)
    rep = log_moment_estimate(s, level=0.9)
    assert log_moment_point(s) == (rep.beta_hat, rep.sigma_hat, rep.gamma_hat)
    # the odd-sample rule keeps 2k + 1 increments
    assert rep.n == 2 * rep.extra["k"] + 1 == n - (1 - n % 2)
    for p in (0.05, 0.1, 0.2):
        if 6.0 * p >= beta:
            continue
        rep = frac_moment_estimate(s, p)
        assert frac_moment_point(s, p) == (rep.beta_hat, rep.sigma_hat,
                                           rep.gamma_hat)
        assert rep.n == 2 * rep.extra["k"] + 1


def test_log_moment_scale_equivariance():
    s = _sym_sample(1.3, 0.8, 0.0, 1001, 5.0, 5)
    r1 = log_moment_estimate(s)
    r2 = log_moment_estimate(IncrementSample(3.0 * s.values, s.h))
    assert r2.beta_hat == pytest.approx(r1.beta_hat, rel=1e-12)
    assert r2.sigma_hat == pytest.approx(3.0 * r1.sigma_hat, rel=1e-12)


def test_log_moment_translation_invariance():
    s = _sym_sample(1.3, 0.8, 0.0, 1001, 5.0, 6)
    r1 = log_moment_estimate(s)
    r2 = log_moment_estimate(IncrementSample(s.values + 2.0 * s.h, s.h))
    assert r2.beta_hat == pytest.approx(r1.beta_hat, rel=1e-10)
    assert r2.sigma_hat == pytest.approx(r1.sigma_hat, rel=1e-10)
    assert r2.gamma_hat == pytest.approx(r1.gamma_hat + 2.0, rel=1e-10)


def test_log_moment_zero_residual():
    # an off-median value equal to the median gives a zero residual
    vals = np.array([1.0, 2.0, 2.0, 30.0, 0.1])
    with pytest.raises(ZeroResidual):
        log_moment_estimate(IncrementSample(vals, 1.0))


def test_log_moment_nonpositive_gap():
    from levyestim.errors import NonpositiveVarianceGap

    # all log-residuals identical: centered sum is 0, braced term <= 0
    vals = np.array([0.0, 1.0, -1.0, 1.0, -1.0])
    with pytest.raises(NonpositiveVarianceGap):
        log_moment_estimate(IncrementSample(vals, 1.0))


def test_psi_transform_monotone_and_derivative():
    assert psi_transform(1.5) > psi_transform(1.0)
    for beta in (0.8, 1.2, 1.6):
        eps = 1e-6
        fd = (psi_transform(beta + eps) - psi_transform(beta - eps)) / (2 * eps)
        assert fd == pytest.approx(1.0 / math.sqrt(v_log(beta, 1.0)[0, 0]),
                                   rel=1e-5)


def test_psi_variance_stabilization_mc():
    beta, n = 1.0, 2001
    zs = []
    for rep in range(1000):
        s = _sym_sample(beta, 0.5, -0.5, n, 5.0, 60_000 + rep)
        zs.append(math.sqrt(n) * (psi_transform(log_moment_estimate(s).beta_hat)
                                  - psi_transform(beta)))
    assert abs(np.var(zs) - 1.0) < 0.15


def _known_scale(sample, sigma):
    return only_row(known_scale_block(sample.values[None], sample.h,
                                      sigma))[0]


def test_known_scale_beta():
    s = _sym_sample(1.5, 0.5, -0.5, 2001, 5.0, 13)
    est = _known_scale(s, 0.5)
    assert abs(est - 1.5) < 0.07
    # scaling data and sigma together leaves the estimate unchanged
    s2 = IncrementSample(4.0 * s.values, s.h)
    assert _known_scale(s2, 2.0) == pytest.approx(est, rel=1e-12)


def test_known_scale_denominator_error():
    # residuals |x - m| = 1 give S_n = 0; sigma = exp(euler) makes the
    # denominator log(sigma) - euler - S_n vanish
    vals = np.array([0.0, 1.0, -1.0, 2.0, -2.0, 1.0, -1.0])[:5]
    s = IncrementSample(np.array([0.0, 1.0, -1.0, 1.0, -1.0]), 0.5)
    with pytest.raises(DenominatorNearZero):
        _known_scale(s, math.exp(EULER))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_known_scale_refuses_an_overflowing_residual():
    # 1.75e308 - (-1.7e308) overflows, so S_n is inf; the denominator -inf
    # gave beta_tilde = 0.0
    row = [1.7e308, 1.65e308, 1.75e308, 1.6e308, -1.7e308, 1.78e308, 1.55e308]
    s = IncrementSample(np.array(row), 1.0)
    with pytest.raises(EstimationError) as info:
        _known_scale(s, 1.0)
    assert info.value.code == "estimation_error"
    assert info.value.to_json_dict()["context"] == {"s_n": None}


# ---------------------------------------------------------------------------
# C(beta, q) and the fractional-moment estimator

def test_c_moment_values():
    assert c_moment(2.0, 1.0) == pytest.approx(2 / math.sqrt(np.pi), rel=1e-12)
    assert c_moment(1.5, 0.25) == pytest.approx(C_15_025, rel=1e-10)
    assert c_moment(1.5, 0.5) == pytest.approx(C_15_05, rel=1e-10)
    assert c_moment(0.8, 0.1) == pytest.approx(C_08_01, rel=1e-10)


def test_c_moment_scipy_dual_route():
    for beta in (0.6, 1.0, 1.5, 1.9):
        for q in (0.1, 0.3, beta / 2):
            mine = c_moment(beta, q)
            ref = (2 ** q * ss.gamma((q + 1) / 2) * ss.gamma(1 - q / beta)
                   / (math.sqrt(np.pi) * ss.gamma(1 - q / 2)))
            assert mine == pytest.approx(ref, rel=1e-10)


def test_c_moment_domain():
    # orders in (0, beta): the estimators use p, 2p, 3p and 4p with p > 0
    for q in (1.5, 0.0, -0.5, -1.0, math.nan):
        with pytest.raises(DomainError, match=r"\(0, beta\)") as info:
            c_moment(1.5, q)
        assert set(info.value.context) == {"q", "beta"}
    with pytest.raises(DomainError):
        c_moment(2.5, 0.5)


# C(beta, k p), k = 1..4, as frac_moment_block and v_p call it, as float64
# bytes (hex): every estimate and dump that reads it keeps its bits only if
# these do
_C_MOMENT_BITS = {
    (0.8, 0.05): ("584b25576a2ff03f", "1a13e4eca484f03f",
                  "85bcd5413e04f13f", "704a0eca22b5f13f"),
    (1.3, 0.1): ("66167ce4fddaef3f", "3616dac9fd20f03f",
                 "c4a4ac63169cf03f", "8c70afc11867f13f"),
    (1.7, 0.2): ("e1b625a8ba4eef3f", "6cd3a2534505f03f",
                 "050279071410f13f", "65d1ed2c59e8f23f"),
    (2.0, 0.3): ("ddd1e876b2c7ee3f", "23e60a66e5dbef3f",
                 "a3f52ba0f75ff13f", "82109c4ad1baf33f"),
}


@pytest.mark.parametrize("beta, p", list(_C_MOMENT_BITS))
def test_c_moment_bits_are_pinned(beta, p):
    got = tuple(np.float64(c_moment(beta, k * p)).tobytes().hex()
                for k in (1, 2, 3, 4))
    assert got == _C_MOMENT_BITS[beta, p]


def test_frac_moment_basic():
    s = _sym_sample(1.5, 0.5, -0.5, 2001, 5.0, 21)
    rep = frac_moment_estimate(s, 0.2)
    assert rep.method == "frac"
    assert abs(rep.beta_hat - 1.5) < 0.25
    assert abs(rep.sigma_hat - 0.5) < 0.25
    assert rep.extra["p"] == 0.2


def test_frac_moment_root_residual():
    # the fitted root re-solves the moment-ratio equation to 1e-10 relative
    s = _sym_sample(1.4, 1.0, 0.0, 1501, 5.0, 22)
    p = 0.2
    rep = frac_moment_estimate(s, p)
    vals = s.values if s.n % 2 == 1 else s.values[:-1]
    resid = np.abs(vals - median_gamma(s) * s.h)
    h1 = np.mean(resid ** p)
    h2 = np.mean(resid ** (2 * p))
    lhs = h1 ** 2 / h2
    rhs = c_moment(rep.beta_hat, p) ** 2 / c_moment(rep.beta_hat, 2 * p)
    assert abs(lhs - rhs) <= 1e-10 * rhs


def test_frac_moment_scale_equivariance():
    s = _sym_sample(1.6, 0.7, 0.0, 1001, 5.0, 23)
    r1 = frac_moment_estimate(s, 0.15)
    r2 = frac_moment_estimate(IncrementSample(2.5 * s.values, s.h), 0.15)
    assert r2.beta_hat == pytest.approx(r1.beta_hat, rel=1e-10)
    assert r2.sigma_hat == pytest.approx(2.5 * r1.sigma_hat, rel=1e-10)


def test_frac_moment_out_of_bracket():
    # p = 0.2 needs beta > 1.2; data at beta = 0.8 pushes the ratio outside
    s = _sym_sample(0.8, 0.5, -0.5, 2001, 5.0, 24)
    with pytest.raises(RootOutOfBracket):
        frac_moment_estimate(s, 0.2)


# (beta, p) pairs with the admissible interval (6p, 2) well below beta
_FRAC_GRID = [(beta, p) for beta in (0.8, 1.0, 1.5, 1.8)
              for p in (0.05, 0.1, 0.15, 0.2, 0.3) if 6.0 * p < beta - 0.1]


@pytest.mark.parametrize("beta,p", _FRAC_GRID)
def test_frac_log_form_splits_the_moment_ratio(beta, p):
    # log{C(b,p)^2 / C(b,2p)} = log_gamma_ratio(b, p) + log K(p) on the whole
    # admissible interval; the reference takes the log of a ratio near 1,
    # which costs it ~1e-15 absolute
    for b in np.linspace(6.0 * p + 1e-3, 2.0, 25):
        ref = math.log(c_moment(b, p) ** 2 / c_moment(b, 2.0 * p))
        got = log_gamma_ratio(b, p) + _log_frac_k(p)
        assert got == pytest.approx(ref, rel=1e-13, abs=2e-15)


@pytest.mark.parametrize("beta,p", _FRAC_GRID)
def test_frac_root_matches_the_moment_ratio_equation(beta, p):
    # reference: Brent on C(b,p)^2 / C(b,2p) = H_1^2 / H_2 directly
    s = _sym_sample(beta, 0.5, -0.5, 2001, 5.0, 31)
    rep = frac_moment_estimate(s, p)
    resid = np.abs(s.values - np.median(s.values))
    target = np.mean(resid ** p) ** 2 / np.mean(resid ** (2.0 * p))
    ref = brentq(lambda b: c_moment(b, p) ** 2 / c_moment(b, 2.0 * p) - target,
                 6.0 * p + 1e-9, 2.0 - 1e-9, xtol=1e-12, maxiter=200)
    assert abs(rep.beta_hat - ref) <= 1e-10


@pytest.mark.parametrize("n", [3, 5, 501, 2001])
def test_median_split_equals_delete(n):
    rng = np.random.default_rng(n)
    for values in (rng.standard_cauchy(n), rng.integers(-2, 3, n) * 1.0):
        logs, _, m, k, ties = _log_block(values[None])
        xs = np.sort(values)
        assert k == (n - 1) // 2
        assert m[0] == xs[k] == _medians(values[None])[0]
        res = np.abs(np.delete(xs, k) - xs[k])
        assert ties[0] == np.count_nonzero(res == 0.0)
        if not ties[0]:
            np.testing.assert_array_equal(logs[0], np.log(res))


def test_frac_moment_p_validation():
    s = _sym_sample(1.5, 0.5, 0.0, 101, 1.0, 25)
    with pytest.raises(DomainError):
        frac_moment_estimate(s, 0.4)
    with pytest.raises(DomainError):
        frac_moment_estimate(s, 0.0)


# ---------------------------------------------------------------------------
# nu moments and covariance matrices

def test_nu_moments_cauchy():
    # at beta = 1, nu2 = pi^2/4, nu3 = 0 and
    # nu4 = pi^4 (3/20 + 1/12 + 19/240), which V_12 and V_22 carry
    nu2 = np.pi ** 2 / 4
    d4 = np.pi ** 4 * (3 / 20 + 1 / 12 + 19 / 240) - nu2 ** 2
    for sigma in (1.0, 2.0):
        v = v_log(1.0, sigma)
        assert v[0, 1] == pytest.approx(sigma * 9 * EULER * d4 / np.pi ** 4,
                                        rel=1e-14)
        assert v[1, 1] == pytest.approx(
            sigma ** 2 * (9 * EULER ** 2 * d4 / np.pi ** 4 + nu2), rel=1e-14)


# V^log as float64 bytes (hex, row-major), which the log reports and the
# variance dump print; a plug-in beta_hat above 2 is accepted
_V_LOG_BITS = {
    (0.3, 1.0):
        "72231bfe8980ba3f92888e610d1ba8bf0000000000000000"
        "92888e610d1ba8bf546b6c2785792c400000000000000000"
        "00000000000000000000000000000000eac76c2360769d3f",
    (0.8, 0.5):
        "12d720826044f13f2fe6de691abcd33f0000000000000000"
        "2fe6de691abcd33f8cb5bdf1a004ed3f0000000000000000"
        "000000000000000000000000000000003b765845f3c0de3f",
    (1.0, 1.0):
        "0000000000000240dcacfd9b9ec7f43f0000000000000000"
        "dcacfd9b9ec7f43f3855a37585bc09400000000000000000"
        "00000000000000000000000000000000de45bec93cbd0340",
    (1.2, 2.0):
        "6603fa8e2b3f12403b03d48559e212400000000000000000"
        "3b03d48559e21240309c82026dfe28400000000000000000"
        "0000000000000000000000000000000002838797f24e2640",
    (1.5, 0.7):
        "0000000000d22840596e49ef428c0b400000000000000000"
        "596e49ef428c0b405cb02a6e8490f93f0000000000000000"
        "000000000000000000000000000000000a609851aabcf73f",
    (1.9, 0.001):
        "985f72488f884440fffb9f286837863f0000000000000000"
        "fffb9f286837863f1b7ca946b903cf3e0000000000000000"
        "00000000000000000000000000000000aba0270f4049ca3e",
    (2.0, 1000.0):
        "0000000000004b40b3de1e4ae035c9400000000000000000"
        "b3de1e4ae035c940e17fceba43414d410000000000000000"
        "0000000000000000000000000000000093d4a853ecf74741",
    (2.3, 1.1):
        "395d273f33025d408d21e3e352e736400000000000000000"
        "8d21e3e352e73640586a5d529fca14400000000000000000"
        "00000000000000000000000000000000b343f0349b6e0e40",
    (4.7, 0.2):
        "1f553ce4c56abc4053e2feb8e5854a400000000000000000"
        "53e2feb8e5854a40ba47003a8810d93f0000000000000000"
        "0000000000000000000000000000000009b4dfd2b32fbe3f",
}


@pytest.mark.parametrize("beta, sigma", list(_V_LOG_BITS))
def test_v_log_bits_are_pinned(beta, sigma):
    assert v_log(beta, sigma).tobytes().hex() == _V_LOG_BITS[beta, sigma]


@pytest.mark.parametrize("beta, error, context", [
    (2.72e-77, NotPositiveDefinite, {"beta": 2.72e-77, "sigma": 1.0}),
    (2.7e-77, DomainError, {"beta": 2.7e-77})])
def test_v_log_next_to_the_nu4_overflow(beta, error, context):
    # nu4 ~ pi^4 / beta^4 overflows below beta ~ 2.7e-77; just above, the
    # matrix is finite but not positive definite
    with pytest.raises(error) as info:
        v_log(beta, 1.0)
    assert info.value.context == context
def test_v_log_values():
    v = v_log(1.0, 1.0)
    assert v[0, 0] == pytest.approx(2.25, rel=1e-14)
    assert v[2, 2] == pytest.approx(np.pi ** 2 / 4, rel=1e-12)
    assert v[0, 2] == v[1, 2] == 0.0
    v_half = v_log(1.0, 0.5)
    assert v_half[2, 2] == pytest.approx((np.pi / 4) ** 2, rel=1e-12)


def test_v_log_dual_route():
    """Delta-method assembly from the (mean, central variance) statistics of
    log-residuals, built independently with scipy constants, against the
    closed forms."""
    zeta3 = ss.zeta(3)
    for beta in (0.8, 1.2, 1.6):
        for sigma in (0.5, 1.0, 2.0):
            nu1 = EULER * (1 / beta - 1) + math.log(sigma)
            nu2 = np.pi ** 2 / 6 * (1 / beta ** 2 + 0.5)
            nu3 = 2 * zeta3 * (beta ** -3 - 1)
            nu4 = np.pi ** 4 * (3 / (20 * beta ** 4) + 1 / (12 * beta ** 2)
                                + 19 / 240)
            # forward jacobian of (nu1, nu2) in (beta, sigma)
            K = np.array([[-EULER / beta ** 2, 1 / sigma],
                          [-np.pi ** 2 / (3 * beta ** 3), 0.0]])
            S = np.array([[nu2, nu3], [nu3, nu4 - nu2 ** 2]])
            Kinv = np.linalg.inv(K)
            V = Kinv @ S @ Kinv.T
            mine = v_log(beta, sigma)
            assert np.allclose(V, mine[:2, :2], rtol=1e-9)


def test_v_log_positive_definite_grid():
    for beta in (0.6, 0.9, 1.2, 1.5, 1.9):
        for sigma in (0.5, 1.0, 2.0):
            v = v_log(beta, sigma)
            np.linalg.cholesky(v)
            assert np.allclose(v, v.T)


def test_v_p_dual_route():
    """Same exercise for the fractional-moment covariance: estimating
    functions H_l -> C(beta, lp) sigma^{lp}, l = 1, 2."""
    for beta, p in ((1.0, 0.2), (1.5, 0.1), (1.5, 0.2), (1.9, 0.2)):
        for sigma in (0.5, 1.0):
            C = lambda q: (2 ** q * ss.gamma((q + 1) / 2)
                           * ss.gamma(1 - q / beta)
                           / (math.sqrt(np.pi) * ss.gamma(1 - q / 2)))
            dC = lambda q: C(q) * ss.digamma(1 - q / beta) * q / beta ** 2
            K = np.array([
                [dC(p) * sigma ** p, p * C(p) * sigma ** (p - 1)],
                [dC(2 * p) * sigma ** (2 * p),
                 2 * p * C(2 * p) * sigma ** (2 * p - 1)],
            ])
            S = np.array([
                [(C(2 * p) - C(p) ** 2) * sigma ** (2 * p),
                 (C(3 * p) - C(p) * C(2 * p)) * sigma ** (3 * p)],
                [(C(3 * p) - C(p) * C(2 * p)) * sigma ** (3 * p),
                 (C(4 * p) - C(2 * p) ** 2) * sigma ** (4 * p)],
            ])
            Kinv = np.linalg.inv(K)
            V = Kinv @ S @ Kinv.T
            mine = v_p(beta, sigma, p)
            assert np.allclose(V, mine[:2, :2], rtol=1e-8)


def test_v_p_monotone_in_p():
    assert v_p(1.2, 1.0, 0.05)[0, 0] < v_p(1.2, 1.0, 0.2)[0, 0]
    assert v_p(1.8, 1.0, 0.05)[0, 0] > v_p(1.8, 1.0, 0.2)[0, 0]


def test_v_p_v33_matches_v_log():
    for beta, sigma in ((1.2, 0.5), (1.7, 1.5)):
        assert v_p(beta, sigma, 0.1)[2, 2] == v_log(beta, sigma)[2, 2]


def test_v_p_positive_definite_grid():
    for beta in (0.6, 0.9, 1.2, 1.5, 1.9):
        for sigma in (0.5, 1.0, 2.0):
            for p in (0.05, 0.1, 0.2):
                if 4 * p >= beta:
                    continue
                np.linalg.cholesky(v_p(beta, sigma, p))


# ---------------------------------------------------------------------------
# confidence interval

def test_ci_z_value():
    lo, hi = gamma_confidence_interval(0.0, 1.0, 1.0, 100, 0.01, level=0.95)
    half = (hi - lo) / 2
    expected = 1.959963984540054 * median_asymptotic_sd(1.0, 1.0) / (
        math.sqrt(100) * 0.01 ** 0.0)
    assert half == pytest.approx(expected, rel=1e-9)


def test_ci_width_linear_in_sigma():
    lo1, hi1 = gamma_confidence_interval(0.0, 1.4, 1.0, 500, 0.01)
    lo2, hi2 = gamma_confidence_interval(0.0, 1.4, 3.0, 500, 0.01)
    assert (hi2 - lo2) == pytest.approx(3 * (hi1 - lo1), rel=1e-12)


def test_ci_coverage_mc():
    beta, sigma, gamma, n = 1.5, 0.5, -0.5, 2001
    hits = 0
    for rep in range(1000):
        s = _sym_sample(beta, sigma, gamma, n, 5.0, 80_000 + rep)
        r = log_moment_estimate(s, level=0.95)
        lo, hi = r.ci_gamma
        hits += lo <= gamma <= hi
    assert abs(hits / 1000 - 0.95) < 0.03
