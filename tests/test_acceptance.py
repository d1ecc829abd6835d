"""Acceptance gate: one test per published-results criterion.

Run `pytest tests/test_acceptance.py -v` for a one-line pass/fail report
per criterion.  The Monte Carlo table runs come from session fixtures in
conftest.py (simulated once, ~1 min desk scale)."""

import math

import numpy as np
import pytest
import scipy.integrate

from levyestim.cli import _estimate
from levyestim.errors import only_row
from levyestim.mc import ExperimentConfig, run_experiment
from levyestim.skewed import bipower_beta, mu_abs, sign_block
from levyestim.special_fn import digamma, log_gamma
from levyestim.stable_core import (
    IncrementSample,
    increments_cell,
    skew_to_positivity,
)
from levyestim.stable_density import fisher_matrix, phi_pair
from levyestim.subordinators import (
    gamma_mle,
    gamma_moment,
    gamma_sub_cell,
    ig_mle,
    ig_sub_cell,
)
from levyestim.symmetric import c_moment
from levyestim.transforms import center_triple


def test_criterion_1_table1_log_moment_row(table1_beta08):
    beta = table1_beta08[("log", "beta")]
    assert abs(beta.mean - 0.800) <= 0.005
    assert 0.017 <= beta.rmse <= 0.031
    sigma = table1_beta08[("log", "sigma")]
    assert abs(sigma.mean - 0.513) <= 0.03
    gamma = table1_beta08[("log", "gamma")]
    assert abs(gamma.mean - (-0.500)) <= 0.002
    assert gamma.rmse <= 0.006


def test_criterion_2_table1_fractional_moment(table1_beta15):
    row = table1_beta15[("frac_0.2", "beta")]
    assert abs(row.mean - 1.504) <= 0.01
    assert abs(row.rmse - 0.053) <= 0.3 * 0.053


def test_criterion_3_known_scale_estimator(table1_beta15):
    row = table1_beta15[("known_scale", "beta")]
    assert abs(row.mean - 1.500) <= 0.005
    assert abs(row.rmse - 0.011) <= 0.3 * 0.011


def test_criterion_4_table3_skewed_row(table3_beta15):
    p_pos = table3_beta15[("sign", "p_pos")]
    assert abs(p_pos.mean - 0.5984) <= 0.002
    assert abs(p_pos.rmse - 0.0073) <= 0.3 * 0.0073
    beta = table3_beta15[("bipower", "beta")]
    assert abs(beta.mean - 1.4983) <= 0.01
    assert abs(beta.rmse - 0.0364) <= 0.3 * 0.0364
    sigma = table3_beta15[("power_scale", "sigma")]
    assert abs(sigma.mean - 1.0169) <= 0.03


def test_criterion_5_table4_integrated_scale(table4_beta15):
    row = table4_beta15[("tripower", "sigma_star")]
    assert abs(row.mean - 0.6151) <= 0.03
    assert row.mean > 0.6  # upward bias


def test_criterion_6_special_values():
    assert abs(skew_to_positivity(1.5, -0.5) - 0.5984) <= 5e-5
    cauchy = fisher_matrix(1.0, 1.0)
    assert abs(cauchy.h_value - 0.5) <= 1e-5
    assert abs(cauchy.m_value - 0.5) <= 1e-5
    assert abs(phi_pair(0.0, 1.0, 1.0)[0] - 1.0 / math.pi) <= 1e-8
    for beta in (0.6, 1.0, 1.5, 1.9):
        core, _ = scipy.integrate.quad(lambda y: phi_pair(y, beta)[0], 0, 50,
                                       epsabs=1e-12, epsrel=1e-10, limit=300)
        tail = sum(
            (-1) ** (m + 1) / math.pi * math.exp(log_gamma(1 + m * beta))
            / math.factorial(m) * math.sin(m * math.pi * beta / 2)
            * 50.0 ** (-m * beta) / (m * beta)
            for m in range(1, 9))
        assert abs(2.0 * (core + tail) - 1.0) <= 1e-6
    for beta in (0.7, 1.0, 1.3, 1.8):
        assert fisher_matrix(beta, 1.0).top_left_det() == 0.0


def test_criterion_7_subordinator_mles():
    n, reps = 2000, 500
    h = float(n) ** -0.6
    d_gamma = np.empty(reps)
    g_mle = np.empty(reps)
    g_mom = np.empty(reps)
    for r in range(reps):
        s = gamma_sub_cell(2.0, 1.0, h, n).sample(seed=50_000 + r)
        d_gamma[r], g_mle[r] = gamma_mle(s)
        g_mom[r] = gamma_moment(s)[1]
    var_gamma = (math.sqrt(n) * (d_gamma - 2.0)).var(ddof=1)
    assert abs(var_gamma - 4.0) <= 0.15 * 4.0  # inverse Fisher delta^2

    d_ig = np.empty(reps)
    for r in range(reps):
        s = ig_sub_cell(1.0, 2.0, h, n).sample(seed=60_000 + r)
        d_ig[r], _ = ig_mle(s)
    var_ig = (math.sqrt(n) * (d_ig - 1.0)).var(ddof=1)
    assert abs(var_ig - 0.5) <= 0.15 * 0.5  # inverse Fisher delta^2/2

    efficiency = g_mle.var(ddof=1) / g_mom.var(ddof=1)
    assert abs(efficiency - 1.0 / 3.0) <= 0.25 / 3.0


def test_criterion_8_sampler_distribution():
    draws = 100_000
    gauss = increments_cell(2.0, 1.0, 0.0, 0.0, 1.0,
                            draws).sample(seed=101).values
    se_var = math.sqrt(2.0 * 4.0 / draws)
    assert abs(gauss.var() - 2.0) <= 3.0 * se_var

    cauchy = increments_cell(1.0, 1.0, 0.0, 0.0, 1.0,
                             draws).sample(seed=102).values
    q1, q3 = np.quantile(cauchy, [0.25, 0.75])
    # density 1/(2 pi) at the true quartiles drives the quantile std err
    se_q = math.sqrt(0.25 * 0.75 / draws) * 2.0 * math.pi
    assert abs(q1 - (-1.0)) <= 3.0 * se_q
    assert abs(q3 - 1.0) <= 3.0 * se_q


def test_criterion_9_exact_algebraic_suite():
    # scale/translation equivariance of the symmetric-model estimators
    s = increments_cell(1.5, 0.5, 0.0, -0.5, 5.0 / 601,
                        601).sample(seed=77)
    for estimate in (lambda x: _estimate("log", x, {}),
                     lambda x: _estimate("frac", x, {"p": 0.2})):
        base = estimate(s)
        scaled = estimate(IncrementSample(2.5 * s.values, s.h))
        assert scaled.beta_hat == pytest.approx(base.beta_hat, rel=1e-9)
        assert scaled.sigma_hat == pytest.approx(2.5 * base.sigma_hat, rel=1e-9)
        assert scaled.gamma_hat == pytest.approx(2.5 * base.gamma_hat, rel=1e-9)
        shifted = estimate(IncrementSample(s.values + 0.7 * s.h, s.h))
        assert shifted.beta_hat == pytest.approx(base.beta_hat, rel=1e-9)
        assert shifted.sigma_hat == pytest.approx(base.sigma_hat, rel=1e-9)
        assert shifted.gamma_hat == pytest.approx(base.gamma_hat + 0.7,
                                                  rel=1e-9)

    # trend cancellation in centered triples
    drift = IncrementSample(np.full(9, 0.3 * 0.01), 0.01)
    assert np.all(center_triple(drift).values == 0.0)

    # symmetric-case absolute moment equals the classical constant
    for beta in (1.1, 1.5, 1.9):
        for r in (0.1, 0.5, 0.75):
            assert mu_abs(beta, 0.5, r) == pytest.approx(c_moment(beta, r),
                                                         rel=1e-9)

    # root residuals of the implicit estimators
    skew = increments_cell(1.5, 1.0, -0.5, 0.0, 1.0 / 2000,
                           2000).sample(seed=13)
    (p_hat,) = only_row(sign_block(skew.values[None]))
    b_hat = bipower_beta(skew, 0.25, p_hat)
    # M_n(q, q) / M_n(2q): the n-powers cancel, leaving plain sums
    x = np.abs(skew.values)
    lhs = np.sum(x[:-1] ** 0.25 * x[1:] ** 0.25) / np.sum(x ** 0.5)
    rhs = mu_abs(b_hat, p_hat, 0.25) ** 2 / mu_abs(b_hat, p_hat, 0.5)
    assert abs(lhs - rhs) <= 1e-10 * abs(lhs)
    gsample = gamma_sub_cell(2.0, 1.0, 0.01, 2000).sample(seed=3)
    d_hat, _ = gamma_mle(gsample)
    t_total = gsample.n * gsample.h
    k_stat = (gsample.n * math.log(gsample.values.mean())
              - float(np.sum(np.log(gsample.values))))
    resid = (t_total / gsample.h) * (
        math.log(d_hat * gsample.h) - digamma(d_hat * gsample.h)) - k_stat
    assert abs(resid) <= 1e-10 * abs(k_stat)

    # bit-identical summaries on a rerun: every replication's stream comes
    # from derive_seed(master_seed, n, estimator_id, rep), not from run order
    cfg = ExperimentConfig(
        model="symmetric_stable",
        truth={"beta": 1.5, "sigma": 0.5, "gamma": -0.5},
        n_list=(201,),
        h_rule={"kind": "fixed_T", "T": 5.0},
        replications=12,
        estimators=({"id": "log", "kind": "log"},
                    {"id": "median", "kind": "median"}),
        master_seed=20260814)
    rows = run_experiment(cfg)
    assert run_experiment(cfg) == rows
