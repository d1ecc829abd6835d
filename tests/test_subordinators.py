"""Gamma and inverse-Gaussian subordinator sampling, MLEs and Fisher data."""

import math

import numpy as np
import pytest

from levyestim.cli import _estimate
from levyestim.errors import (
    DataError,
    DomainError,
    EstimationError,
    NonpositiveBrace,
    NonpositiveK,
)
from levyestim.special_fn import digamma
from levyestim.stable_core import IncrementSample
from levyestim.subordinators import (
    gamma_fisher,
    gamma_mle,
    gamma_moment,
    gamma_sub_cell,
    ig_fisher,
    ig_mle,
    ig_sub_cell,
)


def _sample(values, h=1.0):
    return IncrementSample(np.asarray(values, dtype=float), h)


# ---------------------------------------------------------------------------
# parameter validation and sampling


def test_params_validation():
    with pytest.raises(DomainError):
        gamma_sub_cell(0.0, 1.0, 0.1, 10)
    with pytest.raises(DomainError):
        gamma_sub_cell(1.0, -2.0, 0.1, 10)
    with pytest.raises(DomainError):
        ig_sub_cell(-1.0, 1.0, 0.1, 10)
    with pytest.raises(DomainError):
        ig_sub_cell(1.0, 0.0, 0.1, 10)


def test_gamma_sampler_mean():
    s = gamma_sub_cell(2.0, 1.5, 0.3, 100_000).sample(seed=8)
    assert np.all(s.values >= 0.0)
    se = s.values.std(ddof=1) / math.sqrt(s.values.size)
    assert abs(s.values.mean() - 2.0 * 0.3 / 1.5) <= 3.0 * se


def test_ig_sampler_mean_and_inverse_mean():
    # E X_h = delta h / gamma and E 1/X_h = 1/(delta h)^2 + gamma/(delta h)
    dh = 1.4 * 0.3
    s = ig_sub_cell(1.4, 2.2, 0.3, 100_000).sample(seed=9)
    assert np.all(s.values > 0.0)
    se = s.values.std(ddof=1) / math.sqrt(s.values.size)
    assert abs(s.values.mean() - dh / 2.2) <= 3.0 * se
    inv = 1.0 / s.values
    se_inv = inv.std(ddof=1) / math.sqrt(inv.size)
    assert abs(inv.mean() - (1.0 / dh ** 2 + 2.2 / dh)) <= 3.0 * se_inv


def test_sampler_mesh_validation():
    with pytest.raises(DomainError):
        gamma_sub_cell(1.0, 1.0, -0.1, 10)
    with pytest.raises(DomainError):
        gamma_sub_cell(1.0, 1.0, 0.1, 0)
    # below shape 1e-12 the sampler warns, and its draws underflow to 0
    with pytest.warns(UserWarning, match="degenerate"):
        with pytest.raises(DomainError):
            gamma_sub_cell(1e-11, 1.0, 1e-3, 3).sample(seed=0)


@pytest.mark.parametrize("delta, gamma, zero", [(1e-200, 1.0, "shape"),
                                               (1e-100, 1e300, "mean")])
def test_ig_sampler_refuses_underflowed_wald_parameters(delta, gamma, zero):
    # numpy's wald raises a bare ValueError for a zero mean or shape
    with pytest.warns(UserWarning, match="degenerate"):
        with pytest.raises(DomainError) as exc:
            ig_sub_cell(delta, gamma, 1.0, 5).sample(seed=0)
    assert set(exc.value.context) == {"mean", "shape"}
    assert exc.value.context[zero] == 0.0


@pytest.mark.parametrize("seed", range(20))
def test_gamma_sampler_refuses_zero_draws(seed):
    # at delta h = 0.001 numpy's gamma draws underflow to exact zeros, which
    # gamma_mle and gamma_moment reject; at 0.1 none do
    with pytest.raises(DomainError) as exc:
        gamma_sub_cell(1.0, 1.0, 0.001, 2000).sample(seed=seed)
    assert exc.value.context["shape"] == 0.001
    assert exc.value.context["zeros"] > 0
    s = gamma_sub_cell(1.0, 1.0, 0.1, 2000).sample(seed=seed)
    assert np.all(s.values > 0.0)


def test_sampler_determinism():
    a = ig_sub_cell(1.0, 2.0, 0.1, 50).sample(seed=42)
    b = ig_sub_cell(1.0, 2.0, 0.1, 50).sample(seed=42)
    assert np.array_equal(a.values, b.values)


# ---------------------------------------------------------------------------
# gamma MLE


def test_gamma_mle_rejects_nonpositive_data():
    with pytest.raises(DataError):
        gamma_mle(_sample([1.0, -0.5, 2.0]))
    with pytest.raises(DataError):
        gamma_mle(_sample([1.0, 0.0, 2.0]))


def test_gamma_mle_constant_data():
    # equal increments make K = 0 exactly (Jensen equality)
    with pytest.raises(NonpositiveK):
        gamma_mle(_sample([0.7, 0.7, 0.7, 0.7]))


@pytest.mark.parametrize("value, h, n", [
    (0.28, 0.01, 101), (2.5, 0.1, 101), (1e-5, 0.05, 1000),
    (3e4, 1.0, 1000)])
def test_gamma_mle_refuses_equal_increments_at_rounding_level(value, h, n):
    # K came out a few ulps above 0 and delta_hat near 1e16 was reported
    with pytest.raises(NonpositiveK) as exc:
        gamma_mle(_sample(np.full(n, value), h=h))
    assert set(exc.value.context) == {"K", "T"}


def test_gamma_mle_near_equal_data_blows_up():
    # K -> 0+ forces delta_hat -> infinity
    vals = 1.0 + 1e-5 * np.array([0.5, -0.5, 0.25, -0.25, 0.1, -0.1])
    s = _sample(vals)
    t_total = vals.size * s.h
    k_stat = (t_total * math.log(vals.sum() / t_total)
              - s.h * float(np.sum(np.log(vals / s.h))))
    assert 0.0 < k_stat < 1e-6 * t_total
    delta_hat, _ = gamma_mle(s)
    assert delta_hat > 1e3


def test_gamma_mle_rounding_level_k_raises():
    # increments equal to 1e-7 leave K at rounding level: the psi-bound
    # bracket [n/(4K), 2n/K] shows no sign change
    vals = 1.0 + 1e-7 * np.array([0.5, -0.5, 0.25, -0.25, 0.1, -0.1] * 50)
    with pytest.raises(NonpositiveK) as exc:
        gamma_mle(_sample(vals, h=0.01))
    assert exc.value.code == "nonpositive_k"
    assert exc.value.context["T"] == pytest.approx(3.0)
    assert exc.value.context["K"] > 0.0


def test_gamma_mle_estimating_equation_residual():
    s = gamma_sub_cell(2.0, 1.0, 0.05, 400).sample(seed=3)
    delta_hat, gamma_hat = gamma_mle(s)
    vals = s.values
    t_total = vals.size * s.h
    k_stat = (t_total * math.log(vals.sum() / t_total)
              - s.h * float(np.sum(np.log(vals / s.h))))
    lhs = t_total * (math.log(delta_hat * s.h) - digamma(delta_hat * s.h))
    assert lhs == pytest.approx(k_stat, rel=1e-10)
    assert gamma_hat == pytest.approx(delta_hat * t_total / vals.sum(),
                                      rel=1e-12)


def test_gamma_mle_time_rescaling():
    # the estimating equation is invariant under h -> 1, delta -> delta h:
    # delta_hat scales by h and gamma_hat is unchanged
    s = gamma_sub_cell(2.0, 1.0, 0.05, 400).sample(seed=3)
    d_h, g_h = gamma_mle(s)
    d_1, g_1 = gamma_mle(_sample(s.values, h=1.0))
    assert d_1 == pytest.approx(0.05 * d_h, rel=1e-9)
    assert g_1 == pytest.approx(g_h, rel=1e-9)


def test_gamma_mle_lhs_strictly_decreasing():
    # log(x) - psi(x) decreasing over the bracket-search range ensures a
    # unique root of the likelihood equation
    h = 0.05
    grid = np.geomspace(1e-4 / h, 1e4 / h, 200)
    lhs = np.array([math.log(d * h) - digamma(d * h) for d in grid])
    assert np.all(np.diff(lhs) < 0.0)


def test_gamma_mle_mc_variances():
    # high-frequency design: n = 2000, h = n^{-3/5}; inverse Fisher targets
    # delta^2 = 4 for sqrt(n)(delta_hat - delta) and gamma^2/delta = 0.5
    # for sqrt(T)(gamma_hat - gamma)
    n, reps = 2000, 500
    h = n ** -0.6
    t_total = n * h
    out = np.empty((reps, 2))
    for r in range(reps):
        s = gamma_sub_cell(2.0, 1.0, h,
                           n).sample(seed=50_000 + r)
        out[r] = gamma_mle(s)
    v_delta = np.var(math.sqrt(n) * (out[:, 0] - 2.0), ddof=1)
    v_gamma = np.var(math.sqrt(t_total) * (out[:, 1] - 1.0), ddof=1)
    assert abs(v_delta - 4.0) <= 0.15 * 4.0
    assert abs(v_gamma - 0.5) <= 0.15 * 0.5


# ---------------------------------------------------------------------------
# gamma moment estimator


def test_gamma_moment_hand_values():
    delta_hat, gamma_hat = gamma_moment(_sample([1.0, 2.0]))
    # T = 2, m1 = 3/2, m2 = 5/2
    assert gamma_hat == pytest.approx(0.6, rel=1e-14)
    assert delta_hat == pytest.approx(0.9, rel=1e-14)


def test_gamma_moment_rejects_bad_data():
    with pytest.raises(DataError):
        gamma_moment(_sample([1.0, -1.0]))


def test_gamma_moment_overflowing_second_moment_is_an_estimation_error():
    # |Cauchy| * 1e290 + 0.5: the sum of squares leaves the double range
    # without a numpy warning, and the estimate is refused by name
    values = np.abs(np.random.default_rng(3).standard_cauchy(2000)) * 1e290
    with pytest.raises(EstimationError) as info:
        gamma_moment(_sample(values + 0.5, h=1e-3))
    assert info.value.code == "estimation_error"
    assert info.value.context == {"m2": math.inf}


@pytest.mark.parametrize("values, h, delta, gamma", [
    ([5e-155] * 3, 1.0, 1.0, 2e154),
    ([1e-100] * 3, 1e100, 0.0, 1e100),
])
def test_gamma_moment_extreme_estimates_stand(values, h, delta, gamma):
    # gamma_hat^2 beyond the double range, or delta_hat underflowed to 0:
    # the estimates stand
    delta_hat, gamma_hat = gamma_moment(_sample(values, h))
    assert delta_hat == pytest.approx(delta, rel=1e-12)
    assert gamma_hat == pytest.approx(gamma, rel=1e-12)


def test_gamma_moment_mc_variance():
    # T = 100 with delta h = 0.04; the finite-sample variance of
    # sqrt(T)(delta_hat - delta) sits ~18% below the limit 2 delta = 4,
    # inside the 20% band (margins checked over 6000 replications)
    n, h, reps = 5_000, 0.02, 6000
    t_total = n * h
    d_m = np.empty(reps)
    for r in range(reps):
        s = gamma_sub_cell(2.0, 1.0, h,
                           n).sample(seed=200_000 + r)
        d_m[r] = gamma_moment(s)[0]
    v = np.var(math.sqrt(t_total) * (d_m - 2.0), ddof=1)
    assert abs(v - 4.0) <= 0.20 * 4.0


def test_gamma_moment_vs_mle_efficiency():
    # the moment gamma_hat is 3x noisier than the MLE's in the limit;
    # T = 400 keeps finite-sample distortion inside the 25% band
    n, h, reps = 20_000, 0.02, 2000
    g_m = np.empty(reps)
    g_l = np.empty(reps)
    for r in range(reps):
        s = gamma_sub_cell(2.0, 1.0, h,
                           n).sample(seed=300_000 + r)
        g_m[r] = gamma_moment(s)[1]
        g_l[r] = gamma_mle(s)[1]
    eff = np.var(g_l, ddof=1) / np.var(g_m, ddof=1)
    assert abs(eff - 1.0 / 3.0) <= 0.25 / 3.0


# ---------------------------------------------------------------------------
# IG MLE


def test_ig_mle_hand_values():
    delta_hat, gamma_hat = ig_mle(_sample([1.0, 2.0]))
    assert delta_hat == pytest.approx(math.sqrt(12.0), rel=1e-12)
    assert gamma_hat == pytest.approx(2.0 * math.sqrt(12.0) / 3.0, rel=1e-12)


def test_ig_mle_constant_data():
    with pytest.raises(NonpositiveBrace):
        ig_mle(_sample([1.3, 1.3, 1.3]))


@pytest.mark.parametrize("value, h, n", [
    (1.0, 0.1, 10), (0.28, 0.01, 3), (1.0, 0.01, 101), (1.0, 0.05, 1000)])
def test_ig_mle_refuses_equal_increments_at_rounding_level(value, h, n):
    # the brace came out a few ulps above 0 and delta_hat near 1e9 was
    # reported
    with pytest.raises(NonpositiveBrace) as exc:
        ig_mle(_sample(np.full(n, value), h=h))
    assert set(exc.value.context) == {"brace"}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("values, h, context", [
    ([1e-310, 2e-310, 3e-310], 1.0, {"h": 1.0, "least_increment": 1e-310}),
    ([0.5, 1.0, 2.0], 1e154, {"h": 1e154, "least_increment": 0.5}),
    ([1e308, 1e308, 1.0], 1.0, {"largest_increment": 1e308})])
def test_ig_mle_refuses_an_overflowing_sum(values, h, context):
    # 1 / 1e-310 overflows in sum_j 1/Delta_j X, and at h = 1e154 h^2 times
    # that sum does: with T^2 / X_T inf as well, the brace was nan.  X_T =
    # 2e308 overflows, and gamma_hat = delta_hat T / X_T read 0.0
    with pytest.raises(EstimationError) as info:
        ig_mle(_sample(values, h))
    assert info.value.code == "estimation_error"
    assert info.value.context == context


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("h", [6e153, 1e154, 1e200])
def test_ig_mle_is_the_unit_mesh_answer_rescaled(h):
    # delta_hat(h) = delta_hat(1) / h and gamma_hat(h) = gamma_hat(1).  At
    # h = 1e154 h^2 is finite but T^2 = (2 h)^2 overflows: the brace came out
    # -inf, and [1, 2] was refused as if all increments were equal
    delta_one, gamma_one = ig_mle(_sample([1.0, 2.0]))
    delta_hat, gamma_hat = ig_mle(_sample([1.0, 2.0], h))
    assert delta_hat == pytest.approx(delta_one / h, rel=1e-14)
    assert gamma_hat == pytest.approx(gamma_one, rel=1e-14)


def test_ig_mle_rejects_nonpositive_data():
    with pytest.raises(DataError):
        ig_mle(_sample([1.0, 0.0]))


def test_ig_mle_brace_nonnegative():
    # AM-HM: (1/n) sum h^2/x - T^2/X_T >= 0 on any positive sample
    rng = np.random.default_rng(77)
    for _ in range(25):
        vals = rng.uniform(0.1, 5.0, size=rng.integers(2, 30))
        h = float(rng.uniform(0.05, 2.0))
        n = vals.size
        brace = (h * h * float(np.sum(1.0 / vals))
                 - (n * h) ** 2 / float(vals.sum())) / n
        assert brace >= -1e-15


def test_ig_mle_mc_variance():
    # inverse Fisher target delta^2/2 = 0.5 for sqrt(n)(delta_hat - delta)
    n, reps = 2000, 500
    h = n ** -0.6
    d_hat = np.empty(reps)
    for r in range(reps):
        s = ig_sub_cell(1.0, 2.0, h, n).sample(seed=60_000 + r)
        d_hat[r] = ig_mle(s)[0]
    v = np.var(math.sqrt(n) * (d_hat - 1.0), ddof=1)
    assert abs(v - 0.5) <= 0.15 * 0.5


# ---------------------------------------------------------------------------
# Fisher matrices


def test_gamma_fisher_values():
    info = gamma_fisher(2.0, 1.0)
    assert np.allclose(info, np.diag([0.25, 2.0]), rtol=1e-14)


def test_ig_fisher_values():
    info = ig_fisher(1.0, 2.0)
    assert np.allclose(info, np.diag([2.0, 0.5]), rtol=1e-14)


def test_fisher_matrices_diagonal():
    rng = np.random.default_rng(5)
    for _ in range(20):
        d, g = rng.uniform(0.2, 5.0, size=2)
        for info in (gamma_fisher(d, g), ig_fisher(d, g)):
            off = info - np.diag(np.diag(info))
            assert np.all(off == 0.0)
            assert np.all(np.diag(info) > 0.0)


def test_mle_reports_carry_the_fisher_information_at_the_estimates():
    # the report's Fisher entries are gamma_fisher's / ig_fisher's at the
    # estimates, bit for bit
    for mle, fisher, cell, method in (
            (gamma_mle, gamma_fisher, gamma_sub_cell, "gamma-mle"),
            (ig_mle, ig_fisher, ig_sub_cell, "ig-mle")):
        sample = cell(2.0, 1.5, 0.1, 500).sample(4)
        report = _estimate(method, sample, {})
        delta_hat, gamma_hat = mle(sample)
        assert report.method == method
        assert (report.n, report.h) == (500, 0.1)
        assert report.gamma_hat == gamma_hat
        assert report.extra["delta_hat"] == delta_hat
        assert report.extra["fisher"] == fisher(
            delta_hat, gamma_hat).ravel().tolist()


@pytest.mark.parametrize("method,field", [
    ("gamma-mle", "extra.fisher[3]"),
    ("ig-mle", "extra.delta_hat"),
], ids=("gamma-mle", "ig-mle"))
def test_mle_report_names_an_estimate_outside_the_double_range(method,
                                                               field):
    # |x| ~ exp(N(600, 1)) at h = 1e-300: the IG delta_hat overflows, the
    # gamma one is finite but its Fisher entry delta/gamma^2 is not; both
    # are estimation errors naming the value, not parameter-domain errors
    values = np.exp(np.random.default_rng(1).normal(600.0, 1.0, 500))
    with pytest.raises(EstimationError) as info:
        _estimate(method, _sample(values, 1e-300), {})
    assert info.value.code == "estimation_error"
    assert info.value.context["field"] == field
