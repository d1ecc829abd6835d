"""Block transforms (symmetrize / center / deskew) and the three-step
pipeline for the four-parameter stable model."""

import math
import warnings

import numpy as np
import pytest

from levyestim.errors import DomainError, EstimationError
from levyestim.skewed import sign_statistic
from levyestim.stable_core import (
    IncrementSample,
    StableParams,
    sample_increments,
    skew_to_positivity,
)
from levyestim.symmetric import log_moment_estimate
from levyestim.transforms import (
    center_skew_factor,
    center_triple,
    deskew_trend_factor,
    deskew_triple,
    full_pipeline,
    symmetrize,
)

SKEWED = StableParams(1.5, 1.0, -0.5, 0.3)
P_TRUE = skew_to_positivity(1.5, -0.5)


def _sample(values, h=1.0):
    return IncrementSample(np.asarray(values, dtype=float), h, {})


def _quiet_pipeline(sample, **kw):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return full_pipeline(sample, **kw)


# ---------------------------------------------------------------------------
# hand values and bookkeeping


def test_symmetrize_hand_values():
    out = symmetrize(_sample([1.0, 4.0, 9.0, 2.0]))
    assert np.array_equal(out.values, [3.0, -7.0])
    assert out.meta["transform"] == "symmetrized"
    assert out.n == 2


def test_center_hand_values():
    out = center_triple(_sample([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]))
    assert np.array_equal(out.values, [3.0 + 1.0 - 4.0, 6.0 + 4.0 - 10.0])
    assert out.meta["transform"] == "centered"


def test_deskew_hand_values():
    w = 2.0 ** (1.0 / 1.5)
    out = deskew_triple(_sample([1.0, 2.0, 3.0]), 1.5)
    assert out.values[0] == pytest.approx(3.0 + 1.0 - 2.0 * w, rel=1e-14)
    assert out.meta["transform"] == "deskewed"
    assert out.meta["beta_used"] == 1.5


def test_block_counts_and_independence():
    # non-overlapping blocks: exactly floor(n/2) and floor(n/3) outputs,
    # trailing remainder dropped
    for n in (7, 8, 9, 10):
        vals = np.arange(float(n))
        assert symmetrize(_sample(vals)).n == n // 2
        assert center_triple(_sample(vals)).n == n // 3
        assert deskew_triple(_sample(vals), 1.5).n == n // 3


def test_transforms_too_short():
    with pytest.raises(DomainError):
        symmetrize(_sample([1.0]))
    with pytest.raises(DomainError):
        center_triple(_sample([1.0, 2.0]))
    with pytest.raises(DomainError):
        deskew_triple(_sample([1.0, 2.0]), 1.5)


def test_pure_drift_cancellation():
    # drift gamma h per increment: center kills it exactly, deskew leaves
    # exactly (2 - 2^{1/beta}) gamma h per entry
    gamma, h = 0.7, 0.05
    vals = np.full(12, gamma * h)
    assert np.all(center_triple(_sample(vals, h)).values == 0.0)
    out = deskew_triple(_sample(vals, h), 1.5)
    expect = deskew_trend_factor(1.5) * gamma * h
    assert np.allclose(out.values, expect, rtol=1e-13)


def test_factor_values():
    assert center_skew_factor(1.5) == pytest.approx(
        (2.0 - 2.0 ** 1.5) / (2.0 + 2.0 ** 1.5), rel=1e-12)
    assert center_skew_factor(1.5) == pytest.approx(-0.17157287525, rel=1e-9)
    assert deskew_trend_factor(2.0) == pytest.approx(2.0 - math.sqrt(2.0),
                                                     rel=1e-12)
    for factor in (center_skew_factor, deskew_trend_factor):
        with pytest.raises(DomainError):
            factor(1.0)
        with pytest.raises(DomainError):
            factor(0.0)
    with pytest.raises(DomainError):
        center_skew_factor(2.0)   # centered skew map degenerates at 2
    assert deskew_trend_factor(0.5) == pytest.approx(-2.0, rel=1e-12)


# ---------------------------------------------------------------------------
# distributional identities, checked through the estimators


def test_symmetrized_law_recovers_index_and_scale():
    # symmetrized skewed increments are symmetric stable with scale
    # 2^{1/beta} h^{1/beta} sigma; 200 replications at n = 4001, h = 5/n
    reps = 200
    betas = np.empty(reps)
    sigmas = np.empty(reps)
    for r in range(reps):
        s = sample_increments(SKEWED, 5.0 / 4001, 4001, seed=150_000 + r)
        est = log_moment_estimate(symmetrize(s))
        betas[r] = est.beta_hat
        sigmas[r] = est.sigma_hat / 2.0 ** (1.0 / est.beta_hat)
    se = betas.std(ddof=1) / math.sqrt(reps)
    assert abs(betas.mean() - 1.5) <= 3.0 * se
    # sample RMSE tracks the asymptotic sd at the halved sample size
    v11 = 1.1 * 1.5 ** 2 + 0.5 * 1.5 ** 4 + 0.65 * 1.5 ** 6
    rmse = math.sqrt(np.mean((betas - 1.5) ** 2))
    assert abs(rmse - math.sqrt(v11 / 2000)) <= 0.3 * math.sqrt(v11 / 2000)
    assert abs(sigmas.mean() - 1.0) <= 0.1


def test_symmetrized_law_has_balanced_signs():
    s = sample_increments(SKEWED, 5.0 / 4001, 4001, seed=17)
    sym = symmetrize(s)
    assert abs(sign_statistic(sym) - 0.5) <= 3.0 * math.sqrt(0.25 / sym.n)


def test_centered_law_positivity():
    # centered triples follow the skew-mapped law; their sign statistic
    # estimates the mapped positivity parameter
    s = sample_increments(SKEWED, 5.0 / 6000, 6000, seed=21)
    cen = center_triple(s)
    rho_cen = -0.5 * center_skew_factor(1.5)
    p_cen = skew_to_positivity(1.5, rho_cen)
    se = math.sqrt(p_cen * (1.0 - p_cen) / cen.n)
    assert abs(sign_statistic(cen) - p_cen) <= 3.0 * se


def test_deskewed_law_recovers_drift():
    # median of the deskewed sample over (2 - 2^{1/beta}) h estimates gamma;
    # the drift rate is slow at beta > 1 so the band is wide
    from levyestim.symmetric import median_gamma

    reps = 300
    out = np.empty(reps)
    for r in range(reps):
        s = sample_increments(SKEWED, 5.0 / 6000, 6000, seed=40_000 + r)
        out[r] = median_gamma(deskew_triple(s, 1.5)) / deskew_trend_factor(1.5)
    se = out.std(ddof=1) / math.sqrt(reps)
    assert abs(out.mean() - 0.3) <= 3.0 * se


# ---------------------------------------------------------------------------
# full pipeline


def test_pipeline_needs_nine_increments():
    with pytest.raises(DomainError):
        full_pipeline(_sample(np.ones(8)))


def test_pipeline_mc_recovers_all_four_parameters():
    # 500 replications at n = 9000, h = 5/n; means of (beta, sigma, p, gamma)
    # against truth within 3 MC std errs.  beta_hat and p_pos_hat both carry
    # small transient biases at this n (~ +0.004 and -0.003, shrinking with
    # n; the latter from the clamped nonlinear skew inversion), so the check
    # sits near its band.
    reps = 500
    out = np.empty((reps, 4))
    for r in range(reps):
        s = sample_increments(SKEWED, 5.0 / 9000, 9000, seed=83_500 + r)
        rep = _quiet_pipeline(s)
        out[r] = (rep.beta_hat, rep.sigma_hat, rep.extra["p_pos_hat"],
                  rep.gamma_hat)
    truth = np.array([1.5, 1.0, P_TRUE, 0.3])
    band = 3.0 * out.std(axis=0, ddof=1) / math.sqrt(reps)
    assert np.all(np.abs(out.mean(axis=0) - truth) <= band)


def test_pipeline_symmetric_zero_trend():
    # degenerate case: p_hat centers on 1/2 and gamma_hat on 0 (both exact
    # symmetries of the estimator), checked as means over 100 replications
    par = StableParams(1.5, 1.0, 0.0, 0.0)
    ps = np.empty(100)
    gs = np.empty(100)
    for r in range(100):
        rep = _quiet_pipeline(sample_increments(par, 5.0 / 9000, 9000,
                                                seed=160_000 + r))
        ps[r] = rep.extra["p_pos_hat"]
        gs[r] = rep.gamma_hat
    assert abs(ps.mean() - 0.5) <= 3.0 * ps.std(ddof=1) / 10.0
    assert abs(gs.mean()) <= 3.0 * gs.std(ddof=1) / 10.0


def test_pipeline_single_sample_interval_covers_zero_trend():
    par = StableParams(1.5, 1.0, 0.0, 0.0)
    rep = _quiet_pipeline(sample_increments(par, 5.0 / 9000, 9000, seed=23))
    lo, hi = rep.ci_gamma
    assert lo <= 0.0 <= hi


def test_pipeline_scale_equivariance():
    s = sample_increments(SKEWED, 5.0 / 3000, 3000, seed=29)
    r1 = _quiet_pipeline(s)
    r2 = _quiet_pipeline(IncrementSample(4.0 * s.values, s.h, {}))
    assert r2.beta_hat == pytest.approx(r1.beta_hat, rel=1e-9)
    assert r2.extra["p_pos_hat"] == pytest.approx(r1.extra["p_pos_hat"],
                                                  rel=1e-9)
    assert r2.sigma_hat == pytest.approx(4.0 * r1.sigma_hat, rel=1e-9)
    assert r2.gamma_hat == pytest.approx(4.0 * r1.gamma_hat, rel=1e-9)


def test_pipeline_rejects_index_out_of_invertible_range():
    # heavy right tail of the log-moment estimate: Gaussian-looking input
    # can push beta_hat past 2, where the skew inversion has no meaning
    vals = np.random.default_rng(0).normal(size=3000)
    with pytest.raises(EstimationError, match="invertible"):
        _quiet_pipeline(_sample(vals, h=1.0 / 3000))
    try:
        _quiet_pipeline(_sample(vals, h=1.0 / 3000))
    except EstimationError as exc:
        assert exc.context["pipeline_step"] == "symmetrize"


def test_pipeline_fractional_moment_variant():
    s = sample_increments(SKEWED, 5.0 / 3000, 3000, seed=29)
    rep = _quiet_pipeline(s, p=0.2)
    assert rep.extra["p"] == 0.2
    assert rep.extra["step1"]["method"] != "log"
    assert 1.2 < rep.beta_hat < 1.8


def test_pipeline_bipower_diagnostic():
    s = sample_increments(SKEWED, 5.0 / 3000, 3000, seed=29)
    rep = _quiet_pipeline(s, q=0.25)
    assert rep.extra["q"] == 0.25
    diag = rep.extra["beta_hat_centered"]
    assert diag is None or 1.0 < diag < 2.0


def test_pipeline_report_structure():
    s = sample_increments(SKEWED, 5.0 / 3000, 3000, seed=29)
    rep = _quiet_pipeline(s)
    assert rep.method == "pipeline"
    assert set(rep.extra["step1"]) >= {"method", "beta_hat", "n"}
    assert rep.extra["step2"]["n"] == 1000
    assert rep.extra["step3"]["n"] == 1000
    assert rep.extra["ci_note"] == "plug-in, uncorrected"
    assert rep.ci_gamma[0] < rep.ci_gamma[1]
