"""Median, log-moment and fractional-moment estimators for symmetric
stable increments with drift.

Data model: n = 2k + 1 increments of X at mesh h with
L(X_1) = S_beta(sigma, 0, gamma); an even-length sample drops its last
increment in time order.  Every estimator centers at the sample median m_n,
giving gamma_hat = m_n / h, and works with the residuals x_(j) - m_n of the
order statistics (the middle one is zero and is excluded from log-type
statistics).

Each *_point core returns (beta_hat, sigma_hat, gamma_hat); its *_estimate
report adds the covariance and the drift interval.

Reports carry the fixed-mesh (h = 1) covariance V of

    diag(sqrt(n), sqrt(n), sqrt(n) h^{1 - 1/beta_hat}) (theta_hat - theta)
        -> N_3(0, V),

where V is V^log for the log-moment pair and V^p for the fractional-moment
pair; in both cases the (gamma, gamma) entry is
{sigma pi / (2 Gamma(1 + 1/beta))}^2 and the gamma component is
asymptotically independent of the rest.  This holds only at h = 1: at
any other mesh, notably a shrinking one, sigma_hat carries an extra term
-sigma log(1/h) / beta^2 (beta_hat - beta) that V omits.
"""

from __future__ import annotations

import math
import sys
from statistics import NormalDist

import numpy as np

from .errors import (
    DenominatorNearZero,
    DomainError,
    EstimationError,
    NonpositiveVarianceGap,
    NoSignChange,
    NotPositiveDefinite,
    RootOutOfBracket,
    ZeroResidual,
    each_row,
    only_row,
    positive,
    stable_index,
)
from .serialize import EstimateReport, check_finite
from .special_fn import (
    EULER_GAMMA,
    ZETA3,
    digamma,
    find_root_monotone,
    log_gamma,
    log_gamma_ratio,
    overflow_to_inf,
)
from .stable_core import IncrementSample
from .stable_density import median_asymptotic_sd

__all__ = [
    "median_block",
    "log_moment_block",
    "known_scale_block",
    "frac_moment_block",
    "median_gamma",
    "log_moment_point",
    "log_moment_estimate",
    "v_log",
    "psi_transform",
    "c_moment",
    "frac_moment_point",
    "frac_moment_estimate",
    "v_p",
    "gamma_confidence_interval",
]

_PI2 = math.pi ** 2
_PI4 = math.pi ** 4


def _odd_count(n: int) -> int:
    # the odd-sample rule: an even sample drops its last increment in time
    # order, so 2k + 1 of n increments are used
    return n if n % 2 else n - 1


def _odd_block(block: np.ndarray) -> np.ndarray:
    # the odd-sample columns of a (rows, n) block
    n = block.shape[1]
    if _odd_count(n) < 3:
        raise DomainError("need at least 3 increments", n=int(n))
    return block[:, :_odd_count(n)]


def _medians(values: np.ndarray) -> np.ndarray:
    # each row's median m_n, the middle order statistic of its 2k + 1 values
    k = (values.shape[1] - 1) // 2
    return np.partition(values, k, axis=1)[:, k]


def _no_ties(ties: int) -> None:
    if ties:
        raise ZeroResidual("increments tie the sample median", ties=ties)


def _log_block(block: np.ndarray):
    """(L, Lbar, m_n, k, ties) of each row: L the log residuals
    log|x_(j) - m_n| over the 2k off-median order statistics, Lbar their
    mean and ties the count of off-median increments equal to m_n.  A row
    with ties has no log residuals (they would be -inf); its L and Lbar
    are 0, and its estimates raise ZeroResidual through _no_ties."""
    xs = np.sort(_odd_block(block), axis=1)
    k = (xs.shape[1] - 1) // 2
    m = xs[:, k]
    # each step in place: a block's temporaries are what peak memory holds
    logs = np.concatenate((xs[:, :k], xs[:, k + 1:]), axis=1)
    # a residual that overflows saturates to inf; the log-moment estimates
    # it reaches are nan, which the reports refuse
    with np.errstate(divide="ignore", over="ignore"):
        logs -= m[:, None]
        np.abs(logs, out=logs)
        ties = np.count_nonzero(logs == 0.0, axis=1)
        np.log(logs, out=logs)
    if ties.any():
        logs[ties > 0] = 0.0
    return logs, logs.mean(axis=1), m, k, ties


def _square_sums(logs: np.ndarray, lbar: np.ndarray) -> np.ndarray:
    # sum_j (L_j - Lbar)^2 of each row; nan where an inf log residual
    # makes Lbar inf
    with np.errstate(invalid="ignore"):
        dev = logs - lbar[:, None]
    return np.sum(np.square(dev, out=dev), axis=1)


def median_block(block: np.ndarray, h: float) -> list:
    """(gamma_hat,) = (m_n / h,) of each row of a (rows, n) block."""
    return [(m / h,) for m in _medians(_odd_block(block)).tolist()]


def median_gamma(sample: IncrementSample) -> float:
    """Drift estimate gamma_hat = m_n / h from the sample median of the
    increments (even samples drop their last increment)."""
    return median_block(sample.values[None], sample.h)[0][0]


def v_log(beta: float, sigma: float) -> np.ndarray:
    """Fixed-mesh (h = 1) covariance V^log of the log-moment estimates
    (beta_hat, sigma_hat, gamma_hat; other meshes: module docstring):

    V_11 = (11/10) beta^2 + (1/2) beta^4 + (13/20) beta^6
    V_12 = (sigma/pi^4) {9 C beta^4 (nu4 - nu2^2) - 3 pi^2 beta^3 nu3}
    V_22 = (sigma^2/pi^4) {9 C^2 beta^2 (nu4 - nu2^2) + pi^4 nu2
                           - 6 C pi^2 beta nu3}
    V_33 = {sigma pi / (2 Gamma(1 + 1/beta))}^2,   V_13 = V_23 = 0,

    with C the Euler-Mascheroni constant and nu2, nu3, nu4 the second,
    third and fourth central moments of log|Y|, Y ~ S_beta(sigma):

    nu2 = (pi^2/6) (1/beta^2 + 1/2)
    nu3 = 2 zeta(3) (1/beta^3 - 1)
    nu4 = pi^4 {3/(20 beta^4) + 1/(12 beta^2) + 19/240}.

    Accepts any finite beta > 0 and sigma > 0, so plug-in covariances stay
    defined when an index estimate lands above 2; a beta below ~2.7e-77,
    where nu4 would overflow, raises DomainError.  Raises
    NotPositiveDefinite when a Cholesky factorization of the result fails.
    """
    positive("beta", beta)
    positive("sigma", sigma)
    b2 = beta * beta
    if b2 * b2 * sys.float_info.max < _PI4:  # pi^4 / beta^4 overflows
        raise DomainError("beta is so small that the moments of log|Y| "
                          "overflow", beta=beta)
    nu2 = _PI2 / 6.0 * (1.0 / b2 + 0.5)
    nu3 = 2.0 * ZETA3 * (1.0 / (b2 * beta) - 1.0)
    nu4 = _PI4 * (3.0 / (20.0 * b2 * b2) + 1.0 / (12.0 * b2) + 19.0 / 240.0)
    d4 = nu4 - nu2 ** 2
    v11 = 1.1 * b2 + 0.5 * b2 * b2 + 0.65 * b2 * b2 * b2
    v12 = sigma / _PI4 * (9.0 * EULER_GAMMA * b2 * b2 * d4
                          - 3.0 * _PI2 * b2 * beta * nu3)
    v22 = sigma * sigma / _PI4 * (9.0 * EULER_GAMMA ** 2 * b2 * d4
                                  + _PI4 * nu2
                                  - 6.0 * EULER_GAMMA * _PI2 * beta * nu3)
    v33 = overflow_to_inf(math.pow, median_asymptotic_sd(beta, sigma), 2)
    out = np.array([[v11, v12, 0.0], [v12, v22, 0.0], [0.0, 0.0, v33]])
    try:
        np.linalg.cholesky(out)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite("log-moment covariance is not positive "
                                  "definite", beta=beta, sigma=sigma) from exc
    return out


def psi_transform(beta: float) -> float:
    """Variance-stabilizing map for the log-moment index estimate:
    sqrt(n) {Psi(beta_hat) - Psi(beta)} -> N(0, 1), where

    Psi(x) = sqrt(5/22) [2 log x
             - log{22 + 5 x^2 + sqrt(22 (22 + 10 x^2 + 13 x^4))}].
    """
    positive("beta", beta)
    x2 = beta * beta
    inner = 22.0 + 5.0 * x2 + math.sqrt(22.0 * (22.0 + 10.0 * x2 + 13.0 * x2 * x2))
    return math.sqrt(5.0 / 22.0) * (2.0 * math.log(beta) - math.log(inner))


def log_moment_block(block: np.ndarray, h: float) -> list:
    """Log-moment estimates (beta_hat, sigma_hat, gamma_hat) of each row of
    a (rows, n) block of increments at mesh h, or the EstimationError of a
    row that has none (see log_moment_point)."""
    logs, lbar, m, k, ties = _log_block(block)
    log_inv_h = math.log(1.0 / h)

    def point(ties, lbar, square_sum, m):
        _no_ties(ties)
        gap = 6.0 / (2.0 * k * _PI2) * square_sum - 0.5
        if gap <= 0.0:
            raise NonpositiveVarianceGap("log-residual variance is at most "
                                         "pi^2/12", gap=gap, k=k)
        beta_hat = gap ** -0.5
        sigma_hat = overflow_to_inf(math.exp, log_inv_h / beta_hat + lbar
                                    - EULER_GAMMA * (1.0 / beta_hat - 1.0))
        return beta_hat, sigma_hat, m / h

    return each_row(point, ties.tolist(), lbar.tolist(),
                    _square_sums(logs, lbar).tolist(), m.tolist())


def log_moment_point(sample: IncrementSample) -> tuple[float, float, float]:
    """Log-moment estimates (beta_hat, sigma_hat, gamma_hat).

    With L_j = log|x_(j) - m_n| over the 2k off-median order statistics and
    Lbar their mean,

        beta_hat  = {(6 / (2k pi^2)) sum (L_j - Lbar)^2 - 1/2}^{-1/2}
        sigma_hat = exp{(1/beta_hat) log(1/h) + Lbar
                        - C (1/beta_hat - 1)}
        gamma_hat = m_n / h.

    Raises ZeroResidual when an off-median increment ties the median and
    NonpositiveVarianceGap when the bracket is not positive.
    """
    return only_row(log_moment_block(sample.values[None], sample.h))


def _report(method: str, sample: IncrementSample, point, covariance,
            level: float, **extra) -> EstimateReport:
    beta_hat, sigma_hat, gamma_hat = point
    check_finite(method, beta_hat=beta_hat, sigma_hat=sigma_hat,
                 gamma_hat=gamma_hat)
    cov = covariance(beta_hat, sigma_hat)
    n_used = _odd_count(sample.n)
    ci = gamma_confidence_interval(gamma_hat, beta_hat, sigma_hat,
                                   n_used, sample.h, level)
    return EstimateReport(method=method, n=n_used, h=sample.h,
                          beta_hat=beta_hat, sigma_hat=sigma_hat,
                          gamma_hat=gamma_hat, ci_gamma=ci, cov_matrix=cov,
                          extra={**extra, "k": n_used // 2, "level": level})


def log_moment_estimate(sample: IncrementSample,
                        level: float = 0.95) -> EstimateReport:
    """log_moment_point plus the plug-in V^log covariance and the gamma
    confidence interval at the given level."""
    return _report("log", sample, log_moment_point(sample), v_log, level)


def known_scale_block(block: np.ndarray, h: float, sigma: float) -> list:
    """Index estimate (beta_tilde,) when sigma is known, of each row of a
    (rows, n) block of increments at mesh h:

        beta_tilde = {log(1/h) - C} / {log sigma - C - S_n},

    S_n the row's mean log residual.  A row that has none holds its
    EstimationError: ZeroResidual when an off-median increment ties the
    median, a plain EstimationError when a residual overflows (S_n is
    inf), DenominatorNearZero when the denominator vanishes to working
    precision.
    """
    positive("sigma", sigma)
    _, lbar, _, _, ties = _log_block(block)
    num = math.log(1.0 / h) - EULER_GAMMA
    log_sigma = math.log(sigma) - EULER_GAMMA

    def point(ties, lbar):
        _no_ties(ties)
        if not math.isfinite(lbar):
            raise EstimationError("mean log residual S_n is not finite: a "
                                  "residual overflows", s_n=lbar)
        den = log_sigma - lbar
        if abs(den) < 1e-12 * (1.0 + abs(num)):
            raise DenominatorNearZero("known-scale denominator vanishes",
                                      denominator=den)
        return (num / den,)

    return each_row(point, ties.tolist(), lbar.tolist())


def c_moment(beta: float, q: float) -> float:
    """Absolute-moment constant of the symmetric stable law:

        C(beta, q) = 2^q Gamma((q+1)/2) Gamma(1 - q/beta)
                     / {sqrt(pi) Gamma(1 - q/2)},

    so E|Y|^q = C(beta, q) sigma^q for Y ~ S_beta(sigma), at the orders
    q in (0, beta) the estimators use (p, 2p, 3p and 4p, p > 0).
    """
    stable_index(beta)
    if not (0.0 < q < beta):
        raise DomainError("moment order q must lie in (0, beta)",
                          q=q, beta=beta)
    return 2.0 ** q * math.exp(log_gamma(0.5 * (q + 1.0))
                               + log_gamma(1.0 - q / beta)
                               - log_gamma(1.0 - 0.5 * q)) / math.sqrt(math.pi)


def _log_frac_k(p: float) -> float:
    # log K(p), the beta-free factor of C(beta, p)^2 / C(beta, 2p) (see
    # frac_moment_estimate)
    return (2.0 * log_gamma(0.5 * (p + 1.0)) + log_gamma(1.0 - p)
            - 2.0 * log_gamma(1.0 - 0.5 * p) - log_gamma(p + 0.5)
            - 0.5 * math.log(math.pi))


def frac_moment_block(block: np.ndarray, h: float, p: float) -> list:
    """Fractional-moment estimates (beta_hat, sigma_hat, gamma_hat) at
    order p of each row of a (rows, n) block of increments at mesh h, or the
    EstimationError of a row that has none (see frac_moment_point)."""
    if not (0.0 < p < 1.0 / 3.0):
        raise DomainError("moment order p must lie in (0, 1/3)", p=p)
    values = _odd_block(block)
    m = _medians(values)
    with np.errstate(over="ignore"):  # an inf residual is refused below
        res = values - m[:, None]
    np.abs(res, out=res)
    log_k = _log_frac_k(p)
    lo, hi = 6.0 * p + 1e-9, 2.0 - 1e-9

    def point(h1, h2, m):
        if h1 <= 0.0 or h2 <= 0.0:
            raise ZeroResidual("fractional moments vanish", h1=h1, h2=h2)
        if not (math.isfinite(h1) and math.isfinite(h2)):
            raise EstimationError("fractional moments H_1 and H_2 are not "
                                  "finite: a residual overflows", h1=h1,
                                  h2=h2)
        target = h1 * h1 / h2
        log_rhs = math.log(target) - log_k
        try:
            beta_hat = find_root_monotone(
                lambda b: log_gamma_ratio(b, p) - log_rhs, lo, hi)
        except NoSignChange as exc:
            raise RootOutOfBracket("moment ratio outside the admissible "
                                   "index interval", target=target, p=p,
                                   lo=lo, hi=hi) from exc
        sigma_hat = overflow_to_inf(
            math.pow, h ** (-p / beta_hat) * h1 / c_moment(beta_hat, p),
            1.0 / p)
        return beta_hat, sigma_hat, m / h

    return each_row(point, np.mean(res ** p, axis=1).tolist(),
                    np.mean(res ** (2.0 * p), axis=1).tolist(), m.tolist())


def frac_moment_point(sample: IncrementSample,
                      p: float) -> tuple[float, float, float]:
    """Fractional-moment estimates (beta_hat, sigma_hat, gamma_hat) at
    order p.

    With H_l = (1/n) sum_j |x_j - gamma_hat h|^{lp} over all n increments
    (the median one contributes zero), beta_hat solves

        C(beta, p)^2 / C(beta, 2p) = H_1^2 / H_2

    on the admissible interval (6p, 2), where the left side is strictly
    increasing.  The beta-free Gamma factors are split off once, so the
    root solved is that of the log form

        log Gamma(1 - p/beta)^2 / Gamma(1 - 2p/beta)
            = log(H_1^2 / H_2) - log K(p),

    K(p) = Gamma((p+1)/2)^2 Gamma(1-p) / {sqrt(pi) Gamma(1-p/2)^2 Gamma(p+1/2)},
    and

        sigma_hat = {h^{-p/beta_hat} H_1 / C(beta_hat, p)}^{1/p}.

    Requires p in (0, 1/3); raises ZeroResidual when H_1 or H_2 vanishes and
    RootOutOfBracket when the moment ratio falls outside the image of the
    interval.
    """
    return only_row(frac_moment_block(sample.values[None], sample.h, p))


def frac_moment_estimate(sample: IncrementSample, p: float,
                         level: float = 0.95) -> EstimateReport:
    """frac_moment_point plus the plug-in V^p covariance and the gamma
    confidence interval at the given level."""
    return _report("frac", sample, frac_moment_point(sample, p),
                   lambda beta, sigma: v_p(beta, sigma, p), level, p=p)


def v_p(beta: float, sigma: float, p: float) -> np.ndarray:
    """Fixed-mesh (h = 1) covariance V^p of the fractional-moment estimates
    at order p (other meshes: module docstring).  Writing C(q) = C(beta, q)
    and

        eta = psi(1 - p/beta) - psi(1 - 2p/beta),

    the closed forms are

    V_11 = beta^4 / (p^2 eta^2) {C(2p)/C(p)^2 - C(3p)/(C(p) C(2p))
           + (1/4)(C(4p)/C(2p)^2 - 1)}
    V_12 = beta^2 sigma / (p^2 eta^2)
           {psi(1-2p/beta) [C(3p)/(2 C(p) C(2p)) - C(2p)/C(p)^2 + 1/2]
            + psi(1-p/beta) [C(3p)/(2 C(p) C(2p)) - C(4p)/(4 C(2p)^2) - 1/4]}
    V_22 = sigma^2 / (p^2 eta^2)
           {psi(1-2p/beta)^2 [C(2p)/C(p)^2 - 1]
            - psi(1-p/beta) psi(1-2p/beta) [C(3p)/(C(p) C(2p)) - 1]
            + (1/4) psi(1-p/beta)^2 [C(4p)/C(2p)^2 - 1]}

    with V_13 = V_23 = 0 and V_33 = {sigma pi / (2 Gamma(1 + 1/beta))}^2.
    Requires 4p < beta so that C(4p) exists.
    """
    if not (0.0 < p < 0.5):
        raise DomainError("moment order p must lie in (0, 1/2)", p=p)
    if not (4.0 * p < beta):
        raise DomainError("covariance needs moments to order 4p < beta",
                          p=p, beta=beta)
    positive("sigma", sigma)
    psi1 = digamma(1.0 - p / beta)
    psi2 = digamma(1.0 - 2.0 * p / beta)
    eta = psi1 - psi2
    cp = c_moment(beta, p)
    c2p = c_moment(beta, 2.0 * p)
    c3p = c_moment(beta, 3.0 * p)
    c4p = c_moment(beta, 4.0 * p)
    r21 = c2p / cp ** 2
    r312 = c3p / (cp * c2p)
    r42 = c4p / c2p ** 2
    base = 1.0 / (p * p * eta * eta)
    b2 = beta * beta
    v11 = b2 * b2 * base * (r21 - r312 + 0.25 * (r42 - 1.0))
    v12 = b2 * sigma * base * (psi2 * (0.5 * r312 - r21 + 0.5)
                               + psi1 * (0.5 * r312 - 0.25 * r42 - 0.25))
    v22 = sigma * sigma * base * (psi2 * psi2 * (r21 - 1.0)
                                  - psi1 * psi2 * (r312 - 1.0)
                                  + 0.25 * psi1 * psi1 * (r42 - 1.0))
    v33 = overflow_to_inf(math.pow, median_asymptotic_sd(beta, sigma), 2)
    return np.array([[v11, v12, 0.0], [v12, v22, 0.0], [0.0, 0.0, v33]])


def gamma_confidence_interval(gamma_hat: float, beta_hat: float,
                              sigma_hat: float, n: int, h: float,
                              level: float = 0.95) -> tuple[float, float]:
    """Two-sided drift interval at confidence level `level` (e.g. 0.95):

        gamma_hat -+ z_{(1+level)/2} sigma_hat pi / {2 Gamma(1 + 1/beta_hat)
                    sqrt(n) h^{1 - 1/beta_hat}},

    with the normal quantile z from the standard library's
    ``statistics.NormalDist().inv_cdf`` (within 1e-15 relative of
    ``scipy.special.ndtri``).
    """
    if not (0.0 < level < 1.0):
        raise DomainError("level must lie in (0, 1)", level=level)
    if n < 1:
        raise DomainError("need n >= 1", n=n)
    positive("h", h)
    z = NormalDist().inv_cdf(0.5 * (1.0 + level))
    half = (z * median_asymptotic_sd(beta_hat, sigma_hat)
            * overflow_to_inf(math.pow, h, 1.0 / beta_hat - 1.0)
            / math.sqrt(n))
    return gamma_hat - half, gamma_hat + half
