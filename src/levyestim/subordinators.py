"""Gamma and inverse-Gaussian subordinators: sampling, the MLE and moment
point estimators, Fisher matrices, and the MLE report.

Laws of the increments over mesh h:

    gamma subordinator   L(X_t) = Gamma(delta t, gamma)       (rate gamma),
    IG subordinator      L(X_t) = IG(delta t, gamma), density
        (delta t e^{delta t gamma} / sqrt(2 pi)) x^{-3/2}
            exp{-(gamma^2 x + (delta t)^2 / x) / 2},  x > 0.

Each cell takes delta and gamma under these names, the keys a design's
truth writes, and checks both where it is built.

The IG law coincides with the Wald law of mean delta t / gamma and shape
(delta t)^2, which is how it is sampled; gamma draws boost tiny shapes
through the Ahrens-Dieter identity inside numpy's standard_gamma.

Rates: sqrt(n)(delta_hat - delta) and sqrt(T)(gamma_hat - gamma) are the
natural normalizations, with per-observation Fisher information
diag(1/delta^2, delta/gamma^2) for the gamma law and
diag(2/delta^2, delta/gamma) for the IG law; an entry beyond the double
range saturates to 0 or inf.
"""

from __future__ import annotations

import math
import sys
import warnings

import numpy as np

from .errors import (
    DataError,
    DomainError,
    EstimationError,
    NonpositiveBrace,
    NonpositiveK,
    NoSignChange,
    positive,
    sample_size,
)
from .serialize import EstimateReport, check_finite
from .special_fn import digamma, find_root_monotone
from .stable_core import Cell, IncrementSample

__all__ = [
    "gamma_sub_cell",
    "ig_sub_cell",
    "gamma_mle",
    "gamma_moment",
    "ig_mle",
    "gamma_fisher",
    "ig_fisher",
    "mle_report",
]


def _check_cell(delta: float, gamma: float, h: float, n: int):
    positive("delta", delta)
    positive("gamma", gamma)
    positive("h", h)
    sample_size(n)
    if delta * h < 1e-12:
        warnings.warn("per-increment shape below 1e-12: draws are "
                      "numerically degenerate at this mesh")


def gamma_sub_cell(delta: float, gamma: float, h: float, n: int) -> Cell:
    """Cell of n i.i.d. Gamma(delta h, gamma) increments, none of them 0
    (the estimators reject 0): a draw that underflows to 0 raises
    DomainError."""
    _check_cell(delta, gamma, h, n)
    shape, scale = delta * h, 1.0 / gamma

    def fill(streams):
        block = np.empty((len(streams), n))
        for row, rng in enumerate(streams):
            block[row] = rng.gamma(shape, scale=scale, size=n)
            if not block[row].all():  # small shapes underflow to 0
                raise DomainError("gamma draws underflowed to 0 at this mesh",
                                  shape=shape,
                                  zeros=int(n - np.count_nonzero(block[row])))
        return block

    return Cell(h, fill)


def ig_sub_cell(delta: float, gamma: float, h: float, n: int) -> Cell:
    """Cell of n i.i.d. IG(delta h, gamma) increments, drawn as Wald variates
    of mean delta h / gamma and shape (delta h)^2; either underflowing to 0
    raises DomainError."""
    _check_cell(delta, gamma, h, n)
    dh = delta * h
    mean, shape = dh / gamma, dh * dh
    if not (mean > 0.0 and shape > 0.0):  # small delta h underflows
        raise DomainError("Wald mean or shape underflowed to 0 at this mesh",
                          mean=mean, shape=shape)

    def fill(streams):
        return np.array([rng.wald(mean, shape, size=n) for rng in streams])

    return Cell(h, fill)


def _positive_increments(sample: IncrementSample) -> np.ndarray:
    values = sample.values
    if np.any(values <= 0.0):
        raise DataError("subordinator increments must be strictly positive",
                        nonpositive=int(np.count_nonzero(values <= 0.0)))
    return values


def gamma_mle(sample: IncrementSample) -> tuple[float, float]:
    """Gamma-subordinator MLE (delta_hat, gamma_hat).

    With T = n h, X_T = sum of increments and

        K = T log(X_T / T) - sum_j h log(Delta_j X / h),

    delta_hat is the unique root of n h {log(delta h) - psi(delta h)} = K:
    the left side decreases strictly from +inf (delta -> 0) to 0
    (delta -> inf), and K > 0 by strict concavity of the logarithm unless
    all increments are equal.  NonpositiveK refuses a K at rounding level,
    at most n eps T (1 + |log(X_T / T)| + mean_j |log(Delta_j X / h)|),
    which is what equal increments leave; where Delta_j X / h leaves the
    double range, K is taken as T {log(X_T / n) - (1/n) sum_j log Delta_j X},
    the same number without h.  Then
    gamma_hat = delta_hat T / X_T.  The bounds 1/(2x) < log x - psi(x) < 1/x
    put delta_hat h in (T/(2K), T/K), so one solve on [n/(4K), 2n/K] (a
    factor 2 per side against rounding) finds it; no sign change there means
    K is at rounding level, which raises NonpositiveK as well.
    """
    values = _positive_increments(sample)
    h = sample.h
    n = values.size
    t_total = n * h
    x_total = float(values.sum())
    if (float(values.min()) / h >= sys.float_info.min
            and float(values.max()) / h <= sys.float_info.max):
        log_mean, logs = math.log(x_total / t_total), np.log(values / h)
        k_stat = t_total * log_mean - h * float(np.sum(logs))
    else:  # Delta_j X / h leaves the double range; h cancels out of K / T
        log_mean, logs = math.log(x_total / n), np.log(values)
        k_stat = t_total * (log_mean - float(np.mean(logs)))
    # K is T log(X_T / T) minus h sum_j log(Delta_j X / h); the rounding
    # errors of the two reach about n eps times their size, and a K no
    # larger is what equal increments leave
    if k_stat <= n * sys.float_info.epsilon * t_total * (
            1.0 + abs(log_mean) + float(np.mean(np.abs(logs)))):
        raise NonpositiveK("likelihood statistic K is at rounding level: "
                           "all increments equal", K=k_stat, T=t_total)

    def gap(delta: float) -> float:
        return t_total * (math.log(delta * h) - digamma(delta * h)) - k_stat

    try:
        delta_hat = find_root_monotone(gap, n / (4.0 * k_stat),
                                       2.0 * n / k_stat)
    except NoSignChange:
        raise NonpositiveK("likelihood statistic K is at rounding level: "
                           "increments equal to working precision",
                           K=k_stat, T=t_total) from None
    gamma_hat = delta_hat * t_total / x_total
    return delta_hat, gamma_hat


def gamma_moment(sample: IncrementSample) -> tuple[float, float]:
    """Gamma-subordinator moment estimates (delta_hat, gamma_hat).

    With m1 = (1/T) sum Delta X and m2 = (1/T) sum (Delta X)^2:
    gamma_hat = m1/m2 and delta_hat = m1^2/m2, of asymptotic covariance

        [[2 delta, 2 gamma], [2 gamma, 3 gamma^2 / delta]] / T,

    so the drift estimate is 1/3 as efficient as the MLE's gamma component.
    An m2 beyond the double range raises EstimationError.
    """
    values = _positive_increments(sample)
    t_total = values.size * sample.h
    with np.errstate(over="ignore"):  # m1 overflows only if m2 does
        m1 = float(values.sum()) / t_total
        m2 = float(np.sum(values ** 2)) / t_total
    if not math.isfinite(m2):
        raise EstimationError("second empirical moment overflows", m2=m2)
    if m2 <= 0.0:
        raise DataError("second empirical moment vanishes", m2=m2)
    return m1 * m1 / m2, m1 / m2


def ig_mle(sample: IncrementSample) -> tuple[float, float]:
    """IG-subordinator MLE:

        delta_hat = {(1/n)(sum_j h^2 / Delta_j X - T^2 / X_T)}^{-1/2},
        gamma_hat = delta_hat T / X_T.

    The braced mean is nonnegative by Cauchy-Schwarz and vanishes only when
    all increments are equal.  NonpositiveBrace refuses a brace at rounding
    level, at most (n + 2) eps h^2 (1/n) sum_j 1/Delta_j X, which is what
    equal increments leave.  Where h^2 or T^2 leaves the double range, the
    brace is taken over h^2 and delta_hat is 1/h over its square root.  An X_T
    that overflows (gamma_hat would read 0), or a lead term h^2 (1/n)
    sum_j 1/Delta_j X that does (the brace would be inf or nan), is an
    EstimationError.
    """
    values = _positive_increments(sample)
    h = sample.h
    n = values.size
    t_total = n * h
    with np.errstate(over="ignore"):  # overflowing sums are refused below
        x_total = float(values.sum())
        s_inv = float(np.sum(1.0 / values))
    if not math.isfinite(x_total):
        raise EstimationError("IG total X_T overflows",
                              largest_increment=float(values.max()))
    wide = not sys.float_info.min <= h * h <= sys.float_info.max
    # the brace is lead = h^2 sum_j (1/Delta_j X) / n minus T^2 / (n X_T);
    # the rounding errors of the two reach about (n + 2) eps lead, and a
    # brace no larger is what equal increments leave
    lead = (s_inv if wide else h * h * s_inv) / n
    if not math.isfinite(lead):
        raise EstimationError("IG brace term h^2 (1/n) sum_j 1/Delta_j X "
                              "overflows", h=h,
                              least_increment=float(values.min()))
    # T^2 = (n h)^2 may overflow where h^2 does not: the brace would be -inf
    scaled = wide or t_total * t_total > sys.float_info.max
    if scaled:
        lead = s_inv / n
    brace = (lead - n / x_total if scaled
             else (h * h * s_inv - t_total * t_total / x_total) / n)
    if brace <= (n + 2) * sys.float_info.epsilon * lead:
        raise NonpositiveBrace("shape expression is at rounding level: all "
                               "increments equal", brace=brace)
    delta_hat = 1.0 / h / math.sqrt(brace) if scaled else brace ** -0.5
    gamma_hat = delta_hat * t_total / x_total
    return delta_hat, gamma_hat


def gamma_fisher(delta, rate) -> np.ndarray:
    """Per-observation Fisher information diag(1/delta^2, delta/gamma^2) of
    the gamma law in the normalization
    (sqrt(n)(delta_hat - delta), sqrt(T)(gamma_hat - gamma))."""
    delta, rate = np.float64(delta), np.float64(rate)
    with np.errstate(all="ignore"):  # saturate to 0 / inf; 0/0 is nan
        return np.diag([1.0 / delta ** 2, delta / rate ** 2])


def ig_fisher(delta, rate) -> np.ndarray:
    """Per-observation Fisher information diag(2/delta^2, delta/gamma) of
    the IG law in the normalization
    (sqrt(n)(delta_hat - delta), sqrt(T)(gamma_hat - gamma))."""
    delta, rate = np.float64(delta), np.float64(rate)
    with np.errstate(all="ignore"):  # saturate to 0 / inf; 0/0 is nan
        return np.diag([2.0 / delta ** 2, delta / rate])


def mle_report(method: str, sample: IncrementSample,
               point) -> EstimateReport:
    """The report of an MLE point (delta_hat, gamma_hat) of ``sample``: the
    estimates, checked finite, and the Fisher information at them,
    gamma_fisher for gamma-mle and ig_fisher for ig-mle."""
    delta_hat, gamma_hat = point
    check_finite(method, extra={"delta_hat": delta_hat}, gamma_hat=gamma_hat)
    information = gamma_fisher if method == "gamma-mle" else ig_fisher
    fisher = information(delta_hat, gamma_hat).ravel().tolist()
    return EstimateReport(method=method, n=sample.n, h=sample.h,
                          gamma_hat=gamma_hat,
                          extra={"delta_hat": delta_hat, "fisher": fisher})
