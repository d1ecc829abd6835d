"""Finite-difference transforms of increments and the three-step pipeline
for the four-parameter stable model.

For i.i.d. mesh-h increments Delta_j X of a process with
L(X_1) = S_beta(sigma, rho, gamma), non-overlapping blocks give exact
distributional identities:

  symmetrize   D_l = Delta_{2l} X - Delta_{2l-1} X
               ~ S_beta(2^{1/beta} h^{1/beta} sigma, 0, 0)
               (valid for every beta, including beta = 1),
  center       C_l = Delta_{3l} X + Delta_{3l-2} X - 2 Delta_{3l-1} X
               ~ S_beta((2+2^beta)^{1/beta} h^{1/beta} sigma,
                        rho (2-2^beta)/(2+2^beta), 0),   beta != 1,
  deskew       E_l = Delta_{3l} X + Delta_{3l-2} X - 2^{1/beta} Delta_{3l-1} X
               ~ S_beta(2^{2/beta} h^{1/beta} sigma, 0, (2-2^{1/beta}) h gamma),
               beta != 1.

Blocks never share an increment, so transformed values stay independent and
the effective sample sizes are exactly floor(n/2) and floor(n/3).

The pipeline estimates (beta, sigma) from the symmetrized sample, the skew
(hence the positivity parameter) from signs of the centered sample, and the
drift from the median of the deskewed sample; the drift interval is plug-in
and uncorrected for the use of beta_hat from step 1.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import DomainError, EstimationError, only_row
from .serialize import EstimateReport, check_finite
from .skewed import bipower_beta, sign_block
from .stable_core import (
    IncrementSample,
    _check_conversion_beta,
    positivity_range,
    positivity_to_skew,
    skew_to_positivity,
)
from .symmetric import (
    _odd_count,
    frac_moment_block,
    gamma_confidence_interval,
    log_moment_block,
    median_block,
)

__all__ = [
    "symmetrize",
    "center_triple",
    "deskew_triple",
    "center_skew_factor",
    "deskew_trend_factor",
    "full_pipeline",
]


def symmetrize(sample: IncrementSample) -> IncrementSample:
    """Non-overlapping pairwise differences Delta_{2l} X - Delta_{2l-1} X,
    l = 1..floor(n/2): symmetric stable of scale 2^{1/beta} sigma, zero
    trend, any beta."""
    x = sample.values
    n2 = x.size // 2
    if n2 < 1:
        raise DomainError("need at least 2 increments", n=int(x.size))
    with np.errstate(over="ignore"):  # IncrementSample refuses the infs
        vals = x[1:2 * n2:2] - x[0:2 * n2:2]
    return IncrementSample(vals, sample.h)


def _triples(sample: IncrementSample, w: float) -> IncrementSample:
    # Delta_{3l} + Delta_{3l-2} - w Delta_{3l-1}, l = 1..floor(n/3)
    x = sample.values
    n3 = x.size // 3
    if n3 < 1:
        raise DomainError("need at least 3 increments", n=int(x.size))
    with np.errstate(over="ignore"):  # IncrementSample refuses the infs
        vals = x[2:3 * n3:3] + x[0:3 * n3:3] - w * x[1:3 * n3:3]
    return IncrementSample(vals, sample.h)


def center_triple(sample: IncrementSample) -> IncrementSample:
    """Non-overlapping triples Delta_{3l} + Delta_{3l-2} - 2 Delta_{3l-1},
    l = 1..floor(n/3): trend cancels exactly (1 + 1 - 2 = 0) and the skew
    maps to rho (2 - 2^beta)/(2 + 2^beta); requires model beta != 1."""
    return _triples(sample, 2.0)


def deskew_triple(sample: IncrementSample, beta: float) -> IncrementSample:
    """Non-overlapping triples Delta_{3l} + Delta_{3l-2}
    - 2^{1/beta} Delta_{3l-1}: symmetric with trend (2 - 2^{1/beta}) h gamma.

    The identity fails at beta = 1 (the scaling relation carries a
    logarithmic drift there and the trend multiplier 2 - 2^{1/beta}
    vanishes), so beta = 1 is rejected.
    """
    _check_deskew_beta(beta)
    return _triples(sample, 2.0 ** (1.0 / beta))


def _check_deskew_beta(beta: float):
    if not (0.0 < beta <= 2.0) or beta == 1.0:
        raise DomainError("deskew requires beta in (0, 1) or (1, 2]",
                          beta=beta)


def center_skew_factor(beta: float) -> float:
    """Skew multiplier (2 - 2^beta) / (2 + 2^beta) of the centered triple."""
    _check_conversion_beta(beta)
    p = 2.0 ** beta
    return (2.0 - p) / (2.0 + p)


def deskew_trend_factor(beta: float) -> float:
    """Trend multiplier 2 - 2^{1/beta} of the deskewed triple."""
    _check_deskew_beta(beta)
    return 2.0 - 2.0 ** (1.0 / beta)


def _clamp(value: float, lo: float, hi: float, what: str) -> float:
    if value < lo or value > hi:
        warnings.warn(f"{what} {value:.6g} outside [{lo:.6g}, {hi:.6g}]: "
                      "clamped")
        return min(max(value, lo), hi)
    return value


def full_pipeline(sample: IncrementSample, q: float | None = None,
                  p: float | None = None,
                  level: float = 0.95) -> EstimateReport:
    """Three-step estimation of (beta, sigma, p_pos, gamma) for increments
    of a stable process with beta != 1.

    Step 1: symmetrize; log-moment (or fractional-moment at order p when p
    is given) estimation yields beta_hat and the symmetrized scale, divided
    by 2^{1/beta_hat} to recover sigma_hat.

    Step 2: center; the sign statistic of the centered sample estimates the
    transformed positivity parameter, which is inverted through the
    positivity/skew relation at beta_hat and the skew multiplier
    (2 - 2^beta_hat)/(2 + 2^beta_hat) to rho_hat of the original law
    (clamped to [-1, 1] with a warning when the finite-sample value exits
    the admissible range), then mapped back to p_pos_hat.

    Step 3: deskew at beta_hat; the median drift estimate of the deskewed
    sample divided by 2 - 2^{1/beta_hat} recovers gamma_hat.  Its interval
    is plug-in and uncorrected for the step-1 estimation error.

    Each step runs a block core on its transformed sample as a one-row
    block, so the pipeline is a report of its own, not one core on the
    sample.  When q is given, a bipower index estimate at power q on the
    centered sample is recorded in extra as a consistency diagnostic.  An
    estimation failure in step 1 raises with pipeline_step "symmetrize" in
    its context.
    """
    if sample.n < 9:
        raise DomainError("pipeline needs at least 9 increments",
                          n=int(sample.n))

    sym = symmetrize(sample)
    method = "log" if p is None else "frac"
    try:  # steps 2 and 3 raise no EstimationError
        beta_hat, sigma_sym, _ = only_row(
            log_moment_block(sym.values[None], sym.h) if p is None
            else frac_moment_block(sym.values[None], sym.h, p))
        if not (0.0 < beta_hat < 2.0) or beta_hat == 1.0:
            # the skew/positivity inversion degenerates at 1 and 2, so steps
            # 2-3 need an index estimate in (0,1) or (1,2)
            raise EstimationError(
                "index estimate outside the invertible range (0,1) or (1,2)",
                beta_hat=float(beta_hat))
        sigma_hat = sigma_sym / 2.0 ** (1.0 / beta_hat)
        check_finite("pipeline", beta_hat=beta_hat, sigma_hat=sigma_hat)
    except EstimationError as exc:
        exc.context = dict(exc.context, pipeline_step="symmetrize")
        raise

    cen = center_triple(sample)
    (p_cen,) = only_row(sign_block(cen.values[None]))
    lo, hi = positivity_range(beta_hat)
    p_cen_adm = _clamp(p_cen, lo, hi, "centered positivity estimate")
    rho_cen = positivity_to_skew(beta_hat, p_cen_adm)
    rho_hat = _clamp(rho_cen / center_skew_factor(beta_hat), -1.0, 1.0,
                     "skew estimate")
    p_hat = skew_to_positivity(beta_hat, rho_hat)

    des = deskew_triple(sample, beta_hat)
    (gamma_des,) = only_row(median_block(des.values[None], des.h))
    trend = deskew_trend_factor(beta_hat)
    gamma_hat = gamma_des / trend
    # interval for the deskewed drift, mapped through the trend factor;
    # sigma of the deskewed sample is 2^{2/beta} sigma
    ci_des = gamma_confidence_interval(
        gamma_des, beta_hat, 2.0 ** (2.0 / beta_hat) * sigma_hat,
        _odd_count(des.n), sample.h, level)
    ci = tuple(sorted(v / trend for v in ci_des))

    extra = {
        "p_pos_hat": p_hat,
        "rho_hat": rho_hat,
        "level": level,
        "ci_note": "plug-in, uncorrected",
        "step1": {"method": method, "beta_hat": beta_hat,
                  "sigma_hat_symmetrized": sigma_sym,
                  "n": _odd_count(sym.n)},
        "step2": {"p_pos_centered": p_cen, "rho_centered": rho_cen,
                  "n": cen.n},
        "step3": {"gamma_deskewed": gamma_des, "trend_factor": trend,
                  "n": des.n},
    }
    if p is not None:
        extra["p"] = p
    if q is not None:
        try:
            extra["beta_hat_centered"] = bipower_beta(cen, q, p_cen_adm)
        except EstimationError as exc:
            extra["beta_hat_centered"] = None
            extra["beta_hat_centered_error"] = exc.code
        extra["q"] = q
    return EstimateReport(method="pipeline", n=sample.n, h=sample.h,
                          beta_hat=beta_hat, sigma_hat=sigma_hat,
                          gamma_hat=gamma_hat, ci_gamma=ci, extra=extra)
