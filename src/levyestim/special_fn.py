"""Scalar special functions and bracketed root finding.

One home for the Gamma-type functions and the monotone scalar root solver
used by the estimators, so domains, tolerances and failure modes are fixed
in a single place.  All functions are scalar-in, scalar-out and use only
the standard library.  The root solver is a line-for-line port of scipy's
``brentq.c`` on Python floats: it returns the roots and makes the
evaluations ``scipy.optimize.brentq`` would, bit for bit.
"""

from __future__ import annotations

import math
import sys
from typing import Callable

from .errors import DomainError, MaxIterExceeded, NoSignChange

#: Euler-Mascheroni constant to double precision.
EULER_GAMMA = 0.5772156649015329

#: zeta(3) (Apery's constant), entering the third log-moment cumulant.
ZETA3 = 1.2020569031595943


def log_gamma(x: float) -> float:
    """log Gamma(x) for x > 0."""
    if not x > 0.0:
        raise DomainError("log_gamma requires x > 0", x=x)
    return math.lgamma(x)


def log_gamma_ratio(beta: float, r: float) -> float:
    """log{Gamma(1 - r/beta)^2 / Gamma(1 - 2r/beta)}, the beta-dependent part
    of the moment ratios behind the fractional-moment and bipower index
    equations.  Strictly increasing in beta for 0 < 2r < beta.

    Unchecked (plain math.lgamma) because root solvers evaluate it many
    times per solve; callers keep 0 < 2r < beta.
    """
    return 2.0 * math.lgamma(1.0 - r / beta) - math.lgamma(1.0 - 2.0 * r / beta)


# B_2k / (2k) for k = 7, ..., 1: the asymptotic series of psi in 1/x^2
_PSI_SERIES = (1 / 12, -691 / 32760, 1 / 132, -1 / 240, 1 / 252, -1 / 120,
               1 / 12)


def digamma(x: float) -> float:
    """psi(x) = d/dx log Gamma(x) for x > 0.

    psi(x) = psi(x + m) - sum_{j<m} 1/(x + j) carries x to x + m >= 10,
    where log x - 1/(2x) - sum_{k=1}^{7} B_2k / (2k x^2k) is exact to
    rounding.  Within about 1e-15 relative of ``scipy.special.digamma``,
    and 6e-15 absolute on [0.1, 20]; next to psi's root 1.4616..., where
    the value cancels, only the absolute bound holds.
    """
    if not x > 0.0:
        raise DomainError("digamma requires x > 0", x=x)
    shift = 0.0
    while x < 10.0:
        shift += 1.0 / x
        x += 1.0
    z = 1.0 / (x * x)
    series = 0.0
    for coef in _PSI_SERIES:
        series = series * z + coef
    return (math.log(x) - shift) - 0.5 / x - z * series


def overflow_to_inf(fn: Callable[..., float], *args) -> float:
    """fn(*args), or inf where the result overflows a double.

    math.exp, math.pow and float ** raise OverflowError there instead of
    returning inf; this keeps their value bit for bit otherwise, so an
    overflow becomes a non-finite number that a report refuses by name.
    """
    try:
        return fn(*args)
    except OverflowError:
        return math.inf


# Brent tolerances and iteration budget of every root solve; _RTOL is
# brentq's floor, 4 machine epsilons
_XTOL = 1e-12
_RTOL = 4 * sys.float_info.epsilon
_MAXITER = 200


def find_root_monotone(f: Callable[[float], float], lo: float,
                       hi: float) -> float:
    """Root of a continuous monotone f on [lo, hi] by Brent's method.

    The bracket ends must be finite with lo < hi (DomainError otherwise),
    and f(lo) and f(hi) must differ in sign; an exact zero at an endpoint is
    returned as is.  Raises NoSignChange when the bracket does not straddle
    a root, DomainError (naming x) when f returns NaN at a point Brent's
    iteration uses, and MaxIterExceeded when the iteration budget runs
    out.  Each end is evaluated once: Brent's first two evaluations, at lo
    and hi, reuse the values of the sign check.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError("bracket endpoints must be finite", lo=lo, hi=hi)
    if not lo < hi:
        raise DomainError("bracket requires lo < hi", lo=lo, hi=hi)
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise NoSignChange("f has the same sign at both bracket endpoints",
                           lo=lo, hi=hi, f_lo=flo, f_hi=fhi)
    return float(_brent(f, lo, hi, flo, fhi))


def _nan_at(x: float, lo: float, hi: float) -> DomainError:
    return DomainError("f returned NaN", x=x, lo=lo, hi=hi)


def _brent(f, xpre, xcur, fpre, fcur):
    # scipy's brentq.c, statement for statement and in its operation order,
    # entered after its sign check with the end values known; raises where
    # brentq's NaN guard does.  The bracket keeps [xcur, xblk] around the
    # root, xpre is the previous iterate and spre/scur the last two steps.
    lo, hi = xpre, xcur
    if fpre != fpre:
        raise _nan_at(xpre, lo, hi)
    if fcur != fcur:
        raise _nan_at(xcur, lo, hi)
    xblk = fblk = spre = scur = 0.0
    for _ in range(_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (_XTOL + _RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate; where a product underflows to zero, C's
                # division gives inf or NaN, which fails the step test
                # below, so brentq bisects
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                try:
                    stry = (-fcur * (fblk * dblk - fpre * dpre)
                            / (dblk * dpre * (fblk - fpre)))
                except ZeroDivisionError:
                    stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
        if fcur != fcur:
            raise _nan_at(xcur, lo, hi)
    raise MaxIterExceeded("root search did not converge",
                          iterations=_MAXITER, lo=lo, hi=hi)
