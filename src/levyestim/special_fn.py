"""Scalar special functions and bracketed root finding.

One home for the Gamma-type functions and the monotone scalar root solver
used by the estimators, so domains, tolerances and failure modes are fixed
in a single place.  All functions are scalar-in, scalar-out; psi is
scipy.special.digamma behind the package's domain check.  The root solver
is a line-for-line port of scipy's ``brentq.c`` on Python floats: it
returns the roots and makes the evaluations ``scipy.optimize.brentq`` would,
bit for bit, without loading ``scipy.optimize`` (about a third of the
package's import time).
"""

from __future__ import annotations

import math
import sys
from typing import Callable

from scipy import special

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


def digamma(x: float) -> float:
    """psi(x) = d/dx log Gamma(x) for x > 0, from scipy.special.digamma."""
    if not x > 0.0:
        raise DomainError("digamma requires x > 0", x=x)
    return float(special.digamma(x))


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
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
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
