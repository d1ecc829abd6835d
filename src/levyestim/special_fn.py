"""Scalar special functions and bracketed root finding.

One home for the Gamma-type functions and the monotone scalar root solver
used by the estimators, so domains, tolerances and failure modes are fixed
in a single place.  All functions are scalar-in, scalar-out; psi is
scipy.special.digamma behind the package's domain check.
"""

from __future__ import annotations

import math
from typing import Callable

from scipy import special
from scipy.optimize import brentq

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


# Brent tolerance and iteration budget of every root solve
_XTOL = 1e-12
_MAXITER = 200


def find_root_monotone(f: Callable[[float], float], lo: float,
                       hi: float) -> float:
    """Root of a continuous monotone f on [lo, hi] by Brent's method.

    The bracket ends must be finite with lo < hi (DomainError otherwise),
    and f(lo) and f(hi) must differ in sign; an exact zero at an endpoint is
    returned as is.  Raises NoSignChange when the bracket does not straddle
    a root and MaxIterExceeded when the iteration budget runs out.  Each end
    is evaluated once: Brent's first two evaluations, at lo and hi, reuse
    the values of the sign check.
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

    def g(x: float) -> float:
        if x == lo:
            return flo
        if x == hi:
            return fhi
        return f(x)

    root, info = brentq(g, lo, hi, xtol=_XTOL, maxiter=_MAXITER,
                        full_output=True, disp=False)
    if not info.converged:
        raise MaxIterExceeded("root search did not converge",
                              iterations=info.iterations, lo=lo, hi=hi)
    return float(root)
