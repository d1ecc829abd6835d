"""Scalar special functions and bracketed root finding.

One home for the Gamma-type functions and the monotone scalar root solver
used by the estimators, so domains, tolerances and failure modes are fixed
in a single place.  All functions are scalar-in, scalar-out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

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


# Asymptotic tail of psi(x) = log x - 1/(2x) - sum_k c_k x^{-2k} with
# c_k = B_{2k}/(2k); truncated after x^{-12} the error is below 1e-11 once
# the recurrence psi(x) = psi(x+1) - 1/x has lifted the argument to x >= 6.
_PSI_TAIL = (
    -1.0 / 12.0,
    1.0 / 120.0,
    -1.0 / 252.0,
    1.0 / 240.0,
    -1.0 / 132.0,
    691.0 / 32760.0,
)


def digamma(x: float) -> float:
    """psi(x) = d/dx log Gamma(x) for x > 0."""
    if not x > 0.0:
        raise DomainError("digamma requires x > 0", x=x)
    acc = 0.0
    while x < 6.0:
        acc -= 1.0 / x
        x += 1.0
    z = 1.0 / (x * x)
    tail = 0.0
    for c in reversed(_PSI_TAIL):
        tail = (tail + c) * z
    return acc + math.log(x) - 0.5 / x + tail


@dataclass(frozen=True)
class RootBracket:
    """Interval [lo, hi] expected to straddle a root, plus solver budget."""

    lo: float
    hi: float
    tol: float = 1e-12
    max_iter: int = 200

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise DomainError("bracket endpoints must be finite",
                              lo=self.lo, hi=self.hi)
        if not self.lo < self.hi:
            raise DomainError("bracket requires lo < hi",
                              lo=self.lo, hi=self.hi)
        if not self.tol > 0.0:
            raise DomainError("bracket tolerance must be positive",
                              tol=self.tol)
        if self.max_iter < 1:
            raise DomainError("bracket iteration budget must be >= 1",
                              max_iter=self.max_iter)


def find_root_monotone(f: Callable[[float], float],
                       bracket: RootBracket) -> float:
    """Root of a continuous monotone f on [lo, hi] by Brent's method.

    f(lo) and f(hi) must differ in sign; an exact zero at an endpoint is
    returned as is.  Raises NoSignChange when the bracket does not straddle
    a root and MaxIterExceeded when the iteration budget runs out.  Each end
    is evaluated once: Brent's first two evaluations, at lo and hi, reuse
    the values of the sign check.
    """
    lo, hi = bracket.lo, bracket.hi
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

    root, info = brentq(g, lo, hi, xtol=bracket.tol,
                        maxiter=bracket.max_iter, full_output=True,
                        disp=False)
    if not info.converged:
        raise MaxIterExceeded("root search did not converge",
                              iterations=info.iterations, lo=lo, hi=hi)
    return float(root)
