"""Symmetric stable density, its y-derivative, and information integrals.

phi_beta(y; sigma) = phi_beta(y / sigma) / sigma is the density of
S_beta(sigma), characteristic function exp{-(sigma |u|)^beta}.  At unit
scale, z > 0 and beta != 1, Nolan (1997, after Zolotarev) writes it over a
finite interval, and integrating the g^2 e^{-g} part of its z-derivative by
parts (d(g e^{-g}) = L' g (1 - g) e^{-g} dtheta, L = log V) gives

    phi_beta(z) = beta / (pi |beta - 1| z) int_0^{pi/2} g e^{-g} dtheta,
    phi_beta'(z) = beta / (pi |beta - 1| z^2)
                   int_0^{pi/2} g e^{-g} (a L'' - L'^2) / L'^2 dtheta,
    g = z^a V(theta),  a = beta / (beta - 1),
    V(theta) = (cos theta / sin(beta theta))^a cos((beta-1) theta) / cos theta.

The direct weight a - 1 - a g cancels two O(|a|) integrals as beta -> 1;
this one is O(1).  With T = tan theta, C = cot(beta theta),
R = tan((beta-1) theta) and D = T + beta^2 C + (beta-1)^2 R = -(beta-1) L',
it is [3 beta^2 (beta-1) - 2 D (D - beta^2 C) - (beta-1) (T - (beta-1) R)^2]
/ D^2, csc^2 - cot^2 = 1 having cancelled.  g e^{-g} peaks once, at g = 1;
the kernel (_nolan) finds that theta* for every z by a safeguarded Newton
solve in log(theta / (pi/2 - theta)), splits [0, pi/2] there and sums
tanh-sinh nodes on both panels, _TS_NODES per panel by beta (each count
within ~3e-12 of 4097 nodes on z in [1e-3, 30]; 1025 next to beta = 1,
where the peak narrows like 1/|a|).  The abscissae span t in [-3.5, 3.5]:
at 3.15 the outermost nodes stopped ~1e-16 panel widths short of the peak
at the panels' shared end, leaving phi off by ~ -2e-17 / (|beta - 1| z),
-2.1e-10 at beta = 0.9999, z = 1e-3.  Chunks hold at most 2^13 points x
nodes, and a kernel call allocates one workspace of nine chunk-sized
arrays: every step of every chunk writes into it in place, in the same
operations and order as fresh temporaries would take, so no step
allocates (freed temporaries would shrink the heap, and the next chunk
would fault its pages back in).

Next to beta = 2 the by-parts weight is the worse one: a -> 2, while the
least D falls to 0.31, 0.098 and 0.031 at beta = 1.99, 1.999 and 1.9999,
and the by-parts phi' grows noisy like (2 - beta)^-2 (residual of a
smooth fit on z in [1.5, 1.6]: 5e-14, 6e-12, 6e-10; phi's stays at
1e-15), enough to stall the information integrals.  So from beta = 1.98
(_DIRECT_BETA), where both weights are ~2e-14 from the Fourier integral,
phi' takes the direct weight.

Each distinct |y|/sigma goes once per call to the first route that
applies, and every route yields the pair (phi, phi'):

* z < 1e-3: seven terms of the series about 0 (Zolotarev 1986),
  phi_beta(z) = (pi beta)^{-1} sum_k (-1)^k Gamma((2k+1)/beta) z^{2k}/(2k)!,
  and its derivative, started at phi_zero so that z = 0 returns it exactly;
  convergent for beta > 1, asymptotic below (next term < 1e-18 at 0.5);
* |beta - 1| < 5e-6: the first-order expansion about the Cauchy law,
  p = 1 - i z, exactly the Cauchy pair at beta = 1,
      phi_beta(z) = (1 / (1 + z^2) - (beta-1) Re[(psi(2) - log p) / p^2]) / pi,
      phi_beta'(z) = (-2 z / (1 + z^2)^2
                      + (beta-1) Im[2 (psi(3) - log p) / p^3]) / pi;
  its error grows like (beta - 1)^2 and the kernel's like 1/|beta - 1|
  (a log z + log V cancels at the peak); the bound balances them at ~3e-11;
* z > 30 (z > 1e76 next to beta = 1): the large-argument expansion and its
  derivative,
  phi_beta(z) = (1/pi) sum_{m>=1} (-1)^{m+1} Gamma(1 + m beta) / m!
                sin(m pi beta / 2) z^{-1 - m beta},
  summed again in logs with sigma folded into each term where a unit-scale
  value falls below the normal range (phi(10; 1e-160) ~ 1e-243, while
  phi(1e161) underflows);
* otherwise the kernel.

No route runs an adaptive or oscillatory (QAWO) quadrature.  Domain: beta
in [0.5, 2), finite sigma > 0.  Against QAWO quadrature of the Fourier
integral the worst errors for |y| <= 50 are 4e-11 (phi) and 3e-11 (phi');
for beta in [1.98, 1.999999] phi' is within 1e-13 of a 30-digit Fourier
reference on z in [1e-3, 30] (the by-parts weight is 9e-10 off at
beta = 1.9999).

H_beta = int (phi + y phi')^2 / phi dy and M_beta = int (phi')^2 / phi dy
(sigma = 1) split at |y| = 30 into a core on y = sinh t, t in
[0, asinh 30], and a series tail on y = 30 e^t.  The integrands decay like
|y|^{-beta-1}; both substitutions make that decay exponential in t, and
sinh t ~ t keeps the core's smooth start at 0.  Each part is one batched
adaptive Gauss-Kronrod 10-21 panel rule (QUADPACK qk21): a round evaluates
(phi, phi') at every open panel's nodes in one call and bisects a panel
whose Kronrod-Gauss difference exceeds its width's share of
max(epsabs, 1e-9 |estimate|) (epsabs 1e-11 core, 1e-12 tail).  The first
panels are graded so that one round usually suffices: four core panels
(84 points, _CORE_EDGES) finish in the first round, one kernel call, for
beta in [0.93, 1.95), and five (105 points) for beta in [1.95, 2), where
the Gaussian fall meets the tail further out as beta -> 2; four tail
panels finish in one round for beta >= 0.85.  Below, the rule bisects
toward t = 0 (at most 6 core rounds, at beta = 0.5).  Running out of the
400-panel budget raises QuadratureError (quadrature_error), the only
quadrature failure left; its interval is the one in t.  Nothing is cached
across calls except the tanh-sinh node tables.
"""

from __future__ import annotations

import functools
import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, QuadratureError, positive
from .special_fn import EULER_GAMMA, log_gamma, overflow_to_inf

__all__ = ["phi_pair", "phi_zero", "FisherInfo", "fisher_matrix",
           "median_asymptotic_sd"]

# crossover from the integral forms to the tail expansion
_Y_SERIES = 30.0
_SERIES_TERMS = 8
# floor of phi where the information integrands divide by it
_PHI_FLOOR = 1e-300
_HALF_PI = 0.5 * math.pi

# the series about 0 below _Z_SMALL, the expansion about the Cauchy law
# within _NEAR_ONE of beta = 1
_Z_SMALL = 1e-3
_SMALL_TERMS = 7
_NEAR_ONE = 5e-6
# the tail expansion replaces the one about the Cauchy law above this z,
# short of ~5e76, where its (1 + z^2)^2 overflows
_Z_CAUCHY = 1e76
# tanh-sinh nodes per panel as (upper beta bound, count), and the abscissae
# t in [-_TS_T, _TS_T] (outermost node ~3e-23 panel widths from the end)
_TS_NODES = ((0.6, 177), (0.7, 257), (0.8, 385), (0.9, 513), (0.98, 641),
             (1.0005, 1025), (1.02, 513), (1.1, 321), (1.2, 225), (1.3, 193),
             (1.5, 161), (1.95, 129), (2.0, 257))
_TS_T = 3.5
# phi' takes the direct weight from here on, the by-parts one below
_DIRECT_BETA = 1.98
# points x nodes per chunk of the kernel
_BLOCK = 1 << 13
# panels one information integral may evaluate before giving up, and the
# relative tolerance (scalar quad's default) next to each absolute one
_PANEL_LIMIT = 400
_EPSREL = 1e-9
# first panels of the core in t = asinh y, t in [0, asinh 30], as (upper
# beta bound, edges): the fewest whose first-round Kronrod-Gauss
# differences stay within 0.55 of their tolerance share for every beta in
# [0.95, 1.95) (a 0.0025 grid), and within 0.71 on [1.95, 2) (2 - beta
# log-spaced down to 1e-7), where the Gaussian fall meets the tail further
# out as beta -> 2; below 0.93 the rule bisects toward t = 0
_CORE_END = math.asinh(_Y_SERIES)
_CORE_EDGES = ((1.95, np.array([0.0, 1.092, 2.116, 2.662, _CORE_END])),
               (2.0, np.array([0.0, 1.6, 2.32, 2.66, 2.92, _CORE_END])))
# first panels of the tail t = log(y / 30) in [0, 60 / beta + 10], graded
# toward t = 0, where the integrand is largest; the last edge is per beta
_TAIL_EDGES = (0.0, 0.75, 5.0, 18.0)

# Gauss-Kronrod 10-21 rule on [-1, 1] (QUADPACK qk21), to 33 decimals from
# the Legendre and Stieltjes polynomials; the Gauss nodes are the
# odd-indexed Kronrod nodes, and 0 is not among them
_XGK = np.array([0.995657163025808080735527280689003,
                 0.973906528517171720077964012084452,
                 0.930157491355708226001207180059508,
                 0.865063366688984510732096688423493,
                 0.780817726586416897063717578345042,
                 0.679409568299024406234327365114874,
                 0.562757134668604683339000099272694,
                 0.433395394129247190799265943165784,
                 0.294392862701460198131126603103866,
                 0.148874338981631210884826001129720, 0.0])
_WGK = np.array([0.011694638867371874278064396062192,
                 0.032558162307964727478818972459390,
                 0.054755896574351996031381300244580,
                 0.075039674810919952767043140916190,
                 0.093125454583697605535065465083366,
                 0.109387158802297641899210590325805,
                 0.123491976262065851077958109831074,
                 0.134709217311473325928054001771707,
                 0.142775938577060080797094273138717,
                 0.147739104901338491374841515972068,
                 0.149445554002916905664936468389821])
_WG = np.array([0.066671344308688137593568809893332,
                0.149451349150580593145776339657697,
                0.219086362515982043995534934228163,
                0.269266719309996355091226921569469,
                0.295524224714752870173892994651338])
_GK_X = np.concatenate([-_XGK, _XGK[-2::-1]])
_GK_WK = np.concatenate([_WGK, _WGK[-2::-1]])
_GK_WG = np.concatenate([_WG, _WG[::-1]])


def _check_density_domain(beta: float, sigma: float):
    if not (0.5 <= beta < 2.0):
        raise DomainError("density index beta must lie in [0.5, 2)", beta=beta)
    positive("sigma", sigma)


def _series_terms(beta: float):
    """(c_m, e_m) for m = 1.._SERIES_TERMS: pi phi_beta(z) = sum c_m z^-e_m
    in the tail expansion."""
    for m in range(1, _SERIES_TERMS + 1):
        c = math.exp(log_gamma(1.0 + m * beta) - log_gamma(m + 1.0))
        c *= math.sin(0.5 * m * math.pi * beta)
        yield (-1.0) ** (m + 1) * c, 1.0 + m * beta


def _series(z, beta: float) -> np.ndarray:
    """Rows (phi_beta(z), phi_beta'(z)) at large z > 0 (scalar or array)
    from the tail expansion."""
    f = d = 0.0
    for c, e in _series_terms(beta):
        f = f + c * z ** -e
        d = d + (c * -e) * z ** -(e + 1.0)
    return np.array([f, d]) / math.pi


def _series_folded(y: np.ndarray, beta: float, sigma: float) -> np.ndarray:
    """Rows (phi_beta(y; sigma), d/dy phi_beta(y; sigma)) at y > 0, y / sigma
    large, from the tail expansion summed in logs with sigma folded into
    each term, log(c z^-e / sigma) = log c - e log z - log sigma: no term
    underflows at unit scale before 1/sigma lifts it."""
    log_sigma = math.log(sigma)
    log_z = np.log(y) - log_sigma
    f = d = 0.0
    for c, e in _series_terms(beta):
        log_c = math.log(abs(c) / math.pi)
        sign = math.copysign(1.0, c)
        f = f + sign * np.exp(log_c - e * log_z - log_sigma)
        d = d - sign * np.exp(log_c + math.log(e) - (e + 1.0) * log_z
                              - 2.0 * log_sigma)
    return np.array([f, d])


def _small(z: np.ndarray, beta: float) -> np.ndarray:
    """Rows (phi_beta(z), phi_beta'(z)) at small z >= 0 from the series
    about 0, started at phi_zero so that z = 0 returns it exactly."""
    f, d = np.full_like(z, phi_zero(beta)), np.zeros_like(z)
    for k in range(1, _SMALL_TERMS):
        c = (-1.0) ** k * math.gamma((2 * k + 1) / beta) / (math.pi * beta)
        f = f + (c / math.factorial(2 * k)) * z ** (2 * k)
        d = d + (c / math.factorial(2 * k - 1)) * z ** (2 * k - 1)
    return np.array([f, d])


def _near_cauchy(z: np.ndarray, beta: float) -> np.ndarray:
    """Rows (phi_beta(z), phi_beta'(z)) for beta next to 1: the Cauchy
    density and its derivative plus (beta - 1) times their beta-derivatives
    at beta = 1, exactly the Cauchy rows at beta = 1."""
    q = 1.0 + z * z
    p = 1.0 - 1j * z
    r = 1.0 / p
    log_p = np.log(p)
    psi2 = 1.0 - EULER_GAMMA  # psi(2), and psi(3) = psi(2) + 1/2
    slope = np.array([-((psi2 - log_p) * r * r).real,
                      (2.0 * (psi2 + 0.5 - log_p) * r * r * r).imag])
    cauchy = np.array([1.0 / (math.pi * q), -2.0 * z / (math.pi * q * q)])
    return cauchy + ((beta - 1.0) / math.pi) * slope


@functools.cache
def _tanh_sinh(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """n tanh-sinh nodes on [0, 1] as (s, 1 - s, weight), both offsets
    computed directly so nodes near either end keep full precision."""
    t = np.linspace(-_TS_T, _TS_T, n)
    v = _HALF_PI * np.sinh(np.abs(t))
    d = 1.0 / (1.0 + np.exp(2.0 * v))  # distance to the nearer end
    s = np.where(t < 0.0, d, 1.0 - d)
    sc = np.where(t < 0.0, 1.0 - d, d)
    w = (t[1] - t[0]) * _HALF_PI * np.cosh(t) / (2.0 * np.cosh(v) ** 2)
    return s, sc, w


def _log_v(theta, comp, beta: float, a: float, out: np.ndarray):
    """Write log V(theta) to out[0] and the three terms t_c = 2 tan theta,
    t_b = 2 beta^2 cot(beta theta), t_r = 2 (beta-1)^2 tan((beta-1) theta)
    of -2 (beta-1) d/dtheta log V to out[1], out[2], out[3], with comp =
    pi/2 - theta.  out holds seven arrays shaped like theta; out[4:] is
    scratch.  theta and comp are only read, and every step writes in
    place, so a call allocates no array."""
    # t = tan(x/2) gives 2 csc x = 1/t + t, 2 cot x = 1/t - t, 2 tan x =
    # 4t/(1-t^2), cos x = (1-t^2)/(1+t^2) to a few ulp for 0 < x < pi; tan
    # takes 2.3 ns per element, sin and cos 11-14 (numpy 2.4, AVX-512 core)
    logv, t_c, t_b, t_r, s0, s1, s2 = out
    b = beta - 1.0
    tb = np.tan(np.multiply(theta, 0.5 * beta, out=logv), out=logv)
    tc = np.tan(np.multiply(comp, 0.5, out=t_c), out=t_c)
    tr = np.tan(np.multiply(theta, 0.5 * b, out=t_r), out=t_r)
    tr2 = np.multiply(tr, tr, out=s0)
    cos_r = np.subtract(1.0, tr2, out=s1)  # (1 + tr^2) cos((beta-1) theta)
    np.add(2.0, np.multiply(2.0, tr2, out=s0), out=s0)  # 2 + 2 tr^2
    np.divide(np.multiply(4.0 * b * b, tr, out=t_r), cos_r, out=t_r)
    inv_c = np.divide(1.0, tc, out=t_b)
    csc_c = np.add(inv_c, tc, out=s2)  # 2 / cos(theta)
    np.subtract(inv_c, tc, out=t_c)
    # V = (cos theta / sin(beta theta))^a cos((beta-1) theta) / cos theta,
    # as a log((1/tb + tb) / csc_c) + log(csc_c cos_r / (2 + 2 tr^2))
    np.log(np.divide(np.multiply(csc_c, cos_r, out=s1), s0, out=s1), out=s1)
    inv_b = np.divide(1.0, tb, out=s0)
    np.multiply(beta * beta, np.subtract(inv_b, tb, out=t_b), out=t_b)
    np.add(inv_b, tb, out=logv)
    np.log(np.divide(logv, csc_c, out=logv), out=logv)
    np.add(np.multiply(a, logv, out=logv), s1, out=logv)


def _theta_star(logz: np.ndarray,
                beta: float) -> tuple[np.ndarray, np.ndarray]:
    """(theta, pi/2 - theta) with log V(theta) = -a log z, per point.

    Newton steps on u = log(theta / (pi/2 - theta)), where log V is close
    to linear, kept inside a bisection bracket; a point stops once its step
    falls below 1e-10, so its result does not depend on the other points.
    """
    b = beta - 1.0
    a = beta / b
    sign = 1.0 if beta > 1.0 else -1.0  # log V decreases in theta iff beta > 1
    target = -a * logz
    u = np.zeros_like(logz)
    lo = np.full_like(logz, -40.0)
    hi = np.full_like(logz, 40.0)
    live = np.arange(logz.size)
    work = np.empty((7, logz.size))
    for _ in range(100):
        ul = u[live]
        theta = _HALF_PI / (1.0 + np.exp(-ul))
        comp = _HALF_PI / (1.0 + np.exp(ul))
        out = work[:, :live.size]
        _log_v(theta, comp, beta, a, out)
        f = out[0] - target[live]
        right = sign * f > 0.0
        lo[live] = np.where(right, ul, lo[live])
        hi[live] = np.where(right, hi[live], ul)
        dlogv = -sum(out[1:4]) / (2.0 * b)
        step = f / (dlogv * theta * comp / _HALF_PI)
        un = ul - step
        inside = (un >= lo[live]) & (un <= hi[live])
        u[live] = np.where(inside, un, 0.5 * (lo[live] + hi[live]))
        live = live[~(inside & (np.abs(step) < 1e-10))]
        if not live.size:
            break
    return _HALF_PI / (1.0 + np.exp(-u)), _HALF_PI / (1.0 + np.exp(u))


def _nolan(z: np.ndarray, beta: float) -> np.ndarray:
    """Rows (phi_beta(z), phi_beta'(z)) at unit scale for an array of z > 0,
    beta != 1, from Nolan's integral (module docstring)."""
    b = beta - 1.0
    a = beta / b
    n = next(count for bound, count in _TS_NODES if beta < bound)
    direct = beta >= _DIRECT_BETA
    s, sc, w = _tanh_sinh(n)
    logz = np.log(z)
    star, comp_star = _theta_star(logz, beta)
    sums = np.empty((2, z.size))
    rows = max(1, _BLOCK // n)
    # every step of every chunk writes into this one workspace: theta, comp,
    # the seven arrays _log_v fills, of which the last three are free after
    # it; a last, partial chunk takes the leading rows, still C-contiguous,
    # so each row sums in the same pairwise order
    work = np.empty((9, min(rows, z.size), n))
    shift = 6.0 * beta * beta * b
    for i in range(0, z.size, rows):
        t = star[i:i + rows, None]
        c = comp_star[i:i + rows, None]
        alogz = a * logz[i:i + rows, None]
        chunk = work[:, :t.shape[0]]
        theta, comp, g, t_c, t_b, t_r, e, lead, tmp = chunk
        f0 = f1 = 0.0
        # panels [0, theta*] and [theta*, pi/2] as (left end, width,
        # distance of the right end from pi/2)
        for left, width, right in ((0.0, t, c), (t, c, 0.0)):
            np.add(left, np.multiply(width, s, out=theta), out=theta)
            np.add(right, np.multiply(width, sc, out=comp), out=comp)
            _log_v(theta, comp, beta, a, chunk[2:])
            # g = exp(min(a log z + log V, 7)); exp(-e^7) underflows to 0
            np.exp(np.minimum(np.add(alogz, g, out=g), 7.0, out=g), out=g)
            np.multiply(np.exp(np.negative(g, out=e), out=e), g, out=e)
            np.multiply(e, np.multiply(w, width, out=tmp), out=e)
            f0 = f0 + e.sum(axis=1)
            if direct:  # weight a - 1 - a g, as a - 1 and -a times g
                f1 = f1 + np.multiply(e, g, out=tmp).sum(axis=1)
                continue
            # by-parts weight 2 (top / lead^2 - 1), lead = 2 D (module doc),
            # top = t_b lead + 6 beta^2 b - (b / 2) skew^2
            np.add(np.add(t_c, t_b, out=lead), t_r, out=lead)
            skew = np.subtract(t_c, np.divide(t_r, b, out=t_r), out=t_c)
            np.multiply(np.multiply(0.5 * b, skew, out=tmp), skew, out=tmp)
            top = np.add(np.multiply(t_b, lead, out=t_b), shift, out=t_b)
            np.subtract(top, tmp, out=top)
            np.divide(np.multiply(e, top, out=top),
                      np.multiply(lead, lead, out=lead), out=top)
            f1 = f1 + top.sum(axis=1)
        sums[0, i:i + rows] = f0
        sums[1, i:i + rows] = ((a - 1.0) * f0 - a * f1 if direct
                               else 2.0 * (f1 - f0))
    scale = beta / (math.pi * abs(b))
    return scale * sums / np.array([z, z * z])


def _unit(z: np.ndarray, beta: float) -> np.ndarray:
    """Rows (phi_beta(z), phi_beta'(z)) at unit scale for z >= 0; a route
    with no points is not called."""
    out = np.empty((2, z.size))
    small = z < _Z_SMALL
    near_one = abs(beta - 1.0) < _NEAR_ONE
    tail = z > (_Z_CAUCHY if near_one else _Y_SERIES)
    middle = _near_cauchy if near_one else _nolan
    for route, points in ((_small, small), (_series, tail),
                          (middle, ~(small | tail))):
        if points.any():
            out[:, points] = route(z[points], beta)
    return out


def _eval(y, beta: float, sigma: float):
    arr = np.asarray(y, dtype=float)
    bad = np.flatnonzero(~np.isfinite(arr))
    if bad.size:
        raise DomainError("density argument y must be finite",
                          first_index=int(bad[0]), count=int(bad.size))
    flat = arr.ravel()
    with np.errstate(over="ignore"):  # a subnormal sigma saturates to inf
        z = np.abs(flat) / sigma
    if np.any(z > 50.0):
        warnings.warn("density evaluated at |y|/sigma > 50: series tail "
                      "accuracy only", stacklevel=3)
    zs, inverse = np.unique(z, return_inverse=True)
    unit = _unit(zs, beta)
    f, d = unit[:, inverse]
    # one power of sigma at a time: sigma^2 may underflow to 0
    with np.errstate(over="ignore"):
        f /= sigma
        d = d / sigma / sigma
    # a tail value below the normal range at unit scale is summed again with
    # sigma folded in: phi(10; 1e-160) ~ 1e-243 but phi(1e161) underflows
    lost = (np.abs(unit) < sys.float_info.min) & (zs > _Y_SERIES)
    if lost.any():
        lost = lost[:, inverse]
        hit = np.flatnonzero(lost.any(axis=0))
        folded = _series_folded(np.abs(flat[hit]), beta, sigma)
        f[hit] = np.where(lost[0, hit], folded[0], f[hit])
        d[hit] = np.where(lost[1, hit], folded[1], d[hit])
    d = np.where(flat < 0.0, -d, d)
    if arr.ndim == 0:
        return float(f[0]), float(d[0])
    return f.reshape(arr.shape), d.reshape(arr.shape)


def phi_pair(y, beta: float, sigma: float = 1.0):
    """(phi_beta(y; sigma), d/dy phi_beta(y; sigma)) at y (scalar or array)
    from one evaluation of each distinct |y|/sigma.

    Scale enters through phi_beta(y; sigma) = sigma^{-1} phi_beta(y / sigma).
    """
    _check_density_domain(beta, sigma)
    return _eval(y, beta, sigma)


def phi_zero(beta: float) -> float:
    """Closed-form mode value phi_beta(0) = Gamma(1 + 1/beta) / pi at unit
    scale, computed as Gamma(1/beta) / (beta pi)."""
    _check_density_domain(beta, 1.0)
    return math.gamma(1.0 / beta) / (beta * math.pi)


# ---------------------------------------------------------------------------
# information integrals

def _panel_integral(f, edges: np.ndarray, epsabs: float,
                    beta: float) -> np.ndarray:
    """int f over [edges[0], edges[-1]] by adaptive Gauss-Kronrod 10-21
    panels starting from the given ones; f maps a 1-d node array to a
    (2, nodes) array, once per round for every open panel."""
    a, b = float(edges[0]), float(edges[-1])
    lo, hi = edges[:-1], edges[1:]
    total = np.zeros(2)
    used = 0
    while lo.size:
        used += lo.size
        if used > _PANEL_LIMIT:
            raise QuadratureError("panel quadrature did not converge",
                                  panels=used, beta=beta, interval=[a, b])
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        vals = f((mid[:, None] + half[:, None] * _GK_X).ravel())
        vals = vals.reshape(2, lo.size, _GK_X.size)
        kronrod = (vals * _GK_WK).sum(axis=2) * half
        gauss = (vals[:, :, 1::2] * _GK_WG).sum(axis=2) * half
        estimate = total + kronrod.sum(axis=1)
        tol = np.maximum(epsabs, _EPSREL * np.abs(estimate))[:, None]
        share = (hi - lo) / (b - a)
        done = np.all(np.abs(kronrod - gauss) <= tol * share, axis=0)
        total += kronrod[:, done].sum(axis=1)
        lo, mid, hi = lo[~done], mid[~done], hi[~done]
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
    return total


def _information(beta: float) -> tuple[float, float]:
    """(H_beta, M_beta) from one panel rule over the core and one over the
    tail; fisher_matrix has checked beta."""
    def pair(f: np.ndarray, d: np.ndarray, y: np.ndarray) -> np.ndarray:
        f = np.maximum(f, _PHI_FLOOR)
        g = f + y * d
        return np.array([g * g / f, d * d / f])

    # core on y = sinh t: the integrand's y^{-beta-1} decay becomes
    # exponential in t, while sinh t ~ t keeps the smooth start at 0
    def core(t: np.ndarray) -> np.ndarray:
        y = np.sinh(t)
        return pair(*_unit(y, beta), y) * np.cosh(t)

    edges = next(e for bound, e in _CORE_EDGES if beta < bound)
    core_val = _panel_integral(core, edges, 1e-11, beta)

    # tail on y = 30 e^t: the integrand decays like y^{-beta-1}, so the
    # substitution gives an exponentially decaying smooth integrand
    def tail_log(t: np.ndarray) -> np.ndarray:
        y = _Y_SERIES * np.exp(t)
        return pair(*_series(y, beta), y) * y

    tail_edges = np.array([*_TAIL_EDGES, 60.0 / beta + 10.0])
    tail_val = _panel_integral(tail_log, tail_edges, 1e-12, beta)
    h, m = 2.0 * (core_val + tail_val)
    return float(h), float(m)


@dataclass(frozen=True)
class FisherInfo:
    """Fisher information of (beta, sigma, gamma) for symmetric stable
    increments, in the natural rate normalization.  h_value is
    H_beta = int (phi + y phi')^2 / phi dy and m_value is
    M_beta = int (phi')^2 / phi dy, both at sigma = 1 (H_1 = M_1 = 1/2)."""

    beta: float
    sigma: float
    h_value: float
    m_value: float

    @property
    def matrix(self) -> np.ndarray:
        """I(theta) = [[H/beta^4, H/(sigma beta^2), 0],
        [H/(sigma beta^2), H/sigma^2, 0], [0, 0, M/sigma^2]]."""
        beta, sigma = np.float64(self.beta), np.float64(self.sigma)
        out = np.zeros((3, 3))
        with np.errstate(all="ignore"):  # saturate to 0 / inf
            w = np.array([1.0 / beta ** 2, 1.0 / sigma])
            out[:2, :2] = self.h_value * np.outer(w, w)
            out[2, 2] = self.m_value / sigma ** 2
        return out

    def top_left_det(self) -> float:
        """det of the (beta, sigma) block.  The block is the rank-one outer
        product H w w^T, so the determinant vanishes identically."""
        return 0.0


def fisher_matrix(beta: float, sigma: float) -> FisherInfo:
    """Fisher information object at (beta, sigma); the (beta, sigma) block
    is singular for every parameter value, which is why joint maximum
    likelihood in the usual normalization degenerates."""
    _check_density_domain(beta, sigma)
    return FisherInfo(beta, sigma, *_information(beta))


def median_asymptotic_sd(beta: float, sigma: float = 1.0) -> float:
    """Asymptotic standard deviation of the normalized sample median,
    1 / (2 phi_beta(0; sigma)) = sigma pi / (2 Gamma(1 + 1/beta)).

    Closed form, so any finite beta > 0 and sigma > 0 are accepted: plug-in
    intervals must stay defined when an index estimate lands above 2.
    """
    positive("beta", beta)
    positive("sigma", sigma)
    return sigma * math.pi / (
        2.0 * overflow_to_inf(math.exp, log_gamma(1.0 + 1.0 / beta)))
