"""Symmetric stable density, its y-derivative, and information integrals.

phi_beta(y; sigma) denotes the density of S_beta(sigma) (symmetric stable,
characteristic function exp{-(sigma |u|)^beta}), with
phi_beta(y; sigma) = phi_beta(y / sigma) / sigma.  At unit scale and z > 0,
beta != 1, Nolan (1997, after Zolotarev) writes it as a smooth integral over
a finite interval,

    phi_beta(z) = beta / (pi |beta - 1| z) int_0^{pi/2} g e^{-g} dtheta,
    g(theta) = z^{a} V(theta),   a = beta / (beta - 1),
    V(theta) = (cos theta / sin(beta theta))^{a}
               cos((beta - 1) theta) / cos theta,

and differentiating under the integral (dg/dz = a g / z) gives

    phi_beta'(z) = beta / (pi |beta - 1| z^2)
                   int_0^{pi/2} g e^{-g} (a - 1 - a g) dtheta.

V is monotone on (0, pi/2), so the integrand peaks once, where g = 1.  The
kernel (_nolan) finds that theta* for every z at once by a safeguarded
Newton solve in the logit variable log(theta / (pi/2 - theta)), splits
[0, pi/2] there and sums tanh-sinh nodes on both panels: 257 per panel, or
513 when |beta - 1| < 0.25, where the peak is sharper.  phi and phi' share
every trigonometric, logarithmic and exponential evaluation, and points are
processed in chunks of at most 2^13 points x nodes (64 KB per array).

Each distinct |y|/sigma is routed once per call, and every route yields
the pair (phi, phi'):

* z = 0: phi_zero and phi' = 0;
* beta = 1: the exact Cauchy density and its derivative;
* z > 30: the large-argument expansion and its term-by-term derivative,

      phi_beta(z) = (1/pi) sum_{m>=1} (-1)^{m+1} Gamma(1 + m beta) / m!
                    sin(m pi beta / 2) z^{-1 - m beta};

* otherwise the Nolan kernel, except in the fallback region below, which
  keeps two oscillatory (QAWO) quadratures,

      phi_beta(z) = (1/pi) int_0^inf cos(u z) exp(-u^beta) du,
      phi_beta'(z) = -(1/pi) int_0^inf u sin(u z) exp(-u^beta) du.

  The fallback region is |beta - 1| < 0.05 (the peak narrows like 1/|a|
  and the node counts above no longer resolve it) and z < 0.02 (phi' is an
  O(z^2) remainder of two O(1) integrals, so the kernel's error grows like
  1/z).

Supported domain: beta in [0.5, 2), sigma > 0; absolute accuracy is ~1e-10
for |y| <= 50 (the kernel agrees with QAWO to ~1e-11 or better).

The information integrals

    H_beta = int (phi + y phi')^2 / phi dy,
    M_beta = int (phi')^2 / phi dy

(at sigma = 1) split at |y| = 30 into a core on [0, 30] and a series-based
tail on y = 30 e^t, since the integrands decay only like |y|^{-beta-1}.
Both parts use one batched adaptive Gauss-Kronrod (7-15) panel rule: each
round evaluates the (phi, phi') pairs at every unresolved panel's nodes in
one call, and a panel whose Kronrod-Gauss difference exceeds its width's
share of the tolerance max(epsabs, 1e-9 |estimate|) (epsabs 1e-11 on the
core, 1e-12 on the tail) is bisected.  H and M are integrated together, so
each node costs one (phi, phi') pair.  A panel rule that runs out of its
panel budget (400 panels), like a QAWO call whose convergence flag reports
failure, raises QuadratureError (code quadrature_error).  Nothing is cached
across calls except the two tanh-sinh node tables, built on first use.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .errors import DomainError, QuadratureError
from .special_fn import log_gamma

__all__ = [
    "phi",
    "phi_pair",
    "phi_zero",
    "FisherInfo",
    "fisher_matrix",
    "median_asymptotic_sd",
]

# crossover from the integral forms to the tail expansion
_Y_SERIES = 30.0
_SERIES_TERMS = 8
_PHI_FLOOR = 1e-300
_HALF_PI = 0.5 * math.pi

# Fallback region of the Nolan kernel (see the module docstring); both
# bounds keep its error below ~1e-11 on a grid against QAWO.
_NEAR_CAUCHY = 0.05
_Z_TINY = 0.02
# tanh-sinh nodes per panel, abscissae t in [-_TS_T, _TS_T]; the outermost
# node lies ~1e-16 panel widths from the panel's end
_TS_NODES = 257
_TS_NODES_NEAR = 513
_TS_NEAR = 0.25
_TS_T = 3.15
# points x nodes per chunk of the kernel
_BLOCK = 1 << 13
# panels one information integral may evaluate before giving up, and the
# relative tolerance (scalar quad's default) next to each absolute one
_PANEL_LIMIT = 400
_EPSREL = 1e-9
# first panels of the core [0, 30], widening as the integrand flattens; the
# narrow first panel settles at once, so few nodes fall below _Z_TINY
_CORE_EDGES = np.array([0.0, 1.0, 2.0, 3.0, 5.0, 8.0, 13.0, 20.0, _Y_SERIES])

# Gauss-Kronrod 7-15 rule on [-1, 1] (QUADPACK qk15); the Gauss nodes are
# the odd-indexed Kronrod nodes
_XGK = np.array([0.991455371120812639206854697526329,
                 0.949107912342758524526189684047851,
                 0.864864423359769072789712788640926,
                 0.741531185599394439863864773280788,
                 0.586087235467691130294144845693013,
                 0.405845151377397166906606412076961,
                 0.207784955007898467600689403773245, 0.0])
_WGK = np.array([0.022935322010529224963732008058970,
                 0.063092092629978553290700663189204,
                 0.104790010322250183839876322541518,
                 0.140653259715525918745189590510238,
                 0.169004726639267902826583426598550,
                 0.190350578064785409913256402421014,
                 0.204432940075298892414161999234649,
                 0.209482141084727828012999174891714])
_WG = np.array([0.129484966168869693270611432679082,
                0.279705391489276667901467771423780,
                0.381830050505118944950369775488975,
                0.417959183673469387755102040816327])
_GK_X = np.concatenate([-_XGK, _XGK[-2::-1]])
_GK_WK = np.concatenate([_WGK, _WGK[-2::-1]])
_GK_WG = np.concatenate([_WG, _WG[-2::-1]])


def _check_density_domain(beta: float, sigma: float):
    if not (0.5 <= beta < 2.0):
        raise DomainError("density index beta must lie in [0.5, 2)", beta=beta)
    if not sigma > 0.0:
        raise DomainError("scale sigma must be positive", sigma=sigma)


def _u_upper(beta: float, k: int) -> float:
    # upper limit U with int_U^inf u^k exp(-u^beta) du below ~1e-13:
    # iterate L = log(1e13/beta) + ((k+1)/beta - 1) log L, U = L^{1/beta}
    c = max((k + 1.0) / beta - 1.0, 0.0)
    L = 35.0
    for _ in range(4):
        L = math.log(1e13 / beta) + c * math.log(L)
    return L ** (1.0 / beta)


def _checked_quad(context: dict, *args, **kwargs) -> float:
    # with full_output, quad appends a message exactly when its ier flag
    # reports failure (ier = 6, invalid input, raises ValueError itself)
    val, _, _, *failure = quad(*args, full_output=1, **kwargs)
    if failure:
        raise QuadratureError("quadrature did not converge: "
                              + " ".join(failure[0].split()), **context)
    return val


def _fourier_point(y: float, beta: float) -> tuple[float, float]:
    """(phi_beta(y), phi_beta'(y)) at y > 0 by weighted (QAWO) quadrature,
    each integral cut at its own upper limit."""
    context = {"beta": beta, "y": y}
    opts = {"wvar": y, "epsabs": 1e-13, "epsrel": 1e-11, "limit": 400,
            "maxp1": 100}
    f = _checked_quad(context, lambda u: math.exp(-u ** beta), 0.0,
                      _u_upper(beta, 0), weight="cos", **opts)
    d = _checked_quad(context, lambda u: u * math.exp(-u ** beta), 0.0,
                      _u_upper(beta, 1), weight="sin", **opts)
    return f / math.pi, -d / math.pi


def _series(z, beta: float) -> np.ndarray:
    """Rows (phi_beta(z), phi_beta'(z)) at large z > 0 (scalar or array)
    from the tail expansion."""
    f = d = 0.0
    for m in range(1, _SERIES_TERMS + 1):
        c = math.exp(log_gamma(1.0 + m * beta) - log_gamma(m + 1.0))
        c *= math.sin(0.5 * m * math.pi * beta)
        e = 1.0 + m * beta
        sign = (-1.0) ** (m + 1)
        f = f + sign * c * z ** -e
        d = d + sign * (c * -e) * z ** -(e + 1.0)
    return np.array([f, d]) / math.pi


def _cauchy(z: np.ndarray) -> np.ndarray:
    """Rows (phi_1(z), phi_1'(z)) of the Cauchy density 1 / (pi (1 + z^2))."""
    q = 1.0 + z * z
    return np.array([1.0 / (math.pi * q), -2.0 * z / (math.pi * q * q)])


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


def _log_v(theta, comp, beta: float, a: float):
    # log V(theta) with cos(theta) = sin(comp), comp = pi/2 - theta.  The
    # sines and the cosine come from tangent half-angles, sin x = 2t/(1+t^2)
    # and cos x = (1-t^2)/(1+t^2) with t = tan(x/2): accurate to a few ulp
    # here (0 < x < pi), and numpy's vectorised tan is several times faster
    # than its sin and cos (2.3 against 11-14 ns per element, numpy 2.4 on
    # an AVX-512 x86-64 core).
    tc = np.tan(0.5 * comp)
    tb = np.tan((0.5 * beta) * theta)
    tr = np.tan((0.5 * (beta - 1.0)) * theta)
    tc2 = 1.0 + tc * tc
    tr2 = tr * tr
    # log(sin comp / sin(beta theta)), log(sin comp / cos((beta-1) theta))
    ratio_b = tc * (1.0 + tb * tb) / (tb * tc2)
    ratio_r = 2.0 * tc * (1.0 + tr2) / (tc2 * (1.0 - tr2))
    return a * np.log(ratio_b) - np.log(ratio_r)


def _theta_star(logz: np.ndarray,
                beta: float) -> tuple[np.ndarray, np.ndarray]:
    """(theta, pi/2 - theta) with log V(theta) = -a log z, per point.

    Newton steps on u = log(theta / (pi/2 - theta)), where log V is close
    to linear, kept inside a bisection bracket; a point stops once its step
    falls below 1e-10, so its result does not depend on the other points.
    """
    a = beta / (beta - 1.0)
    sign = 1.0 if beta > 1.0 else -1.0  # log V decreases in theta iff beta > 1
    target = -a * logz
    u = np.zeros_like(logz)
    lo = np.full_like(logz, -40.0)
    hi = np.full_like(logz, 40.0)
    live = np.arange(logz.size)
    for _ in range(100):
        ul = u[live]
        theta = _HALF_PI / (1.0 + np.exp(-ul))
        comp = _HALF_PI / (1.0 + np.exp(ul))
        f = _log_v(theta, comp, beta, a) - target[live]
        right = sign * f > 0.0
        lo[live] = np.where(right, ul, lo[live])
        hi[live] = np.where(right, hi[live], ul)
        dlogv = (-(a - 1.0) / np.tan(comp) - a * beta / np.tan(beta * theta)
                 - (beta - 1.0) * np.tan((beta - 1.0) * theta))
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
    a = beta / (beta - 1.0)
    n = _TS_NODES if abs(beta - 1.0) >= _TS_NEAR else _TS_NODES_NEAR
    s, sc, w = _tanh_sinh(n)
    logz = np.log(z)
    star, comp_star = _theta_star(logz, beta)
    sums = np.empty((2, z.size))
    rows = max(1, _BLOCK // n)
    for i in range(0, z.size, rows):
        t = star[i:i + rows, None]
        c = comp_star[i:i + rows, None]
        alogz = a * logz[i:i + rows, None]
        f0 = f1 = 0.0
        # panels [0, theta*] and [theta*, pi/2] as (left end, width,
        # distance of the right end from pi/2)
        for left, width, right in ((0.0, t, c), (t, c, 0.0)):
            theta = left + width * s
            comp = right + width * sc
            g = np.exp(np.minimum(alogz + _log_v(theta, comp, beta, a), 7.0))
            e = np.exp(-g) * g * (w * width)  # exp(-e^7) underflows to 0
            f0 = f0 + e.sum(axis=1)
            f1 = f1 + (e * g).sum(axis=1)
        sums[0, i:i + rows] = f0
        sums[1, i:i + rows] = (a - 1.0) * f0 - a * f1
    scale = beta / (math.pi * abs(beta - 1.0))
    return scale * sums / np.array([z, z * z])


def _unit(z: np.ndarray, beta: float) -> np.ndarray:
    """Rows (phi_beta(z), phi_beta'(z)) at unit scale for z >= 0."""
    if beta == 1.0:
        return _cauchy(z)
    out = np.empty((2, z.size))
    zero = z == 0.0
    tail = z > _Y_SERIES
    out[0, zero] = phi_zero(beta)
    out[1, zero] = 0.0
    out[:, tail] = _series(z[tail], beta)
    rest = ~(zero | tail)
    if abs(beta - 1.0) >= _NEAR_CAUCHY:
        kernel = rest & (z >= _Z_TINY)
        rest &= ~kernel
        if kernel.any():
            out[:, kernel] = _nolan(z[kernel], beta)
    for i in np.flatnonzero(rest):
        out[:, i] = _fourier_point(float(z[i]), beta)
    return out


def _eval(y, beta: float, sigma: float):
    arr = np.asarray(y, dtype=float)
    bad = np.flatnonzero(~np.isfinite(arr))
    if bad.size:
        raise DomainError("density argument y must be finite",
                          first_index=int(bad[0]), count=int(bad.size))
    if np.any(np.abs(arr) / sigma > 50.0):
        warnings.warn("density evaluated at |y|/sigma > 50: series tail "
                      "accuracy only", stacklevel=3)
    flat = arr.ravel()
    zs, inverse = np.unique(np.abs(flat) / sigma, return_inverse=True)
    f, d = _unit(zs, beta)[:, inverse]
    f = np.maximum(f, _PHI_FLOOR)  # guard ratios against roundoff
    d = np.where(flat < 0.0, -d, d)
    if arr.ndim == 0:
        return float(f[0] / sigma), float(d[0] / sigma ** 2)
    return ((f / sigma).reshape(arr.shape),
            (d / sigma ** 2).reshape(arr.shape))


def phi(y, beta: float, sigma: float = 1.0):
    """Density of S_beta(sigma) at y (scalar or array): the first row of
    phi_pair."""
    _check_density_domain(beta, sigma)
    return _eval(y, beta, sigma)[0]


def phi_pair(y, beta: float, sigma: float = 1.0):
    """(phi_beta(y; sigma), d/dy phi_beta(y; sigma)) at y (scalar or array)
    from one evaluation of each distinct |y|/sigma.

    Scale enters through phi_beta(y; sigma) = sigma^{-1} phi_beta(y / sigma).
    """
    _check_density_domain(beta, sigma)
    return _eval(y, beta, sigma)


def phi_zero(beta: float, sigma: float = 1.0) -> float:
    """Closed-form mode value phi_beta(0; sigma) = Gamma(1 + 1/beta) / (sigma pi),
    computed as Gamma(1/beta) / (beta sigma pi)."""
    _check_density_domain(beta, sigma)
    return math.gamma(1.0 / beta) / (beta * sigma * math.pi)


# ---------------------------------------------------------------------------
# information integrals

def _panel_integral(f, edges: np.ndarray, epsabs: float,
                    beta: float) -> np.ndarray:
    """int f over [edges[0], edges[-1]] by adaptive Gauss-Kronrod 7-15
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
    tail."""
    _check_density_domain(beta, 1.0)

    def pair(f: np.ndarray, d: np.ndarray, y: np.ndarray) -> np.ndarray:
        f = np.maximum(f, _PHI_FLOOR)
        g = f + y * d
        return np.array([g * g / f, d * d / f])

    def core(y: np.ndarray) -> np.ndarray:
        return pair(*_unit(y, beta), y)

    core_val = _panel_integral(core, _CORE_EDGES, 1e-11, beta)

    # tail on y = 30 e^t: the integrand decays like y^{-beta-1}, so the
    # substitution gives an exponentially decaying smooth integrand
    def tail_log(t: np.ndarray) -> np.ndarray:
        y = _Y_SERIES * np.exp(t)
        return pair(*_series(y, beta), y) * y

    tail_edges = np.linspace(0.0, 60.0 / beta + 10.0, 9)
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
        w = np.array([1.0 / self.beta ** 2, 1.0 / self.sigma])
        out = np.zeros((3, 3))
        out[:2, :2] = self.h_value * np.outer(w, w)
        out[2, 2] = self.m_value / self.sigma ** 2
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

    Closed form, so any beta > 0 is accepted: plug-in intervals must stay
    defined when an index estimate lands above 2.
    """
    if not beta > 0.0:
        raise DomainError("index beta must be positive", beta=beta)
    if not sigma > 0.0:
        raise DomainError("scale sigma must be positive", sigma=sigma)
    return sigma * math.pi / (2.0 * math.exp(log_gamma(1.0 + 1.0 / beta)))
