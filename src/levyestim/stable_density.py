"""Symmetric stable density, its y-derivatives, and information integrals.

phi_beta(y; sigma) denotes the density of S_beta(sigma) (symmetric stable,
characteristic function exp{-(sigma |u|)^beta}).  At unit scale

    phi_beta(y) = (1/pi) int_0^inf cos(u y) exp(-u^beta) du,

and the k-th y-derivative pulls down u^k and rotates the kernel:

    phi_beta^(k)(y) = (-1)^{ceil(k/2)} (1/pi)
                      int_0^inf u^k trig(u y) exp(-u^beta) du,

trig = cos for even k, sin for odd k.  The oscillatory quadrature is
switched beyond |y| = 30 to the large-argument expansion

    phi_beta(y) = (1/pi) sum_{m>=1} (-1)^{m+1} Gamma(1 + m beta) / m!
                  sin(m pi beta / 2) y^{-1 - m beta},

differentiated term by term for k >= 1.  Supported domain: beta in [0.5, 2),
sigma > 0; absolute accuracy is ~1e-10 for |y| <= 50.

The information integrals

    H_beta = int (phi + y phi')^2 / phi dy,
    M_beta = int (phi')^2 / phi dy

(at sigma = 1) split at |y| = 30 into the quadrature core and a series-based
tail handled on a log grid, since the integrands decay only like |y|^{-beta-1}.
H and M are integrated together as one 2-vector, so each node costs one
(phi, phi') pair.  Each call evaluates every distinct |y|/sigma once, with no
process-wide cache, and a quadrature whose convergence flag reports failure
raises QuadratureError (code quadrature_error).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad, quad_vec

from .errors import DomainError, QuadratureError
from .special_fn import log_gamma

__all__ = [
    "phi",
    "phi_deriv",
    "phi_zero",
    "h_beta",
    "m_beta",
    "FisherInfo",
    "fisher_matrix",
    "median_asymptotic_sd",
]

# crossover from oscillatory quadrature to the tail expansion
_Y_SERIES = 30.0
_SERIES_TERMS = 8
_PHI_FLOOR = 1e-300


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


def _fourier_point(y: float, beta: float, k: int) -> float:
    """(d/dy)^k phi_beta at y >= 0 by weighted (QAWO) quadrature."""
    context = {"beta": beta, "y": y, "k": k}
    upper = _u_upper(beta, k)
    sign = -1.0 if ((k + 1) // 2) % 2 else 1.0

    def integrand(u: float) -> float:
        return u ** k * math.exp(-u ** beta)

    if y == 0.0:
        if k % 2 == 1:
            return 0.0
        val = _checked_quad(context, integrand, 0.0, upper,
                            epsabs=1e-13, epsrel=1e-11, limit=300)
    else:
        weight = "sin" if k % 2 == 1 else "cos"
        val = _checked_quad(context, integrand, 0.0, upper, weight=weight,
                            wvar=y, epsabs=1e-13, epsrel=1e-11, limit=400,
                            maxp1=100)
    return sign * val / math.pi


def _series_point(y: float, beta: float, k: int) -> float:
    """(d/dy)^k phi_beta at large y > 0 from the tail expansion."""
    acc = 0.0
    for m in range(1, _SERIES_TERMS + 1):
        c = math.exp(log_gamma(1.0 + m * beta) - log_gamma(m + 1.0))
        c *= math.sin(0.5 * m * math.pi * beta)
        e = 1.0 + m * beta
        term = c * y ** (-(e + k))
        for i in range(k):
            term *= -(e + i)
        acc += (-1.0) ** (m + 1) * term
    return acc / math.pi


def _point(z: float, beta: float, k: int) -> float:
    # unit-scale evaluation at z >= 0
    if z > _Y_SERIES:
        return _series_point(z, beta, k)
    return _fourier_point(z, beta, k)


def _eval(y, beta: float, sigma: float, k: int):
    arr = np.asarray(y, dtype=float)
    if np.any(np.abs(arr) / sigma > 50.0):
        warnings.warn("density evaluated at |y|/sigma > 50: series tail "
                      "accuracy only", stacklevel=3)
    flat = arr.ravel()
    zs, inverse = np.unique(np.abs(flat) / sigma, return_inverse=True)
    vals = np.array([_point(float(z), beta, k) for z in zs])[inverse]
    if k == 0:
        vals = np.maximum(vals, _PHI_FLOOR)  # guard ratios against roundoff
    elif k % 2 == 1:
        vals = np.where(flat < 0.0, -vals, vals)
    out = (vals / sigma ** (k + 1)).reshape(arr.shape)
    if arr.ndim == 0:
        return float(out)
    return out


def phi(y, beta: float, sigma: float = 1.0):
    """Density of S_beta(sigma) at y (scalar or array).

    Scale enters through phi_beta(y; sigma) = sigma^{-1} phi_beta(y / sigma).
    """
    _check_density_domain(beta, sigma)
    return _eval(y, beta, sigma, 0)


def phi_deriv(y, beta: float, k: int = 1, sigma: float = 1.0):
    """k-th y-derivative of the S_beta(sigma) density, k in {1, 2}."""
    if k not in (1, 2):
        raise DomainError("derivative order k must be 1 or 2", k=k)
    _check_density_domain(beta, sigma)
    return _eval(y, beta, sigma, k)


def phi_zero(beta: float, sigma: float = 1.0) -> float:
    """Closed-form mode value phi_beta(0; sigma) = Gamma(1 + 1/beta) / (sigma pi)."""
    _check_density_domain(beta, sigma)
    return math.exp(log_gamma(1.0 + 1.0 / beta)) / (sigma * math.pi)


# ---------------------------------------------------------------------------
# information integrals

def _vector_integral(f, b: float, beta: float, epsabs: float) -> np.ndarray:
    # each round quad_vec splits every interval it must until the error left
    # is below tol/8, so epsrel = 8e-9 asks for scalar quad's 1e-9
    val, _, info = quad_vec(f, 0.0, b, epsabs=epsabs, epsrel=8e-9, limit=200,
                            full_output=True)
    if info.status != 0:
        raise QuadratureError("vector quadrature did not converge",
                              status=int(info.status), beta=beta,
                              interval=[0.0, b])
    return val


def _information(beta: float) -> tuple[float, float]:
    """(H_beta, M_beta) from one pass over the core and one over the tail."""
    _check_density_domain(beta, 1.0)

    def pair(f: float, d: float, yv: float) -> np.ndarray:
        g = f + yv * d
        return np.array([g * g / f, d * d / f])

    def core(yv: float) -> np.ndarray:
        f = max(_point(yv, beta, 0), _PHI_FLOOR)
        return pair(f, _point(yv, beta, 1), yv)

    core_val = _vector_integral(core, _Y_SERIES, beta, 1e-11)

    # tail on y = 30 e^t: the integrand decays like y^{-beta-1}, so the
    # substitution gives an exponentially decaying smooth integrand
    def tail_log(t: float) -> np.ndarray:
        yv = _Y_SERIES * math.exp(t)
        f = max(_series_point(yv, beta, 0), _PHI_FLOOR)
        return pair(f, _series_point(yv, beta, 1), yv) * yv

    tail_val = _vector_integral(tail_log, 60.0 / beta + 10.0, beta, 1e-12)
    h, m = 2.0 * (core_val + tail_val)
    return float(h), float(m)


def h_beta(beta: float) -> float:
    """H_beta = int (phi + y phi')^2 / phi dy, the (index, scale)-block
    information weight at sigma = 1.  H_1 = 1/2."""
    return _information(beta)[0]


def m_beta(beta: float) -> float:
    """M_beta = int (phi')^2 / phi dy, the location information weight at
    sigma = 1.  M_1 = 1/2."""
    return _information(beta)[1]


@dataclass(frozen=True)
class FisherInfo:
    """Fisher information of (beta, sigma, gamma) for symmetric stable
    increments, in the natural rate normalization."""

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
