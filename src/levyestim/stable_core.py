"""Stable laws: parametrizations, exact increment sampling, seed derivation.

Two parametrizations are used throughout the package.

Skew form ``S_beta(sigma, rho, gamma)``, defined for beta != 1 by

    log E exp(iuX) = -sigma^beta |u|^beta (1 - i rho sgn(u) tan(beta pi/2))
                     + i gamma u,

and for beta = 1 by

    log E exp(iuX) = -sigma |u| (1 + i (2 rho / pi) sgn(u) log|u|)
                     + i gamma u.

A process X with L(X_1) = S_beta(sigma, rho, gamma) then has marginals
L(X_t) = S_beta(t^{1/beta} sigma, rho, t gamma); for beta = 1 the scaling
picks up the extra drift (2 rho sigma t / pi) log(sigma t).

Positivity form ``S'_beta(p, c)`` for beta in (1, 2), defined by

    log E exp(iuS) = -c |u|^beta (1 - i sgn(u) tan xi),
    xi = beta pi (p - 1/2),

where p = P(S > 0) ranges over (1 - 1/beta, 1/beta).  The forms are linked
by tan xi = rho tan(beta pi/2) and c = sigma^beta, so
S'_beta(p, c) = S_beta(c^{1/beta}, rho(p), 0).

Sampling uses the Chambers-Mallows-Stuck transform with the corrected
beta = 1 branch (the pi/2 factor inside the logarithm); the beta != 1
branch is evaluated in an equivalent tangent form (see
``sample_standard_stable``).
"""

from __future__ import annotations

import hashlib
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import DataError, DomainError, positive, skew, stable_index

__all__ = [
    "StableParams",
    "PositivityStable",
    "IncrementSample",
    "Cell",
    "ScalePath",
    "sample_standard_stable",
    "increment_scale_shift",
    "increments_cell",
    "sprime_cell",
    "timevarying_cell",
    "skew_to_positivity",
    "positivity_to_skew",
    "positivity_range",
    "derive_seed",
]


# ---------------------------------------------------------------------------
# parameter containers

@dataclass(frozen=True)
class StableParams:
    """Skew-form parameters (beta, sigma, rho, gamma) of a stable law."""

    beta: float
    sigma: float
    rho: float = 0.0
    gamma: float = 0.0

    def __post_init__(self):
        stable_index(self.beta)
        positive("sigma", self.sigma)
        skew(self.rho)
        if self.beta == 2.0 and self.rho != 0.0:
            warnings.warn("beta = 2 is Gaussian: rho has no effect, resetting to 0")
            object.__setattr__(self, "rho", 0.0)


@dataclass(frozen=True)
class PositivityStable:
    """Positivity-form parameters of a strictly stable law with beta in (1, 2).

    ``scale`` is the characteristic-function level c in
    exp{-c |u|^beta (1 - i sgn(u) tan xi)}; it equals sigma^beta of the skew
    form.
    """

    beta: float
    p_pos: float
    scale: float = 1.0

    def __post_init__(self):
        if not (1.0 < self.beta < 2.0):
            raise DomainError("positivity form requires beta in (1, 2)",
                              beta=self.beta)
        lo, hi = positivity_range(self.beta)
        if not (lo < self.p_pos < hi):
            raise DomainError("positivity parameter outside (1 - 1/beta, 1/beta)",
                              p_pos=self.p_pos, lo=lo, hi=hi)
        positive("scale", self.scale)

    @property
    def rho(self) -> float:
        """Equivalent skew-form rho."""
        return positivity_to_skew(self.beta, self.p_pos)


@dataclass(frozen=True)
class IncrementSample:
    """Equispaced increments of one observed path: values, mesh h, metadata.

    Values must be finite; a NaN or infinity raises DataError naming the
    first bad index and the count of bad values.  h is a finite number > 0."""

    values: np.ndarray
    h: float
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or values.size == 0:
            raise DomainError("values must be a nonempty 1-d array",
                              shape=list(np.shape(self.values)))
        _check_finite_rows(values[None])
        object.__setattr__(self, "values", values)
        positive("h", self.h)

    @property
    def n(self) -> int:
        return int(self.values.size)


def _check_finite_rows(block: np.ndarray) -> None:
    # the one finiteness rule of samples: the first row holding a NaN or
    # infinity raises DataError with its first bad index and its count
    if np.isfinite(block).all():
        return
    row = block[int(np.flatnonzero(~np.isfinite(block).all(axis=1))[0])]
    bad = np.flatnonzero(~np.isfinite(row))
    raise DataError("increment values must be finite",
                    first_index=int(bad[0]), count=int(bad.size))


@dataclass(frozen=True)
class Cell:
    """A sampler at fixed parameters, mesh h and sample size n.

    The parameter work runs once, when the cell is built; ``fill(seeds)``
    returns the n values that the sampler draws from each seed's stream, as
    the rows of one (rows, n) array.  ``draw(seeds)`` is that block after
    the finiteness check, read-only, and ``sample(seed)`` is the cell drawn
    at one seed: one observed path.
    """

    h: float
    meta: dict
    fill: Callable[[Sequence], np.ndarray]

    def draw(self, seeds: Sequence) -> np.ndarray:
        """The samples at ``seeds`` as the rows of one read-only block; a
        row with a NaN or infinity raises DataError as IncrementSample
        does."""
        block = self.fill(seeds)
        _check_finite_rows(block)
        block.flags.writeable = False
        return block

    def sample(self, seed=None) -> IncrementSample:
        """The IncrementSample of one stream."""
        return IncrementSample(self.draw([seed])[0], self.h, dict(self.meta))


# nodes of ScalePath.sigma_star's periodic trapezoid rule
_STAR_NODES = 32


@dataclass(frozen=True)
class ScalePath:
    """Deterministic scale profile t -> sigma_t^beta on [0, 1].

    ``profile(t)`` returns sigma_t^beta for a float t; ``primitive`` is its
    antiderivative and must accept a NumPy array as well as a float:
    ``sigma_bars(n)`` evaluates it once on the n + 1 block edges
    ``arange(n + 1) / n``.
    """

    beta: float
    profile: Callable[[float], float]
    primitive: Callable[[np.ndarray | float], np.ndarray | float]
    label: str = "custom"

    def __post_init__(self):
        stable_index(self.beta)

    @classmethod
    def constant(cls, sigma: float, beta: float) -> "ScalePath":
        positive("sigma", sigma)
        c = sigma ** beta
        return cls(beta, lambda t, c=c: c, lambda t, c=c: c * t, "constant")

    @classmethod
    def cosine(cls, beta: float) -> "ScalePath":
        """sigma_t^beta = (2/5)(cos(2 pi t) + 3/2); integrates to 3/5 on [0, 1]."""
        def prof(t: float) -> float:
            return 0.4 * (math.cos(2.0 * math.pi * t) + 1.5)

        def prim(t):
            return 0.4 * (np.sin(2.0 * np.pi * t) / (2.0 * np.pi) + 1.5 * t)

        return cls(beta, prof, prim, "cosine")

    def sigma_bars(self, n: int) -> np.ndarray:
        """The n block averages n * integral over ((j-1)/n, j/n] of
        sigma_s^beta ds, j = 1..n."""
        return n * np.diff(self.primitive(np.arange(n + 1) / n))

    def sigma_star(self, q: float) -> float:
        """integral_0^1 sigma_s^q ds.

        At q = beta this is primitive(1) - primitive(0); otherwise it is the
        periodic trapezoid rule on 32 equispaced nodes, which converges
        geometrically for a smooth 1-periodic profile and is exact to
        rounding for the profiles ``cosine`` and ``constant`` build.
        """
        if q == self.beta:
            return float(self.primitive(1.0) - self.primitive(0.0))
        power = q / self.beta
        return math.fsum(self.profile(j / _STAR_NODES) ** power
                         for j in range(_STAR_NODES)) / _STAR_NODES


# ---------------------------------------------------------------------------
# seeding

def derive_seed(*parts) -> int:
    """Collision-resistant 64-bit stream id hashed from structured parts.

    Parts are mixed through blake2b on their reprs with a field separator,
    so (seed, n, estimator, replication) tuples land on distinct streams.
    """
    hsh = hashlib.blake2b(digest_size=8)
    for part in parts:
        hsh.update(repr(part).encode("utf8"))
        hsh.update(b"\x1f")
    return int.from_bytes(hsh.digest(), "big")


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# sampling

def sample_standard_stable(beta: float, rho: float, uniform_u, exp_v):
    """Chambers-Mallows-Stuck transform: S_beta(1, rho, 0) variates.

    uniform_u must be Uniform(-pi/2, pi/2) draws and exp_v independent
    Exp(1) draws of the same shape.  With

        A = {1 + (rho tan(beta pi/2))^2}^{1/(2 beta)},
        B = arctan(rho tan(beta pi/2)) / beta,

    the beta != 1 branch is the transform

        A sin(phi) / (cos U)^{1/beta} * {cos W / V}^{(1-beta)/beta},
        phi = beta (U + B),  W = U - phi.

    For beta in (0, 2] and |rho| <= 1, phi lies in (-pi, pi) and W in
    (-pi/2, pi/2], so cos U > 0 and cos W >= 0.  With s = tan(phi/2),
    T = tan U and D = tan W, the identities sin phi = 2s/(1+s^2),
    cos U = (1+T^2)^{-1/2} and cos W = (1+D^2)^{-1/2} turn it into

        A * 2s/(1+s^2) * sqrt(1+T^2)
          * {(1+D^2) V^2 / (1+T^2)}^{(beta-1)/(2 beta)},

    which is what gets evaluated: NumPy has vectorised float64 kernels for
    tan, sqrt and pow but evaluates sin and cos element by element, and no
    step subtracts nearly equal numbers, so the draws agree with the
    sin/cos form to a few parts in 1e15, also for U next to +-pi/2.  The
    beta = 1 branch is

        (2/pi) {(pi/2 + rho U) tan U
                - rho log((pi/2) V cos U / (pi/2 + rho U))}.

    beta = 2 collapses to the Box-Muller form 2 sin(U) sqrt(V) (variance 2),
    beta = 1 with rho = 0 to the Cauchy quantile tan(U).
    """
    stable_index(beta)
    skew(rho)
    if beta == 2.0 and rho != 0.0:
        warnings.warn("beta = 2 is Gaussian: rho has no effect, using rho = 0")
        rho = 0.0
    u = np.asarray(uniform_u, dtype=float)
    v = np.asarray(exp_v, dtype=float)
    if beta == 1.0:
        if rho == 0.0:
            return np.tan(u)
        w = 0.5 * np.pi + rho * u
        return (2.0 / np.pi) * (w * np.tan(u)
                                - rho * np.log(0.5 * np.pi * v * np.cos(u) / w))
    t = rho * math.tan(0.5 * math.pi * beta)
    a = (1.0 + t * t) ** (0.5 / beta)
    b = math.atan(t) / beta
    phase = beta * (u + b)
    s = np.tan(0.5 * phase)
    sec2_u = 1.0 + np.tan(u) ** 2
    sec2_w = 1.0 + np.tan(u - phase) ** 2
    return (2.0 * a * s / (1.0 + s * s) * np.sqrt(sec2_u)
            * (sec2_w * v * v / sec2_u) ** ((beta - 1.0) / (2.0 * beta)))


def _stable_cell(beta: float, rho: float, n: int, h: float, meta: dict,
                 scale, shift=None) -> Cell:
    # fill(seeds): row r holds scale * S (+ shift) for S the n
    # S_beta(1, rho, 0) draws of seeds[r]'s stream, its n uniforms and then
    # its n exponentials.  The seeds' draws are stacked into one (rows, n)
    # block and go through one CMS evaluation; every operation is
    # elementwise, so each row holds the values a block of that one row
    # would.
    def fill(seeds: Sequence) -> np.ndarray:
        u = np.empty((len(seeds), n))
        v = np.empty((len(seeds), n))
        for row, seed in enumerate(seeds):
            rng = _as_rng(seed)
            u[row] = rng.uniform(-0.5 * np.pi, 0.5 * np.pi, size=n)
            rng.standard_exponential(out=v[row])
        values = scale * sample_standard_stable(beta, rho, u, v)
        if shift is not None:
            values += shift
        return values

    return Cell(h, meta, fill)


def _check_size(n: int) -> None:
    if n < 1:
        raise DomainError("sample size n must be >= 1", n=n)


def increment_scale_shift(params: StableParams, h: float) -> tuple[float, float]:
    """(scale, shift) with increment over mesh h equal to scale * S + shift,
    S ~ S_beta(1, rho, 0).

    For beta = 1 the shift absorbs the logarithmic drift of the scaling
    relation: shift = (2 h sigma rho / pi) log(h sigma) + h gamma.
    """
    positive("h", h)
    if params.beta == 1.0:
        shift = (2.0 * h * params.sigma * params.rho / math.pi
                 * math.log(h * params.sigma) + h * params.gamma)
        return h * params.sigma, shift
    return h ** (1.0 / params.beta) * params.sigma, h * params.gamma


# A sample is its Cell drawn at one seed: ``<x>_cell(...).sample(seed)``.

def increments_cell(params: StableParams, h: float, n: int) -> Cell:
    """Cell of n i.i.d. increments over mesh h of the Levy process with
    L(X_1) = S_beta(sigma, rho, gamma)."""
    _check_size(n)
    scale, shift = increment_scale_shift(params, h)
    meta = {"model": "stable", "beta": params.beta, "sigma": params.sigma,
            "rho": params.rho, "gamma": params.gamma}
    return _stable_cell(params.beta, params.rho, n, h, meta, scale, shift)


def sprime_cell(pp: PositivityStable, h: float, n: int) -> Cell:
    """Cell of n i.i.d. increments over mesh h of the strictly stable
    process with L(X_t) = S'_beta(p, t * scale): each equals
    (h * scale)^{1/beta} S for S ~ S_beta(1, rho(p), 0)."""
    positive("h", h)
    _check_size(n)
    meta = {"model": "skewed_stable", "beta": pp.beta, "p_pos": pp.p_pos,
            "scale": pp.scale}
    return _stable_cell(pp.beta, pp.rho, n, h, meta,
                        (h * pp.scale) ** (1.0 / pp.beta))


def timevarying_cell(path: ScalePath, p_pos: float, n: int) -> Cell:
    """Cell of the increments X_{j/n} - X_{(j-1)/n}, j = 1..n, of
    X_t = int_0^t sigma_{s-} dZ_s with L(Z_t) = S'_beta(p, t) and
    deterministic sigma.

    In law the j-th increment equals (sigma_bar_j / n)^{1/beta} zeta_j with
    zeta_j i.i.d. S'_beta(p, 1) and sigma_bar_j the block average of
    sigma^beta, which is what gets sampled; the block averages are computed
    once, when the cell is built.  A constant path takes the same standard
    draws as ``sprime_cell`` at equal seeds (scale sigma^beta, h = 1/n),
    but its factor goes through n * diff(primitive) and so is rounded
    differently: the values are not equal but agree to within 4e-13
    relative (3.7e-13 at most over beta in {1.2, 1.5, 1.7} and n in
    {500, 1000, 2000, 5000}).
    """
    beta = path.beta
    rho = PositivityStable(beta, p_pos).rho
    _check_size(n)
    meta = {"model": "timevarying_stable", "beta": beta, "p_pos": p_pos,
            "path": path.label}
    return _stable_cell(beta, rho, n, 1.0 / n, meta,
                        (path.sigma_bars(n) / n) ** (1.0 / beta))


# ---------------------------------------------------------------------------
# parametrization transforms

def _check_conversion_beta(beta: float):
    if not (0.0 < beta < 2.0) or beta == 1.0:
        raise DomainError("skew/positivity conversion requires beta in "
                          "(0, 1) or (1, 2)", beta=beta)


def skew_to_positivity(beta: float, rho: float) -> float:
    """p = P(S > 0) = 1/2 + arctan(rho tan(beta pi/2)) / (beta pi) for
    S ~ S_beta(sigma, rho, 0)."""
    _check_conversion_beta(beta)
    skew(rho)
    return 0.5 + math.atan(rho * math.tan(0.5 * math.pi * beta)) / (beta * math.pi)


def positivity_range(beta: float) -> tuple[float, float]:
    """Bounds (lo, hi) of the positivity parameter p = P(S > 0) of a
    strictly stable law of index beta: (1 - 1/beta, 1/beta) for beta > 1,
    else (0, 1).  The closed interval is the image of rho in [-1, 1]; the
    open one, for beta in (1, 2), is the positivity form's domain."""
    if beta > 1.0:
        return 1.0 - 1.0 / beta, 1.0 / beta
    return 0.0, 1.0


def positivity_to_skew(beta: float, p_pos: float) -> float:
    """Inverse of skew_to_positivity: rho = tan(beta pi (p - 1/2)) /
    tan(beta pi / 2)."""
    _check_conversion_beta(beta)
    lo, hi = positivity_range(beta)
    if not (lo <= p_pos <= hi):
        raise DomainError("positivity parameter outside admissible range",
                          p_pos=p_pos, lo=lo, hi=hi)
    return math.tan(beta * math.pi * (p_pos - 0.5)) / math.tan(0.5 * math.pi * beta)
