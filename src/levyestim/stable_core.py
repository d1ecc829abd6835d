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
S'_beta(p, sigma^beta) = S_beta(sigma, rho(p), 0).  A law is its scalars,
named by the truth keys a design writes: ``increments_cell`` takes
(beta, sigma, rho, gamma) and ``sprime_cell`` (beta, p_pos, sigma).  A cell
checks its scalars when it is built; ``sprime_cell`` then computes rho(p)
and c = sigma^beta.

Sampling uses the Chambers-Mallows-Stuck transform with the corrected
beta = 1 branch (the pi/2 factor inside the logarithm); the beta != 1
branch is evaluated in an equivalent tangent form (see
``sample_standard_stable``).
"""

from __future__ import annotations

import hashlib
import math
import operator
import warnings
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import (DataError, DomainError, positive, sample_size, skew,
                     stable_index)
from .special_fn import overflow_to_inf

__all__ = [
    "IncrementSample",
    "Cell",
    "Streams",
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
# samples and cells

@dataclass(frozen=True)
class IncrementSample:
    """Equispaced increments of one observed path: values and mesh h.

    Values must be finite; a NaN or infinity raises DataError naming the
    first bad index and the count of bad values.  h is a finite number > 0."""

    values: np.ndarray
    h: float

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

    The parameter work runs once, when the cell is built.  ``fill(streams)``
    returns, as the rows of one (rows, n) array, the n values the sampler
    draws from each of ``streams``: a sized iterable that yields one
    Generator per row, started where ``np.random.default_rng(seed)`` starts
    for that row's seed; a row is drawn before the next is taken.

    ``signs``, when set, is a second fill: the signs, -1, 0 or 1, of the
    rows ``fill`` returns, found without computing the values.  A stable
    cell that adds no shift (``sprime_cell``, ``timevarying_cell``) has
    one unless beta = 1 and rho != 0: it draws only each row's n uniforms
    and returns sign(fl(U + B)), which is the sign of the value but for
    the two exceptions, each of probability about 2^-53 per value, that
    ``sample_standard_stable`` names.  ``increments_cell``, which adds its
    shift, and the subordinator cells have none.

    ``blocks(streams, rows)``, the one draw path, yields the samples of
    ``streams``, seeded ``Streams``, in order, in read-only blocks of at
    most ``rows`` rows, each checked for finiteness; ``blocks(streams,
    rows, signs=True)`` yields their signs instead where the cell has a
    sign fill, and their samples where it has none.  ``sample(seed)`` is
    its one-row case: one observed path.
    """

    h: float
    fill: Callable[["Streams"], np.ndarray]
    signs: Callable[["Streams"], np.ndarray] | None = None

    def blocks(self, streams: "Streams", rows: int,
               signs: bool = False) -> Iterator[np.ndarray]:
        """The samples of ``streams`` in blocks of at most ``rows`` rows,
        or with ``signs`` their signs if the cell has a sign fill; a row
        with a NaN or infinity raises DataError as IncrementSample does."""
        fill = self.signs if signs and self.signs else self.fill
        for start in range(0, len(streams), rows):
            # a value that overflows or is nan is named by the check below
            with np.errstate(all="ignore"):
                block = fill(streams[start:start + rows])
            _check_finite_rows(block)
            block.flags.writeable = False
            yield block

    def sample(self, seed) -> IncrementSample:
        """The IncrementSample of the stream at ``seed``, an integer in
        [0, 2^128) as ``Streams.from_seeds`` takes."""
        (block,) = self.blocks(Streams.from_seeds([seed]), 1)
        return IncrementSample(block[0], self.h)


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

    def __post_init__(self):
        stable_index(self.beta)

    @classmethod
    def constant(cls, sigma: float, beta: float) -> "ScalePath":
        positive("sigma", sigma)
        c = overflow_to_inf(operator.pow, sigma, beta)
        if c == math.inf:  # the primitive c t would be nan at t = 0
            raise DomainError("sigma^beta overflows", sigma=sigma, beta=beta)
        return cls(beta, lambda t, c=c: c, lambda t, c=c: c * t)

    @classmethod
    def cosine(cls, beta: float) -> "ScalePath":
        """sigma_t^beta = (2/5)(cos(2 pi t) + 3/2); integrates to 3/5 on [0, 1]."""
        def prof(t: float) -> float:
            return 0.4 * (math.cos(2.0 * math.pi * t) + 1.5)

        def prim(t):
            return 0.4 * (np.sin(2.0 * np.pi * t) / (2.0 * np.pi) + 1.5 * t)

        return cls(beta, prof, prim)

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


# numpy's seeding of np.random.default_rng(seed), run for many seeds at
# once: SeedSequence(seed) hashes the seed's little-endian 32-bit words into
# a pool of 4 words, generate_state(4, uint64) hashes the pool into the
# PCG64 seed and increment, and PCG64's srandom step turns them into its
# 128-bit state.  numpy documents this seeding as stable across versions.
# A seed of up to 4 words fills the pool without the extra mixing rounds
# longer entropy takes, so seeds lie in [0, 2^128).  Each hash call
# xors its word with a running constant and multiplies it by the next one;
# those constants do not depend on the seed and are built here.  Mixing a
# hashed word y into a pool word x gives L x - R y.  Every hash and mix
# result is folded with its own right shift by 16; all of it is uint32
# arithmetic, wrapping as numpy's does.

_WORD = 0xFFFFFFFF
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_PCG_MASK = (1 << 128) - 1


def _hash_columns(init: int, mult: int, calls: int):
    # (xor, multiplier) constants of ``calls`` successive hash calls, as
    # read-only uint32 columns
    xors, mults = [], []
    for _ in range(calls):
        xors.append(init)
        init = init * mult & _WORD
        mults.append(init)
    cols = [np.array(c, dtype=np.uint32)[:, None] for c in (xors, mults)]
    for col in cols:
        col.flags.writeable = False
    return cols


_POOL_XOR, _POOL_MULT = _hash_columns(0x43B0D7E5, 0x931E8875, 16)


def _mix_columns() -> list:
    # The pool mixing updates, for each source word s = 0..3, every other
    # word in ascending order, with hash calls 4 + 3 s, 4 + 3 s + 1 and
    # 4 + 3 s + 2.  The words live in a ring of 8 rows, word k in rows k and
    # k + 4, so the words step s updates, (s + 1..s + 3) mod 4, are the
    # contiguous rows s + 1..s + 3: their hash constants, in ring order.
    columns = []
    for src in range(4):
        words = [(src + k) % 4 for k in (1, 2, 3)]
        calls = [4 + 3 * src + sorted(words).index(w) for w in words]
        columns.append((_POOL_XOR[calls], _POOL_MULT[calls]))
    return columns


_MIX_COLUMNS = _mix_columns()
_MIX_L = np.array(0xCA01F9DD, dtype=np.uint32)
_MIX_R = np.array(0x4973F715, dtype=np.uint32)
_SHIFT = np.array(16, dtype=np.uint32)
# generate_state reads the pool twice over: output word 4 j + k hashes
# pool word k with hash call 4 j + k
_STATE_XOR, _STATE_MULT = (c.reshape(2, 4, 1) for c in
                           _hash_columns(0x8B51F9DD, 0x58F38DED, 8))


def _fold(words: np.ndarray) -> None:
    # the hash's final xorshift, in place
    words ^= words >> _SHIFT


def _pcg64_states(seeds: Sequence) -> np.ndarray:
    """The PCG64 states of ``np.random.default_rng(seed)`` for each seed,
    without building a SeedSequence per seed: one pass of uint32 array
    arithmetic over all seeds.  Row i holds, as the uint64 words
    (s_hi, s_lo, i_hi, i_lo), the 128-bit seed s and sequence i that
    seeds[i] hashes to; ``Streams`` takes a row through PCG64's srandom
    step when it re-states its Generator, so a state costs 32 bytes until
    its stream is drawn."""
    try:
        raw = b"".join(operator.index(seed).to_bytes(16, "little")
                       for seed in seeds)
    except (TypeError, OverflowError):
        raise DomainError("seed must be an integer in [0, 2^128)",
                          field="seed") from None
    ring = np.empty((8, len(raw) // 16), dtype=np.uint32)
    pool = np.bitwise_xor(np.frombuffer(raw, "<u4").reshape(-1, 4).T,
                          _POOL_XOR[:4], out=ring[:4])
    pool *= _POOL_MULT[:4]
    _fold(pool)
    ring[4:7] = ring[:3]
    for src, (xor, mult) in enumerate(_MIX_COLUMNS):
        if src >= 2:  # row src + 3 holds word src - 1, updated at row src - 1
            ring[src + 3] = ring[src - 1]
        mixed = ring[src] ^ xor
        mixed *= mult
        _fold(mixed)
        mixed *= _MIX_R
        dst = ring[src + 1:src + 4]
        dst *= _MIX_L
        dst -= mixed
        _fold(dst)
    ring[7] = ring[3]  # now words 0..3 are rows 4..7
    out = ring[4:] ^ _STATE_XOR
    out *= _STATE_MULT
    _fold(out)
    return np.ascontiguousarray(out.reshape(8, -1).T,
                                dtype="<u4").view("<u8")


class Streams:
    """The streams of a run of PCG64 states, for one pass in order: each
    step re-states one Generator to the next state.  A slice holds a run
    of the states and shares the Generator.

    ``from_seeds(seeds)`` starts stream i where
    ``np.random.default_rng(seeds[i])`` starts, computing every state in
    one pass.  A seed is an integer in [0, 2^128); any other raises
    DomainError(field="seed")."""

    def __init__(self, rng: np.random.Generator, states: np.ndarray):
        self._rng = rng
        self._states = states

    @classmethod
    def from_seeds(cls, seeds: Sequence) -> "Streams":
        states = _pcg64_states(seeds)
        # seeded at 0 only to exist: each step re-states it
        return cls(np.random.Generator(np.random.PCG64(0)), states)

    def __getitem__(self, index: slice) -> "Streams":
        return Streams(self._rng, self._states[index])

    def __len__(self) -> int:
        return len(self._states)

    def __iter__(self) -> Iterator[np.random.Generator]:
        bitgen = self._rng.bit_generator
        # srandom(seed s, sequence i): inc = 2 i + 1, then state 0 steps to
        # inc, takes s and steps again; a step is state * _PCG_MULT + inc
        for s_hi, s_lo, i_hi, i_lo in self._states.tolist():
            inc = ((i_hi << 65) | (i_lo << 1) | 1) & _PCG_MASK
            state = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) \
                & _PCG_MASK
            bitgen.state = {"bit_generator": "PCG64",
                            "state": {"state": state, "inc": inc},
                            "has_uint32": 0, "uinteger": 0}
            yield self._rng


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

    beta = 2 with rho = 0 collapses to the Box-Muller form 2 sin(U) sqrt(V)
    (variance 2), beta = 1 with rho = 0 to the Cauchy quantile tan(U).

    For beta != 1 every factor but sin phi is positive, so a value has the
    sign of fl(U + B), the first rounded step of phi; at beta = 1 with
    rho = 0, tan U has the sign of U = U + B (B = 0).  A sign needs neither
    V nor the transform.  There are two exceptions, each drawn with
    probability about 2^-53 per value.  At V = 0.0 exactly (numpy's
    ziggurat) the value is +-0 for beta > 1 (and not finite for beta < 1)
    while fl(U + B) has a sign.  At rho = 1 a uniform draw of 0.0 puts U on
    -pi/2 and, for beta > 1, phi on -pi, where sin phi and cos U are both
    0: the rounding of phi decides the value's sign, while
    fl(U + B) = -pi/beta is negative.
    """
    stable_index(beta)
    skew(rho)
    # the steps run in place on a copy of u, in the order of the formulas
    # above, so each value is rounded as there; a 0-d input gives a
    # scalar, as a ufunc does
    shape = np.shape(uniform_u)
    u = np.array(uniform_u, dtype=float, ndmin=1)
    v = np.atleast_1d(np.asarray(exp_v, dtype=float))
    if beta == 1.0 and rho == 0.0:
        out = np.tan(u, out=u)
    elif beta == 1.0:
        w = rho * u
        w += 0.5 * np.pi
        arg = 0.5 * np.pi * v
        arg *= np.cos(u)
        arg /= w
        np.log(arg, out=arg)
        arg *= rho
        out = np.tan(u, out=u)
        out *= w
        out -= arg
        out *= 2.0 / np.pi
    else:
        a, b = _cms_constants(beta, rho)
        phase = u + b
        phase *= beta
        s = 0.5 * phase
        np.tan(s, out=s)
        sec2_w = np.subtract(u, phase, out=phase)
        np.tan(sec2_w, out=sec2_w)
        sec2_w **= 2
        sec2_w += 1.0
        sec2_u = np.tan(u, out=u)
        sec2_u **= 2
        sec2_u += 1.0
        sec2_w *= v
        sec2_w *= v
        sec2_w /= sec2_u
        sec2_w **= (beta - 1.0) / (2.0 * beta)
        den = s * s
        den += 1.0
        s *= 2.0 * a
        s /= den
        s *= np.sqrt(sec2_u, out=sec2_u)
        s *= sec2_w
        out = s
    return out.reshape(shape)[()]


def _cms_constants(beta: float, rho: float) -> tuple[float, float]:
    # (A, B) of the CMS transform's beta != 1 branch
    t = rho * math.tan(0.5 * math.pi * beta)
    return (1.0 + t * t) ** (0.5 / beta), math.atan(t) / beta


def _stable_cell(beta: float, rho: float, n: int, h: float, scale,
                 shift=None) -> Cell:
    # h^(1/beta) sigma underflows to 0 at a tiny h or sigma and overflows
    # to inf at a huge one
    if not np.all((scale > 0.0) & (scale < math.inf)):
        raise DomainError("stable increment scale underflowed to 0 or "
                          "overflowed to inf", beta=beta, h=h)
    # fill(streams): row r holds scale * S (+ shift) for S the n
    # S_beta(1, rho, 0) draws of the r-th stream, its n uniforms and then
    # its n exponentials.  The rows' draws are stacked into one (rows, n)
    # block and go through one CMS evaluation; every operation is
    # elementwise, so each row holds the values a block of that one row
    # would.  The uniforms are mapped onto (-pi/2, pi/2) over the block as
    # Generator.uniform maps each, -pi/2 + pi * r.  signs(streams) draws
    # only the uniforms and returns sign(fl(U + B)), the sign of each
    # value (the scale is positive).
    def uniforms(streams, exponentials=None) -> np.ndarray:
        u = np.empty((len(streams), n))
        for row, rng in enumerate(streams):
            rng.random(out=u[row])
            if exponentials is not None:
                rng.standard_exponential(out=exponentials[row])
        u *= np.pi
        u += -0.5 * np.pi
        return u

    def fill(streams) -> np.ndarray:
        v = np.empty((len(streams), n))
        values = sample_standard_stable(beta, rho, uniforms(streams, v), v)
        values *= scale
        if shift is not None:
            values += shift
        return values

    if shift is not None or (beta == 1.0 and rho != 0.0):
        return Cell(h, fill)
    b = _cms_constants(beta, rho)[1]

    def signs(streams) -> np.ndarray:
        phase = uniforms(streams)
        phase += b
        return np.sign(phase, out=phase)

    return Cell(h, fill, signs)


def increment_scale_shift(beta: float, sigma: float, rho: float,
                          gamma: float, h: float) -> tuple[float, float]:
    """(scale, shift) with increment over mesh h equal to scale * S + shift,
    S ~ S_beta(1, rho, 0), for L(X_1) = S_beta(sigma, rho, gamma).

    For beta = 1 the shift absorbs the logarithmic drift of the scaling
    relation: shift = (2 h sigma rho / pi) log(h sigma) + h gamma, where
    h sigma lies in (0, inf).  A scale of 0 or inf, which the cells refuse,
    comes with the shift h gamma.
    """
    positive("h", h)
    if beta != 1.0:
        return overflow_to_inf(operator.pow, h, 1.0 / beta) * sigma, h * gamma
    scale, shift = h * sigma, h * gamma
    if 0.0 < scale < math.inf:
        shift = 2.0 * h * sigma * rho / math.pi * math.log(scale) + h * gamma
    return scale, shift


def _positivity_rho(beta: float, p_pos: float) -> float:
    # the positivity form's domain, beta in (1, 2) and p in the open range
    # (1 - 1/beta, 1/beta); returns the skew-form rho(p)
    if not (1.0 < beta < 2.0):
        raise DomainError("positivity form requires beta in (1, 2)", beta=beta)
    lo, hi = positivity_range(beta)
    if not (lo < p_pos < hi):
        raise DomainError("positivity parameter outside (1 - 1/beta, 1/beta)",
                          p_pos=p_pos, lo=lo, hi=hi)
    return positivity_to_skew(beta, p_pos)


# A sample is its Cell drawn at one seed: ``<x>_cell(...).sample(seed)``.

def increments_cell(beta: float, sigma: float, rho: float, gamma: float,
                    h: float, n: int) -> Cell:
    """Cell of n i.i.d. increments over mesh h of the Levy process with
    L(X_1) = S_beta(sigma, rho, gamma).

    At beta = 2 the law is Gaussian and rho has no effect: a rho != 0 is
    reset to 0 with a warning, so the CMS constants are those of rho = 0."""
    stable_index(beta)
    positive("sigma", sigma)
    skew(rho)
    if beta == 2.0 and rho != 0.0:
        warnings.warn("beta = 2 is Gaussian: rho has no effect, resetting to 0")
        rho = 0.0
    sample_size(n)
    scale, shift = increment_scale_shift(beta, sigma, rho, gamma, h)
    return _stable_cell(beta, rho, n, h, scale, shift)


def sprime_cell(beta: float, p_pos: float, sigma: float, h: float,
                n: int) -> Cell:
    """Cell of n i.i.d. increments over mesh h of the strictly stable
    process with L(X_t) = S'_beta(p, t sigma^beta), beta in (1, 2) and p in
    (1 - 1/beta, 1/beta): each equals (h sigma^beta)^{1/beta} S for
    S ~ S_beta(1, rho(p), 0)."""
    rho = _positivity_rho(beta, p_pos)
    positive("sigma", sigma)
    positive("h", h)
    sample_size(n)
    level = h * overflow_to_inf(operator.pow, sigma, beta)
    return _stable_cell(beta, rho, n, h, level ** (1.0 / beta))


def timevarying_cell(path: ScalePath, p_pos: float, n: int) -> Cell:
    """Cell of the increments X_{j/n} - X_{(j-1)/n}, j = 1..n, of
    X_t = int_0^t sigma_{s-} dZ_s with L(Z_t) = S'_beta(p, t) and
    deterministic sigma.

    In law the j-th increment equals (sigma_bar_j / n)^{1/beta} zeta_j with
    zeta_j i.i.d. S'_beta(p, 1) and sigma_bar_j the block average of
    sigma^beta, which is what gets sampled; the block averages are computed
    once, when the cell is built.  A constant path takes the same standard
    draws as ``sprime_cell`` at equal seeds (the same sigma, h = 1/n),
    but its factor goes through n * diff(primitive) and so is rounded
    differently: the values are not equal but agree to within 4e-13
    relative (3.7e-13 at most over beta in {1.2, 1.5, 1.7} and n in
    {500, 1000, 2000, 5000}).
    """
    beta = path.beta
    rho = _positivity_rho(beta, p_pos)
    sample_size(n)
    return _stable_cell(beta, rho, n, 1.0 / n,
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
