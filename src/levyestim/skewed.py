"""Sign, ratio and multipower-variation estimators for skewed strictly
stable increments with deterministic, possibly time-varying scale.

Model: increments over [0, 1] of X_t = int_0^t sigma_{s-} dZ_s with
L(Z_t) = S'_beta(p, t), beta in (1, 2), positivity parameter
p = P(Z_1 > 0) in (1 - 1/beta, 1/beta).  In law the j-th of n increments is
(sigma_bar_j / n)^{1/beta} zeta_j with zeta_j i.i.d. S'_beta(p, 1), and the
estimands besides (p, beta) are the scale functionals
sigma*_q = int_0^1 sigma_s^q ds.

Closed-form fractional moments of zeta ~ S'_beta(p, 1), with
xi = beta pi (p - 1/2):

    mu_r  = E|zeta|^r
          = Gamma(1 - r/beta) cos(r xi / beta)
            / {Gamma(1 - r) cos(r pi / 2) |cos xi|^{r/beta}},   r in (-1, beta),
    nu_r  = E|zeta|^r sgn(zeta)
          = Gamma(1 - r/beta) sin(r xi / beta)
            / {Gamma(1 - r) sin(r pi / 2) |cos xi|^{r/beta}},   r in (-2, beta), r != -1.

Both are evaluated through the reflection identities
1 / {Gamma(1-r) cos(r pi/2)} = 2 sin(r pi/2) Gamma(r) / pi and
1 / {Gamma(1-r) sin(r pi/2)} = 2 cos(r pi/2) Gamma(r) / pi, which removes
the spurious singularities at r = 1 (and r = 0 after the obvious limits
mu_0 = 1, nu_0 = 2p - 1).
"""

from __future__ import annotations

import math
import warnings
from typing import Sequence

import numpy as np

from .errors import (
    DomainError,
    InadmissiblePositivity,
    NoSignChange,
    RootOutOfBracket,
    SingularJacobian,
    each_row,
    only_row,
    stable_index,
)
from .serialize import EstimateReport, check_finite
from .special_fn import (
    find_root_monotone,
    log_gamma,
    log_gamma_ratio,
    overflow_to_inf,
)
from .stable_core import IncrementSample

__all__ = [
    "sign_block",
    "bipower_block",
    "sign_bipower_block",
    "tripower_block",
    "sign_statistic",
    "mu_abs",
    "nu_signed",
    "mu_product",
    "mpv",
    "bipower_beta",
    "sigma_star_bipower",
    "tripower_integrated_scale",
    "mpv_cov",
    "delta_cov",
    "sign_bipower_point",
    "tripower_point",
    "sign_bipower_estimate",
    "tripower_estimate",
]


# ---------------------------------------------------------------------------
# closed-form moments

def _xi_admissible(beta: float, p_pos: float) -> float:
    """xi = beta pi (p - 1/2) of the moment formulas.  Only cos xi <= 0,
    that is |p - 1/2| >= 1/(2 beta), raises InadmissiblePositivity: fewer p
    than the law's range (1 - 1/beta, 1/beta) leaves out, so
    mu_abs(1.5, 0.7, 0.5) = 1.2267 though no law of index 1.5 has
    p = 0.7.  This rule decides which golden-table replications fail."""
    if not (1.0 < beta < 2.0):
        raise DomainError("moment formulas require beta in (1, 2)", beta=beta)
    if not (0.0 <= p_pos <= 1.0):
        raise DomainError("positivity parameter must lie in [0, 1]",
                          p_pos=p_pos)
    xi = beta * math.pi * (p_pos - 0.5)
    if math.cos(xi) <= 0.0:
        raise InadmissiblePositivity("positivity parameter has "
                                     "|p - 1/2| >= 1/(2 beta), where "
                                     "cos xi <= 0",
                                     beta=beta, p_pos=p_pos, xi=xi)
    return xi


def mu_abs(beta: float, p_pos: float, r: float) -> float:
    """E|zeta|^r for zeta ~ S'_beta(p, 1), r in [0, beta).

    At p = 1/2 this reduces to the symmetric constant C(beta, r)."""
    xi = _xi_admissible(beta, p_pos)
    if not (0.0 <= r < beta):
        raise DomainError("moment order r must lie in [0, beta)",
                          r=r, beta=beta)
    if r == 0.0:
        return 1.0
    front = (2.0 * math.sin(0.5 * math.pi * r) * math.exp(log_gamma(r))
             / math.pi)
    return (math.exp(log_gamma(1.0 - r / beta)) * front
            * math.cos(r * xi / beta) / math.cos(xi) ** (r / beta))


def nu_signed(beta: float, p_pos: float, r: float) -> float:
    """E{|zeta|^r sgn(zeta)} for zeta ~ S'_beta(p, 1), r in [0, beta).
    nu_0 = 2p - 1 (the sign mean) and nu_1 = 0 (strictly stable laws with
    beta > 1 are centered)."""
    xi = _xi_admissible(beta, p_pos)
    if not (0.0 <= r < beta):
        raise DomainError("signed moment order r must lie in [0, beta)",
                          r=r, beta=beta)
    if r == 0.0:
        return 2.0 * p_pos - 1.0
    front = (2.0 * math.cos(0.5 * math.pi * r) * math.exp(log_gamma(r))
             / math.pi)
    return (math.exp(log_gamma(1.0 - r / beta)) * front
            * math.sin(r * xi / beta) / math.cos(xi) ** (r / beta))


def _check_powers(beta: float, r: Sequence[float]) -> np.ndarray:
    arr = np.asarray(r, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise DomainError("power vector must be a nonempty sequence",
                          r=list(np.atleast_1d(r)))
    if np.any(arr < 0.0):
        raise DomainError("powers must be nonnegative", r=arr.tolist())
    if not float(arr.sum()) > 0.0:
        raise DomainError("powers must not all vanish", r=arr.tolist())
    if not float(arr.max()) < 0.5 * beta:
        raise DomainError("each power must stay below beta / 2",
                          r=arr.tolist(), beta=beta)
    return arr


def mu_product(beta: float, p_pos: float, r: Sequence[float]) -> float:
    """mu(r; p, beta) = prod_l mu_{r_l}, the multipower-variation mean."""
    arr = _check_powers(beta, r)
    return math.prod(mu_abs(beta, p_pos, float(rl)) for rl in arr)


# ---------------------------------------------------------------------------
# sample statistics

def _sign_hats(block: np.ndarray) -> list[float]:
    # p_hat = (H_n + 1)/2 of each row, H_n the row's mean increment sign;
    # a row with exact zeros warns
    if not block.all():
        zeros = np.count_nonzero(block == 0.0, axis=1)
        for count in zeros[zeros > 0].tolist():
            warnings.warn(f"{count} zero increment(s): data may be rounded "
                          "or degenerate; they enter the sign statistic as 0")
    return (0.5 * (np.mean(np.sign(block), axis=1) + 1.0)).tolist()


def sign_block(block: np.ndarray) -> list:
    """(p_hat,) of each row of a (rows, n) block of increments (see
    sign_statistic)."""
    return [(p_hat,) for p_hat in _sign_hats(block)]


def sign_statistic(sample: IncrementSample) -> float:
    """Positivity estimate p_hat = (H_n + 1)/2 with H_n the mean increment
    sign; sqrt(n)(p_hat - p) -> N(0, p(1-p)).  Exact zeros enter H_n with
    sign 0 and trigger a data-quality warning."""
    return _sign_hats(sample.values[None])[0]


def _power_sums(x: np.ndarray, *rs) -> tuple[np.ndarray, ...]:
    """For each power vector r = (r_1, ..., r_m) the raw multipower sum

        sum_{j=1}^{n-m+1} prod_{l=1}^m |D_{j+l-1}|^{r_l}

    of each row of x, a (rows, n) block of the absolute increments |D_j|.
    Each distinct power is raised once; the products multiply shifted
    slices of those arrays."""
    n = x.shape[1]
    powered = {}
    sums = []
    for r in rs:
        m = len(r)
        if n < m:
            raise DomainError("sample shorter than the power vector", n=n, m=m)
        prod = None
        for l, rl in enumerate(r):
            if rl not in powered:
                powered[rl] = x ** rl
            term = powered[rl][:, l:n - m + 1 + l]
            prod = term if prod is None else prod * term
        sums.append(prod.sum(axis=1))
    return tuple(sums)


def _normalized(n: int, total: float, r_plus: float, beta: float) -> float:
    # n^{r_plus/beta - 1} total: the multipower variation of a raw sum
    return n ** (r_plus / beta - 1.0) * total


def mpv(sample: IncrementSample, beta: float, r: Sequence[float]) -> float:
    """Normalized multipower variation

        M_n(r) = (1/n) sum_{j=1}^{n-m+1} prod_{l=1}^m
                 |n^{1/beta} Delta_{j+l-1} X|^{r_l}

    for increments over [0, 1] (mesh 1/n)."""
    arr = np.asarray(r, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise DomainError("power vector must be a nonempty sequence",
                          r=list(np.atleast_1d(r)))
    stable_index(beta)
    total, = _power_sums(np.abs(sample.values)[None], arr)
    return _normalized(sample.n, float(total[0]), float(arr.sum()), beta)


def _bipower_rows(block: np.ndarray, q: float, p_hats: list, finish) -> list:
    """finish(p_hat, beta_hat, den, x) of each row of a (rows, n) block,
    beta_hat the row's bipower index root at its p_hat (see bipower_beta),
    den its sum of |D_j|^{2q} and x its absolute increments; a row whose
    root or finish fails yields its EstimationError."""
    if not (0.0 < q < 0.5):
        raise DomainError("power q must lie in (0, 1/2)", q=q)
    for p_hat in p_hats:
        if not (0.0 <= p_hat <= 1.0):
            raise DomainError("positivity estimate must lie in [0, 1]",
                              p_hat=p_hat)
    x = np.abs(block)
    num, den = _power_sums(x, (q, q), (2.0 * q,))
    c1 = math.exp(log_gamma(1.0 - 2.0 * q)
                  - 2.0 * log_gamma(1.0 - q)) * math.cos(math.pi * q) \
        / math.cos(0.5 * math.pi * q) ** 2
    lo, hi = max(4.0 * q, 1.0) + 1e-9, 2.0 - 1e-9

    def point(p_hat, num, den, x):
        if den <= 0.0 or num <= 0.0:
            raise InadmissiblePositivity("degenerate power sums", num=num,
                                         den=den)
        ang = math.pi * q * (p_hat - 0.5)
        c2 = math.cos(ang) ** 2 / math.cos(2.0 * ang)
        target = num / den / (c1 * c2)
        log_target = math.log(target)

        def gap(beta: float) -> float:
            return log_gamma_ratio(beta, q) - log_target

        try:
            beta_hat = find_root_monotone(gap, lo, hi)
        except NoSignChange as exc:
            raise RootOutOfBracket("bipower ratio outside the admissible "
                                   "index interval", target=target, q=q,
                                   lo=lo, hi=hi) from exc
        return finish(p_hat, beta_hat, den, x)

    return each_row(point, p_hats, num.tolist(), den.tolist(), x)


def bipower_block(block: np.ndarray, q: float) -> list:
    """(beta_hat,) of each row of a (rows, n) block of increments: the
    bipower index root at the row's sign statistic, or the row's
    EstimationError (see bipower_beta)."""
    return _bipower_rows(block, q, _sign_hats(block),
                         lambda p_hat, beta_hat, den, x: (beta_hat,))


def bipower_beta(sample: IncrementSample, q: float, p_hat: float) -> float:
    """Index estimate from the bipower/power ratio: beta_hat solves

        sum_{j<n} |D_j|^q |D_{j+1}|^q / sum_j |D_j|^{2q}
            = C_1(q) C_2(q, p_hat) Gamma(1 - q/beta)^2 / Gamma(1 - 2q/beta)

    with D_j the raw increments,

        C_1(q) = Gamma(1-2q) cos(q pi) / {Gamma(1-q) cos(q pi/2)}^2,
        C_2(q, p_hat) = cos^2{q pi (p_hat - 1/2)} / cos{2 q pi (p_hat - 1/2)}.

    The map beta -> Gamma(1-q/beta)^2 / Gamma(1-2q/beta) is strictly
    increasing on (max(4q, 1), 2), which is the search interval; a ratio
    outside its image raises RootOutOfBracket.  The root solved is that of
    the log form

        log Gamma(1-q/beta)^2 / Gamma(1-2q/beta) = log(ratio / (C_1 C_2)).
    """
    return only_row(_bipower_rows(sample.values[None], q, [p_hat],
                                  lambda p_hat, beta_hat, den, x: beta_hat))


def sigma_star_bipower(sample: IncrementSample, p_hat: float,
                       beta_hat: float, power: float) -> float:
    """Plug-in estimate of sigma*_{2 power} from adjacent products:

        n^{2 power/beta_hat - 1} sum_{j<n} |D_j D_{j+1}|^{power}
            / mu_{power}(p_hat, beta_hat)^2.
    """
    mu = mu_abs(beta_hat, p_hat, power)
    return mpv(sample, beta_hat, (power, power)) / (mu * mu)


def tripower_integrated_scale(x: np.ndarray, p_hat: float,
                              beta_hat: float) -> float:
    """Self-normalizing tripower estimate of sigma*_beta from the absolute
    increments x = |D_j|:

        M*_n(beta_hat) / mu_{beta_hat/3}(p_hat, beta_hat)^3,
        M*_n(beta) = sum_{j=1}^{n-2} prod_{l=1}^3 |D_{j+l-1}|^{beta/3}.

    The powers beta/3 stay below beta/2 for every admissible index, so no
    separate moment condition arises; the n^{.}-normalizations cancel at
    total power beta.  Not through mpv: its factor
    n^{(t+t+t)/beta_hat - 1} need not be exactly 1 in floating point and
    would move the result by ulps.  The products reach |D|^beta_hat and
    saturate to inf for huge increments, which a report refuses by name.
    """
    third = beta_hat / 3.0
    with np.errstate(over="ignore"):
        mstar, = _power_sums(x[None], (third, third, third))
    return float(mstar[0]) / mu_abs(beta_hat, p_hat, third) ** 3


# ---------------------------------------------------------------------------
# asymptotic covariances

def a_cross(beta: float, p_pos: float, r: Sequence[float]) -> float:
    """Sign/power covariance weight

        A(r) = sum_q (prod_{l != q} mu_{r_l}) {nu_{r_q} - (2p-1) mu_{r_q}}.
    """
    arr = _check_powers(beta, r)
    mus = [mu_abs(beta, p_pos, float(rl)) for rl in arr]
    total = 0.0
    for qi in range(arr.size):
        rest = math.prod(m for l, m in enumerate(mus) if l != qi)
        nu = nu_signed(beta, p_pos, float(arr[qi]))
        total += rest * (nu - (2.0 * p_pos - 1.0) * mus[qi])
    return total


def b_cross(beta: float, p_pos: float, r: Sequence[float],
            r_prime: Sequence[float]) -> float:
    """Power/power covariance weight for two power vectors of equal length m:

        B(r, r') = prod_l mu_{r_l + r'_l} - (2m - 1) prod_l mu_{r_l} prod_l mu_{r'_l}
                   + sum_{q=1}^{m-1} {
                       (prod_{l<=m-q} mu_{r'_l})
                       (prod_{l>m-q} mu_{r'_l + r_{l-m+q}})
                       (prod_{l>q} mu_{r_l})
                     + the same with r and r' exchanged }.

    For m = 1 this is the plain variance weight mu_{2s} - mu_s^2.
    """
    arr = _check_powers(beta, r)
    arr2 = _check_powers(beta, r_prime)
    m = arr.size
    if arr2.size != m:
        raise DomainError("power vectors must share one length",
                          m=m, m_prime=int(arr2.size))

    def mu(v: float) -> float:
        return mu_abs(beta, p_pos, v)

    def lagged(a, mus_a, b, mus_b, q: int) -> float:
        # (prod_{l<=m-q} mu_{b_l}) (prod_{l>m-q} mu_{b_l + a_{l-m+q}})
        # (prod_{l>q} mu_{a_l}), l 1-based as in the docstring
        return math.prod([*mus_b[:m - q],
                          *(mu(float(b[k] + a[k - m + q]))
                            for k in range(m - q, m)),
                          *mus_a[q:]])

    mus = [mu(float(v)) for v in arr]
    mus2 = [mu(float(v)) for v in arr2]
    total = math.prod(mu(float(a + a2)) for a, a2 in zip(arr, arr2))
    total -= (2.0 * m - 1.0) * math.prod(mus) * math.prod(mus2)
    for qi in range(1, m):
        total += (lagged(arr, mus, arr2, mus2, qi)
                  + lagged(arr2, mus2, arr, mus, qi))
    return total


def mpv_cov(beta: float, p_pos: float, r: Sequence[float],
            r_prime: Sequence[float], sigma_star) -> np.ndarray:
    """Asymptotic covariance of sqrt(n) (H_n - (2p-1), M_n(r) - mu(r) sigma*_{r+},
    M_n(r') - mu(r') sigma*_{r'+}):

        [[4 p (1-p),            A(r) sigma*_{r+},        A(r') sigma*_{r'+}],
         [.,                    B(r, r) sigma*_{2 r+},   B(r, r') sigma*_{r+ + r'+}],
         [.,                    .,                       B(r', r') sigma*_{2 r'+}]].

    sigma_star is a callable q -> sigma*_q; pass ``path.sigma_star`` for a
    ScalePath.
    """
    arr = _check_powers(beta, r)
    arr2 = _check_powers(beta, r_prime)
    rp = float(arr.sum())
    rp2 = float(arr2.sum())
    s_rp = float(sigma_star(rp))
    s_rp2 = float(sigma_star(rp2))
    s_2rp = float(sigma_star(2.0 * rp))
    s_cross = float(sigma_star(rp + rp2))
    s_2rp2 = float(sigma_star(2.0 * rp2))
    out = np.empty((3, 3))
    out[0, 0] = 4.0 * p_pos * (1.0 - p_pos)
    out[0, 1] = out[1, 0] = a_cross(beta, p_pos, arr) * s_rp
    out[0, 2] = out[2, 0] = a_cross(beta, p_pos, arr2) * s_rp2
    out[1, 1] = b_cross(beta, p_pos, arr, arr) * s_2rp
    out[1, 2] = out[2, 1] = b_cross(beta, p_pos, arr, arr2) * s_cross
    out[2, 2] = b_cross(beta, p_pos, arr2, arr2) * s_2rp2
    return out


def delta_cov(beta: float, p_pos: float, q: float, sigma_star_2q: float,
              sigma_star_4q: float) -> np.ndarray:
    """Delta-method covariance of (p_hat, beta_hat, sigma*_hat_{2q}) from the
    estimating system r = (2q, 0), r' = (q, q):

        F(p, beta, s) = (2p - 1, mu(r) s, mu(r') s),   s = sigma*_{2q},
        V = (grad F)^{-1} Sigma (grad F)^{-T},

    with Sigma = mpv_cov(...) evaluated at sigma*_{2q} and sigma*_{4q}.
    Partial derivatives of mu in (p, beta) use central differences with
    relative step 1e-6.  Requires q < beta/4; raises SingularJacobian when
    grad F is numerically singular.
    """
    if not (0.0 < q < 0.25 * beta):
        raise DomainError("power q must lie in (0, beta/4)", q=q, beta=beta)
    r = (2.0 * q, 0.0)
    rp = (q, q)
    s = float(sigma_star_2q)
    # the power sums of r and r' are 2q and the cross/doubled sums 4q,
    # all exact in floating point, so the lookups hit these keys
    powers = {2.0 * q: sigma_star_2q, 4.0 * q: sigma_star_4q}
    sigma = mpv_cov(beta, p_pos, r, rp, powers.__getitem__)

    db = 1e-6 * beta
    dp = 1e-6 * max(p_pos, 0.1)
    grad = np.zeros((3, 3))
    grad[0, 0] = 2.0
    d_beta = []
    for row, vec in ((1, r), (2, rp)):
        d_p = (mu_product(beta, p_pos + dp, vec)
               - mu_product(beta, p_pos - dp, vec)) / (2.0 * dp)
        d_b = (mu_product(beta + db, p_pos, vec)
               - mu_product(beta - db, p_pos, vec)) / (2.0 * db)
        grad[row] = s * d_p, s * d_b, mu_product(beta, p_pos, vec)
        d_beta.append(d_b)
    # det(grad F) = 2 s {mu_b(r) mu(r') - mu_b(r') mu(r)}, mu_b = d mu / d
    # beta; testing the bracket against its terms keeps the scale s out
    lead, cross = d_beta[0] * grad[2, 2], d_beta[1] * grad[1, 2]
    if abs(lead - cross) <= 1e-12 * (abs(lead) + abs(cross)):
        raise SingularJacobian("estimating-equation Jacobian is singular",
                               det=float(np.linalg.det(grad)), beta=beta,
                               p_pos=p_pos, q=q)
    inv = np.linalg.inv(grad)
    return inv @ sigma @ inv.T


# ---------------------------------------------------------------------------
# multi-step drivers

def sign_bipower_block(block: np.ndarray, q: float) -> list:
    """(p_hat, beta_hat, sigma_hat, s_p) of each row of a (rows, n) block
    of increments, or the row's EstimationError (see sign_bipower_point)."""
    n = block.shape[1]
    p = 2.0 * q

    def finish(p_hat, beta_hat, den, x):
        mu = mu_abs(beta_hat, p_hat, p)
        s_p = _normalized(n, den, p, beta_hat) / mu
        if s_p <= 0.0:
            raise InadmissiblePositivity("nonpositive scale functional",
                                         s_p=s_p)
        return p_hat, beta_hat, overflow_to_inf(math.pow, s_p, 1.0 / p), s_p

    return _bipower_rows(block, q, _sign_hats(block), finish)


def sign_bipower_point(sample: IncrementSample,
                       q: float) -> tuple[float, float, float, float]:
    """Three-step estimate (p_hat, beta_hat, sigma_hat, s_p) for constant
    scale: p_hat from signs, beta_hat from the bipower ratio at power q, then
    the plug-in sigma*_hat_p

        s_p = n^{p/beta_hat - 1} sum_j |D_j|^p / mu_p(p_hat, beta_hat)

    (InadmissiblePositivity unless positive) and sigma_hat = s_p^{1/p} with
    p = 2q (inf where that overflows)."""
    return only_row(sign_bipower_block(sample.values[None], q))


def tripower_block(block: np.ndarray, q: float) -> list:
    """(p_hat, beta_hat, sigma*_hat_beta, s_p) of each row of a (rows, n)
    block, or the row's EstimationError (see tripower_point)."""
    n = block.shape[1]
    p = 2.0 * q

    def finish(p_hat, beta_hat, den, x):
        s_star = tripower_integrated_scale(x, p_hat, beta_hat)
        s_p = _normalized(n, den, p, beta_hat) / mu_abs(beta_hat, p_hat, p)
        return p_hat, beta_hat, s_star, s_p

    return _bipower_rows(block, q, _sign_hats(block), finish)


def tripower_point(sample: IncrementSample,
                   q: float) -> tuple[float, float, float, float]:
    """Three-step estimate (p_hat, beta_hat, sigma*_hat_beta, s_p) of the
    integrated scale under time-varying scale: p_hat and beta_hat as in
    sign_bipower_point, then the self-normalizing tripower statistic; s_p
    is sign_bipower_point's, without its positivity check."""
    return only_row(tripower_block(sample.values[None], q))


def sign_bipower_estimate(sample: IncrementSample,
                          q: float = 0.25) -> EstimateReport:
    """sign_bipower_point plus the delta-method covariance V of
    (p_hat, beta_hat, sigma*_hat_p)."""
    p_hat, beta_hat, sigma_hat, s_p = sign_bipower_point(sample, q)
    with np.errstate(over="ignore"):  # an inf sum is named below
        s_2p = sigma_star_bipower(sample, p_hat, beta_hat, 2.0 * q)
    extra = {"p_pos_hat": p_hat, "q": q, "sigma_star_p": s_p,
             "sigma_star_2p": s_2p,
             "cov_coords": ["p_pos", "beta", "sigma_star_p"]}
    check_finite("sign-bipower", beta_hat=beta_hat, sigma_hat=sigma_hat,
                 extra=extra)
    return EstimateReport(
        method="sign-bipower", n=sample.n, h=sample.h,
        beta_hat=beta_hat, sigma_hat=sigma_hat,
        cov_matrix=delta_cov(beta_hat, p_hat, q, s_p, s_2p), extra=extra)


def tripower_estimate(sample: IncrementSample,
                      q: float = 0.25) -> EstimateReport:
    """tripower_point with sigma_hat carrying sigma*_hat_beta; its
    (log n / sqrt(n))-rate asymptotic variance (sigma*_beta / beta)^2 V_22
    is reported in extra."""
    p_hat, beta_hat, s_star, s_p = tripower_point(sample, q)
    with np.errstate(over="ignore"):  # an inf sum is named below
        s_2p = sigma_star_bipower(sample, p_hat, beta_hat, 2.0 * q)
    check_finite("tripower", beta_hat=beta_hat, sigma_hat=s_star,
                 extra={"p_pos_hat": p_hat}, sigma_star_p=s_p,
                 sigma_star_2p=s_2p)
    v22 = float(delta_cov(beta_hat, p_hat, q, s_p, s_2p)[1, 1])
    avar = overflow_to_inf(math.pow, s_star / beta_hat, 2) * v22
    return EstimateReport(
        method="tripower", n=sample.n, h=sample.h,
        beta_hat=beta_hat, sigma_hat=s_star,
        extra={"p_pos_hat": p_hat, "q": q, "estimand": "sigma_star_beta",
               "avar_sigma_star": avar, "rate": "sqrt(n)/log(n)"})
