"""Sign, ratio and multipower-variation estimators for skewed strictly
stable increments with deterministic, possibly time-varying scale.

Model: increments over [0, 1] of X_t = int_0^t sigma_{s-} dZ_s with
L(Z_t) = S'_beta(p, t), beta in (1, 2), positivity parameter
p = P(Z_1 > 0) in (1 - 1/beta, 1/beta).  In law the j-th of n increments is
(sigma_bar_j / n)^{1/beta} zeta_j with zeta_j i.i.d. S'_beta(p, 1), and the
estimands besides (p, beta) are the scale functionals
sigma*_q = int_0^1 sigma_s^q ds.  Every power statistic sums one power r
of the absolute increments over m consecutive factors: the power sum of
|D_j|^{2q} (m = 1), the bipower sums (m = 2) and the tripower sum at
r = beta_hat/3 (m = 3).

Closed-form fractional moments of zeta ~ S'_beta(p, 1), with
xi = beta pi (p - 1/2):

    mu_r  = E|zeta|^r
          = Gamma(1 - r/beta) cos(r xi / beta)
            / {Gamma(1 - r) cos(r pi / 2) |cos xi|^{r/beta}},   r in (-1, beta),
    nu_r  = E|zeta|^r sgn(zeta)
          = Gamma(1 - r/beta) sin(r xi / beta)
            / {Gamma(1 - r) sin(r pi / 2) |cos xi|^{r/beta}},   r in (-2, beta), r != -1.

Both are evaluated at the orders r in (0, beta) the estimators use (q to
4q, and beta/3) through the reflection identities
1 / {Gamma(1-r) cos(r pi/2)} = 2 sin(r pi/2) Gamma(r) / pi and
1 / {Gamma(1-r) sin(r pi/2)} = 2 cos(r pi/2) Gamma(r) / pi, which removes
the spurious singularity at r = 1.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .errors import (
    DomainError,
    InadmissiblePositivity,
    NoSignChange,
    RootOutOfBracket,
    SingularJacobian,
    each_row,
    only_row,
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
    "bipower_beta",
    "sigma_star_bipower",
    "tripower_integrated_scale",
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
    """E|zeta|^r for zeta ~ S'_beta(p, 1), r in (0, beta).

    At p = 1/2 this reduces to the symmetric constant C(beta, r)."""
    xi = _xi_admissible(beta, p_pos)
    if not (0.0 < r < beta):
        raise DomainError("moment order r must lie in (0, beta)",
                          r=r, beta=beta)
    front = (2.0 * math.sin(0.5 * math.pi * r) * math.exp(log_gamma(r))
             / math.pi)
    return (math.exp(log_gamma(1.0 - r / beta)) * front
            * math.cos(r * xi / beta) / math.cos(xi) ** (r / beta))


def nu_signed(beta: float, p_pos: float, r: float) -> float:
    """E{|zeta|^r sgn(zeta)} for zeta ~ S'_beta(p, 1), r in (0, beta).
    nu_1 = 0 (strictly stable laws with beta > 1 are centered)."""
    xi = _xi_admissible(beta, p_pos)
    if not (0.0 < r < beta):
        raise DomainError("signed moment order r must lie in (0, beta)",
                          r=r, beta=beta)
    front = (2.0 * math.cos(0.5 * math.pi * r) * math.exp(log_gamma(r))
             / math.pi)
    return (math.exp(log_gamma(1.0 - r / beta)) * front
            * math.sin(r * xi / beta) / math.cos(xi) ** (r / beta))


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


def _lag_products(x: np.ndarray, r: float, m: int) -> np.ndarray:
    """The multipower terms of one power r over m consecutive factors,

        prod_{l=1}^m |D_{j+l-1}|^r,  j = 1..n-m+1,

    of each row of x, a (rows, n) block of the absolute increments |D_j|.
    The power is raised once; the product multiplies shifted slices of
    that array, left to right."""
    n = x.shape[1]
    if n < m:
        raise DomainError("sample shorter than the power vector", n=n, m=m)
    powered = x ** r
    prod = powered[:, :n - m + 1]
    for l in range(1, m):
        prod = prod * powered[:, l:n - m + 1 + l]
    return prod


def _lag_sum(x: np.ndarray, r: float, m: int) -> np.ndarray:
    """The raw multipower sum of each row: its _lag_products summed."""
    return _lag_products(x, r, m).sum(axis=1)


def _normalized(n: int, total: float, r_plus: float, beta: float) -> float:
    # n^{r_plus/beta - 1} total: the multipower variation of a raw sum
    return n ** (r_plus / beta - 1.0) * total


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
    num, den = _lag_sum(x, q, 2), _lag_sum(x, 2.0 * q, 1)
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

    The products saturate to inf for huge increments, which a report
    refuses by name.
    """
    mu = mu_abs(beta_hat, p_hat, power)
    with np.errstate(over="ignore"):
        total = _lag_sum(np.abs(sample.values)[None], power, 2)
    return _normalized(sample.n, float(total[0]), 2.0 * power,
                       beta_hat) / (mu * mu)


def tripower_integrated_scale(x: np.ndarray, p_hat: float,
                              beta_hat: float) -> float:
    """Self-normalizing tripower estimate of sigma*_beta from the absolute
    increments x = |D_j|:

        M*_n(beta_hat) / mu_{beta_hat/3}(p_hat, beta_hat)^3,
        M*_n(beta) = sum_{j=1}^{n-2} prod_{l=1}^3 |D_{j+l-1}|^{beta/3}.

    The powers beta/3 stay below beta/2 for every admissible index, so no
    separate moment condition arises; the n^{.}-normalizations cancel at
    total power beta, so none is applied: the factor
    n^{(t+t+t)/beta_hat - 1} need not be exactly 1 in floating point and
    would move the result by ulps.  The products reach |D|^beta_hat: where
    their sum overflows but none of them does, the sum is recomputed in
    units of the largest, so a finite estimate is not read as inf, and a
    sum in range keeps its bits.  A product that saturates to inf for huge
    increments gives inf, which a report refuses by name.
    """
    third = beta_hat / 3.0
    with np.errstate(over="ignore"):
        terms = _lag_products(x[None], third, 3)
        mstar = float(terms.sum(axis=1)[0])
    mu3 = mu_abs(beta_hat, p_hat, third) ** 3
    if mstar == math.inf:
        top = float(terms.max())
        if top < math.inf:
            return top * (float(np.sum(terms / top)) / mu3)
    return mstar / mu3


# ---------------------------------------------------------------------------
# asymptotic covariances

def _system_cov(beta: float, p_pos: float, q: float, sigma_star_2q: float,
                sigma_star_4q: float) -> np.ndarray:
    """Asymptotic covariance Sigma of sqrt(n) (H_n - c, M_n(r) - mu_2q s,
    M_n(r') - mu_q^2 s), r = (2q, 0), r' = (q, q), c = 2p - 1,
    s = sigma*_{2q}, with mu_k = mu_abs(beta, p_pos, k) and
    nu_k = nu_signed(beta, p_pos, k):

        [[4 p (1-p),  A(r) s,        A(r') s],
         [.,          B(r, r) s_4,   B(r, r') s_4],
         [.,          .,             B(r', r') s_4]],   s_4 = sigma*_{4q},

    where for power pairs r = (r_1, r_2), with mu(r) = mu_{r_1} mu_{r_2},
    mu_0 = 1 and nu_0 = c,

        A(r)     = sum_l mu_{r_{3-l}} (nu_{r_l} - c mu_{r_l}),
        B(r, r') = mu_{r_1 + r'_1} mu_{r_2 + r'_2} - 3 mu(r) mu(r')
                   + mu_{r'_1} mu_{r'_2 + r_1} mu_{r_2}
                   + mu_{r_1} mu_{r_2 + r'_1} mu_{r'_2},

    so that B(r, r) = mu_4q - mu_2q^2 and B(r', r') = mu_2q^2 - 3 mu_q^4
    + 2 mu_q^2 mu_2q.  Each entry sums its terms in this order, with the
    zero and unit factors dropped, and takes 3q as the order sum 2q + q.
    """
    c = 2.0 * p_pos - 1.0
    mu_q = mu_abs(beta, p_pos, q)
    mu_2q = mu_abs(beta, p_pos, 2.0 * q)
    mu_3q = mu_abs(beta, p_pos, 2.0 * q + q)
    mu_4q = mu_abs(beta, p_pos, 4.0 * q)
    s, s_4 = float(sigma_star_2q), float(sigma_star_4q)
    a_q = mu_q * (nu_signed(beta, p_pos, q) - c * mu_q)
    lag = mu_3q * mu_q
    out = np.empty((3, 3))
    out[0, 0] = 4.0 * p_pos * (1.0 - p_pos)
    out[0, 1] = out[1, 0] = (nu_signed(beta, p_pos, 2.0 * q) - c * mu_2q) * s
    out[0, 2] = out[2, 0] = (a_q + a_q) * s
    out[1, 1] = (mu_4q - 3.0 * mu_2q * mu_2q + 2.0 * mu_2q * mu_2q) * s_4
    out[1, 2] = out[2, 1] = (lag - 3.0 * mu_2q * (mu_q * mu_q)
                             + (lag + mu_2q * mu_q * mu_q)) * s_4
    out[2, 2] = (mu_2q * mu_2q - 3.0 * (mu_q * mu_q) * (mu_q * mu_q)
                 + 2.0 * (mu_q * mu_2q * mu_q)) * s_4
    return out


def delta_cov(beta: float, p_pos: float, q: float, sigma_star_2q: float,
              sigma_star_4q: float) -> np.ndarray:
    """Delta-method covariance of (p_hat, beta_hat, sigma*_hat_{2q}) from the
    estimating system r = (2q, 0), r' = (q, q):

        F(p, beta, s) = (2p - 1, mu_2q s, mu_q^2 s),   s = sigma*_{2q},
        V = (grad F)^{-1} Sigma (grad F)^{-T},

    with Sigma evaluated at sigma*_{2q} and sigma*_{4q} (see _system_cov).
    Partial derivatives of (mu_2q, mu_q^2) in (p, beta) use central
    differences with relative step 1e-6.  Requires q < beta/4; raises
    SingularJacobian when grad F is numerically singular.
    """
    if not (0.0 < q < 0.25 * beta):
        raise DomainError("power q must lie in (0, beta/4)", q=q, beta=beta)
    sigma = _system_cov(beta, p_pos, q, sigma_star_2q, sigma_star_4q)
    s = float(sigma_star_2q)

    def means(b: float, pp: float) -> np.ndarray:
        # (mu(r), mu(r')) = (mu_2q, mu_q^2)
        mu_q = mu_abs(b, pp, q)
        return np.array([mu_abs(b, pp, 2.0 * q), mu_q * mu_q])

    db = 1e-6 * beta
    dp = 1e-6 * max(p_pos, 0.1)
    d_p = (means(beta, p_pos + dp) - means(beta, p_pos - dp)) / (2.0 * dp)
    d_b = (means(beta + db, p_pos) - means(beta - db, p_pos)) / (2.0 * db)
    mu = means(beta, p_pos)
    grad = np.zeros((3, 3))
    grad[0, 0] = 2.0
    grad[1:, 0] = s * d_p
    grad[1:, 1] = s * d_b
    grad[1:, 2] = mu
    # det(grad F) = 2 s {mu_b(r) mu(r') - mu_b(r') mu(r)}, mu_b = d mu / d
    # beta; testing the bracket against its terms keeps the scale s out
    lead, cross = d_b[0] * mu[1], d_b[1] * mu[0]
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
