"""Symmetric stable density, its derivative and Fisher information."""

import functools
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate

from levyestim import stable_density
from levyestim.cli import main
from levyestim.errors import DomainError, QuadratureError
from levyestim.special_fn import log_gamma
from levyestim.stable_density import (
    fisher_matrix,
    median_asymptotic_sd,
    phi_pair,
    phi_zero,
)

# regression values for the information integrals (quadrature, frozen)
H_BETA_15 = 0.9555597382722596
M_BETA_15 = 0.4280969796150823


def test_cauchy_closed_form():
    # beta = 1 is exactly Cauchy: phi(y) = 1/(pi (1 + y^2))
    assert abs(phi_pair(0.0, 1.0)[0] - 1 / np.pi) < 1e-8
    for y in (0.5, 1.0, 2.0, 10.0):
        assert phi_pair(y, 1.0)[0] == pytest.approx(1 / (np.pi * (1 + y * y)),
                                                    abs=1e-10)
        exact_d1 = -2 * y / (np.pi * (1 + y * y) ** 2)
        assert phi_pair(y, 1.0)[1] == pytest.approx(exact_d1, abs=1e-10)


def test_phi_zero_formula():
    for beta in (0.6, 1.0, 1.5, 1.9):
        exact = math.exp(log_gamma(1 + 1 / beta)) / np.pi
        assert abs(phi_pair(0.0, beta)[0] - exact) < 1e-10
        assert abs(phi_zero(beta) - exact) < 1e-14
        # another scale enters through phi_pair alone
        assert abs(phi_pair(0.0, beta, 2.0)[0] - exact / 2) < 1e-14


@pytest.mark.parametrize("beta", [0.5, 0.8, 0.97, 1.0, 1.0 + 1e-9, 1.3, 1.5,
                                  1.9])
def test_phi_at_zero_is_closed_form(beta):
    assert phi_pair(0.0, beta)[0] == phi_zero(beta)
    assert phi_pair(0.0, beta)[1] == 0.0


@pytest.mark.parametrize("y, first, count", [
    (np.array([0.0, np.nan]), 1, 1),
    (np.array([0.0, np.nan, 1.0, np.inf]), 1, 2),
    (-np.inf, 0, 1),
])
def test_non_finite_argument_is_domain_error(y, first, count):
    with pytest.raises(DomainError) as exc:
        phi_pair(y, 1.5)
    assert exc.value.context == {"first_index": first, "count": count}


@pytest.mark.parametrize("beta", [0.6, 1.0, 1.5, 1.9])
def test_normalization(beta):
    # quadrature over [0, 50] plus the tail integral from the asymptotic
    # series, term-wise integrable in closed form
    core, _ = scipy.integrate.quad(lambda y: phi_pair(y, beta)[0], 0, 50,
                                   epsabs=1e-12, epsrel=1e-10, limit=300)
    tail = 0.0
    for m in range(1, 9):
        coef = ((-1) ** (m + 1) / np.pi * math.exp(log_gamma(1 + m * beta))
                / math.factorial(m) * math.sin(m * np.pi * beta / 2))
        tail += coef * 50.0 ** (-m * beta) / (m * beta)
    assert abs(2 * (core + tail) - 1.0) < 1e-6


def test_gaussian_limit():
    # beta -> 2 continuity against N(0, 2)
    for y in (0.0, 1.0, 2.0):
        normal = math.exp(-y * y / 4) / math.sqrt(4 * np.pi)
        assert abs(phi_pair(y, 1.99)[0] - normal) < 2e-2


@pytest.mark.parametrize("beta", [0.8, 1.5])
@pytest.mark.parametrize("y", [0.5, 2.0, 10.0])
def test_derivative_finite_difference(beta, y):
    eps = 1e-5
    fd1 = (phi_pair(y + eps, beta)[0] - phi_pair(y - eps, beta)[0]) / (2 * eps)
    assert phi_pair(y, beta)[1] == pytest.approx(fd1, rel=1e-5, abs=1e-9)


@pytest.mark.parametrize("beta", [0.6, 1.0, 1.5])
def test_tail_ratio_stabilizes(beta):
    # phi(y) y^{1+beta} approaches a positive constant; monitor its
    # stabilization between y = 20 and y = 40 rather than its exact value
    lead = (math.exp(log_gamma(1 + beta)) / np.pi
            * math.sin(np.pi * beta / 2))
    r20 = phi_pair(20.0, beta)[0] * 20.0 ** (1 + beta)
    r40 = phi_pair(40.0, beta)[0] * 40.0 ** (1 + beta)
    assert r20 > 0 and r40 > 0
    assert abs(r40 / r20 - 1.0) < 0.1
    # and the limit constant is the first series coefficient
    assert abs(r40 / lead - 1.0) < 0.1


def test_symmetry_and_parity():
    for beta in (0.7, 1.4):
        for y in (0.3, 1.7, 35.0):
            assert phi_pair(-y, beta)[0] == phi_pair(y, beta)[0]
            assert phi_pair(-y, beta)[1] == -phi_pair(y, beta)[1]
    assert phi_pair(0.0, 1.3)[1] == 0.0


def test_scale_family():
    for sigma in (0.5, 2.0):
        for y in (0.4, 3.0):
            assert phi_pair(y, 1.5, sigma)[0] == pytest.approx(
                phi_pair(y / sigma, 1.5)[0] / sigma, rel=1e-12)
            assert phi_pair(y, 1.5, sigma)[1] == pytest.approx(
                phi_pair(y / sigma, 1.5)[1] / sigma ** 2, rel=1e-12)


def test_information_integrals_cauchy():
    # H_1 = M_1 = 1/2 analytically
    info = fisher_matrix(1.0, 1.0)
    assert abs(info.h_value - 0.5) < 1e-5
    assert abs(info.m_value - 0.5) < 1e-5


def test_information_integrals_frozen():
    info = fisher_matrix(1.5, 1.0)
    assert info.h_value == pytest.approx(H_BETA_15, rel=1e-6)
    assert info.m_value == pytest.approx(M_BETA_15, rel=1e-6)


def _information_reference(beta, which):
    # one scalar quad per integral, as H and M were computed before they
    # shared one vector quadrature; the memo lives for one integral only
    series = stable_density._series

    @functools.cache
    def pair(yv):
        return phi_pair(yv, beta)

    def num(f, d, yv):
        return (f + yv * d) ** 2 if which == "h" else d * d

    def core(yv):
        f, d = pair(yv)
        return num(f, d, yv) / f

    def tail_log(t):
        yv = 30.0 * math.exp(t)
        f, d = series(yv, beta)
        f = max(f, 1e-300)
        return num(f, d, yv) / f * yv

    core_val, _ = scipy.integrate.quad(core, 0.0, 30.0, epsabs=1e-11,
                                       epsrel=1e-9, limit=200)
    tail_val, _ = scipy.integrate.quad(tail_log, 0.0, 60.0 / beta + 10.0,
                                       epsabs=1e-12, epsrel=1e-9, limit=200)
    return 2.0 * (core_val + tail_val)


@pytest.mark.parametrize("beta", [0.6, 1.0, 1.3, 1.77, 1.95])
def test_information_pass_matches_scalar_quadratures(beta):
    info = fisher_matrix(beta, 1.0)
    assert info.h_value == pytest.approx(_information_reference(beta, "h"),
                                         rel=1e-12, abs=0)
    assert info.m_value == pytest.approx(_information_reference(beta, "m"),
                                         rel=1e-12, abs=0)
    if beta == 1.0:
        assert abs(info.h_value - 0.5) < 1e-12
        assert abs(info.m_value - 0.5) < 1e-12


def test_information_quadrature_failure_raises(monkeypatch):
    # a one-panel budget runs out in the first round of the panel rule
    monkeypatch.setattr(stable_density, "_PANEL_LIMIT", 1)
    with pytest.raises(QuadratureError) as info:
        fisher_matrix(1.5, 1.0)
    assert info.value.context["beta"] == 1.5
    # the core's interval in its variable t = asinh y: y in [0, 30]
    assert info.value.context["interval"] == [0.0, math.asinh(30.0)]


@pytest.mark.parametrize("nodes, weights, degree", [
    (stable_density._GK_X, stable_density._GK_WK, 31),
    (stable_density._GK_X[1::2], stable_density._GK_WG, 19)],
    ids=("kronrod", "gauss"))
def test_panel_rule_integrates_polynomials_exactly(nodes, weights, degree):
    # the 21-point Kronrod rule is exact up to degree 31 and its 10-point
    # Gauss rule up to 19: a mistyped digit in the first ~15 of a node or
    # weight shows as a moment error above rounding
    for k in range(degree + 1):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(weights @ nodes ** k - exact) < 1e-15, k


def _rounds(monkeypatch, beta):
    # (core rounds, tail rounds, core points) of one fisher_matrix: one
    # round is one call of the panel rule's integrand over every open panel
    counts = {}
    panel = stable_density._panel_integral

    def counted(f, edges, epsabs, beta_):
        key = "core" if edges[-1] == stable_density._CORE_END else "tail"
        counts[key] = [0, 0]

        def g(x):
            counts[key][0] += 1
            counts[key][1] += x.size
            return f(x)
        return panel(g, edges, epsabs, beta_)

    monkeypatch.setattr(stable_density, "_panel_integral", counted)
    fisher_matrix(beta, 1.0)
    return counts["core"][0], counts["tail"][0], counts["core"][1]


def test_analyst_range_takes_one_kernel_call(monkeypatch):
    # every beta in [0.95, 1.94] converges in the first round of core
    # panels: one kernel call (one theta* solve) of 4 x 21 points per
    # Fisher matrix
    calls = []
    unit = stable_density._unit

    def counted(z, beta):
        calls.append(z.size)
        return unit(z, beta)

    monkeypatch.setattr(stable_density, "_unit", counted)
    for beta in np.round(np.arange(0.95, 1.94 + 1e-9, 0.01), 6):
        calls.clear()
        fisher_matrix(float(beta), 1.0)
        assert calls == [84], beta
    # from 1.95 on, five first panels: the Gaussian fall meets the tail
    # further out as beta -> 2
    for beta in (1.95, 1.97, 1.99, 1.999, 1.9999, 1.99999, 2.0 - 1e-12):
        calls.clear()
        fisher_matrix(beta, 1.0)
        assert calls == [105], beta


# (core, tail) rounds of the panel rules before the graded first panels,
# when the core started from [0, 1, 2, 3, 5, 8, 13, 20, 30] and the tail
# from 8 equal panels, at _ROUND_BETAS; no beta may take more
_OLD_CORE_ROUNDS = "77665554443333322222222222221111111112221222222222" "3"
_OLD_TAIL_ROUNDS = "44444433333333334433333333333333333333333333333333" "3"
_ROUND_BETAS = [round(0.5 + 0.03 * i, 2) for i in range(50)] + [1.99]
# core kernel points at _ROUND_BETAS of the 7-15 rule on eight graded
# panels in y, before the 10-21 rule in t = asinh y; no beta may take more
_GK15_CORE_POINTS = ([360, 300, 300, 270, 270, 270, 240, 240, 210, 210]
                     + [180] * 4 + [150] * 9 + [120] * 25 + [180] * 3)


def test_no_beta_takes_more_rounds_than_the_earlier_panels(monkeypatch):
    for beta, core, tail, points in zip(_ROUND_BETAS, _OLD_CORE_ROUNDS,
                                        _OLD_TAIL_ROUNDS, _GK15_CORE_POINTS):
        rounds = _rounds(monkeypatch, beta)
        assert rounds[0] <= int(core) and rounds[1] <= int(tail), beta
        assert rounds[2] <= points, beta


def test_fisher_grid_dump_matches_golden(capsys):
    # the dump from before the graded first panels, byte for byte: they
    # move H and M by ~1e-14 relative, far below the 10 printed digits
    golden = Path(__file__).parent / "golden" / "fisher_grid.csv"
    assert main(["fisher", "--beta-grid", "0.5:1.99:0.03"]) == 0
    assert capsys.readouterr().out == golden.read_text(encoding="utf8")


def test_fisher_dump_next_to_two_matches_golden(capsys):
    # the band where the core's round count moves with beta, as the 7-15
    # rule on eight panels in y printed it, byte for byte
    golden = Path(__file__).parent / "golden" / "fisher_near_two.csv"
    assert main(["fisher", "--beta-grid", "1.99:1.9999:0.0001"]) == 0
    assert capsys.readouterr().out == golden.read_text(encoding="utf8")


# 200-point Gauss-Legendre nodes on u in [0, 9], where exp(-u^beta) falls
# below 1e-35 for beta next to 2
_GL_X, _GL_W = np.polynomial.legendre.leggauss(200)
_GL_U = 4.5 * (_GL_X + 1.0)


@pytest.mark.parametrize("beta", [1.98 - 1e-9, 1.98, 1.999, 1.9999, 1.99999])
def test_phi_deriv_next_to_two_against_fourier(beta):
    # phi'(z) = -(1/pi) int u sin(u z) exp(-u^beta) du.  From beta = 1.98
    # on phi' takes the direct weight: the by-parts one divides by a D that
    # vanishes as beta -> 2, is 8.8e-10 off at 1.9999 and is noisy enough
    # there that the information integrals do not converge
    z = np.linspace(0.01, 29.0, 59)
    terms = _GL_U * np.sin(np.multiply.outer(z, _GL_U)) * np.exp(-_GL_U ** beta)
    ref = -4.5 * (_GL_W * terms).sum(axis=1) / np.pi
    assert np.abs(phi_pair(z, beta)[1] - ref).max() < 2e-13


def test_fisher_converges_next_to_two():
    # H and M rise toward their Gaussian limits 2 and 1/2 as beta -> 2
    prev = fisher_matrix(1.9995, 1.0)
    for beta in (1.9998, 1.9999, 1.99999):
        info = fisher_matrix(beta, 1.0)
        assert prev.h_value < info.h_value < 2.0, beta
        assert prev.m_value < info.m_value < 0.5, beta
        prev = info


def test_fisher_matrix_structure():
    info = fisher_matrix(1.5, 0.7)
    m = info.matrix
    assert m.shape == (3, 3)
    assert np.allclose(m, m.T, rtol=0, atol=0)
    h, mm = info.h_value, info.m_value
    assert m[0, 0] == pytest.approx(h / 1.5 ** 4, rel=1e-12)
    assert m[0, 1] == pytest.approx(h / (0.7 * 1.5 ** 2), rel=1e-12)
    assert m[1, 1] == pytest.approx(h / 0.7 ** 2, rel=1e-12)
    assert m[2, 2] == pytest.approx(mm / 0.7 ** 2, rel=1e-12)
    assert m[0, 2] == m[1, 2] == 0.0
    # rank-one (beta, sigma) block: determinant is identically zero
    assert info.top_left_det() == 0.0
    assert abs(np.linalg.det(m[:2, :2])) < 1e-12 * m[0, 0] * m[1, 1]


def test_fisher_cauchy_values():
    m = fisher_matrix(1.0, 1.0).matrix
    assert np.allclose(m, np.array([[0.5, 0.5, 0.0],
                                    [0.5, 0.5, 0.0],
                                    [0.0, 0.0, 0.5]]), atol=1e-5)


def test_median_asymptotic_sd():
    assert median_asymptotic_sd(1.0, 1.0) == pytest.approx(np.pi / 2, rel=1e-14)
    assert median_asymptotic_sd(1.0, 0.5) == pytest.approx(np.pi / 4, rel=1e-14)
    # 1 / (2 phi(0)) identity
    for beta in (0.8, 1.6):
        assert median_asymptotic_sd(beta, 1.0) == pytest.approx(
            1 / (2 * phi_zero(beta)), rel=1e-12)


def test_arrays_match_scalar_calls():
    # repeated and mirrored points, evaluated once each per call
    y = np.array([[-2.5, 0.0, 2.5], [0.7, -0.7, 2.5], [31.0, -31.0, 0.0]])
    for beta, sigma in ((0.7, 1.0), (1.5, 0.8)):
        for arr in (y, y[1], np.asarray(-2.5)):
            # both rows of phi_pair
            outs = phi_pair(arr, beta, sigma)
            scalars = [phi_pair(float(v), beta, sigma)
                       for v in np.ravel(arr)]
            for out, expect in zip(outs, zip(*scalars)):
                assert np.shape(out) == np.shape(arr)
                assert np.ravel(out).tolist() == list(expect)


def test_calls_retain_no_memory():
    grid = np.linspace(-10.0, 10.0, 101)

    def requests(betas):
        for beta in betas:
            phi_pair(grid, beta)
        fisher_matrix(betas[-1] + 0.001, 1.0)

    requests([1.3])  # warm-up: imports and first-call allocations
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        requests([1.301 + 0.01 * i for i in range(10)])
        retained = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert retained < 64 * 1024


def test_domain_errors_and_far_tail_warning():
    # sigma outside (0, inf) is covered in tests/test_domains.py
    with pytest.raises(DomainError):
        phi_pair(0.0, 0.4)[0]
    with pytest.raises(DomainError):
        phi_pair(0.0, 2.0)[0]
    with pytest.warns(UserWarning):
        val = phi_pair(51.0, 1.5)[0]
    assert val > 0


def test_subnormal_scale_saturates_without_numpy_warnings():
    # |y|/sigma and phi(0)/sigma overflow: they saturate to inf with only
    # the far-tail warning, which the suite's RuntimeWarning filter checks
    with pytest.warns(UserWarning, match="series tail"):
        f, d = phi_pair(np.array([-10.0, 0.0, 10.0]), 1.5, 1e-310)
    assert f.tolist() == [0.0, math.inf, 0.0]
    assert d.tolist() == [0.0, 0.0, 0.0]


@pytest.mark.filterwarnings("ignore:density evaluated")
@pytest.mark.parametrize("beta", [1.5, 1.0, 0.5])
def test_tail_keeps_values_that_underflow_only_at_unit_scale(beta):
    # phi(1e161) underflows, but phi(10; 1e-160) = c 10^-e sigma^(e-1) / pi
    # with c = Gamma(1 + beta) sin(pi beta / 2) and e = 1 + beta (the next
    # term is ~1e-160 smaller) does not
    sigma = 1e-160
    f, d = phi_pair(np.array([-10.0, 10.0]), beta, sigma)
    e = 1.0 + beta
    log_c = log_gamma(e) + math.log(math.sin(0.5 * math.pi * beta) / math.pi)
    lead = math.exp(log_c - e * math.log(10.0) + (e - 1.0) * math.log(sigma))
    np.testing.assert_allclose(f, [lead, lead], rtol=1e-12, atol=0)
    np.testing.assert_allclose(d, [lead * e / 10.0, -lead * e / 10.0],
                               rtol=1e-12, atol=0)


def test_folded_tail_agrees_where_the_unit_tail_is_normal():
    # where both are in the normal range the two tail sums agree
    y = np.array([40.0, 1e3, 1e20, 1e60])
    for beta, sigma in ((0.6, 1.0), (1.5, 0.01), (1.9, 3.0)):
        folded = stable_density._series_folded(y, beta, sigma)
        unit = stable_density._series(y / sigma, beta)
        np.testing.assert_allclose(folded, unit / [[sigma], [sigma ** 2]],
                                   rtol=1e-12, atol=0)


@pytest.mark.filterwarnings("ignore:density evaluated")
def test_cauchy_far_tail_has_no_overflow():
    # next to beta = 1 the expansion about the Cauchy law squares 1 + y^2;
    # past 1e76 the tail series takes over, with no overflow warning
    # (the leading tail term: the Cauchy pair 1/(pi y^2), -2/(pi y^3) at 1)
    y = np.array([1e70, 1e80, 1e100, 1e150])
    for beta in (1.0, 1.0 + 1e-6):
        f, d = phi_pair(y, beta)
        e = 1.0 + beta
        lead = np.exp(log_gamma(e) - e * np.log(y)
                      + math.log(math.sin(0.5 * math.pi * beta) / math.pi))
        np.testing.assert_allclose(f, lead, rtol=1e-7, atol=0)
        np.testing.assert_allclose(d, -e * lead / y, rtol=1e-7, atol=0)
        assert d[3] == 0.0
        assert phi_pair(1e150, beta, 1e-200) == (0.0, 0.0)


def _qawo_reference(y, beta, k):
    # (d/dy)^k phi_beta(y), y > 0, by one oscillatory (QAWO) quadrature of
    # the Fourier integral (-1)^{ceil(k/2)} / pi int u^k trig(u y) e^{-u^beta}
    upper = (math.log(1e13 / beta) + 40.0) ** (1.0 / beta)
    val, _ = scipy.integrate.quad(lambda u: u ** k * math.exp(-u ** beta),
                                  0.0, upper, weight="sin" if k else "cos",
                                  wvar=y, epsabs=1e-13, epsrel=1e-11,
                                  limit=400, maxp1=100)
    return (-val if k else val) / math.pi


# the series about 0 and both sides of its bound (1e-3), the kernel down to
# that bound, and both sides of the switch to the tail series (30)
ACCURACY_GRID = [1e-8, 1e-6, 1e-4, 9.99e-4, 1e-3, 1.001e-3, 0.01, 0.0199,
                 0.02, 0.05, 0.1, 0.3, 0.7, 1.0, 1.5, 2.0, 3.5, 5.0, 8.0,
                 12.0, 20.0, 29.9, 30.1, 40.0, 50.0]
# both sides of the expansion about the Cauchy law (|beta - 1| < 5e-6)
NEAR_ONE_EDGES = [1.0 - 5.1e-6, 1.0 - 4.9e-6, 1.0 + 4.9e-6, 1.0 + 5.1e-6]


@pytest.mark.parametrize("beta", [0.5, 0.7, 0.9, 0.95, 0.97, 0.99, 0.999,
                                  0.9999, 1.0 + 1e-9, *NEAR_ONE_EDGES, 1.05,
                                  1.2, 1.5, 1.8, 1.99])
def test_routing_matches_qawo_reference(beta):
    y = np.array(ACCURACY_GRID)
    for k, values in enumerate(phi_pair(y, beta)):
        ref = np.array([_qawo_reference(v, beta, k) for v in y])
        assert np.max(np.abs(values - ref)) <= 1e-10, (k, values - ref)


def test_cauchy_is_exact():
    y = np.array([0.0, 0.01, 0.3, 1.0, 2.5, 7.0, 29.0, 31.0, 45.0])
    q = 1.0 + y * y
    np.testing.assert_allclose(phi_pair(y, 1.0)[0], 1.0 / (math.pi * q),
                               rtol=1e-15, atol=0)
    np.testing.assert_allclose(phi_pair(y, 1.0)[1],
                               -2.0 * y / (math.pi * q * q), rtol=1e-15, atol=0)
    np.testing.assert_allclose(phi_pair(-y, 1.0, sigma=2.0)[0],
                               0.5 / (math.pi * (1.0 + y * y / 4.0)),
                               rtol=1e-15, atol=0)


def test_peak_memory_of_a_request_pair():
    # the kernel works in chunks inside one workspace per call, so a Fisher
    # request and a 101-point density dump peak at ~0.7 MB
    grid = np.linspace(-10.0, 10.0, 101)
    fisher_matrix(1.3, 1.0)  # warm-up: imports and the node tables
    phi_pair(grid, 1.3)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fisher_matrix(1.4567, 1.0)
        phi_pair(grid, 1.4567)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 1024 * 1024


@pytest.mark.parametrize("beta, before", [(0.7, None), (1.5, None),
                                          (1.99, None), (0.999, None),
                                          (1.5, 0.999)],
                         ids=["0.7", "1.5", "1.99", "0.999", "1.5-after-0.999"])
def test_kernel_rows_do_not_depend_on_chunk_position(beta, before):
    # 90 kernel points in chunks of 21 rows at 0.7, 63 at 1.5, 31 at 1.99
    # (the direct weight) and 7 at 0.999 (1025 nodes), the last chunk
    # partial each time; after a call at 0.999, a workspace of another
    # shape.  The series routes run in the same call
    y = np.concatenate([[5e-4], np.linspace(0.01, 29.0, 90), [33.0]])
    if before is not None:
        phi_pair(y, before)
    f, d = phi_pair(y, beta)
    batch = phi_pair(y, beta)
    assert f.tobytes() == batch[0].tobytes()
    assert d.tobytes() == batch[1].tobytes()
    for i, point in enumerate(y):
        assert (f[i], d[i]) == phi_pair(point, beta), i


def test_density_needs_no_quadrature(monkeypatch):
    # every density route is a closed form or the fixed-node kernel
    def refuse(*args, **kwargs):
        raise AssertionError("density evaluation ran scipy.integrate.quad")

    monkeypatch.setattr(scipy.integrate, "quad", refuse)
    monkeypatch.setattr(stable_density, "quad", refuse, raising=False)
    y = np.array(ACCURACY_GRID)
    for beta in (0.6, 0.97, 1.02, 1.0 + 1e-9):
        for row in phi_pair(np.concatenate([-y, [0.0], y]), beta):
            assert np.all(np.isfinite(row))
    info = fisher_matrix(1.02, 1.0)
    assert 0.0 < info.m_value < info.h_value
