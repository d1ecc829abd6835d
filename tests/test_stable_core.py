"""Stable sampling, parametrizations and the positivity/skew maps."""

import math

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

from levyestim.errors import DataError, DomainError
from levyestim.stable_core import (
    IncrementSample,
    ScalePath,
    Streams,
    derive_seed,
    increment_scale_shift,
    increments_cell,
    positivity_range,
    positivity_to_skew,
    sample_standard_stable,
    skew_to_positivity,
    sprime_cell,
    timevarying_cell,
    _cms_constants,
    _stable_cell,
)
from levyestim.subordinators import (
    gamma_sub_cell,
    ig_sub_cell,
)

def make_rng(*parts) -> np.random.Generator:
    """Generator seeded from derive_seed(*parts)."""
    return np.random.default_rng(derive_seed(*parts))


# positivity parameters for rho = -0.5 (frozen from the arctan map)
P_POS_TABLE = {
    1.2: 0.7638083421567594,
    1.5: 0.5983890784336222,
    1.7: 0.5467084519103567,
    1.9: 0.5132395621774408,
}


def test_gaussian_reduction_exact():
    rng = make_rng(0)
    u = rng.uniform(-np.pi / 2, np.pi / 2, size=1000)
    v = rng.exponential(size=1000)
    s = sample_standard_stable(2.0, 0.0, u, v)
    assert np.max(np.abs(s - 2.0 * np.sin(u) * np.sqrt(v))) < 1e-12


def test_cauchy_reduction_exact():
    rng = make_rng(1)
    u = rng.uniform(-np.pi / 2, np.pi / 2, size=1000)
    v = rng.exponential(size=1000)
    s = sample_standard_stable(1.0, 0.0, u, v)
    assert np.max(np.abs(s - np.tan(u))) < 1e-12


def _sin_cos_cms(beta, rho, u, v):
    # reference: the Chambers-Mallows-Stuck transform in its sin/cos form
    t = rho * math.tan(0.5 * math.pi * beta)
    a = (1.0 + t * t) ** (0.5 / beta)
    b = math.atan(t) / beta
    phase = beta * (u + b)
    return (a * np.sin(phase) / np.cos(u) ** (1.0 / beta)
            * (np.cos(u - phase) / v) ** ((1.0 - beta) / beta))


@pytest.mark.parametrize("beta,rho", [
    (beta, rho) for beta in (0.5, 0.8, 1.2, 1.5, 1.9, 2.0)
    for rho in (-1.0, -0.5, 0.0, 0.9, 1.0) if beta < 2.0 or rho == 0.0])
def test_cms_matches_sin_cos_form(beta, rho):
    rng = make_rng("cms-reference", beta, rho)
    gap = 10.0 ** -np.linspace(3.0, 15.0, 25)
    u = np.concatenate([rng.uniform(-np.pi / 2, np.pi / 2, size=20_000),
                        np.pi / 2 - gap, -np.pi / 2 + gap])
    v = rng.standard_exponential(size=u.size)
    got = sample_standard_stable(beta, rho, u, v)
    ref = _sin_cos_cms(beta, rho, u, v)
    assert np.isfinite(got).all() and np.isfinite(ref).all()
    np.testing.assert_allclose(got, ref, rtol=1e-14, atol=0.0)


def test_cms_scalar_call_matches_array_call():
    # NumPy's one-element ufunc loops may round the last bit differently
    # from its vectorised array loops (pow did so for the sin/cos form too)
    rng = make_rng("cms-scalar")
    u = rng.uniform(-np.pi / 2, np.pi / 2, size=8)
    v = rng.standard_exponential(size=8)
    for beta, rho in [(1.5, -0.5), (0.7, 1.0), (2.0, 0.0), (1.0, 0.3),
                      (1.0, 0.0)]:
        arr = sample_standard_stable(beta, rho, u, v)
        for i in range(u.size):
            for args in ((u[i], v[i]), (float(u[i]), float(v[i])),
                         (np.asarray(u[i]), np.asarray(v[i]))):
                one = sample_standard_stable(beta, rho, *args)
                assert np.ndim(one) == 0
                assert one == pytest.approx(arr[i], rel=1e-15, abs=0.0)


def test_cms_leaves_inputs_unchanged():
    rng = make_rng("cms-inputs")
    u = rng.uniform(-np.pi / 2, np.pi / 2, size=500)
    v = rng.standard_exponential(size=500)
    u0, v0 = u.copy(), v.copy()
    for beta, rho in [(1.5, 0.5), (0.8, -1.0), (2.0, 0.0), (1.0, 0.4),
                      (1.0, 0.0)]:
        sample_standard_stable(beta, rho, u, v)
        assert np.array_equal(u, u0) and np.array_equal(v, v0)


def test_gaussian_variance():
    s = increments_cell(2.0, 1.0, 0.0, 0.0, 1.0,
                        100_000).sample(seed=11)
    # X ~ N(0, 2): sample variance within 3 MC std errs (se ~ sqrt(2/n)*var)
    se = 2.0 * math.sqrt(2.0 / 100_000)
    assert abs(s.values.var() - 2.0) < 3 * se
    assert abs(s.values.mean()) < 3 * math.sqrt(2.0 / 100_000)


def test_cauchy_quartiles():
    s = increments_cell(1.0, 1.0, 0.0, 0.0, 1.0,
                        100_000).sample(seed=12)
    q1, q3 = np.percentile(s.values, [25, 75])
    # quartile se: sqrt(p(1-p)/n)/f(x) with f(1) = 1/(2 pi)
    se = math.sqrt(0.25 * 0.75 / 100_000) * 2 * math.pi
    assert abs(q1 + 1.0) < 3 * se
    assert abs(q3 - 1.0) < 3 * se


@pytest.mark.parametrize("beta,rho", [(1.5, -0.5), (1.5, 0.8), (0.7, 0.3),
                                      (1.9, -0.9), (1.2, 0.0)])
def test_characteristic_function_match(beta, rho):
    """Empirical cf of sampled increments against the model cf."""
    h, n = 0.7, 200_000
    s = increments_cell(beta, 1.3, rho, -0.4, h,
                        n).sample(seed=21)
    for u in (0.3, 1.0):
        emp = np.exp(1j * u * s.values).mean()
        scale = h ** (1.0 / beta) * 1.3
        exact = np.exp(-scale ** beta * abs(u) ** beta
                       * (1 - 1j * rho * np.sign(u) * math.tan(beta * np.pi / 2))
                       + 1j * h * (-0.4) * u)
        assert abs(emp - exact) < 4.0 / math.sqrt(n)


@pytest.mark.parametrize("rho", [0.0, -0.6, 0.9])
def test_characteristic_function_beta_one(rho):
    """beta = 1 carries the sigma log sigma drift correction."""
    h, n = 0.5, 200_000
    sigma, gamma = 0.8, 0.3
    s = increments_cell(1.0, sigma, rho, gamma, h,
                        n).sample(seed=22)
    for u in (0.5, 1.5):
        emp = np.exp(1j * u * s.values).mean()
        exact = np.exp(-h * sigma * abs(u)
                       * (1 + 1j * rho * (2 / np.pi) * np.sign(u) * math.log(abs(u)))
                       + 1j * h * gamma * u)
        assert abs(emp - exact) < 4.0 / math.sqrt(n)


def test_sprime_characteristic_function():
    beta, p_pos, sigma = 1.5, P_POS_TABLE[1.5], 1.0
    s = sprime_cell(beta, p_pos, sigma, 1.0, 200_000).sample(seed=23)
    xi = beta * np.pi * (p_pos - 0.5)
    for u in (0.5, 1.0, 2.0):
        emp = np.exp(1j * u * s.values).mean()
        exact = np.exp(-sigma ** beta * abs(u) ** beta
                       * (1 - 1j * np.sign(u) * math.tan(xi)))
        assert abs(emp - exact) < 4.0 / math.sqrt(200_000)


def test_sprime_positivity_probability():
    s = sprime_cell(1.5, P_POS_TABLE[1.5], 1.0, 1.0, 200_000).sample(seed=24)
    phat = (s.values > 0).mean()
    assert abs(phat - P_POS_TABLE[1.5]) < 3 * math.sqrt(0.25 / 200_000)


def test_skew_positivity_round_trip():
    for beta in (1.1, 1.3, 1.5, 1.7, 1.9, 0.5, 0.9):
        for rho in (-0.9, -0.5, 0.0, 0.4, 0.9):
            p = skew_to_positivity(beta, rho)
            assert abs(positivity_to_skew(beta, p) - rho) < 1e-12


def test_skew_to_positivity_known_pairs():
    for beta, p_pos in P_POS_TABLE.items():
        val = skew_to_positivity(beta, -0.5)
        assert abs(val - p_pos) < 1e-12
    assert abs(skew_to_positivity(1.5, -0.5) - 0.5984) < 5e-5
    assert skew_to_positivity(1.4, 0.0) == 0.5


def test_positivity_range_beta_gt_one():
    # admissible p is [1 - 1/beta, 1/beta] for beta > 1; rho = -1 attains
    # the upper endpoint (negative rho raises the positive mass, cf. the
    # rho = -0.5 pairs above landing over 1/2)
    beta = 1.6
    assert abs(skew_to_positivity(beta, -1.0) - 1 / beta) < 1e-12
    assert abs(skew_to_positivity(beta, 1.0) - (1 - 1 / beta)) < 1e-12
    with pytest.raises(DomainError):
        positivity_to_skew(beta, 1 / beta + 1e-6)
    with pytest.raises(DomainError):
        skew_to_positivity(1.0, 0.5)


@pytest.mark.parametrize("beta", [0.4, 0.9, 1.1, 1.6, 1.95])
def test_positivity_range_is_the_image_of_rho(beta):
    lo, hi = positivity_range(beta)
    ends = sorted(skew_to_positivity(beta, rho) for rho in (-1.0, 1.0))
    np.testing.assert_allclose(ends, [lo, hi], rtol=0, atol=1e-12)
    assert abs(positivity_to_skew(beta, lo)) == pytest.approx(1.0)
    if beta > 1.0:
        assert (lo, hi) == (1.0 - 1.0 / beta, 1.0 / beta)
        with pytest.raises(DomainError):
            sprime_cell(beta, lo, 1.0, 1.0, 5)   # the open range: ends excluded
    else:
        assert (lo, hi) == (0.0, 1.0)


def test_params_validation():
    with pytest.raises(DomainError):
        increments_cell(0.0, 1.0, 0.0, 0.0, 1.0, 5)
    with pytest.raises(DomainError):
        increments_cell(2.1, 1.0, 0.0, 0.0, 1.0, 5)
    with pytest.raises(DomainError):
        increments_cell(1.5, -1.0, 0.0, 0.0, 1.0, 5)
    with pytest.raises(DomainError):
        increments_cell(1.5, 1.0, 1.5, 0.0, 1.0, 5)


def test_gaussian_cell_resets_rho():
    # at beta = 2 the CMS constant B = atan(rho tan pi) / 2 is about
    # -6e-17 rho, not 0: without the reset a rho != 0 would move the
    # values next to U = 0 in their last bits
    with pytest.warns(UserWarning, match="resetting to 0") as record:
        reset = increments_cell(2.0, 1.0, 0.5, 0.0, 0.1, 200)
    assert len(record) == 1
    plain = increments_cell(2.0, 1.0, 0.0, 0.0, 0.1, 200)
    assert (reset.sample(7).values.tobytes()
            == plain.sample(7).values.tobytes())


def test_positivity_params_validation():
    with pytest.raises(DomainError):
        sprime_cell(1.0, 0.5, 1.0, 1.0, 5)
    with pytest.raises(DomainError):
        sprime_cell(2.0, 0.5, 1.0, 1.0, 5)
    with pytest.raises(DomainError):
        sprime_cell(1.5, 1.0 / 1.5, 1.0, 1.0, 5)   # boundary excluded
    sprime_cell(1.5, 0.5984, 2.0, 1.0, 5)   # inside the open range


def test_increment_scale_shift():
    scale, shift = increment_scale_shift(1.5, 0.5, 0.0, -0.5, 0.01)
    assert abs(scale - 0.01 ** (1 / 1.5) * 0.5) < 1e-15
    assert abs(shift - 0.01 * (-0.5)) < 1e-15
    # beta = 1: extra (2 h sigma rho / pi) log(h sigma) drift
    scale1, shift1 = increment_scale_shift(1.0, 0.5, -0.4, 0.3, 0.01)
    assert abs(scale1 - 0.005) < 1e-15
    expected = 0.01 * 0.3 + (2 * 0.01 * 0.5 * (-0.4) / np.pi) * math.log(0.005)
    assert abs(shift1 - expected) < 1e-15


def test_seed_determinism():
    a = increments_cell(1.5, 1.0, -0.3, 0.1, 0.1,
                        500).sample(seed=9)
    b = increments_cell(1.5, 1.0, -0.3, 0.1, 0.1,
                        500).sample(seed=9)
    c = increments_cell(1.5, 1.0, -0.3, 0.1, 0.1,
                        500).sample(seed=10)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_derive_seed_stable_and_distinct():
    s1 = derive_seed(42, 2001, "log", 7)
    assert s1 == derive_seed(42, 2001, "log", 7)
    assert s1 != derive_seed(42, 2001, "log", 8)
    assert s1 != derive_seed(43, 2001, "log", 7)
    assert 0 <= s1 < 2 ** 64


# ---------------------------------------------------------------------------
# bulk seeding: a cell draws the streams np.random.default_rng(seed) starts

def test_pcg64_states_equal_numpy_seeding():
    rng = make_rng("pcg64-states")
    seeds = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1, 2 ** 64, 2 ** 128 - 1]
    seeds += rng.integers(0, 2 ** 64, 1000, dtype=np.uint64).tolist()
    streams = Streams.from_seeds(seeds)
    assert [stream.bit_generator.state for stream in streams] == \
        [np.random.PCG64(s).state for s in seeds]


def _expression_cms(beta, rho, u, v):
    # the transform as one expression per branch, each step a NumPy
    # temporary; sample_standard_stable runs the same steps in place
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


def _stable_row(beta, rho, scale, shift=None):
    # one row as a cell drew it from a seed before bulk seeding: its own
    # Generator, n uniforms on (-pi/2, pi/2), n exponentials, scale * S
    def row(rng, n):
        u = rng.uniform(-0.5 * np.pi, 0.5 * np.pi, size=n)
        v = rng.standard_exponential(size=n)
        values = scale * _expression_cms(beta, rho, u, v)
        return values if shift is None else values + shift
    return row


def _bulk_case(name, n, h=0.01):
    # (cell, reference row of one Generator)
    if name.startswith("increments"):
        beta = float(name.split("-")[1])
        law = (beta, 0.7, 0.0 if beta == 2.0 else -0.4, 0.3)
        return (increments_cell(*law, h, n),
                _stable_row(beta, law[2], *increment_scale_shift(*law, h)))
    rho = positivity_to_skew(1.5, 0.45)
    if name == "sprime":
        return (sprime_cell(1.5, 0.45, 0.8, h, n),
                _stable_row(1.5, rho, (h * 0.8 ** 1.5) ** (1 / 1.5)))
    if name.startswith("timevarying"):
        path = (ScalePath.cosine(1.5) if name.endswith("cosine")
                else ScalePath.constant(0.8, 1.5))
        return (timevarying_cell(path, 0.45, n),
                _stable_row(1.5, rho, (path.sigma_bars(n) / n) ** (1 / 1.5)))
    if name == "gamma":
        return (gamma_sub_cell(2.0, 1.5, h, n),
                lambda rng, n: rng.gamma(2.0 * h, scale=1.0 / 1.5, size=n))
    dh = 2.0 * h
    return (ig_sub_cell(2.0, 1.5, h, n),
            lambda rng, n: rng.wald(dh / 1.5, dh * dh, size=n))


@pytest.mark.parametrize("name", [
    "increments-0.8", "increments-1", "increments-1.5", "increments-2",
    "sprime", "timevarying-cosine", "timevarying-constant", "gamma", "ig"])
def test_cell_draws_equal_per_seed_generators(name):
    n = 37
    cell, row = _bulk_case(name, n)
    seeds = [derive_seed("bulk", name, rep) for rep in range(7)]
    ref = np.array([row(np.random.default_rng(seed), n) for seed in seeds])
    for rows in (1, 3, len(seeds)):
        blocks = list(cell.blocks(Streams.from_seeds(seeds), rows))
        assert [len(b) for b in blocks] == [
            min(rows, len(seeds) - start)
            for start in range(0, len(seeds), rows)]
        assert np.array_equal(np.concatenate(blocks), ref)
        drawn = [next(cell.blocks(
                     Streams.from_seeds(seeds[start:start + rows]), rows))
                 for start in range(0, len(seeds), rows)]
        assert np.array_equal(np.concatenate(drawn), ref)
    for seed, values in zip(seeds, ref):
        assert np.array_equal(cell.sample(seed).values, values)


@pytest.mark.parametrize("seed", [-1, 2 ** 128, 1.5, "7", None],
                         ids=["negative", "2^128", "float", "str", "none"])
def test_cell_refuses_a_seed_outside_its_range(seed):
    # None is no seed either: a sample is drawn at a given seed only
    cell = increments_cell(1.5, 1.0, 0.0, 0.0, 0.1, 10)
    for call in (lambda: Streams.from_seeds([3, seed]),
                 lambda: cell.sample(seed)):
        with pytest.raises(DomainError) as exc:
            call()
        assert exc.value.context == {"field": "seed"}
    with pytest.raises(TypeError):
        cell.sample()


# ---------------------------------------------------------------------------
# sign fills: a CMS value has the sign of fl(U + B)


def test_which_cells_have_a_sign_fill():
    assert sprime_cell(1.5, 0.6, 1.0, 0.1, 5).signs is not None
    assert timevarying_cell(ScalePath.cosine(1.5), 0.6, 5).signs is not None
    # a shift moves values across zero; at beta = 1 the sign of a value
    # depends on V unless rho = 0
    assert increments_cell(1.5, 1.0, 0.0, 0.0, 0.1, 5).signs is None
    assert _stable_cell(1.0, 0.3, 5, 0.1, 1.0).signs is None
    assert _stable_cell(1.0, 0.0, 5, 0.1, 1.0).signs is not None
    assert gamma_sub_cell(2.0, 1.5, 0.1, 5).signs is None
    assert ig_sub_cell(2.0, 1.5, 0.1, 5).signs is None
    # without a sign fill, signs=True draws the values
    cell = increments_cell(1.5, 1.0, 0.2, 0.3, 0.1, 5)
    assert np.array_equal(
        next(cell.blocks(Streams.from_seeds([4, 5]), 2, signs=True)),
        next(cell.blocks(Streams.from_seeds([4, 5]), 2)))


@st.composite
def _sign_cells(draw):
    # beta in [0.5, 2), beta = 1 only at rho = 0; a scalar scale or the
    # array of block scales timevarying_cell builds
    beta = draw(st.just(1.0) | st.floats(0.5, 2.0, exclude_max=True))
    rho = 0.0 if beta == 1.0 else draw(
        st.sampled_from([-1.0, 0.0, 1.0]) | st.floats(-1.0, 1.0))
    n = draw(st.integers(1, 300))
    if draw(st.booleans()):
        scale = draw(st.floats(1e-3, 1e3))
    else:
        scale = (ScalePath.cosine(beta).sigma_bars(n) / n) ** (1.0 / beta)
    return _stable_cell(beta, rho, n, 1.0 / n, scale)


@given(_sign_cells(), st.lists(st.integers(0, 2 ** 128 - 1), min_size=1,
                               max_size=5), st.integers(1, 5))
@settings(max_examples=200, deadline=None)
def test_sign_fill_is_the_sign_of_the_values(cell, seeds, rows):
    values = np.concatenate(list(cell.blocks(Streams.from_seeds(seeds),
                                             rows)))
    signs = list(cell.blocks(Streams.from_seeds(seeds), rows, signs=True))
    assert not any(block.flags.writeable for block in signs)
    signs = np.concatenate(signs)
    assert signs.tobytes() == np.sign(values).tobytes()
    assert np.count_nonzero(signs == 0.0) == np.count_nonzero(values == 0.0)


class _GivenDraws:
    # stands in for a Generator: hands out the given Generator.random
    # results and Exp(1) draws
    def __init__(self, r, v):
        self.r, self.v = r, v

    def random(self, out):
        out[:] = self.r

    def standard_exponential(self, out):
        out[:] = self.v


def _zero_phase(beta, rho):
    # (rho', r) with rho' a few ulps from rho and r a Generator.random
    # result, a multiple of 2^-53, such that fl(U + B) = 0 exactly
    for _ in range(1000):
        b = _cms_constants(beta, rho)[1]
        k0 = round((0.5 - b / math.pi) * 2.0 ** 53)
        for r in np.arange(k0 - 4, k0 + 5) * 2.0 ** -53:
            u = r * np.pi + -0.5 * np.pi
            if u + b == 0.0:
                return rho, r
        rho = float(np.nextafter(rho, 0.0))
    raise AssertionError("no uniform puts U + B on zero")


@pytest.mark.parametrize("beta", [0.7, 1.2, 1.5, 1.9])
def test_sign_fill_at_a_zero_phase_and_next_to_the_ends(beta):
    ends = np.array([0.0, 2.0 ** -53, 2.0 ** -52, 0.5, 1.0 - 2.0 ** -52,
                     1.0 - 2.0 ** -53])
    cases = [(-1.0, ends), (1.0, ends), (0.0, ends), (-0.5, ends)]
    rho, r = _zero_phase(beta, -0.5)
    cases.append((rho, np.array([r])))
    for rho, r in cases:
        cell = _stable_cell(beta, rho, r.size, 0.1, 0.3)
        # the documented exception: at rho = 1 a draw of 0.0 puts U on
        # -pi/2 and phi on -pi, where the rounding of phi decides the sign
        # of the value (at beta = 1.5 it comes out positive)
        keep = r != 0.0 if rho == 1.0 else slice(None)
        for v in (0.5, 3.0):
            streams = [_GivenDraws(r, v)]
            values = cell.fill(streams)[:, keep]
            assert np.sign(values).tobytes() == \
                cell.signs(streams)[:, keep].tobytes()
    # at rho = 0, r = 1/2 gives U = 0; at rho', U = -B
    assert sample_standard_stable(beta, 0.0, 0.0, 1.0) == 0.0
    assert cell.fill(streams)[0, 0] == 0.0


def test_cosine_path_block_integral():
    path = ScalePath.cosine(1.5)
    # n * int_0^{1/4} of 0.4 (cos 2 pi t + 1.5) dt = 4 (1/(5 pi) + 3/20)
    exact = 4 * (1 / (5 * np.pi) + 3 / 20)
    bars = path.sigma_bars(4)
    assert bars.shape == (4,)
    assert abs(bars[0] - exact) < 1e-12
    # blocks tile [0,1]: the mean block average is the total integral = 0.6
    assert abs(bars.mean() - 0.6) < 1e-12


def _cosine_primitive_scalar(t):
    return 0.4 * (math.sin(2.0 * math.pi * t) / (2.0 * math.pi) + 1.5 * t)


@pytest.mark.parametrize("n", [500, 1000, 2000, 5000])
@pytest.mark.parametrize("kind", ["cosine", "constant"])
def test_sigma_bars_equal_per_block_reference(kind, n):
    # reference: one scalar primitive difference per block, as a loop
    if kind == "cosine":
        path, prim = ScalePath.cosine(1.5), _cosine_primitive_scalar
    else:
        c = 0.7 ** 1.3
        path, prim = ScalePath.constant(0.7, 1.3), lambda t: c * t
    ref = np.array([n * (prim(j / n) - prim((j - 1) / n))
                    for j in range(1, n + 1)])
    np.testing.assert_array_equal(path.sigma_bars(n), ref)


def test_scale_path_scalars_are_python_floats():
    for path in (ScalePath.cosine(1.5), ScalePath.constant(0.7, 1.3)):
        assert type(path.sigma_star(path.beta)) is float
        assert type(path.sigma_star(0.5 * path.beta)) is float


def test_sigma_star_values():
    assert abs(ScalePath.cosine(1.5).sigma_star(1.5) - 0.6) < 1e-15
    # the periodic trapezoid rule against independent adaptive quadrature
    c = 0.7 ** 1.3
    for path, profile in (
            (ScalePath.cosine(1.5),
             lambda t: 0.4 * (np.cos(2 * np.pi * t) + 1.5)),
            (ScalePath.constant(0.7, 1.3), lambda t: c)):
        for ratio in (0.33, 0.42, 0.53, 1.0, 1.3):
            val, _ = scipy.integrate.quad(
                lambda t: profile(t) ** ratio, 0, 1, epsabs=0, epsrel=1e-13)
            assert abs(path.sigma_star(ratio * path.beta) - val) <= 1e-14


def test_timevarying_constant_path_matches_sprime():
    beta, p_pos, sigma = 1.5, P_POS_TABLE[1.5], 0.7
    path = ScalePath.constant(sigma, beta)
    tv = timevarying_cell(path, p_pos, 256).sample(seed=33)
    direct = sprime_cell(beta, p_pos, sigma, 1 / 256, 256).sample(seed=33)
    assert np.allclose(tv.values, direct.values, rtol=0, atol=1e-14)
    assert tv.h == 1 / 256


@pytest.mark.parametrize("build,beta,h", [
    (lambda: increments_cell(0.5, 1.0, 0.0, 0.0, 1e-300, 5), 0.5,
     1e-300),
    (lambda: sprime_cell(1.5, 0.45, 1e-300, 1e-300, 5),
     1.5, 1e-300),
    (lambda: timevarying_cell(ScalePath.constant(1e-300, 1.5), 0.45, 5),
     1.5, 0.2),
    # h sigma = 0, where the beta = 1 drift took log(0)
    (lambda: increments_cell(1.0, 1e-30, 0.5, 0.0, 1e-300, 5), 1.0,
     1e-300),
    # h^(1/beta) and sigma^beta overflow: an OverflowError was raised
    (lambda: increments_cell(0.5, 1.0, 0.0, 0.0, 1e300, 5), 0.5, 1e300),
    (lambda: sprime_cell(1.9, 0.5, 1e200, 0.2, 5), 1.9,
     0.2),
])
def test_stable_cells_refuse_an_underflowing_scale(build, beta, h):
    # the scale h^(1/beta) sigma underflowed to 0 and every value was 0.0;
    # one refusal covers both ends of the double range
    with pytest.raises(DomainError, match="underflowed to 0 or overflowed "
                       "to inf") as exc:
        build()
    assert exc.value.context == {"beta": beta, "h": h}


def test_constant_path_refuses_an_overflowing_level():
    # c = sigma^beta = inf made the primitive c t nan at t = 0
    with pytest.raises(DomainError) as exc:
        ScalePath.constant(1e300, 1.9)
    assert exc.value.context == {"sigma": 1e300, "beta": 1.9}


def test_timevarying_rejects_bad_beta():
    # beta <= 1 refused; the admissible case goes through
    timevarying_cell(ScalePath.cosine(1.5), 0.5984, 100).sample(seed=1)
    with pytest.raises(DomainError):
        timevarying_cell(ScalePath.cosine(0.9), 0.6, 100).sample(seed=1)


def test_increment_sample_basic():
    s = IncrementSample(np.array([1.0, -2.0, 3.0]), 0.5)
    assert s.n == 3
    assert abs(s.n * s.h - 1.5) < 1e-15
    with pytest.raises(DomainError):
        IncrementSample(np.array([1.0]), -0.5)


@pytest.mark.parametrize("values", [np.array([]), np.ones((2, 3))])
def test_increment_sample_refuses_an_empty_or_2d_array(values):
    with pytest.raises(DomainError) as exc:
        IncrementSample(values, 0.5)
    assert exc.value.context == {"shape": list(values.shape)}


def test_increment_sample_rejects_non_finite_values():
    values = np.array([1.0, np.nan, 2.0, np.inf] * 50)
    with pytest.raises(DataError) as exc:
        IncrementSample(values, 0.01)
    assert exc.value.context == {"first_index": 1, "count": 100}
    with pytest.raises(DataError):
        IncrementSample(np.array([0.5, -np.inf]), 0.01)


@given(st.floats(min_value=1.05, max_value=1.95),
       st.floats(min_value=-0.99, max_value=0.99))
@settings(max_examples=150, deadline=None)
def test_round_trip_property(beta, rho):
    assert positivity_to_skew(beta, skew_to_positivity(beta, rho)) == \
        pytest.approx(rho, abs=1e-10)
