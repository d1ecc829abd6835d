"""Shared parameter domains: every scale, mesh and rate is a finite number
> 0, every stable index lies in (0, 2] (or, for plug-in formulas, is a
finite number > 0), and every skewness lies in [-1, 1].  Anything else is a
domain_error whose context names the argument."""

import math

import numpy as np
import pytest

from levyestim.errors import DomainError
from levyestim.mc import check_truth
from levyestim.skewed import mpv
from levyestim.stable_core import (
    IncrementSample,
    PositivityStable,
    ScalePath,
    StableParams,
    increment_scale_shift,
    increments_cell,
    sample_standard_stable,
    skew_to_positivity,
    sprime_cell,
)
from levyestim.stable_density import (
    fisher_matrix,
    median_asymptotic_sd,
    phi_pair,
)
from levyestim.subordinators import (
    gamma_sub_cell,
    ig_sub_cell,
)
from levyestim.symmetric import (
    c_moment,
    gamma_confidence_interval,
    known_scale_block,
    log_moment_nu,
    psi_transform,
    v_log,
    v_p,
)

_SAMPLE = IncrementSample(np.linspace(-1.0, 1.0, 50) ** 3 + 0.01, 0.01)
_U = np.array([-0.5, 0.1, 0.7])
_E = np.array([0.3, 1.0, 2.5])

# case id -> (context key, call with the bad value)
_POSITIVE = {
    "StableParams.sigma": ("sigma", lambda v: StableParams(1.5, v)),
    "ScalePath.constant": ("sigma", lambda v: ScalePath.constant(v, 1.5)),
    "log_moment_nu.sigma": ("sigma", lambda v: log_moment_nu(1.5, v)),
    "v_log.sigma": ("sigma", lambda v: v_log(1.5, v)),
    "known_scale_block.sigma": ("sigma", lambda v: known_scale_block(
        _SAMPLE.values[None], _SAMPLE.h, v)),
    "v_p.sigma": ("sigma", lambda v: v_p(1.5, v, 0.1)),
    "median_asymptotic_sd.sigma":
        ("sigma", lambda v: median_asymptotic_sd(1.5, v)),
    "phi_pair.sigma": ("sigma", lambda v: phi_pair(1.0, 1.5, v)),
    "fisher_matrix.sigma": ("sigma", lambda v: fisher_matrix(1.5, v)),
    "IncrementSample.h": ("h", lambda v: IncrementSample(_SAMPLE.values, v)),
    "increment_scale_shift":
        ("h", lambda v: increment_scale_shift(StableParams(1.5, 1.0), v)),
    "increments_cell.h":
        ("h", lambda v: increments_cell(StableParams(1.5, 1.0), v, 5)),
    "sprime_cell.h": ("h", lambda v: sprime_cell(
        PositivityStable(1.5, 0.5), v, 5)),
    "gamma_sub_cell.h":
        ("h", lambda v: gamma_sub_cell(1.0, 1.0, v, 5)),
    "ig_sub_cell.h":
        ("h", lambda v: ig_sub_cell(1.0, 1.0, v, 5)),
    "gamma_confidence_interval": ("h", lambda v: gamma_confidence_interval(
        0.0, 1.5, 0.5, 501, h=v)),
    "PositivityStable.sigma":
        ("sigma", lambda v: PositivityStable(1.5, 0.5, v)),
    "gamma_sub_cell.delta":
        ("delta", lambda v: gamma_sub_cell(v, 1.0, 0.1, 5)),
    "gamma_sub_cell.gamma":
        ("gamma", lambda v: gamma_sub_cell(1.0, v, 0.1, 5)),
    "ig_sub_cell.delta": ("delta", lambda v: ig_sub_cell(v, 1.0, 0.1, 5)),
    "ig_sub_cell.gamma": ("gamma", lambda v: ig_sub_cell(1.0, v, 0.1, 5)),
    "log_moment_nu.beta": ("beta", lambda v: log_moment_nu(v, 1.0)),
    "psi_transform": ("beta", psi_transform),
    "median_asymptotic_sd.beta":
        ("beta", lambda v: median_asymptotic_sd(v, 1.0)),
}
_INDEX = {
    "StableParams.beta": ("beta", lambda v: StableParams(v, 1.0)),
    "ScalePath":
        ("beta", lambda v: ScalePath(v, lambda t: 1.0, lambda t: t)),
    "sample_standard_stable.beta":
        ("beta", lambda v: sample_standard_stable(v, 0.0, _U, _E)),
    "c_moment": ("beta", lambda v: c_moment(v, 0.1)),
    "mpv": ("beta", lambda v: mpv(_SAMPLE, v, [0.5, 0.5])),
}
_SKEW = {
    "StableParams.rho": ("rho", lambda v: StableParams(1.5, 1.0, v)),
    "sample_standard_stable.rho":
        ("rho", lambda v: sample_standard_stable(1.5, v, _U, _E)),
    "skew_to_positivity": ("rho", lambda v: skew_to_positivity(1.5, v)),
}
_OUT_OF_RANGE = (0.0, -1.0, math.nan, math.inf)


@pytest.mark.parametrize("case, value", [
    pytest.param(table[name], value, id=f"{name}-{value}")
    for table, values in ((_POSITIVE, _OUT_OF_RANGE),
                          (_INDEX, _OUT_OF_RANGE),
                          (_SKEW, (1.5, math.nan)))
    for name in table for value in values])
def test_out_of_domain_argument_is_a_named_domain_error(case, value):
    key, call = case
    with pytest.raises(DomainError) as exc:
        call(value)
    assert exc.value.code == "domain_error"
    assert key in exc.value.context


# a valid truth of each model, the constant scale path's besides the
# cosine's, and values outside each key's domain (at beta = 1.5 for p_pos)
_MODEL_TRUTHS = [
    ("symmetric_stable", {"beta": 1.5, "sigma": 1.0, "rho": 0.3}),
    ("skewed_stable", {"beta": 1.5, "p_pos": 0.5, "sigma": 1.0}),
    ("timevarying_stable", {"beta": 1.5, "p_pos": 0.5}),
    ("timevarying_stable",
     {"beta": 1.5, "p_pos": 0.5, "path": "constant", "sigma": 1.0}),
    ("gamma_sub", {"delta": 1.0, "gamma": 1.0}),
    ("ig_sub", {"delta": 1.0, "gamma": 1.0}),
]
_BAD_TRUTH = {"beta": (0.0, -1.0, 2.5), "sigma": (0.0, -1.0),
              "rho": (1.5, -2.0), "p_pos": (0.0, 1.0), "delta": (0.0, -1.0),
              "gamma": (0.0, -1.0)}


@pytest.mark.parametrize("model, truth, key, value", [
    pytest.param(model, truth, key, value, id="-".join(filter(None, [
        model, truth.get("path"), f"{key}={value}"])))
    for model, truth in _MODEL_TRUTHS for key in truth if key != "path"
    for value in _BAD_TRUTH[key]])
def test_every_model_key_names_itself(model, truth, key, value):
    # a truth key is checked under the name a design writes, where the
    # model's cell is built
    bad = {**truth, key: value}
    with pytest.raises(DomainError) as exc:
        check_truth(model, bad).cell(bad, 0.01, 5)
    assert key in exc.value.context
