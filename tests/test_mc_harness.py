"""Monte Carlo harness: seeded replication, aggregation, table presets,
summary emission."""

import csv
import dataclasses
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from levyestim import mc, skewed, stable_core, symmetric
from levyestim.errors import DomainError, EstimationError, only_row
from levyestim.mc import (
    DEFAULT_MASTER_SEED,
    ESTIMATORS,
    MODELS,
    PRESET_NAMES,
    ExperimentConfig,
    _cell_points,
    _kept,
    emit,
    preset,
    run_experiment,
    run_preset,
)
from levyestim.serialize import SUMMARY_COLUMNS
from levyestim.stable_core import (
    ScalePath,
    Streams,
    derive_seed,
    increment_scale_shift,
    increments_cell,
    positivity_to_skew,
    sample_standard_stable,
    skew_to_positivity,
)
from levyestim.symmetric import (
    frac_moment_block,
    log_moment_block,
    median_block,
)


def _small_config(**overrides):
    base = dict(
        model="symmetric_stable",
        truth={"beta": 1.5, "sigma": 0.5, "gamma": -0.5},
        n_list=(301,),
        h_rule={"kind": "fixed_T", "T": 5.0},
        replications=8,
        estimators=({"id": "log", "kind": "log"},),
        master_seed=99,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# config validation


def test_config_rejects_bad_fields():
    with pytest.raises(DomainError):
        _small_config(model="brownian")
    with pytest.raises(DomainError):
        _small_config(replications=0)
    with pytest.raises(DomainError):
        _small_config(n_list=())
    with pytest.raises(DomainError):
        _small_config(h_rule={"kind": "log"})
    with pytest.raises(DomainError):
        _small_config(h_rule={"kind": "fixed_T", "T": 0.0})
    with pytest.raises(DomainError):
        _small_config(estimators=())
    with pytest.raises(DomainError):
        _small_config(estimators=({"id": "x", "kind": "mystery"},))
    with pytest.raises(DomainError):
        # estimator reports sigma but truth omits it
        _small_config(truth={"beta": 1.5, "gamma": -0.5})


@pytest.mark.parametrize("overrides,field,value", [
    ({"estimators": ({"id": "a", "kind": "log"},
                     {"id": "a", "kind": "median"})}, "estimators.id", "a"),
    # rows name an estimator by its id as written: 7 and "7" both write 7
    ({"estimators": ({"id": 7, "kind": "log"},
                     {"id": "7", "kind": "median"})}, "estimators.id", "7"),
    ({"n_list": (301, 501, 301)}, "n_list", 301),
], ids=["id", "id-as-written", "n"])
def test_config_refuses_a_repeated_id_or_sample_size(overrides, field,
                                                     value):
    # a repeated (n, id) pair draws the same streams: its rows came out
    # twice, identical
    with pytest.raises(DomainError) as exc:
        _small_config(**overrides)
    assert exc.value.context == {"field": field, "value": value}


@pytest.mark.parametrize("field,text", [
    ("label", "a\nb,c"), ("label", "#t"), ("label", 'say "hi"'),
    ("label", "a\rb"), ("estimators.id", "log\nx,y"), ("estimators.id", "#x")])
def test_config_refuses_text_the_summary_csv_cannot_hold(field, text):
    # a label and an id are written unquoted into CSV cells and the echo
    # lines: "a\nb,c" split every row in two, and "#t" made each a comment
    overrides = ({"label": text} if field == "label" else
                 {"estimators": ({"id": text, "kind": "log"},)})
    with pytest.raises(DomainError) as exc:
        _small_config(**overrides)
    assert exc.value.context == {"field": field, "value": text}


def test_config_mesh_rules():
    assert _small_config().mesh(500) == 0.01
    power = _small_config(h_rule={"kind": "power", "a": 0.6})
    assert power.mesh(2001) == pytest.approx(2001.0 ** -0.6, rel=1e-15)


def test_config_json_round_trip():
    cfg = _small_config()
    again = ExperimentConfig.from_json_dict(
        json.loads(json.dumps(dataclasses.asdict(cfg))))
    assert again == cfg


# ---------------------------------------------------------------------------
# run_experiment semantics


def test_single_replication_row_is_the_single_estimate():
    cfg = _small_config(replications=1)
    rows = {(r.estimator, r.param): r for r in run_experiment(cfg)}
    sample = increments_cell(1.5, 0.5, 0.0, -0.5, 5.0 / 301,
                             301).sample(derive_seed(99, 301, "log", 0))
    est = only_row(log_moment_block(sample.values[None], sample.h))
    for param, value, truth in zip(("beta", "sigma", "gamma"), est,
                                   (1.5, 0.5, -0.5)):
        row = rows[("log", param)]
        assert row.mean == value
        assert row.rmse == abs(value - truth)
        assert row.failures == 0


def test_rmse_identity_and_exact_aggregation():
    # recompute every replication estimate independently and check the
    # mean and the population convention rmse^2 = bias^2 + var
    cfg = _small_config(replications=11)
    rows = {(r.estimator, r.param): r for r in run_experiment(cfg)}
    ests = []
    for rep in range(11):
        s = increments_cell(1.5, 0.5, 0.0, -0.5, 5.0 / 301,
                            301).sample(derive_seed(99, 301, "log", rep))
        ests.append(only_row(log_moment_block(s.values[None], s.h))[0])
    ests = np.array(ests)
    row = rows[("log", "beta")]
    assert row.mean == pytest.approx(ests.mean(), rel=1e-15)
    rmse_sq = (ests.mean() - 1.5) ** 2 + ests.var()
    assert row.rmse ** 2 == pytest.approx(rmse_sq, rel=1e-12)
    assert row.rmse >= abs(row.mean - row.truth)


def test_failures_excluded_from_aggregates():
    # fractional order p = 0.2 needs beta > 6p = 1.2; at truth beta = 1.2
    # the root lands outside the bracket for roughly half the paths
    cfg = _small_config(
        truth={"beta": 1.2, "sigma": 0.5, "gamma": -0.5},
        replications=40,
        estimators=({"id": "frac", "kind": "frac", "p": 0.2},))
    row = run_experiment(cfg)[0]
    assert 0 < row.failures < 40
    kept = []
    fails = 0
    for rep in range(40):
        s = increments_cell(1.2, 0.5, 0.0, -0.5, 5.0 / 301,
                            301).sample(derive_seed(99, 301, "frac", rep))
        try:
            kept.append(only_row(frac_moment_block(s.values[None], s.h,
                                                   0.2))[0])
        except EstimationError:
            fails += 1
    assert fails == row.failures
    assert fails + len(kept) == row.replications
    assert row.mean == pytest.approx(np.mean(kept), rel=1e-15)


def test_all_replications_failed_gives_nan_row():
    # p = 0.2 on beta = 0.8 paths: the admissibility root never exists
    cfg = _small_config(
        truth={"beta": 0.8, "sigma": 0.5, "gamma": -0.5},
        replications=5,
        estimators=({"id": "frac", "kind": "frac", "p": 0.2},))
    row = run_experiment(cfg)[0]
    assert row.failures == 5
    assert math.isnan(row.mean) and math.isnan(row.rmse)


def test_non_finite_estimates_count_as_failures(monkeypatch):
    # a block core that overflows returns inf; the cell must not average it
    def half_overflow(block, h, est):
        return [(math.inf if gamma > -0.5 else gamma,)
                for (gamma,) in median_block(block, h)]

    monkeypatch.setitem(ESTIMATORS, "median",
                        ESTIMATORS["median"]._replace(block=half_overflow))
    cfg = _small_config(replications=20,
                        estimators=({"id": "median", "kind": "median"},))
    row = run_experiment(cfg)[0]
    assert 0 < row.failures < 20
    assert math.isfinite(row.mean) and row.mean <= -0.5


def test_overflowing_cell_keeps_its_finite_mean_and_rmse(monkeypatch):
    # the sum and the squared deviations of these estimates overflow;
    # their mean and RMSE do not
    def huge(block, h, est):
        return [(1.5e308,), (0.5e308,)]

    monkeypatch.setitem(ESTIMATORS, "median",
                        ESTIMATORS["median"]._replace(block=huge))
    cfg = _small_config(replications=2,
                        estimators=({"id": "median", "kind": "median"},))
    row = run_experiment(cfg)[0]
    assert row.mean == pytest.approx(1e308, rel=1e-15)
    assert row.rmse == pytest.approx(math.sqrt(1.25) * 1e308, rel=1e-15)


def test_replication_order_never_changes_values():
    # the seed contract: a replication's value depends only on the design,
    # the master seed, n, the estimator id and its index, not on what ran
    # before it
    cfg = ExperimentConfig(
        model="skewed_stable",
        truth={"beta": 1.5, "p_pos": 0.5984, "sigma": 1.0},
        n_list=(400,),
        h_rule={"kind": "fixed_T", "T": 1.0},
        replications=24,
        estimators=({"id": "sign", "kind": "sign"},
                    {"id": "bipower", "kind": "bipower", "q": 0.25}),
        master_seed=7)
    h = cfg.mesh(400)
    cell = MODELS[cfg.model].cell(cfg.truth, h, 400)
    cells = [(est["id"], rep) for est in cfg.estimators
             for rep in range(cfg.replications)]
    by_id = {est["id"]: est for est in cfg.estimators}

    def replicate(est_id, rep):
        # one replication alone: its own stream, drawn and estimated as a
        # block of one
        (block,) = cell.blocks(
            Streams.from_seeds([derive_seed(7, 400, est_id, rep)]), 1)
        est = by_id[est_id]
        entry = ESTIMATORS[est["kind"]]
        (point,) = entry.block(block, cell.h, est)
        return _kept(point, entry)

    forward = {cell: replicate(*cell) for cell in cells}
    backward = {cell: replicate(*cell) for cell in reversed(cells)}
    # the harness draws each cell in stacked blocks: the same values
    for est in cfg.estimators:
        streams = Streams.from_seeds([derive_seed(7, 400, est["id"], rep)
                                      for rep in range(cfg.replications)])
        assert _cell_points(cell, 400, est, streams) == [
            forward[(est["id"], rep)] for rep in range(cfg.replications)]
    assert backward == forward
    assert sum(v is not None for v in forward.values()) > 40
    # the rows are these values, aggregated in replication order
    rows = run_experiment(cfg)
    sign = [forward[("sign", rep)][0] for rep in range(24)]
    assert rows[0].mean == float(np.array(sign).mean())


# every stable model, at truths that reach each CMS branch
_STABLE_TRUTHS = (
    ("symmetric_stable", {"beta": 1.3, "sigma": 0.5, "rho": 0.2,
                          "gamma": -0.5}),
    ("symmetric_stable", {"beta": 1.0, "sigma": 0.5, "rho": -0.3,
                          "gamma": 0.2}),
    ("skewed_stable", {"beta": 1.5, "p_pos": 0.55, "sigma": 0.8}),
    ("timevarying_stable", {"beta": 1.45, "p_pos": 0.45, "path": "cosine"}),
)


def _one_stream(model, truth, h, n, seed):
    # a single-stream draw written out: n uniforms, then n exponentials,
    # one CMS evaluation on 1-d arrays, then the model's increment scale
    rng = np.random.default_rng(seed)
    u = rng.uniform(-0.5 * np.pi, 0.5 * np.pi, size=n)
    v = rng.standard_exponential(size=n)
    beta = truth["beta"]
    if model == "symmetric_stable":
        scale, shift = increment_scale_shift(beta, truth["sigma"], truth["rho"],
                                             truth["gamma"], h)
        return scale * sample_standard_stable(beta, truth["rho"], u, v) + shift
    s = sample_standard_stable(beta, positivity_to_skew(beta, truth["p_pos"]),
                               u, v)
    if model == "skewed_stable":
        return (h * truth["sigma"] ** beta) ** (1.0 / beta) * s
    return (ScalePath.cosine(beta).sigma_bars(n) / n) ** (1.0 / beta) * s


@pytest.mark.parametrize("model,truth", _STABLE_TRUTHS,
                         ids=[f"{m}-{t['beta']:g}" for m, t in _STABLE_TRUTHS])
@pytest.mark.parametrize("n", (1, 7, 500, 5000))
def test_block_split_never_changes_values(model, truth, n):
    # a cell stacks its streams into blocks for one CMS evaluation; how
    # the streams are split into blocks, and in what order, never changes
    # a value
    h = 1.0 / n
    seeds = [derive_seed(3, n, "x", rep) for rep in range(7)]
    cell = MODELS[model].cell(truth, h, n)
    alone = {}
    for seed in seeds:
        alone[seed] = MODELS[model].cell(truth, h, n).sample(seed).values
        assert np.array_equal(alone[seed],
                              _one_stream(model, truth, h, n, seed))
    for order in (seeds, seeds[::-1]):
        for rows in (1, 3, len(order)):
            drawn = [row for start in range(0, len(order), rows)
                     for row in next(cell.blocks(
                         Streams.from_seeds(order[start:start + rows]), rows))]
            assert len(drawn) == len(order)
            for seed, row in zip(order, drawn):
                assert np.array_equal(row, alone[seed])


# (model, truth, the (n, repr(mean), repr(rmse)) rows of a sign-only
# design, pinned from a run that drew every value; None where the cell
# has no sign fill)
_SIGN_ROWS = (
    ("skewed_stable", {"beta": 1.3, "p_pos": 0.6, "sigma": 0.7}, (
        (1, "0.5789473684210527", "0.49417661449707384"),
        (7, "0.5413533834586466", "0.17453328896835"),
        (500, "0.6106315789473685", "0.021932912063356937"),
        (3000, "0.602122807017544", "0.006736042532960133"))),
    ("timevarying_stable", {"beta": 1.7, "p_pos": 0.45, "path": "cosine"}, (
        (1, "0.47368421052631576", "0.49986840373505464"),
        (7, "0.47368421052631576", "0.15589904194123672"),
        (500, "0.4543157894736842", "0.016434879468918973"),
        (3000, "0.4514385964912281", "0.007071067811865473"))),
    # increments_cell adds its drift shift: it still draws values
    ("symmetric_stable", {"beta": 1.5, "sigma": 0.5, "p_pos": 0.5}, None),
)


@pytest.mark.parametrize("model,truth,pinned", _SIGN_ROWS,
                         ids=[model for model, *_ in _SIGN_ROWS])
def test_sign_cells_draw_no_values(monkeypatch, model, truth, pinned):
    # a sign cell of a stable model without a shift draws only its
    # uniforms: the transform never runs, and the rows are unchanged
    def forbidden(*args, **kwargs):
        raise AssertionError("a sign cell ran the CMS transform")

    monkeypatch.setattr(stable_core, "sample_standard_stable", forbidden)
    cfg = ExperimentConfig(
        model=model, truth=truth, n_list=(1, 7, 500, 3000),
        h_rule={"kind": "fixed_T", "T": 1.0}, replications=19,
        estimators=({"id": "sign", "kind": "sign"},), master_seed=11)
    if pinned is None:
        with pytest.raises(AssertionError, match="CMS transform"):
            run_experiment(cfg)
        return
    assert [(r.n, repr(r.mean), repr(r.rmse), r.failures)
            for r in run_experiment(cfg)] == [row + (0,) for row in pinned]


def test_cell_memory_is_bounded_and_rows_are_read_only():
    # the harness draws a cell in cache-sized blocks: stacking all 64
    # n = 5000 streams of this cell in one block would hold 8 times the
    # draws of 8 streams
    def peak(replications):
        cfg = _small_config(model="skewed_stable",
                            truth={"beta": 1.5, "p_pos": 0.55},
                            n_list=(5000,),
                            h_rule={"kind": "fixed_T", "T": 1.0},
                            replications=replications,
                            estimators=({"id": "sign", "kind": "sign"},))
        tracemalloc.start()
        try:
            run_experiment(cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(8)  # first-call allocations out of the way
    small, large = peak(8), peak(64)
    assert small > 5000 * 8  # numpy's buffers are traced
    assert large < 1.5 * small
    cell = MODELS["skewed_stable"].cell({"beta": 1.5, "p_pos": 0.55},
                                        0.01, 100)
    row = next(cell.blocks(Streams.from_seeds([1, 2]), 2))[1]
    assert not row.flags.writeable
    with pytest.raises(ValueError):
        row[0] = 0.0


# (model, truth, n, h, the estimator kinds run on its samples)
_KIND_SAMPLES = (
    ("symmetric_stable", {"beta": 1.5, "sigma": 0.5, "gamma": -0.5},
     2001, 5.0 / 2001, ("log", "frac", "known_scale", "median")),
    ("skewed_stable", {"beta": 1.5, "p_pos": skew_to_positivity(1.5, -0.5)},
     2000, 1.0 / 2000, ("sign", "bipower", "power_scale")),
    ("timevarying_stable",
     {"beta": 1.5, "p_pos": skew_to_positivity(1.5, -0.5)},
     2000, None, ("tripower",)),
    ("gamma_sub", {"delta": 2.0, "gamma": 1.5}, 2000, 0.1,
     ("gamma_mle", "gamma_moment")),
    ("ig_sub", {"delta": 2.0, "gamma": 1.5}, 2000, 0.1, ("ig_mle",)),
)


def test_monte_carlo_computes_no_covariance(monkeypatch):
    """Every estimator kind runs its block core: with the covariances and
    the drift interval made to raise, each still returns finite values."""
    def forbidden(*args, **kwargs):
        raise AssertionError("a replication computed a covariance")

    for module, name in ((symmetric, "v_log"), (symmetric, "v_p"),
                         (symmetric, "gamma_confidence_interval"),
                         (skewed, "delta_cov")):
        monkeypatch.setattr(module, name, forbidden)
    kinds = [k for *_, ks in _KIND_SAMPLES for k in ks]
    assert sorted(kinds) == sorted(ESTIMATORS)
    tuning = {"p": 0.1, "q": 0.25, "sigma": 0.5}
    for model, truth, n, h, ks in _KIND_SAMPLES:
        sample = MODELS[model].cell(truth, h, n).sample(5)
        for kind in ks:
            entry = ESTIMATORS[kind]
            (point,) = entry.block(sample.values[None], sample.h, tuning)
            assert all(math.isfinite(v) for v in point), kind
            assert len(_kept(point, entry)) == len(entry.params), kind


def test_rows_cover_every_cell_in_order():
    cfg = _small_config(n_list=(101, 301),
                        estimators=({"id": "log", "kind": "log"},
                                    {"id": "median", "kind": "median"}))
    rows = run_experiment(cfg)
    cells = [(r.n, r.estimator, r.param) for r in rows]
    assert cells == [
        (101, "log", "beta"), (101, "log", "sigma"), (101, "log", "gamma"),
        (101, "median", "gamma"),
        (301, "log", "beta"), (301, "log", "sigma"), (301, "log", "gamma"),
        (301, "median", "gamma"),
    ]
    assert all(r.T == pytest.approx(5.0, rel=1e-15) for r in rows)


# ---------------------------------------------------------------------------
# presets


def test_preset_names_and_unknown_id():
    assert PRESET_NAMES == ("table1", "table2", "table3", "table4")
    with pytest.raises(DomainError):
        preset("table5")


def test_symmetric_preset_designs():
    t1 = preset("table1")
    assert [c.truth["beta"] for c in t1] == [0.8, 1.0, 1.5, 1.8]
    for cfg in t1:
        assert cfg.truth["sigma"] == 0.5 and cfg.truth["gamma"] == -0.5
        assert cfg.n_list == (501, 1001, 2001)
        assert cfg.replications == 1000
        assert cfg.mesh(2001) == 5.0 / 2001
        ids = [e["id"] for e in cfg.estimators]
        assert ids[0] == "log" and "known_scale" in ids and "median" in ids
    # fractional orders appear only when p < beta/6
    fracs = {c.truth["beta"]: [e["p"] for e in c.estimators
                               if e["kind"] == "frac"] for c in t1}
    assert fracs[0.8] == [0.05, 0.1]
    assert fracs[1.0] == [0.05, 0.1]
    assert fracs[1.5] == [0.05, 0.1, 0.2]
    assert fracs[1.8] == [0.05, 0.1, 0.2]

    t2 = preset("table2")
    assert t2[0].h_rule == {"kind": "power", "a": 0.6}
    n = 2001
    assert n * t2[0].mesh(n) == pytest.approx(n ** 0.4, rel=1e-15)
    assert n * t2[0].mesh(n) == pytest.approx(20.917, abs=5e-4)


def test_skewed_preset_designs():
    t3 = preset("table3")
    assert [c.truth["beta"] for c in t3] == [1.2, 1.5, 1.7, 1.9]
    pairs = {round(c.truth["p_pos"], 4): c.truth["beta"] for c in t3}
    assert pairs[0.5467] == 1.7
    for cfg in t3:
        assert cfg.model == "skewed_stable"
        assert cfg.n_list == (500, 1000, 2000, 5000)
        assert cfg.truth["p_pos"] == pytest.approx(
            skew_to_positivity(cfg.truth["beta"], -0.5), abs=1e-12)
        assert [e["kind"] for e in cfg.estimators] == [
            "sign", "bipower", "power_scale"]
        assert all(e.get("q", 0.25) == 0.25 for e in cfg.estimators)

    t4 = preset("table4")
    for cfg in t4:
        assert cfg.model == "timevarying_stable"
        assert cfg.truth["path"] == "cosine"
        assert cfg.truth["sigma_star"] == 0.6
        assert cfg.estimators[-1]["kind"] == "tripower"


def test_run_preset_filters():
    rows = run_preset("table1", replications=3, beta=0.8, n_list=[101])
    assert {r.n for r in rows} == {101}
    assert all(r.replications == 3 for r in rows)
    assert all(r.table == "table1[beta=0.8]" for r in rows)
    with pytest.raises(DomainError):
        run_preset("table1", beta=0.77)


def test_each_selected_design_is_checked_and_seeded_once(monkeypatch):
    # a design is checked once, with its overrides, and seeded in one
    # pass into one Generator; designs the filter drops are never built
    counts = {"checks": 0, "states": 0, "generators": 0}

    def counted(key, call):
        def wrapper(*args):
            counts[key] += 1
            return call(*args)
        return wrapper

    monkeypatch.setattr(ExperimentConfig, "__post_init__",
                        counted("checks", ExperimentConfig.__post_init__))
    monkeypatch.setattr(stable_core, "_pcg64_states",
                        counted("states", stable_core._pcg64_states))
    monkeypatch.setattr(np.random, "Generator",
                        counted("generators", np.random.Generator))
    run_preset("table3", replications=2, beta=1.5, n_list=[500])
    assert counts == {"checks": 1, "states": 1, "generators": 1}
    run_preset("table1", replications=1)
    assert counts == {"checks": 5, "states": 5, "generators": 5}


def test_filtered_designs_equal_the_overridden_preset_designs():
    for table_id in PRESET_NAMES:
        full = preset(table_id, 7)
        assert preset(table_id, 7, replications=3) == [
            dataclasses.replace(cfg, replications=3) for cfg in full]
        for cfg in full:
            assert preset(table_id, 7, beta=cfg.truth["beta"] + 1e-13,
                          replications=3, n_list=[600, 700]) == [
                dataclasses.replace(cfg, replications=3, n_list=(600, 700))]


@pytest.mark.parametrize("beta", (math.nan, math.inf, "1.5"))
def test_preset_refuses_a_beta_that_is_not_a_finite_number(beta):
    # a nan is within 1e-12 of no index, but failed the distance test of
    # every design and built all four
    for build in (preset, run_preset):
        with pytest.raises(DomainError) as info:
            build("table1", beta=beta)
        assert info.value.context == {"field": "beta"}


@pytest.mark.parametrize("override,field", [
    ({"n_list": [501.7]}, "n_list"), ({"replications": 2.9}, "replications"),
    ({"n_list": [True]}, "n_list"), ({"n_list": ["501"]}, "n_list"),
    ({"n_list": [math.inf]}, "n_list"),
])
def test_preset_overrides_are_checked_as_given(override, field):
    # int() would run 501.7 as n = 501, 2.9 as 2 replications and True as
    # n = 1, and raise a bare OverflowError on inf; a montecarlo config
    # refuses each by name
    with pytest.raises(DomainError) as info:
        preset("table1", beta=0.8, **override)
    assert info.value.context == {"field": field}


def test_filtered_rows_equal_the_full_preset_rows():
    # a design's streams do not depend on which other designs run
    full = run_preset("table3", replications=3)
    assert [repr(r) for r in run_preset("table3", replications=3,
                                        beta=1.5)] == \
        [repr(r) for r in full if r.table == "table3[beta=1.5]"]


def test_design_cells_equal_per_replication_samples(monkeypatch):
    # the design is seeded once and every cell drawn from its slice of the
    # streams, the sign kind through the sign fill: each point equals the
    # one its replication's own sample gives, estimated alone
    cfg = ExperimentConfig(
        model="skewed_stable",
        truth={"beta": 1.5, "p_pos": 0.5984, "sigma": 1.0},
        n_list=(300, 700), h_rule={"kind": "fixed_T", "T": 1.0},
        replications=5,
        estimators=({"id": "sign", "kind": "sign"},
                    {"id": "bipower", "kind": "bipower", "q": 0.25},
                    {"id": "power_scale", "kind": "power_scale", "q": 0.25}),
        master_seed=13)
    drawn = []

    def recorded(cell, n, est, streams):
        points = _cell_points(cell, n, est, streams)
        drawn.append(((n, est["id"]), points))
        return points

    monkeypatch.setattr(mc, "_cell_points", recorded)
    run_experiment(cfg)
    want = []
    for n in cfg.n_list:
        cell = MODELS[cfg.model].cell(cfg.truth, cfg.mesh(n), n)
        for est in cfg.estimators:
            points = []
            for rep in range(cfg.replications):
                sample = cell.sample(derive_seed(13, n, est["id"], rep))
                entry = ESTIMATORS[est["kind"]]
                (point,) = entry.block(sample.values[None], cell.h, est)
                points.append(_kept(point, entry))
            want.append(((n, est["id"]), points))
    assert drawn == want
    assert sum(p is not None for _, points in want for p in points) > 20


@pytest.mark.parametrize("signs", (False, True))
def test_a_partial_draw_leaves_the_next_cell_unchanged(signs):
    # the cells of a design share one Generator; each row re-states it, so
    # a cell drawn after another cell's unfinished draw gets the rows a
    # fresh draw gives
    cell = MODELS["skewed_stable"].cell({"beta": 1.5, "p_pos": 0.55},
                                        0.01, 100)
    seeds = [derive_seed(5, 100, "x", rep) for rep in range(7)]
    streams = Streams.from_seeds(seeds)
    fresh = list(cell.blocks(Streams.from_seeds(seeds[3:]), 2))
    next(cell.blocks(streams[:3], 2, signs))
    after = list(cell.blocks(streams[3:], 2))
    assert [b.tobytes() for b in after] == [b.tobytes() for b in fresh]


def test_table1_log_cell_reproduces_published_row(table1_beta08):
    row = table1_beta08[("log", "beta")]
    assert row.seed == DEFAULT_MASTER_SEED
    assert row.failures == 0
    assert abs(row.mean - 0.800) <= 0.003
    assert abs(row.rmse - 0.024) <= 0.3 * 0.024


def test_table4_tripower_cell_reproduces_published_row(table4_beta15):
    row = table4_beta15[("tripower", "sigma_star")]
    assert abs(row.mean - 0.615) <= 0.02
    assert abs(row.rmse - 0.141) <= 0.3 * 0.141


_GOLDEN_DIR = Path(__file__).resolve().parents[1] / "perfbench" / "golden"

# golden file -> (preset, replications) designs it was written from
_GOLDEN_DESIGNS = {
    "symmetric_tables.csv": (("table1", 40), ("table2", 40)),
    "skewed_tables.csv": (("table3", 20), ("table4", 5)),
}


def _within_sixth_digit(value, ref):
    # at most one unit in the 6th significant digit of the golden value
    if math.isnan(ref) or math.isnan(value):
        return math.isnan(ref) and math.isnan(value)
    if ref == 0.0:
        return value == 0.0
    unit = 10.0 ** (math.floor(math.log10(abs(ref))) - 5)
    return abs(value - ref) <= unit * (1.0 + 1e-9)


@pytest.mark.parametrize("golden", sorted(_GOLDEN_DESIGNS))
def test_benchmark_golden_rows_at_default_seed(golden):
    with open(_GOLDEN_DIR / golden, encoding="utf8", newline="") as fh:
        want = {(r["table"], r["estimator"], r["param"], int(r["n"])): r
                for r in csv.DictReader(fh)}
    got = {}
    for table_id, reps in _GOLDEN_DESIGNS[golden]:
        for row in run_preset(table_id, replications=reps,
                              master_seed=DEFAULT_MASTER_SEED):
            got[(row.table, row.estimator, row.param, row.n)] = row
    assert got.keys() == want.keys()
    for key, ref in want.items():
        row = got[key]
        assert row.replications == int(ref["replications"]), key
        assert row.failures == int(ref["failures"]), key
        assert _within_sixth_digit(row.mean, float(ref["mean"])), key
        assert _within_sixth_digit(row.rmse, float(ref["rmse"])), key


# ---------------------------------------------------------------------------
# emission


def _demo_rows():
    cfg = _small_config(replications=2)
    return run_experiment(cfg)


def test_emit_csv_round_trip(tmp_path):
    rows = _demo_rows()
    path = tmp_path / "summary.csv"
    emit(rows, "csv", path, config_echo={"label": "demo", "seed": 99})
    lines = path.read_text().splitlines()
    assert lines[:3] == ["# label=demo", "# seed=99", ",".join(SUMMARY_COLUMNS)]
    assert lines[3:] == [",".join(map(str, r.as_record())) for r in rows]


def test_emit_json_mirrors_csv(tmp_path):
    rows = _demo_rows()
    path = tmp_path / "summary.json"
    emit(rows, "json", path, config_echo={"seed": 99})
    payload = json.loads(path.read_text())
    assert payload["config"] == {"seed": "99"}
    assert len(payload["rows"]) == len(rows)
    for rec, row in zip(payload["rows"], rows):
        assert set(rec) == {c.lower() for c in SUMMARY_COLUMNS}
        assert all(k == k.lower() and " " not in k for k in rec)
        assert rec["mean"] == float(f"{row.mean:.6g}")
        assert rec["n"] == row.n


def test_emit_handles_all_failed_cells(tmp_path):
    cfg = _small_config(
        truth={"beta": 0.8, "sigma": 0.5, "gamma": -0.5},
        replications=3,
        estimators=({"id": "frac", "kind": "frac", "p": 0.2},))
    rows = run_experiment(cfg)
    csv_path = tmp_path / "nan.csv"
    emit(rows, "csv", csv_path, {})
    header, line = csv_path.read_text().splitlines()[:2]
    assert dict(zip(header.split(","), line.split(",")))["mean"] == "nan"
    json_path = tmp_path / "nan.json"
    emit(rows, "json", json_path, {})
    rec = json.loads(json_path.read_text())["rows"][0]
    assert rec["mean"] is None and rec["rmse"] is None
    assert rec["failures"] == 3


def test_emit_json_is_strict(tmp_path):
    # an rmse beyond the double range is written as null, not Infinity
    row = dataclasses.replace(_demo_rows()[0], rmse=math.inf,
                              mean=-math.inf)
    path = tmp_path / "inf.json"
    emit([row], "json", path, {})

    def reject(name):
        raise ValueError(f"non-finite JSON constant {name}")

    rec = json.loads(path.read_text(), parse_constant=reject)["rows"][0]
    assert rec["mean"] is None and rec["rmse"] is None
    assert rec["truth"] == 1.5


def test_a_json_summary_that_fails_leaves_no_file(tmp_path):
    # the JSON text is built before the file opens
    row = dataclasses.replace(_demo_rows()[0], estimator=object())
    path = tmp_path / "bad.json"
    with pytest.raises(TypeError):
        emit([row], "json", path, {})
    assert not path.exists()


def test_emit_rejects_empty_and_unknown_format(tmp_path):
    with pytest.raises(DomainError):
        emit([], "csv", tmp_path / "x.csv", {})
    with pytest.raises(DomainError):
        emit(_demo_rows(), "parquet", tmp_path / "x.parquet", {})
