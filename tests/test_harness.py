"""Tests for the Monte Carlo estimation harness and chain validation."""

import io
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import switchsde as s
import switchsde.harness as harness
from switchsde.errors import (ConfigError, DegenerateFitError, GridMismatchError,
                              NonPositiveErrorValues)
from switchsde.cli import DEFAULT_CONFIG
from switchsde.harness import setting
from switchsde.solvers import CLASSICAL, JUMP_ADAPTED, SampleBlock

GEN = s.validate_generator([[-1.0, 1.0], [2.0, -2.0]])
LINEAR = {"a": [1.0, 2.0], "b": [2.0, 1.0], "z0": 1.0}


def linear_config(**overrides):
    defaults = dict(
        model=s.LinearHybridModel(**LINEAR),
        generator=GEN,
        horizon=1.0,
        p_values=(2,),
        deltas=tuple(2.0**-k for k in range(4, 8)),
        samples=64,
        seed=0,
        schemes=(JUMP_ADAPTED,),
    )
    defaults.update(overrides)
    return s.ExperimentConfig(**defaults)


# --- estimate_order ---------------------------------------------------------------


def test_estimate_order_exact_half():
    slope, intercept, r2 = s.estimate_order([(2.0**-2, 0.5), (2.0**-4, 0.25), (2.0**-6, 0.125)])
    assert slope == pytest.approx(0.5)
    assert r2 == pytest.approx(1.0)


def test_estimate_order_flat():
    slope, _, r2 = s.estimate_order([(2.0**-2, 0.7), (2.0**-3, 0.7)])
    assert slope == pytest.approx(0.0)
    assert r2 == 1.0


def test_estimate_order_exact_one():
    slope, _, _ = s.estimate_order([(2.0**-2, 0.4), (2.0**-3, 0.2), (2.0**-4, 0.1)])
    assert slope == pytest.approx(1.0)


def test_estimate_order_rejects_nonpositive():
    with pytest.raises(NonPositiveErrorValues):
        s.estimate_order([(0.5, 0.0), (0.25, 0.1)])


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_estimate_order_rejects_non_finite(bad):
    with pytest.raises(NonPositiveErrorValues, match="positive and finite"):
        s.estimate_order([(0.5, bad), (0.25, 0.1)])


def test_estimate_order_rejects_degenerate():
    with pytest.raises(DegenerateFitError):
        s.estimate_order([(0.5, 0.1), (0.5, 0.2)])
    with pytest.raises(DegenerateFitError):
        s.estimate_order([(0.5, 0.1)])


# --- config validation --------------------------------------------------------------


def test_config_rejects_non_dyadic_ladder():
    with pytest.raises(ConfigError):
        linear_config(deltas=(0.1, 0.05, 0.03))


def test_config_rejects_ladder_off_the_finest_grid():
    # within 1e-12 of dyadic, but 0.25 is 1.25e-13 from the finest grid's nearest point
    with pytest.raises(ConfigError):
        linear_config(deltas=(0.25, 0.1250000000000625))
    for deltas in ((0.25, 0.125), (0.3, 0.15)):
        assert linear_config(deltas=deltas).deltas == deltas


@st.composite
def near_dyadic_rungs(draw):
    """(rung, finest): a rung 2^k finest steps long, k = 1..4, off by a relative 1e-17..1e-11."""
    finest = 2.0 ** -draw(st.integers(3, 8))
    off = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-17.0, -11.0))
    return finest * 2.0 ** draw(st.integers(1, 4)) * (1.0 + off), finest


def builds_grids(horizon, rung, fine):
    chain = s.ChainPath(horizon=horizon, switch_times=np.array([0.0]), states=np.array([1]))
    try:
        SampleBlock.union(s.uniform_grid(horizon, fine), [chain]).on_grid(rung)
    except GridMismatchError:
        return False
    return True


@given(st.sampled_from([0.3, 0.7, 1.0, 3.0, 10.0]), near_dyadic_rungs(), st.integers(1, 6))
@example(1.0, (0.5000000000000072, 0.03125), 3)  # passed the config, then failed the grids
@example(0.7, (0.5000000000000072, 0.03125), 3)
@example(3.0, (0.007812500000000078, 0.00390625), 3)  # refused, though its grids build
def test_config_accepts_exactly_the_ladders_whose_grids_build(horizon, ladder, refinement):
    rung, finest = ladder
    assume(rung <= horizon)
    try:
        linear_config(horizon=horizon, deltas=ladder)
        accepted = True
    except ConfigError as exc:
        assert "the ladder must be dyadic" in str(exc)
        accepted = False
    for fine in (finest, finest / 2.0 ** refinement):  # the finest step and a reference step
        assert builds_grids(horizon, rung, fine) == accepted


def test_config_rejects_ascending_ladder():
    with pytest.raises(ConfigError):
        linear_config(deltas=(0.125, 0.25))


def test_config_rejects_low_moment_order():
    with pytest.raises(ConfigError):
        linear_config(p_values=(1,))


def test_config_rejects_tiny_sample_count():
    with pytest.raises(ConfigError):
        linear_config(samples=1)


def test_config_rejects_closed_form_without_oracle():
    trig = s.TrigHybridModel(a=[1.0, 2.0], b=[0.5, 1.0], c=[0.0, 0.1], z0=1.0)
    with pytest.raises(ConfigError):
        linear_config(model=trig, reference="closed-form")


def test_config_rejects_regime_count_mismatch():
    with pytest.raises(ConfigError):
        linear_config(model=s.LinearHybridModel(a=[1.0], b=[1.0], z0=1.0))


@pytest.mark.parametrize("overrides", [
    {"horizon": float("nan")},  # a ValueError from uniform_points, unchecked
    {"horizon": float("inf")},  # an OverflowError
    {"deltas": (float("nan"),)},  # a ValueError
    {"samples": 2.5},  # taken, then a TypeError from range when run
    {"seed": 2.5},  # a TypeError from SeedSequence when run
    {"reference": "fine-em", "ref_refinement": 1.5},  # a GridMismatchError when run
    {"jump_budget": True},  # a bool is not a count
], ids=["horizon-nan", "horizon-inf", "delta-nan", "samples-2.5", "seed-2.5",
        "refinement-1.5", "budget-true"])
def test_config_rejects_what_config_from_dict_rejects(overrides):
    with pytest.raises(ConfigError):
        linear_config(**overrides)


def test_config_takes_numpy_integers():
    numpy_ints = linear_config(samples=np.int64(8), seed=np.uint32(3), jump_budget=np.int32(99))
    assert s.run_strong_error(numpy_ints) == s.run_strong_error(
        linear_config(samples=8, seed=3, jump_budget=99))


@pytest.mark.parametrize("field, value", [
    ("deltas", (True, 0.5)),  # ran, with the step True in errors.csv
    ("deltas", (0.25, "0.125")),  # a TypeError
    ("horizon", True),  # ran as T = 1
    ("p_values", (np.inf,)),  # ran, with eps 1.0 and a fitted order of 0.0
    ("p_values", (np.nan,)),
    ("p_values", (2.5,)),
    ("p_values", (True, 2)),
], ids=["delta-true", "delta-string", "horizon-true", "p-inf", "p-nan", "p-2.5", "p-true"])
def test_config_checks_its_fields_by_the_json_readers_rule(field, value):
    with pytest.raises(ConfigError, match=f"^{field} must be (an integer|a finite number), got "):
        linear_config(**{field: value})


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_config_holds_the_python_numbers_it_checked():
    config = linear_config(horizon=1, p_values=[np.int64(2), 4], schemes=[JUMP_ADAPTED],
                           deltas=[np.float64(0.25), np.float32(0.125)], samples=np.int64(8),
                           seed=np.uint32(3), reference="fine-em", ref_refinement=np.int8(2),
                           jump_budget=np.int32(99))
    assert (config.horizon, config.p_values, config.deltas, config.schemes) == (
        1.0, (2, 4), (0.25, 0.125), (JUMP_ADAPTED,))
    assert [type(v) for v in (config.p_values, config.deltas, config.schemes)] == [tuple] * 3
    assert [type(v) for v in (config.horizon, *config.deltas, config.reference_step)] == [float] * 4
    assert [type(v) for v in (*config.p_values, config.samples, config.seed,
                              config.ref_refinement, config.jump_budget)] == [int] * 6


@pytest.mark.parametrize("version", [7, 0, 1.0, "1"])
def test_config_from_dict_refuses_another_schema_version(version):
    with pytest.raises(ConfigError, match="schema_version"):
        s.config_from_dict(dict(DEFAULT_CONFIG, schema_version=version))
    assert s.config_from_dict(dict(DEFAULT_CONFIG, schema_version=1)).samples == 1000


def test_config_from_dict_roundtrip():
    cfg = s.config_from_dict(
        {
            "generator": {"states": 2, "rates": [[-1.0, 1.0], [2.0, -2.0]]},
            "model": {"model": "linear", **LINEAR},
            "horizon": 1.0,
            "p": [2, 4],
            "deltas": [0.25, 0.125],
            "samples": 16,
            "seed": 3,
            "schemes": ["jump-adapted", "classical"],
        }
    )
    assert cfg.p_values == (2, 4)
    assert cfg.samples == 16
    assert cfg.schemes == ("jump-adapted", "classical")
    with pytest.raises(ConfigError, match="generator"):
        s.config_from_dict({"model": {"model": "linear", **LINEAR}})


def test_config_from_dict_takes_every_default_from_the_table():
    cfg = s.config_from_dict({"generator": {"states": 2, "rates": [[-1.0, 1.0], [2.0, -2.0]]},
                              "model": {"model": "linear", "a": [1.0, 2.0], "b": [2.0, 1.0]}})
    defaults = harness.CONFIG_DEFAULTS
    assert cfg.schemes == (JUMP_ADAPTED, CLASSICAL) == tuple(defaults["schemes"])
    assert (cfg.horizon, cfg.samples, cfg.seed, cfg.jump_budget, cfg.ref_refinement) == (
        defaults["horizon"], defaults["samples"], defaults["seed"], defaults["jump_budget"],
        defaults["refinement_exponent"])
    assert cfg.p_values == tuple(defaults["p"]) and cfg.deltas == tuple(defaults["deltas"])
    assert cfg.model.initial_regime == defaults["initial_regime"]
    assert cfg.reference == "closed-form"


@pytest.mark.parametrize("entries, names", [
    ({"sampels": 3, "refinment_exponent": 2}, "config keys: refinment_exponent, sampels"),
    ({"model": {"model": "linear", **LINEAR, "z_0": 5.0}}, "model keys: z_0"),
    ({"model": {"model": "trig", **LINEAR, "c": [0.0, 0.0], "d": 1}}, "model keys: d"),
    ({"generator": {"states": 2, "rates": GEN.rates.tolist(), "rate": 1}},
     "generator keys: rate"),
], ids=["top", "linear", "trig", "generator"])
def test_config_from_dict_rejects_an_unknown_key_at_every_level(entries, names):
    data = {"generator": {"states": 2, "rates": GEN.rates.tolist()},
            "model": {"model": "linear", **LINEAR}}
    with pytest.raises(ConfigError, match=f"^unknown {names}$"):
        s.config_from_dict({**data, **entries})


@pytest.mark.parametrize("data, kind, want", [
    ({"k": 3}, int, 3),
    ({"k": 3}, float, 3.0),
    ({"k": 0.5}, float, 0.5),
    ({}, int, 7),
    ({"k": [2, 4]}, [int], (2, 4)),
    ({"k": [1, 0.5]}, [float], (1.0, 0.5)),
])
def test_setting_reads_integers_and_finite_numbers(data, kind, want):
    assert repr(setting(data, "k", kind, 7)) == repr(want)  # 3.0 where a float is asked for


@pytest.mark.parametrize("data, kind", [
    ({"k": 40.0}, int), ({"k": True}, int), ({"k": "7"}, int), ({"k": None}, int), ({}, int),
    ({"k": False}, float), ({"k": "0.5"}, float), ({"k": float("nan")}, float),
    ({"k": float("inf")}, float), ({"k": 10**400}, float),
    ({"k": 2}, [int]), ({"k": "24"}, [int]), ({"k": [2.5]}, [int]), ({"k": ["0.5"]}, [float]),
])
def test_setting_rejects_every_other_value(data, kind):
    with pytest.raises(ConfigError):
        setting(data, "k", kind)


# --- run_strong_error ----------------------------------------------------------------


def test_strong_error_smoke_report_shape():
    cfg = linear_config(schemes=(JUMP_ADAPTED, CLASSICAL))
    report = s.run_strong_error(cfg)
    assert len(report.points) == 2 * len(cfg.deltas)
    for pt in report.points:
        assert pt.eps > 0.0 and np.isfinite(pt.stderr)
        assert pt.samples == cfg.samples
    assert report.fit_for(JUMP_ADAPTED, 2) is not None
    assert report.fit_for(CLASSICAL, 2) is not None


def test_strong_error_zero_diffusion_constant_drift_is_exact():
    # piecewise-constant drift integrates exactly on the refined grid
    model = s.HybridModel(
        state_dim=1, noise_dim=1, regime_count=2,
        drift=lambda z, i: 1.0 if i == 1 else -1.0,
        diffusion=lambda z, i: 0.0,
        initial_value=[0.0],
    )
    cfg = linear_config(model=model, samples=16, reference="fine-em", ref_refinement=2)
    report = s.run_strong_error(cfg)
    for pt in report.points:
        assert pt.eps <= 1e-12


def test_strong_error_single_regime_schemes_identical():
    model = s.LinearHybridModel(a=[0.5], b=[1.0], z0=1.0)
    gen1 = s.validate_generator([[0.0]])
    cfg = linear_config(model=model, generator=gen1, samples=32,
                        schemes=(JUMP_ADAPTED, CLASSICAL))
    report = s.run_strong_error(cfg)
    for delta in cfg.deltas:
        ja = [pt for pt in report.points if pt.scheme == JUMP_ADAPTED and pt.delta == delta]
        cl = [pt for pt in report.points if pt.scheme == CLASSICAL and pt.delta == delta]
        assert ja[0].eps == cl[0].eps
        assert ja[0].stderr == cl[0].stderr


def test_strong_error_thread_count_invariant():
    cfg = linear_config(samples=48, schemes=(JUMP_ADAPTED, CLASSICAL))
    one = s.run_strong_error(cfg, threads=1)
    many = s.run_strong_error(cfg, threads=4)
    assert one == many


def test_strong_error_rerun_identical():
    cfg = linear_config(samples=32)
    assert s.run_strong_error(cfg) == s.run_strong_error(cfg)


def test_strong_error_nonincreasing_within_noise():
    cfg = linear_config(samples=256, seed=2)
    pts = s.run_strong_error(cfg).points_for(JUMP_ADAPTED, 2)
    for coarse, fine in zip(pts, pts[1:]):
        assert fine.eps <= coarse.eps + 2.0 * (coarse.stderr + fine.stderr)


def test_strong_error_fine_em_reference_for_trig():
    trig = s.TrigHybridModel(a=[1.0, 2.0], b=[0.5, 1.0], c=[0.0, 0.1], z0=1.0)
    cfg = linear_config(
        model=trig, samples=48, reference="fine-em", ref_refinement=4,
        deltas=tuple(2.0**-k for k in range(3, 6)),
    )
    report = s.run_strong_error(cfg)
    fit = report.fit_for(JUMP_ADAPTED, 2)
    assert fit is not None
    assert 0.2 <= fit.slope <= 0.9
    for pt in report.points:
        assert pt.eps > 0.0


def test_error_report_csv_headers():
    cfg = linear_config(samples=16)
    report = s.run_strong_error(cfg)
    buf = io.StringIO()
    report.write_errors_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "scheme,p,delta,eps,stderr,M"
    assert len(lines) == 1 + len(cfg.deltas)
    buf = io.StringIO()
    report.write_fit_csv(buf)
    assert buf.getvalue().splitlines()[0] == "scheme,p,slope,intercept,r2"


@settings(max_examples=60, deadline=None)
@given(samples=st.sampled_from([2, 3, 7, 8, 9, 16, 40, 64, 70, 129, 1000, 5000]),
       schemes=st.sampled_from([(JUMP_ADAPTED,), (JUMP_ADAPTED, CLASSICAL)]),
       rungs=st.integers(2, 4), zero=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_moment_statistics_round_as_one_row_at_a_time(samples, schemes, rungs, zero, seed):
    """run_strong_error's eps and stderr, reduced over every (scheme, delta) row at
    once, equal the mean and std of each row alone, bit for bit, on sups from 1e-6 to
    1e3 laid out as `_sup_errors` lays them out; an all-zero row has stderr 0."""
    rng = np.random.default_rng(seed)
    sups = (10.0 ** rng.uniform(-6.0, 3.0, (rungs, len(schemes), samples))).swapaxes(0, 1)
    if zero:
        sups[-1, 0] = 0.0
    config = linear_config(samples=samples, schemes=schemes, p_values=(2, 3, 4),
                           deltas=tuple(2.0**-k for k in range(4, 4 + rungs)))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "_sup_errors", lambda config: sups)
        report = s.run_strong_error(config)
    want = []
    for si in range(len(schemes)):
        for p in config.p_values:
            for di in range(rungs):
                powered = sups[si, di] ** p
                eps = float(powered.mean()) ** (1.0 / p)
                sd = float(powered.std(ddof=1))
                want.append((eps, eps ** (1 - p) * sd / (p * np.sqrt(samples)) if eps else 0.0))
    assert [(pt.eps, pt.stderr) for pt in report.points] == want


# --- moment_check ---------------------------------------------------------------------


def test_moment_check_zero_model_exact():
    model = s.LinearHybridModel(a=[0.0, 0.0], b=[0.0, 0.0], z0=1.5)
    cfg = linear_config(model=model, p_values=(2, 4), samples=8)
    report = s.moment_check(cfg)
    for pt in report.points:
        assert pt.sup_moment == pytest.approx(1.5**pt.p, rel=1e-15)
    assert report.flagged() == []


def test_moment_check_jensen_consistency():
    cfg = linear_config(p_values=(2, 4), samples=64)
    report = s.moment_check(cfg)
    for delta in cfg.deltas:
        p2 = [pt for pt in report.points if pt.p == 2 and pt.delta == delta][0]
        p4 = [pt for pt in report.points if pt.p == 4 and pt.delta == delta][0]
        assert p2.sup_moment <= np.sqrt(p4.sup_moment) + 1e-12


def test_moment_report_flags_growth_beyond_the_factor_and_infinite_moments():
    rows = [(2, 0.5, 1.0), (2, 0.25, 3.0), (4, 0.5, 1.0), (4, 0.25, np.inf),
            (6, 0.5, 1.0), (6, 0.25, 1.5)]
    report = s.MomentReport(points=tuple(harness.MomentPoint(*row) for row in rows))
    assert report.flagged() == [(2, 3.0), (4, np.inf)]


def test_a_zero_sup_moment_gives_a_non_finite_ratio_that_is_flagged():
    model = s.TrigHybridModel(a=[0.0, 0.0], b=[0.0, 0.0], c=[0.0, 0.0], z0=0.0)
    report = s.moment_check(linear_config(model=model, p_values=(2,), samples=8,
                                          reference="fine-em"))
    assert {pt.sup_moment for pt in report.points} == {0.0}
    assert np.isnan(report.max_ratio(2))
    assert [p for p, _ in report.flagged()] == [2]
    rows = [(2, 0.5, 1.0), (2, 0.25, 0.0)]
    one_zero = s.MomentReport(points=tuple(harness.MomentPoint(*row) for row in rows))
    assert one_zero.flagged() == [(2, np.inf)]


def test_moment_check_finite_for_default_model():
    cfg = linear_config(p_values=(2,), samples=128)
    report = s.moment_check(cfg)
    assert report.all_finite()
    assert all(pt.sup_moment > 0 for pt in report.points)


# --- local_error_scaling ---------------------------------------------------------------


def test_local_error_slope_matches_half_order_per_moment():
    model = s.LinearHybridModel(a=[1.0, 2.0], b=[0.5, 0.25], z0=1.0)
    cfg = linear_config(model=model, p_values=(2, 4), samples=400,
                        deltas=tuple(2.0**-k for k in range(4, 10)))
    report = s.local_error_scaling(cfg)
    assert abs(report.slopes[2] - 1.0) <= 0.15
    assert abs(report.slopes[4] - 2.0) <= 0.3
    for pt in report.points:
        assert pt.max_moment > 0


def test_local_error_requires_supported_moments():
    cfg = linear_config(p_values=(2, 3))
    with pytest.raises(ConfigError):
        s.local_error_scaling(cfg)
    vector = linear_config(model=vector_model(), reference="fine-em", p_values=(2, 4))
    with pytest.raises(ConfigError, match="scalar model"):
        s.local_error_scaling(vector)


# --- the draws every experiment shares -------------------------------------------------


def vector_model():
    """n = d = 2 with elementwise coefficients, so each row rounds the same in any block."""
    a = np.array([[[-1.0, 0.5], [0.3, -0.8]], [[0.5, -0.2], [0.1, 0.4]]])
    sig = np.array([[[0.4, 0.1], [0.0, 0.3]], [[0.8, 0.0], [0.2, 0.6]]])
    return s.HybridModel(
        state_dim=2, noise_dim=2, regime_count=2,
        drift=lambda z, i: z[..., :1] * a[i - 1, :, 0] + z[..., 1:] * a[i - 1, :, 1],
        diffusion=lambda z, i: z[..., :, None] * sig[i - 1], initial_value=[1.0, 0.5],
    )


@pytest.mark.parametrize("reference", ["closed-form", "fine-em"])
def test_every_experiment_sees_the_same_chains(monkeypatch, reference):
    """For one seed `_sup_errors` and `moment_check` draw the same chain paths,
    and the same Brownian path only with the closed form: a fine-EM reference
    puts its finer grid into the error run's union grids."""
    draws = []
    draw = harness._draw_block

    def recording(*args):
        block = draw(*args)
        draws[-1].append(block)
        return block

    monkeypatch.setattr(harness, "_draw_block", recording)
    cfg = linear_config(samples=harness.BLOCK_SIZE + 5, seed=3, reference=reference,
                        ref_refinement=2)
    for run in (harness._sup_errors, s.moment_check):
        draws.append([])
        run(cfg)
    errors, moments = draws
    assert [len(b) for b in errors] == [len(b) for b in moments] == [harness.BLOCK_SIZE, 5]
    for block, block2 in zip(errors, moments):
        assert np.array_equal(block.switch_offsets, block2.switch_offsets)
        assert np.array_equal(block.switch_times, block2.switch_times)
        assert np.array_equal(block.states, block2.states)
        if reference == "closed-form":
            assert np.array_equal(block.offsets, block2.offsets)
            assert np.array_equal(block.points, block2.points)
            assert np.array_equal(block.bm_values, block2.bm_values)
        else:
            assert np.all(np.diff(block.offsets) > np.diff(block2.offsets))


@pytest.mark.parametrize("model", ["linear", "vector"])
def test_diagnostics_are_block_invariant(monkeypatch, model):
    """`moment_check` and `local_error_scaling` report the same numbers in blocks of 1 and 3."""
    if model == "linear":
        cfg = linear_config(p_values=(2, 4), samples=7, deltas=(0.25, 0.125, 0.0625))
    else:
        cfg = linear_config(model=vector_model(), p_values=(2,), samples=7,
                            deltas=(0.25, 0.125, 0.0625), reference="fine-em")
    want = repr(s.moment_check(cfg)), repr(s.local_error_scaling(cfg))
    for size in (1, 3):
        monkeypatch.setattr(harness, "BLOCK_SIZE", size)
        assert (repr(s.moment_check(cfg)), repr(s.local_error_scaling(cfg))) == want


# --- chain statistics ------------------------------------------------------------------


def test_chain_validation_default_generator_passes():
    report = s.validate_chain_statistics(GEN, step=0.1, samples=2 * 10**4, seed=0)
    assert report.passed
    names = [c.name for c in report.checks]
    assert "transition_1->2" in names
    assert "holding_ks_state_1" in names
    assert "occupancy_state_1" in names


def test_chain_validation_single_state_trivially_passes():
    report = s.validate_chain_statistics(
        s.validate_generator([[0.0]]), step=0.5, samples=2000, seed=0
    )
    assert report.passed
    occ = [c for c in report.checks if c.name.startswith("occupancy")]
    assert occ and occ[0].statistic == 0.0


def test_chain_validation_symmetric_occupancy():
    sym = s.validate_generator([[-1.0, 1.0], [1.0, -1.0]])
    report = s.validate_chain_statistics(sym, step=0.1, samples=10**4, seed=1)
    occ = {c.name: c for c in report.checks if c.name.startswith("occupancy")}
    assert occ["occupancy_state_1"].passed and occ["occupancy_state_2"].passed


def test_chain_validation_detects_skewed_sampler(monkeypatch):
    class Skewed:
        def __init__(self, inner):
            self.inner = inner
            self.bit_generator = inner.bit_generator

        def random(self, size=None):
            return self.inner.random(size) ** 2

    def fake_stream(seed, index):
        return Skewed(np.random.default_rng((seed, index)))

    monkeypatch.setattr("switchsde.harness.derive_stream", fake_stream)
    report = s.validate_chain_statistics(GEN, step=0.1, samples=2 * 10**4, seed=0)
    assert not report.passed


def test_chain_validation_csv():
    report = s.validate_chain_statistics(GEN, step=0.1, samples=1000, seed=0)
    buf = io.StringIO()
    report.write_csv(buf)
    assert buf.getvalue().splitlines()[0] == "check,statistic,bound,passed,detail"


def test_chain_validation_reducible_generator_skips_occupancy():
    two_absorbing = s.validate_generator([[0.0, 0.0], [0.0, 0.0]])
    report = s.validate_chain_statistics(two_absorbing, step=0.1, samples=1000, seed=0)
    assert report.passed
    assert report.checks
    assert not [c for c in report.checks if c.name.startswith("occupancy")]


def test_chain_validation_propagates_other_stationary_errors(monkeypatch):
    def broken(gen):
        raise RuntimeError("not a reducibility problem")

    monkeypatch.setattr("switchsde.harness.stationary_distribution", broken)
    with pytest.raises(RuntimeError):
        s.validate_chain_statistics(GEN, step=0.1, samples=1000, seed=0)


def test_import_leaves_scipy_stats_unloaded():
    code = "import sys, switchsde; print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=120, check=True)
    assert out.stdout.strip() == "False"


def test_chain_validation_rejects_tiny_sample_count():
    with pytest.raises(ConfigError):
        s.validate_chain_statistics(GEN, step=0.1, samples=10, seed=0)


@pytest.mark.parametrize("step", [0.0, -0.1, float("nan")])
def test_chain_validation_rejects_a_step_that_is_not_positive(step):
    with pytest.raises(ConfigError):
        s.validate_chain_statistics(GEN, step=step, samples=1000, seed=0)


# --- seeding ---------------------------------------------------------------------------


def test_derive_stream_reproducible_and_distinct():
    a = s.derive_stream(7, 3).random(4)
    b = s.derive_stream(7, 3).random(4)
    c = s.derive_stream(7, 4).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
