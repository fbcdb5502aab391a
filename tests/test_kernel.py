"""Property tests of the batched Euler kernel.

The oracle is the straightforward per-event loop: the state argument stays
frozen at the last uniform gridpoint, and every event segment adds its
frozen drift times its duration and its frozen diffusion times its Brownian
increment. The kernel sums the same terms per regime and interval instead,
so it may differ from the loop in the last bits: agreement is required to
1e-12 relative to the size of the solution. A sample's results must not
depend at all on the block it runs in. Because the loop reads its regimes
from ``build_refined_grid``, switches within TIME_TOL of an event are
checked separately, against integrals taken from the chain path alone.
"""

import dataclasses
import itertools
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import switchsde as s
import switchsde.harness as harness
import switchsde.solvers as solvers
from switchsde._timeutil import TIME_TOL, match_indices, time_tolerance
from switchsde.errors import ConfigError, NonFiniteError
from switchsde.solvers import (CLASSICAL, JUMP_ADAPTED, SampleBlock, classical_grid, euler_block,
                               reference_grid)

RTOL = 1e-12
MEMORY_BOUND_MB = 25  # about twice the 11.6 MB peak of the burst block below
CLOSED_FORM_BOUND_MB = 40  # about twice the closed form's 20 MB peak on its burst block
REFERENCE_BOUND_MB = 36  # between the 44 MB of every coefficient row kept and 25 MB now
DIAGNOSTIC_BOUND_MB = 11  # between 12.4 MB with a spent block's solution kept and 10 MB without
TRIG_REFERENCE_BOUND_MB = 88  # between 92.8 MB with 8-byte intervals and 84.0 MB with fine ranks
FAST_BLOCK_BOUND_MB = 18  # between 21.2 MB with kept cells and whole inner tables and 15.6 MB now


# --- inputs -------------------------------------------------------------------------


@st.composite
def generators(draw, rates=(0.0, 0.5, 1.5, 3.0)):
    """Generators with N <= 4 states, sometimes with an absorbing state."""
    n = draw(st.integers(1, 4))
    rates = np.array([[draw(st.sampled_from(rates)) for _ in range(n)] for _ in range(n)])
    np.fill_diagonal(rates, 0.0)
    if n > 1 and draw(st.booleans()):
        rates[draw(st.integers(0, n - 1))] = 0.0
    np.fill_diagonal(rates, -rates.sum(axis=1))
    return s.validate_generator(rates)


def model_for(kind: str, n_states: int) -> s.HybridModel:
    if kind == "linear":
        return s.LinearHybridModel(
            a=[0.5 * i - 1.0 for i in range(n_states)],
            b=[0.3 + 0.2 * i for i in range(n_states)],
            z0=1.0,
        )
    if kind == "scalars":  # coefficients are Python floats
        return s.HybridModel(
            state_dim=1, noise_dim=1, regime_count=n_states,
            drift=lambda z, i: float(i) - 1.5,
            diffusion=lambda z, i: 0.25 * i,
            initial_value=[0.5],
        )
    a = np.array([[[-0.5, 0.2 * i], [0.1, -0.3 + 0.1 * i]] for i in range(n_states)])
    sig = np.array([[[0.3, 0.05 * i], [0.0, 0.2 + 0.05 * i]] for i in range(n_states)])
    if kind in ("dense", "column"):  # no zero entry, and "column" keeps one noise column
        sig = (sig + 0.07)[:, :, :2 if kind == "dense" else 1]
    # f = A_i z written out per row: a BLAS product z @ A_i.T may round a
    # row differently for different batch sizes, which would break the
    # bitwise block invariance checked below.
    return s.HybridModel(
        state_dim=2, noise_dim=sig.shape[2], regime_count=n_states,
        drift=lambda z, i: z[..., :1] * a[i - 1][:, 0] + z[..., 1:] * a[i - 1][:, 1],
        diffusion=lambda z, i: z[..., :, None] * sig[i - 1],
        initial_value=[1.0, -0.5],
    )


models = st.sampled_from(["linear", "scalars", "vector"])
horizons = st.sampled_from([1.0, 0.7])  # 0.7 is not a multiple of any step below
steps = st.sampled_from([0.25, 0.125, 0.1])


@st.composite
def chain_paths(draw, n_states: int, horizon: float, step: float):
    """Paths whose switches include ones on, or within TIME_TOL of, a gridpoint."""
    candidates = []
    for k in draw(st.lists(st.integers(1, int(horizon / step)), max_size=3)):
        offset = draw(st.sampled_from([-0.5, 0.0, 0.5, 3.0])) * TIME_TOL
        candidates.append(k * step + offset)
    candidates += draw(st.lists(st.floats(0.01, horizon - 0.01), max_size=6))
    times = [0.0]
    for t in sorted(candidates):
        if t - times[-1] > 10 * TIME_TOL and t < horizon:
            times.append(t)
    if n_states == 1:
        times = [0.0]
    states = [draw(st.integers(1, n_states))]
    for _ in times[1:]:
        states.append(draw(st.sampled_from([j for j in range(1, n_states + 1) if j != states[-1]])))
    return s.ChainPath(horizon=horizon, switch_times=np.array(times),
                       states=np.array(states, dtype=np.int64))


def brownian_for(path, step, d, seed):
    union = s.merge_grids(
        s.uniform_grid(path.horizon, step / 4),
        s.make_grid(np.append(path.switch_times, path.horizon)),
    )
    return s.generate_increments(union, d, np.random.default_rng(seed))


# --- the per-event oracle -------------------------------------------------------------


def oracle_on_grid(model, events, regimes, owners, bm):
    """Continuous Euler values at every point of bm's grid, by a per-event loop.

    ``regimes[i]`` holds on [events[i], events[i+1]); the frozen state moves
    to the current value whenever the next event starts a new uniform
    interval (``owners`` changes).
    """
    points, bvals = bm.grid.points, bm.values
    at = match_indices(points, np.asarray(events), time_tolerance(bm.grid.horizon))
    z = model.initial_value.copy()
    frozen = z
    out = np.empty((len(points), model.state_dim))
    out[0] = z
    for i in range(len(events) - 1):
        f = s.drift_eval(model, frozen, int(regimes[i]))
        g = s.diffusion_eval(model, frozen, int(regimes[i]))
        for q in range(at[i] + 1, at[i + 1] + 1):
            out[q] = z + f * (points[q] - events[i]) + g @ (bvals[q] - bvals[at[i]])
        z = out[at[i + 1]]
        if owners[i + 1] != owners[i]:
            frozen = z
    return out


def classical_inputs(path, step, horizon):
    ug = s.uniform_grid(horizon, step)
    return ug, ug.points, s.skeleton_from_path(path, step), np.arange(len(ug))


def assert_close(got, want, scale=None):
    scale = max(1.0, float(np.max(np.abs(want)))) if scale is None else scale
    assert np.max(np.abs(np.asarray(got) - np.asarray(want))) <= RTOL * scale


# --- properties -----------------------------------------------------------------------


@given(st.data())
def test_schemes_match_per_event_loop(data):
    gen = data.draw(generators())
    horizon, step = data.draw(horizons), data.draw(steps)
    model = model_for(data.draw(models), gen.n_states)
    path = data.draw(chain_paths(gen.n_states, horizon, step))
    bm = brownian_for(path, step, model.noise_dim, data.draw(st.integers(0, 2**16)))

    grid = s.build_refined_grid(path, step)
    sol = s.em_jump_adapted(model, grid, bm)
    oracle = oracle_on_grid(model, grid.events, grid.regimes, grid.owner_interval, bm)
    at = match_indices(bm.grid.points, grid.events, time_tolerance(horizon))
    assert_close(sol.values, oracle[at])
    assert_close(s.evaluate_path(sol, bm, bm.grid.points), oracle)
    assert np.array_equal(s.evaluate_path(sol, bm, sol.times), sol.values)

    ug, points, skeleton, owners = classical_inputs(path, step, horizon)
    coarse = s.aggregate_increments(bm, ug)
    classical = s.em_classical(model, skeleton, step, coarse)
    assert_close(classical.values, oracle_on_grid(model, points, skeleton, owners, coarse))


def recording(model):
    """The model with every drift call's regime and states recorded in a list."""
    calls = []

    def drift(z, i):
        calls.append((i, z.copy()))
        return model.drift(z, i)

    wrapped = s.HybridModel(model.state_dim, model.noise_dim, model.regime_count, drift,
                            model.diffusion, model.initial_value)
    return wrapped, calls


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning", "ignore:overflow:RuntimeWarning")
@given(st.data())
def test_block_rows_do_not_mix(data):
    gen = data.draw(generators())
    horizon, step = data.draw(horizons), data.draw(steps)
    model = model_for(data.draw(models), gen.n_states)
    paths = [data.draw(chain_paths(gen.n_states, horizon, step)) for _ in range(3)]
    bms = [brownian_for(p, step, model.noise_dim, seed) for seed, p in enumerate(paths)]

    def solve(rows, model=model, values=tuple(bm.values for bm in bms)):
        sample = oracles.stack([paths[r] for r in rows], [bms[r].grid for r in rows],
                               [values[r] for r in rows], step / 4)  # brownian_for's
        grid = s.build_refined_grid(sample, step)
        return euler_block(model, [grid], sample.points, sample.bm_values)

    block = next(solve(range(3)))
    for row in range(3):
        alone = next(solve([row]))
        lo, hi = block.offsets[row], block.offsets[row + 1]
        assert np.array_equal(block.values[lo:hi], alone.values)
        assert np.array_equal(block.drift[lo:hi], alone.drift)
        assert np.array_equal(block.diff[lo:hi], alone.diff)

    # a lane holding inf or NaN is reported, and leaves every other lane's states unchanged
    bad = data.draw(st.integers(0, 2))
    poisoned = [bm.values.copy() for bm in bms]
    poisoned[bad][1:] = data.draw(st.sampled_from([np.inf, np.nan]))
    clean_model, clean = recording(model)
    next(solve(range(3), clean_model))
    sick_model, sick = recording(model)
    with pytest.raises(NonFiniteError):
        next(solve(range(3), sick_model, poisoned))
    assert [i for i, _ in sick] == [i for i, _ in clean]
    others = [row for row in range(3) if row != bad]
    for (_, want), (_, got) in zip(clean, sick):
        assert np.array_equal(got[others], want[others])
    assert not all(np.all(np.isfinite(z[bad])) for _, z in sick)


@settings(max_examples=60)
@given(st.data())
def test_ladder_lanes_match_one_call_per_rung(data):
    """One call over a whole ladder gives each grid what a call of its own gives."""
    gen = data.draw(generators())
    model = model_for("vector", gen.n_states)
    top = data.draw(st.sampled_from([0.25, 0.2, 0.1]))  # on T = 0.7 some rungs end early
    deltas = tuple(top / 2**i for i in range(data.draw(st.integers(1, 4))))
    schemes = data.draw(st.sampled_from([(JUMP_ADAPTED,), (CLASSICAL,), (JUMP_ADAPTED, CLASSICAL)]))
    config = s.ExperimentConfig(
        model=model, generator=gen, horizon=0.7, deltas=deltas,
        samples=data.draw(st.integers(2, 4)), seed=data.draw(st.integers(0, 2**16)),
        reference="fine-em", ref_refinement=1, schemes=schemes,
    )
    block = oracles.coupled_block(config, config.reference_step)
    grids = [s.build_refined_grid(block, delta) if scheme == JUMP_ADAPTED
             else classical_grid(block, delta) for delta in deltas for scheme in schemes]
    if data.draw(st.booleans()):  # with the fine-EM reference's lanes
        grids.insert(data.draw(st.integers(0, len(grids))),
                     s.build_refined_grid(block, config.reference_step))
    whole = list(euler_block(model, grids, block.points, block.bm_values))
    assert len(whole) == len(grids)
    for grid, got in zip(grids, whole):
        want = next(euler_block(model, [grid], block.points, block.bm_values))
        assert got.step == grid.step
        for field in ("offsets", "times", "values", "drift", "diff", "bm_index", "bm_values"):
            assert np.array_equal(getattr(got, field), getattr(want, field)), field
        assert np.array_equal(got.on_brownian_grids(), want.on_brownian_grids())


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("bad", [0, 1, 2])
def test_a_diverging_rung_is_reported_wherever_it_stands(bad):
    """A grid whose lanes overflow raises NonFiniteError; the grids before it are finite."""
    model = s.LinearHybridModel(a=[1.0, 2.0], b=[0.5, 0.3], z0=1.0)
    config = s.ExperimentConfig(
        model=model, generator=s.validate_generator([[-1.0, 1.0], [2.0, -2.0]]), horizon=1.0,
        deltas=(0.25, 0.125, 0.0625), samples=3, seed=bad,
    )
    block = oracles.coupled_block(config, config.finest_step)
    grids = [s.build_refined_grid(block, delta) for delta in (0.0625, 0.25, 0.125)]
    grids[bad] = dataclasses.replace(grids[bad], points=grids[bad].points * 1e300)  # overflows
    solved = euler_block(model, grids, block.points, block.bm_values)
    for _ in range(bad):
        assert np.all(np.isfinite(next(solved).values))
    with pytest.raises(NonFiniteError):
        next(solved)


@settings(max_examples=60)
@given(st.data())
def test_the_reference_values_are_its_grids_own(data):
    """The reference's values are those of the same grid run as an ordinary
    grid, bit for bit, and the other grids' blocks do not change.

    With union grids as fine as the reference, only the intervals with a
    switch inside keep coefficient rows. Finer union grids, or a row with two
    switches closer than TIME_TOL that return to the state before them, put
    union points off the reference step's grid with no regime change across
    them: the reference keeps them as events, and many intervals keep their rows.
    """
    n_states = data.draw(st.integers(2, 4))
    model = model_for(data.draw(models), n_states)
    horizon, top = data.draw(horizons), data.draw(steps)
    deltas = [top / 2**i for i in range(data.draw(st.integers(1, 2)))]
    ref_step = deltas[-1] / 2**data.draw(st.integers(1, 2))
    fine = ref_step / data.draw(st.sampled_from([1, 2]))
    paths = [data.draw(chain_paths(n_states, horizon, top)) for _ in range(2)]
    pair = data.draw(st.booleans())
    if pair:
        t = ref_step * (data.draw(st.integers(0, int(horizon / ref_step) - 1)) + 0.25)
        paths.append(s.ChainPath(horizon=horizon, states=np.array([1, 2, 1]),
                                 switch_times=np.array([0.0, t, t + 0.5 * TIME_TOL])))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    bms = [s.generate_increments(s.merge_grids(s.uniform_grid(horizon, fine), s.make_grid(
        np.append(p.switch_times, horizon))), model.noise_dim, rng) for p in paths]
    block = oracles.stack(paths, [bm.grid for bm in bms], [bm.values for bm in bms], fine)
    reference = reference_grid(block, ref_step)
    grids = [grid(block, delta) for delta in deltas
             for grid in (s.build_refined_grid, classical_grid)]
    assert len(reference) == len(block.points)
    skipped = len(s.build_refined_grid(block, ref_step)) < len(block.points)
    assert skipped == (pair or fine < ref_step)
    got = list(euler_block(model, grids, block.points, block.bm_values, reference=reference))
    want = list(euler_block(model, [indexed(reference)] + grids, block.points, block.bm_values))
    assert len(got) == len(want)
    assert np.array_equal(got[0], want[0].on_brownian_grids())
    for g, w in zip(got[1:], want[1:]):
        for field in ("offsets", "times", "values", "drift", "diff", "bm_index", "bm_values"):
            assert np.array_equal(getattr(g, field), getattr(w, field)), field


@pytest.mark.parametrize("case", ["finer-union", "returning-pair"])
def test_a_reference_that_skips_a_union_point_is_a_config_error(case):
    """The kernel reads a reference's values off its recursion at every union point, so a
    reference whose events skip one is refused: the switch-adapted grid of 1/16 on union
    grids of 1/32, or on a row with two switches within TIME_TOL that return to state 1."""
    paths = [s.ChainPath(horizon=1.0, switch_times=np.array([0.0, 0.3, 0.6]),
                         states=np.array([1, 2, 1]))]
    if case == "returning-pair":
        paths.append(s.ChainPath(horizon=1.0, states=np.array([1, 2, 1]),
                                 switch_times=np.array([0.0, 0.4, 0.4 + 0.5 * TIME_TOL])))
    block, _ = reference_block(paths, 1 / 32 if case == "finer-union" else 1 / 16, 1)
    reference = s.build_refined_grid(block, 1 / 16)
    assert len(reference) < len(block.points)
    with pytest.raises(ConfigError, match="every union point"):
        euler_block(model_for("linear", 2), [], block.points, block.bm_values,
                    reference=reference)


# --- the recursion's rounding ---------------------------------------------------------


def gridpoints(grid) -> np.ndarray:
    """Mask of the events at uniform gridpoints: each interval's first event, and each row's T."""
    first = np.ones(len(grid), dtype=bool)
    first[1:] = grid.owner_interval[1:] != grid.owner_interval[:-1]
    return first


def indexed(reference):
    """``reference`` with the union positions it does not keep, as an ordinary grid reads them."""
    rows = np.repeat(reference.offsets[:-1], np.diff(reference.offsets))
    return dataclasses.replace(reference, position=np.arange(len(reference)) - rows)


def reference_block(paths, step, d, brownian=None, seed=0):
    """The block of ``paths`` on union grids as fine as ``step``, and its reference grid.

    ``brownian``, when given, holds one function per row from its union
    points to its Brownian values; else they are drawn from ``seed``.
    """
    grids = [s.merge_grids(s.uniform_grid(p.horizon, step),
                           s.make_grid(np.append(p.switch_times, p.horizon))) for p in paths]
    rng = np.random.default_rng(seed)
    values = [brownian[row](g.points) if brownian else s.generate_increments(g, d, rng).values
              for row, g in enumerate(grids)]
    block = oracles.stack(paths, grids, values, step)
    return block, reference_grid(block, step)


@settings(max_examples=60)
@given(st.data())
def test_gridpoint_values_round_as_the_per_lane_sums(data):
    """Every grid's and the reference's values at the uniform gridpoints are the
    per-lane oracle's bit for bit.

    The union grids are as fine as the reference, so past the last interval of
    the grids only the reference intervals with a switch inside keep their
    coefficient rows, and the others share one scratch row set. With 1-3 rows
    and up to 3 regimes, many intervals leave some regime unvisited.
    """
    n_states = data.draw(st.integers(1, 3))
    model = model_for(data.draw(st.sampled_from(["linear", "scalars", "dense", "column"])),
                      n_states)
    horizon, top = data.draw(horizons), data.draw(steps)
    deltas = [top / 2**i for i in range(data.draw(st.integers(1, 2)))]
    ref_step = deltas[-1] / 2**data.draw(st.integers(1, 2))
    paths = [data.draw(chain_paths(n_states, horizon, top))
             for _ in range(data.draw(st.integers(1, 3)))]
    block, reference = reference_block(paths, ref_step, model.noise_dim,
                                       seed=data.draw(st.integers(0, 2**16)))
    grids = [grid(block, delta) for delta in deltas
             for grid in (s.build_refined_grid, classical_grid)]
    got = list(euler_block(model, grids, block.points, block.bm_values, reference=reference))
    want = oracles.gridpoint_values(model, indexed(reference), block.bm_values)
    assert np.array_equal(got[0][gridpoints(reference)], want)
    for grid, solved in zip(grids, got[1:]):
        want = oracles.gridpoint_values(model, grid, block.bm_values)
        assert np.array_equal(solved.values[gridpoints(grid)], want)


@pytest.mark.parametrize("kind", ["linear", "vector"])  # n = d = 1 and n = d = 2
@settings(max_examples=40)
@given(data=st.data())
def test_per_event_coefficients_are_the_recursions_in_state_major_memory(kind, data):
    """Each block's drift and diffusion at event e are f and g at the frozen
    state of e's interval and e's regime, bit for bit, and 0 at each row's
    last event. Their memory is state-major, as `_interpolate` reads it.
    """
    n_states = data.draw(st.integers(1, 3))
    model = model_for(kind, n_states)
    horizon, top = data.draw(horizons), data.draw(steps)
    paths = [data.draw(chain_paths(n_states, horizon, top))
             for _ in range(data.draw(st.integers(1, 3)))]
    block, _ = reference_block(paths, top / 4, model.noise_dim,
                               seed=data.draw(st.integers(0, 2**16)))
    grids = [grid(block, delta) for delta in (top, top / 2)
             for grid in (s.build_refined_grid, classical_grid)]
    n, d = model.state_dim, model.noise_dim
    for grid, solved in zip(grids, euler_block(model, grids, block.points, block.bm_values)):
        assert solved.drift.T.flags.c_contiguous
        assert solved.diff.transpose(1, 2, 0).flags.c_contiguous
        last = np.zeros(len(grid), dtype=bool)
        last[grid.offsets[1:] - 1] = True
        assert np.all(solved.drift[last] == 0.0) and np.all(solved.diff[last] == 0.0)
        # each event's interval starts at the last gridpoint event up to it
        start = np.maximum.accumulate(np.where(gridpoints(grid), np.arange(len(grid)), 0))
        for j in range(1, n_states + 1):
            at = (grid.regimes == j) & ~last
            frozen = solved.values[start[at]]
            f = np.broadcast_to(model.drift(frozen, j), (len(frozen), n))
            g = np.broadcast_to(model.diffusion(frozen, j), (len(frozen), n, d))
            assert np.array_equal(solved.drift[at], f)
            assert np.array_equal(solved.diff[at], g)


@pytest.mark.parametrize("kind", ["dense", "column"])
def test_runs_mix_kept_and_scratch_intervals_and_unvisited_regimes(kind):
    """The same check on a block built to have every kind of interval.

    On the reference step 1/16 the grids of 1/4 end after interval 3. Of the
    later intervals, 4, 9 and 13 hold a switch and keep their rows, and the
    rest are scratch. No row visits regime 3 in intervals 0-8 and 14-15,
    nor regime 1 in intervals 5-12.
    """
    model = model_for(kind, 3)
    paths = [s.ChainPath(horizon=1.0, switch_times=np.array([0.0, 0.3, 0.6, 0.85]),
                         states=np.array([1, 2, 3, 1])),
             s.ChainPath(horizon=1.0, switch_times=np.array([0.0]), states=np.array([2]))]
    block, reference = reference_block(paths, 1 / 16, model.noise_dim)
    owners = reference.owner_interval
    assert sorted(set(owners[:-1][np.diff(owners) == 0].tolist())) == [4, 9, 13]
    grids = [s.build_refined_grid(block, 0.25), classical_grid(block, 0.25)]
    got = list(euler_block(model, grids, block.points, block.bm_values, reference=reference))
    want = oracles.gridpoint_values(model, indexed(reference), block.bm_values)
    assert np.array_equal(got[0][gridpoints(reference)], want)
    for grid, solved in zip(grids, got[1:]):
        assert np.array_equal(solved.values[gridpoints(grid)],
                              oracles.gridpoint_values(model, grid, block.bm_values))


@pytest.mark.parametrize("union_step", [1 / 16, 1 / 32])  # each union point an event, or not
@pytest.mark.parametrize("kind", ["linear", "trig"])
def test_the_shipped_fill_solves_as_the_default_fill_byte_for_byte(kind, union_step):
    """A shipped model, which fills every regime's rows with one call of each
    coefficient, and a plain `HybridModel` of the same coefficients, which
    calls them once per visited regime, give the same bytes: every grid's
    `EulerBlock` and the reference's values. Regime 3 is idle in intervals
    0-8 and 14-15 of the reference step 1/16, and regime 1 in intervals 5-12,
    where the shipped fill writes rows that the recursion then zeroes."""
    shipped = (s.LinearHybridModel(a=[0.5, -1.0, 2.0], b=[0.3, 0.8, -0.4])
               if kind == "linear" else
               s.TrigHybridModel(a=[0.5, -1.0, 2.0], b=[0.3, 0.8, -0.4], c=[0.1, 0.0, -0.2]))
    plain = s.HybridModel(1, 1, 3, shipped.drift, shipped.diffusion, shipped.initial_value)
    paths = [s.ChainPath(horizon=1.0, switch_times=np.array([0.0, 0.3, 0.6, 0.85]),
                         states=np.array([1, 2, 3, 1])),
             s.ChainPath(horizon=1.0, switch_times=np.array([0.0]), states=np.array([2]))]
    block, _ = reference_block(paths, union_step, 1, seed=3)
    reference = reference_grid(block, 1 / 16)
    grids = [s.build_refined_grid(block, 0.25), classical_grid(block, 0.25)]
    got, want = (list(euler_block(model, grids, block.points, block.bm_values,
                                  reference=reference)) for model in (shipped, plain))
    assert got[0].tobytes() == want[0].tobytes()
    for solved, expected in zip(got[1:], want[1:]):
        for name in ("times", "values", "drift", "diff", "bm_index", "bm_values"):
            assert getattr(solved, name).tobytes() == getattr(expected, name).tobytes(), name
            assert getattr(solved, name).shape == getattr(expected, name).shape, name


def test_a_non_finite_scratch_row_of_an_unvisited_regime_changes_no_lane():
    """A regime's scratch rows keep the last values written to them; where no
    lane visits the regime they must neither reach a lane nor warn.

    Row 0 has z = t until it enters regime 2 at 0.3. Regime 2's drift is inf
    where z > 0.27, so from interval 5 on row 0 is inf and so are its rows of
    regime 2 in the scratch row set; it leaves regime 2 at 0.55, and in
    intervals 9-15 no row visits regime 2. Row 1 has z = -2t and stays in
    regime 1. Every state the model sees is the oracle's, row 0's infs
    included, no warning is raised, and the non-finite row is reported.
    """
    def drift(z, i):
        return np.where(z > 0.27, np.inf, 0.0) if i == 2 else 1.0

    def diffusion(z, i):
        return 1.0 if i == 1 else 0.0

    model = s.HybridModel(1, 1, 2, drift, diffusion, initial_value=[0.0])
    model, calls = recording(model)
    paths = [s.ChainPath(horizon=1.0, switch_times=np.array([0.0, 0.3, 0.55]),
                         states=np.array([1, 2, 1])),
             s.ChainPath(horizon=1.0, switch_times=np.array([0.0]), states=np.array([1]))]
    block, reference = reference_block(paths, 1 / 16, 1, brownian=[
        lambda t: np.zeros((len(t), 1)), lambda t: -3.0 * t[:, None]])  # z = t and z = -2t
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError):
            list(euler_block(model, [], block.points, block.bm_values, reference=reference))
    seen = np.array([z for i, z in calls if i == 1])  # regime 1 is visited in every interval
    want = oracles.gridpoint_values(model, indexed(reference), block.bm_values).reshape(2, -1, 1)
    assert np.isinf(seen[-1, 0, 0]) and np.all(seen[:, 1] <= 0.0)
    assert np.array_equal(seen, want[:, :-1].transpose(1, 0, 2))


# --- the values at events inside an interval ----------------------------------------


@settings(max_examples=50)
@given(st.data())
def test_inner_values_match_the_per_regime_tables(data):
    """The kernel's values inside an interval are the per-regime tables' bit for bit.

    Rates up to 2000 put hundreds of segments in some intervals and one in
    others; the last row has switches within TIME_TOL of a gridpoint.
    """
    gen = data.draw(generators(rates=(0.0, 2.0, 300.0, 2000.0)))
    horizon, model, top = 0.7, model_for("vector", gen.n_states), data.draw(steps)
    deltas = [top / 2**i for i in range(3)]
    seed = data.draw(st.integers(0, 2**16))
    paths = [s.simulate_exact_path(gen, 1, horizon, np.random.default_rng([seed, row]))
             for row in range(3)]
    paths.append(data.draw(chain_paths(gen.n_states, horizon, top)))
    bms = [brownian_for(p, deltas[-1], 2, [seed, row]) for row, p in enumerate(paths)]
    block = oracles.stack(paths, [bm.grid for bm in bms], [bm.values for bm in bms],
                          deltas[-1] / 4)
    grids = [grid(block, delta) for delta in deltas
             for grid in (s.build_refined_grid, classical_grid)]
    got = list(euler_block(model, grids, block.points, block.bm_values))
    with mock.patch.object(solvers, "_inner_values", oracles.inner_values):
        want = list(euler_block(model, grids, block.points, block.bm_values))
    for g, w in zip(got, want):
        assert np.array_equal(g.values, w.values)
        assert np.array_equal(g.on_brownian_grids(), w.on_brownian_grids())


def burst_block(rows: int, burst: int, others: int, seed: int) -> SampleBlock:
    """A block on T = 1 with its union grids on the step 2**-9.

    Row 0 has ``burst`` switches inside [0.5, 0.5625), one interval of the
    step 2**-4; every other row has ``others`` switches over [0, T].
    """
    horizon = 1.0
    rng = np.random.default_rng(seed)
    fine = s.uniform_grid(horizon, 2.0**-9)
    paths, bms = [], []
    for row in range(rows):
        times = rng.uniform(0.5, 0.5625, burst) if row == 0 else rng.uniform(0.0, horizon, others)
        times = np.append(0.0, np.sort(times))
        paths.append(s.ChainPath(horizon=horizon, switch_times=times,
                                 states=1 + np.arange(len(times)) % 3))
        union = s.merge_grids(fine, s.make_grid(np.append(times, horizon)))
        bms.append(s.generate_increments(union, 1, rng))
    return oracles.stack(paths, [bm.grid for bm in bms], [bm.values for bm in bms], 2.0**-9)


BURST_MODEL = s.LinearHybridModel(a=[1.0, 2.0, -0.5], b=[2.0, 1.0, 0.5], z0=1.0)


def peak_memory(fn):
    """(fn(), the peak of the memory it allocated in bytes) under tracemalloc."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_burst_of_switches_needs_memory_linear_in_the_switches():
    """16 rows, one with 20k switches inside one interval of the coarsest step.

    Tables as wide as the busiest interval, one row for every interval with
    events inside it, took a peak of 72 MB here; the kernel's temporaries
    grow with the events inside intervals, for a peak of 12 MB.
    """
    deltas = [2.0**-k for k in range(4, 10)]
    block = burst_block(16, 20000, 30, seed=5)
    grids = [s.build_refined_grid(block, delta) for delta in deltas]
    solved, peak = peak_memory(
        lambda: list(euler_block(BURST_MODEL, grids, block.points, block.bm_values)))
    assert len(solved) == len(deltas)
    assert peak < MEMORY_BOUND_MB * 1e6, peak


def test_a_burst_of_switches_costs_the_closed_form_memory_linear_in_its_points():
    """64 rows, one with 200k switches: about 252k union points in all.

    A table that padded every row to the widest one peaked at 219 MB here
    for a 2 MB result. One cumulative sum per row peaks at 20 MB, and at
    12 MB once the block's row, switch and regime arrays have been built.
    """
    block = burst_block(64, 200_000, 300, seed=7)
    solution, peak = peak_memory(lambda: s.exact_linear_solution(BURST_MODEL, block))
    assert len(solution) == len(block.points)
    assert peak < CLOSED_FORM_BOUND_MB * 1e6, peak


def test_a_fine_em_reference_keeps_coefficients_only_where_they_are_read():
    """One 64-row block, ladder 2**-3..2**-6, a reference 2**5 times finer.

    With coefficient rows kept for all 2048 intervals of the reference, and
    per-event drift and diffusion built for its values, the run peaked at
    44 MB; with rows kept only where a reader needs them it peaks at 25 MB.
    """
    config = s.ExperimentConfig(
        model=model_for("vector", 2), generator=s.validate_generator([[-2.0, 2.0], [3.0, -3.0]]),
        horizon=1.0, deltas=tuple(2.0**-k for k in range(3, 7)), samples=64, seed=5,
        reference="fine-em", ref_refinement=5,
    )
    sups, peak = peak_memory(lambda: harness._sup_errors(config))
    assert sups.shape == (1, 4, 64) and np.all(np.isfinite(sups))
    assert peak < REFERENCE_BOUND_MB * 1e6, peak


def test_a_2_to_the_minus_14_reference_block_selects_its_events_from_the_union_grid():
    """The 2**-14 trig block: 64 rows, ladder 2**-4..2**-9, a reference 2**5 times finer.

    Grids that copied their event times, kept 8-byte regimes and kept the
    segment cells of a reference that no one interpolates peaked at 145.3 to
    148.1 MB under tracemalloc. Grids that point into the union grid, with
    one-byte regimes and no cells for that reference, peaked at 109.6 MB
    while each grid's sups were taken over all its union points at once and
    the block kept one mask per step. Sups taken in runs of rows that hold
    at most CHUNK_VALUES values, with the last step's mask kept only and the
    dense reference's regimes not copied, peaked at 92.8 to 93.9 MB. Grids
    that keep each event's fine rank in the block's two-byte type instead of
    an 8-byte interval, with a reference that shares the block's arrays and
    keeps no index of the union grid, peak at 84.0 MB. It runs in about 1.6 s.
    """
    config = s.ExperimentConfig(
        model=s.TrigHybridModel(a=[1.0, -0.5], b=[0.8, 0.3], c=[0.2, -0.1], z0=0.5),
        generator=s.validate_generator([[-1.0, 1.0], [2.0, -2.0]]), horizon=1.0,
        deltas=tuple(2.0**-k for k in range(4, 10)), samples=64, seed=5,
        reference="fine-em", ref_refinement=5,
    )
    sups, peak = peak_memory(lambda: harness._sup_errors(config))
    assert sups.shape == (1, 6, 64) and np.all(np.isfinite(sups))
    assert peak < TRIG_REFERENCE_BOUND_MB * 1e6, peak


def fast_config(samples: int, seed: int, **fields) -> s.ExperimentConfig:
    """The linear model on 3 states switching about 560 times per unit time, ladder 2**-4..2**-9."""
    return s.ExperimentConfig(
        model=s.LinearHybridModel(a=[1.0, 2.0, -0.5], b=[2.0, 1.0, 0.5], z0=1.0),
        generator=s.validate_generator([[-500.0, 300.0, 200.0], [250.0, -600.0, 350.0],
                                        [400.0, 200.0, -600.0]]),
        horizon=1.0, deltas=tuple(2.0**-k for k in range(4, 10)), samples=samples, seed=seed,
        schemes=(JUMP_ADAPTED, CLASSICAL), **fields)


def test_a_fast_switching_block_solves_in_memory_that_its_tables_bound():
    """One 64-row block at about 560 switches per row, through `euler_block` and every expand.

    Segment cells kept for every grid from the table pass to its expand, and
    one `_inner_values` call over each grid's 36,000 or so inner events, peaked
    at 21.2 MB under tracemalloc. Cells rebuilt in expand, and inner values
    solved in runs of whole intervals of at most CHUNK_VALUES table values,
    peak at 15.6 MB, in the recursion.
    """
    config = fast_config(64, 0)
    block = harness._draw_block(config, s.uniform_grid(1.0, config.finest_step), range(64))
    assert len(block.switch_times) > 500 * 64
    solved, peak = peak_memory(lambda: sum(1 for _ in harness._solve_ladder(
        config.model, block, config.deltas, config.schemes)))
    assert solved == len(config.deltas) * len(config.schemes)
    assert peak < FAST_BLOCK_BOUND_MB * 1e6, peak


@pytest.mark.parametrize("kind", ["fast-switching", "fine-em"])
def test_inner_values_in_runs_of_whole_intervals_are_those_of_whole_grids(monkeypatch, kind):
    """`euler_block` gives the same bytes whatever `solvers.CHUNK_VALUES` is: 1 value (one
    interval per `_inner_values` call), about 2.5 intervals' table values (runs of
    unequal interval counts), and more than any grid holds (one call per grid).

    No call splits an interval's inner events, and each holds at most CHUNK_VALUES
    table values, N (1 + d) per inner event, or one interval. The fine-EM case has a
    reference whose events are every union point, with inner events of its own."""
    if kind == "fine-em":
        config = dataclasses.replace(chunk_configs()["fine-em"], samples=4,
                                     generator=s.validate_generator([[-30.0, 30.0], [40.0, -40.0]]))
        ref_step = config.reference_step
    else:
        config, ref_step = fast_config(4, 3), None
    block = harness._draw_block(config, s.uniform_grid(config.horizon, ref_step or
                                                       config.finest_step), range(config.samples))
    N, d = config.model.regime_count, config.model.noise_dim

    def solve():
        solved = list(harness._solve_ladder(config.model, block, config.deltas, config.schemes,
                                            ref_step))
        return [solved[0]] * bool(ref_step) + [
            [getattr(b, f) for f in ("times", "values", "drift", "diff", "bm_index")]
            for b in solved[bool(ref_step):]]

    calls = []  # each call's grid, by its event times, and inner events
    inner_values = solvers._inner_values

    def spy(inner, times, *args):
        calls.append((times, inner))
        return inner_values(inner, times, *args)

    monkeypatch.setattr(solvers, "_inner_values", spy)
    want = solve()
    intervals = [np.count_nonzero(np.diff(inner) > 1) + 1 for _, inner in calls]
    assert len(calls) == len({id(times) for times, _ in calls}) >= len(config.deltas)
    per_interval = sum(len(inner) for _, inner in calls) / sum(intervals)
    for chunk in (1, int(2.5 * per_interval * N * (1 + d)), 2**40):
        calls.clear()
        monkeypatch.setattr(solvers, "CHUNK_VALUES", chunk)
        got = solve()
        for g, w in zip(got, want):
            assert all(np.array_equal(a, b) for a, b in zip(g, w)), chunk
        for (times, inner), (prev_times, prev) in zip(calls[1:], calls[:-1]):
            assert times is not prev_times or inner[0] > prev[-1] + 1, "an interval was split"
        for _, inner in calls:
            assert len(inner) * N * (1 + d) <= chunk or np.all(np.diff(inner) == 1), chunk
        split = [np.count_nonzero(np.diff(inner) > 1) + 1 for _, inner in calls]
        assert sum(split) == sum(intervals)
        if chunk == 1:
            assert set(split) == {1}
        elif chunk < 2**40:
            assert len(calls) > len(intervals) and max(split) > 1, split
        else:
            assert split == intervals


def chunk_configs():
    """A closed-form config, and a fine-EM one twice: as drawn, and with a returning pair."""
    linear = s.ExperimentConfig(
        model=model_for("linear", 2), generator=s.validate_generator([[-3.0, 3.0], [2.0, -2.0]]),
        horizon=1.0, deltas=(0.25, 0.125, 0.0625), samples=9, seed=7,
        schemes=(JUMP_ADAPTED, CLASSICAL))
    vector = dataclasses.replace(linear, model=model_for("vector", 2), horizon=0.7,
                                 reference="fine-em", ref_refinement=2)
    return {"closed-form": linear, "fine-em": vector, "returning-pair": vector}


def with_a_returning_pair(t: float, samples: int):
    """`simulate_exact_path`, but sample 3 of every ``samples`` draws gets two switches
    closer than TIME_TOL at ``t`` that return to its initial state 1."""
    calls = itertools.count()

    def simulate(*args, **kwargs):
        path = s.simulate_exact_path(*args, **kwargs)  # its stream moves on as before
        if next(calls) % samples != 3:
            return path
        return s.ChainPath(horizon=path.horizon, states=np.array([1, 2, 1]),
                           switch_times=np.array([0.0, t, t + 0.5 * TIME_TOL]))

    return simulate


@pytest.mark.parametrize("kind", ["closed-form", "fine-em", "returning-pair"])
def test_sups_in_row_chunks_are_the_sups_of_whole_grids(monkeypatch, kind):
    """`_sup_errors` returns the same bytes whatever `solvers.CHUNK_VALUES` is: 1 value (one
    row per interpolation call, each row longer than a chunk), about 2.5 rows'
    values (runs of unequal row counts), and more than any block holds.

    In the returning-pair case one row has two switches within TIME_TOL that
    return to the state before them, so one union point opens no regime change;
    the reference still keeps it as an event, and is never interpolated."""
    config = chunk_configs()[kind]
    if kind == "returning-pair":
        monkeypatch.setattr(harness, "simulate_exact_path",
                            with_a_returning_pair(0.3 * config.reference_step, config.samples))
    block = harness._draw_block(config, s.uniform_grid(config.horizon, config.reference_step),
                                range(config.samples))
    if config.reference == "fine-em":
        assert len(reference_grid(block, config.reference_step)) == len(block.points)
        skipped = len(s.build_refined_grid(block, config.reference_step)) < len(block.points)
        assert skipped == (kind == "returning-pair")
    calls = []  # the rows of each interpolation call
    interpolate = solvers.EulerBlock.on_brownian_grids

    def spy(solved, r0=0, r1=None):
        calls.append(r1 - r0)
        return interpolate(solved, r0, r1)

    monkeypatch.setattr(solvers.EulerBlock, "on_brownian_grids", spy)
    want = harness._sup_errors(config)
    assert calls and set(calls) == {config.samples}  # one call per grid
    n = config.model.state_dim
    for chunk in (1, int(2.5 * n * len(block.points) / config.samples), 2**40):
        calls.clear()
        monkeypatch.setattr(solvers, "CHUNK_VALUES", chunk)
        assert harness._sup_errors(config).tobytes() == want.tobytes(), chunk
        if chunk == 1:
            assert set(calls) == {1}
        elif chunk < 2**40:
            assert len(set(calls)) > 1 and max(calls) > 1, calls
        else:
            assert set(calls) == {config.samples}


def test_a_multi_block_diagnostic_frees_each_block_before_the_next():
    """`moment_check` over four blocks of the default model, ladder 2**-4..2**-9.

    A loop whose variables kept the last rung's solution of the spent block,
    with its per-event coefficients, while the next block was drawn and
    solved peaked at 12.4 MB here; reducing each block where it is solved
    peaks at 10 MB.
    """
    config = s.ExperimentConfig(
        model=s.LinearHybridModel(a=[1.0, 2.0], b=[2.0, 1.0], z0=1.0),
        generator=s.validate_generator([[-1.0, 1.0], [2.0, -2.0]]), horizon=1.0,
        p_values=(2, 4), deltas=tuple(2.0**-k for k in range(4, 10)), samples=200, seed=3,
    )
    report, peak = peak_memory(lambda: harness.moment_check(config))
    assert report.all_finite()
    assert peak < DIAGNOSTIC_BOUND_MB * 1e6, peak


def oracle_sup_errors(config):
    """sup_t |z - Z| per (scheme, delta, sample), one sample at a time."""
    model, horizon = config.model, config.horizon
    out = np.empty((len(config.schemes), len(config.deltas), config.samples))
    scale = 1.0
    for m in range(config.samples):
        rng = s.derive_stream(config.seed, m)
        chain = s.simulate_exact_path(config.generator, model.initial_regime, horizon, rng)
        union = s.merge_grids(
            s.uniform_grid(horizon, config.reference_step),
            s.make_grid(np.append(chain.switch_times, horizon)),
        )
        bm = s.generate_increments(union, model.noise_dim, rng)
        if config.reference == "closed-form":
            ref = s.exact_linear_solution(model, chain, bm)
        else:
            fine = s.build_refined_grid(chain, config.reference_step)
            ref = oracle_on_grid(model, fine.events, fine.regimes, fine.owner_interval, bm)
        scale = max(scale, float(np.max(np.abs(ref))))
        for si, scheme in enumerate(config.schemes):
            for di, delta in enumerate(config.deltas):
                if scheme == JUMP_ADAPTED:
                    grid = s.build_refined_grid(chain, delta)
                    events, regimes, owners = grid.events, grid.regimes, grid.owner_interval
                else:
                    _, events, regimes, owners = classical_inputs(chain, delta, horizon)
                approx = oracle_on_grid(model, events, regimes, owners, bm)
                out[si, di, m] = np.linalg.norm(ref - approx, axis=1).max()
    return out, scale


@given(st.data())
def test_sup_errors_are_block_invariant_and_match_oracle(data):
    gen = data.draw(generators())
    kind = data.draw(models)
    horizon, step = data.draw(horizons), data.draw(steps)
    model = model_for(kind, gen.n_states)
    reference = data.draw(st.sampled_from(["closed-form", "fine-em"])) if kind == "linear" \
        else "fine-em"
    config = s.ExperimentConfig(
        model=model, generator=gen, horizon=horizon, deltas=(step, step / 2),
        samples=5, seed=data.draw(st.integers(0, 2**16)), reference=reference,
        ref_refinement=1, schemes=(JUMP_ADAPTED, CLASSICAL),
    )
    sups = harness._sup_errors(config)
    for size in (1, 3):
        with mock.patch.object(harness, "BLOCK_SIZE", size):
            assert np.array_equal(harness._sup_errors(config), sups)
    oracle, scale = oracle_sup_errors(config)
    assert_close(sups, oracle, scale)


# --- switches within TIME_TOL of an event -------------------------------------------


@st.composite
def close_switch_paths(draw, horizon: float, step: float):
    """Paths with switches at gridpoint ± {0, tol/2, 2 tol} and pairs closer than tol."""
    tol = time_tolerance(horizon)
    candidates = set()
    for k in draw(st.lists(st.integers(1, int(horizon / step)), max_size=3)):
        candidates.add(k * step + draw(st.sampled_from([-2.0, -0.5, 0.0, 0.5, 2.0])) * tol)
    for t in draw(st.lists(st.floats(0.01, horizon - 0.01), min_size=1, max_size=3)):
        candidates.update([t, t + draw(st.sampled_from([0.3, 0.5, 0.9])) * tol])
    times = [0.0] + sorted(t for t in candidates if 0.0 < t < horizon)
    n_states = draw(st.integers(2, 4))
    states = [draw(st.integers(1, n_states))]
    for _ in times[1:]:
        states.append(draw(st.sampled_from([j for j in range(1, n_states + 1) if j != states[-1]])))
    path = s.ChainPath(horizon=horizon, switch_times=np.array(times),
                       states=np.array(states, dtype=np.int64))
    return path, n_states


def integral_along_path(path, c, t):
    """The integral of c[r(s) - 1] over [0, t], from the path's switch times alone."""
    starts = path.switch_times
    ends = np.append(starts[1:], path.horizon)
    return float(np.sum(c[path.states - 1] * np.clip(np.minimum(ends, t) - starts, 0.0, None)))


@given(st.data())
def test_switches_near_events_run_in_the_regime_they_open(data):
    horizon, step = data.draw(horizons), data.draw(steps)
    path, n_states = data.draw(close_switch_paths(horizon, step))
    c = np.arange(1.0, n_states + 1.0)
    ug = s.uniform_grid(horizon, step)
    bm = brownian_for(path, step, 1, 0)
    # each switch moved by at most 2 tol, or an excursion shorter than tol lost
    atol = 4 * len(path.switch_times) * n_states * time_tolerance(horizon)
    want = [integral_along_path(path, c, t) for t in ug.points]

    constant = s.HybridModel(state_dim=1, noise_dim=1, regime_count=n_states,
                             drift=lambda z, i: c[i - 1], diffusion=lambda z, i: 0.0,
                             initial_value=[0.0])
    sol = s.em_jump_adapted(constant, s.build_refined_grid(path, step), bm)
    assert np.max(np.abs(s.evaluate_path(sol, bm, ug.points)[:, 0] - want)) <= atol

    linear = s.LinearHybridModel(a=c, b=np.zeros(n_states), z0=1.0)
    exact = s.exact_linear_solution(linear, path, bm)
    at = match_indices(bm.grid.points, ug.points, time_tolerance(horizon))
    assert np.max(np.abs(np.log(exact[at, 0]) - want)) <= atol
