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
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import switchsde as s
import switchsde.harness as harness
from switchsde._timeutil import TIME_TOL, match_indices, time_tolerance
from switchsde.errors import NonFiniteError
from switchsde.solvers import CLASSICAL, JUMP_ADAPTED, SampleBlock, classical_grid, euler_block

RTOL = 1e-12


# --- inputs -------------------------------------------------------------------------


@st.composite
def generators(draw):
    """Generators with N <= 4 states, sometimes with an absorbing state."""
    n = draw(st.integers(1, 4))
    rates = np.array(
        [[draw(st.sampled_from([0.0, 0.5, 1.5, 3.0])) for _ in range(n)] for _ in range(n)]
    )
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
    # f = A_i z written out per row: a BLAS product z @ A_i.T may round a
    # row differently for different batch sizes, which would break the
    # bitwise block invariance checked below.
    return s.HybridModel(
        state_dim=2, noise_dim=2, regime_count=n_states,
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

    grid = s.build_refined_grid(path, step, horizon)
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
        sample = SampleBlock.stack([paths[r] for r in rows], [bms[r].grid for r in rows],
                                   [values[r] for r in rows])
        grid = s.build_refined_grid(sample, step)
        return euler_block(model, [[grid]], sample.points, sample.bm_values)

    block = next(solve(range(3)))
    for row in range(3):
        alone = next(solve([row]))
        lo, hi = block.offsets[row], block.offsets[row + 1]
        assert np.array_equal(block.values[:, lo:hi], alone.values)
        assert np.array_equal(block.drift[:, lo:hi], alone.drift)
        assert np.array_equal(block.diff[:, :, lo:hi], alone.diff)

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
    """One call over a whole ladder gives each rung what a call of its own gives."""
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
    block = next(harness._coupled_blocks(config, config.reference_step))
    rungs = [[s.build_refined_grid(block, delta) if scheme == JUMP_ADAPTED
              else classical_grid(block, delta) for scheme in schemes] for delta in deltas]
    if data.draw(st.booleans()):  # with the fine-EM reference's lanes
        rungs.insert(data.draw(st.integers(0, len(rungs))),
                     [s.build_refined_grid(block, config.reference_step)])
    whole = list(euler_block(model, rungs, block.points, block.bm_values))
    assert len(whole) == len(rungs)
    for rung, got in zip(rungs, whole):
        want = next(euler_block(model, [rung], block.points, block.bm_values))
        assert got.step == rung[0].step and got.copies == len(rung)
        for field in ("offsets", "times", "values", "drift", "diff", "bm_index", "bm_values"):
            assert np.array_equal(getattr(got, field), getattr(want, field)), field
        assert np.array_equal(got.on_brownian_grids(), want.on_brownian_grids())


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("bad", [0, 1, 2])
def test_a_diverging_rung_is_reported_wherever_it_stands(bad):
    """A rung whose lanes overflow raises NonFiniteError; the rungs before it are finite."""
    model = s.LinearHybridModel(a=[1.0, 2.0], b=[0.5, 0.3], z0=1.0)
    config = s.ExperimentConfig(
        model=model, generator=s.validate_generator([[-1.0, 1.0], [2.0, -2.0]]), horizon=1.0,
        deltas=(0.25, 0.125, 0.0625), samples=3, seed=bad,
    )
    block = next(harness._coupled_blocks(config, config.finest_step))
    rungs = [[s.build_refined_grid(block, delta)] for delta in (0.0625, 0.25, 0.125)]
    grid = rungs[bad][0]
    rungs[bad] = [dataclasses.replace(grid, events=grid.events * 1e300)]  # overflows its lanes
    solved = euler_block(model, rungs, block.points, block.bm_values)
    for _ in range(bad):
        assert np.all(np.isfinite(next(solved).values))
    with pytest.raises(NonFiniteError):
        next(solved)


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
            ref = s.exact_linear_solution(model, chain, bm).values
        else:
            fine = s.build_refined_grid(chain, config.reference_step, horizon)
            ref = oracle_on_grid(model, fine.events, fine.regimes, fine.owner_interval, bm)
        scale = max(scale, float(np.max(np.abs(ref))))
        for si, scheme in enumerate(config.schemes):
            for di, delta in enumerate(config.deltas):
                if scheme == JUMP_ADAPTED:
                    grid = s.build_refined_grid(chain, delta, horizon)
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
    sol = s.em_jump_adapted(constant, s.build_refined_grid(path, step, horizon), bm)
    assert np.max(np.abs(s.evaluate_path(sol, bm, ug.points)[:, 0] - want)) <= atol

    linear = s.LinearHybridModel(a=c, b=np.zeros(n_states), z0=1.0)
    exact = s.exact_linear_solution(linear, path, bm)
    at = match_indices(bm.grid.points, ug.points, time_tolerance(horizon))
    assert np.max(np.abs(np.log(exact.values[at, 0]) - want)) <= atol
