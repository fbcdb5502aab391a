"""The block builders against the per-path oracles in ``oracles.py``.

A block's events, regimes and owners are index masks over its union grids;
the oracles build the same grids one path at a time. Where a switch lies
farther than 4 TIME_TOL from every other point, both give the same arrays.
Near such points they may differ by where a switch sits within its cluster:

* a switch within tol of a fine gridpoint that is not on the step's grid:
  the union grid keeps the gridpoint only, so the block's event is the
  gridpoint where the oracle's is the switch;
* switches closer than tol: the union grid keeps a switch more than tol
  past the last one kept, the oracle one more than tol past the switch
  before it, and an excursion shorter than tol that returns to its state
  is no event of the block.

So each event of one grid lies within 2 tol of an event of the other, with
the same owner, and every segment longer than 4 tol runs in the oracle's
regime. A segment shorter than that may run in another regime; the
Brownian increment over it is of order sqrt(tol), so the Euler values are
compared only where the grids are equal. The classical grids and the
closed form agree exactly. The block draw, `harness._draw_block`, gives
each row exactly `oracles.coupled_sample` on the same stream, byte for byte.
"""

import json
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import switchsde as s
import switchsde.harness as harness
from switchsde._timeutil import time_tolerance
from switchsde.cli import main
from switchsde.errors import RegimeNotConstantError
from switchsde.solvers import CLASSICAL, JUMP_ADAPTED, SampleBlock, classical_grid, euler_block

GENERATORS = {  # two of them with an absorbing state
    2: [[[-1.5, 1.5], [2.0, -2.0]], [[-3.0, 3.0], [0.0, 0.0]]],
    3: [[[-2.0, 1.0, 1.0], [0.5, -1.0, 0.5], [3.0, 0.0, -3.0]],
        [[-1.0, 0.5, 0.5], [0.0, 0.0, 0.0], [1.5, 1.5, -3.0]]],
}


@st.composite
def crafted_path(draw, horizon, fine, n_states):
    """Switches on fine gridpoints ± {0, tol/2, 2 tol} and pairs closer than tol."""
    tol = time_tolerance(horizon)
    times = set()
    closer = st.sampled_from([None, 0.3, 0.5, 0.9])  # the offset of a partner, in tol
    for k in draw(st.lists(st.integers(0, int(round(horizon / fine))), max_size=4)):
        t = k * fine + draw(st.sampled_from([-2.0, -0.5, 0.0, 0.5, 2.0])) * tol
        partner = draw(closer)
        times.update([t] if partner is None else [t, t + partner * tol])
    for t in draw(st.lists(st.floats(0.01, horizon - 0.01), max_size=3)):
        times.update([t, t + draw(closer.filter(bool)) * tol])
    times = [0.0] + sorted(t for t in times if 0.0 < t < horizon)
    states = [draw(st.integers(1, n_states))]
    for _ in times[1:]:
        states.append(draw(st.sampled_from([j for j in range(1, n_states + 1) if j != states[-1]])))
    return s.ChainPath(horizon=horizon, switch_times=np.array(times),
                       states=np.array(states, dtype=np.int64))


@st.composite
def blocks(draw):
    """(paths, Brownian paths, step) of a block: crafted rows and simulated ones."""
    horizon = draw(st.sampled_from([1.0, 0.7]))  # 0.7 is a multiple of 0.1 only
    step = draw(st.sampled_from([0.25, 0.125, 0.1]))
    fine = step / draw(st.sampled_from([2, 4]))
    n_states = draw(st.sampled_from([2, 3]))
    gen = s.validate_generator(draw(st.sampled_from(GENERATORS[n_states])))
    d = draw(st.sampled_from([1, 2]))
    seed = draw(st.integers(0, 2**16))
    paths = []
    for row in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            paths.append(draw(crafted_path(horizon, fine, n_states)))
        else:
            rng = np.random.default_rng([seed, row])
            paths.append(s.simulate_exact_path(gen, 1, horizon, rng))
    grid = s.uniform_grid(horizon, fine)
    unions = [s.merge_grids(grid, s.make_grid(np.append(p.switch_times, horizon))) for p in paths]
    bms = [s.generate_increments(union, d, np.random.default_rng([seed, 99, row]))
           for row, union in enumerate(unions)]
    return paths, bms, step


def stack(paths, bms):
    return oracles.stack(paths, [bm.grid for bm in bms], [bm.values for bm in bms])


def row_slices(offsets):
    return [slice(offsets[r], offsets[r + 1]) for r in range(len(offsets) - 1)]


def nearest(targets, times):
    """Index of the nearest target of each time."""
    hi = np.clip(np.searchsorted(targets, times), 1, len(targets) - 1)
    return np.where(np.abs(targets[hi - 1] - times) <= np.abs(targets[hi] - times), hi - 1, hi)


def assert_events_agree(got, want, tol):
    """Refined grids (events, regimes, owners) that agree up to clusters within 2 tol."""
    events, regimes, owners = got
    want_events, want_regimes, want_owners = want
    j = nearest(want_events, events)
    assert np.all(np.abs(want_events[j] - events) <= 2 * tol)
    assert np.array_equal(want_owners[j], owners)
    # an oracle event that is neither a gridpoint nor a change of regime may be missing
    needed = np.ones(len(want_events), dtype=bool)
    needed[1:-1] = (np.diff(want_owners)[:-1] != 0) | (np.diff(want_regimes)[:-1] != 0)
    k = nearest(events, want_events[needed])
    assert np.all(np.abs(events[k] - want_events[needed]) <= 2 * tol)
    assert np.array_equal(owners[k], want_owners[needed])
    long = np.flatnonzero(np.diff(events) > 4 * tol)
    mid = 0.5 * (events[long] + events[long + 1])
    assert np.array_equal(regimes[long],
                          want_regimes[np.searchsorted(want_events, mid, side="right") - 1])


def isolated(path, bm, tol):
    """True when every switch lies more than 4 tol from every other point."""
    times = np.concatenate([path.switch_times[1:], bm.grid.points])
    times.sort()
    return len(path.switch_times) == 1 or bool(np.all(np.diff(times) > 4 * tol))


def vector_model(n_states):
    a = np.array([[[-0.5, 0.2 * i], [0.1, -0.3 + 0.1 * i]] for i in range(n_states)])
    sig = np.array([[[0.3, 0.05 * i], [0.0, 0.2 + 0.05 * i]] for i in range(n_states)])
    return s.HybridModel(
        state_dim=2, noise_dim=2, regime_count=n_states,
        drift=lambda z, i: z[..., :1] * a[i - 1][:, 0] + z[..., 1:] * a[i - 1][:, 1],
        diffusion=lambda z, i: z[..., :, None] * sig[i - 1],
        initial_value=[1.0, -0.5],
    )


@settings(max_examples=100)
@given(blocks())
def test_block_grids_match_per_path_oracles(sample):
    paths, bms, step = sample
    block = stack(paths, bms)
    horizon, tol = block.horizon, time_tolerance(block.horizon)
    refined = s.build_refined_grid(block, step)
    classical = classical_grid(block, step)
    n_states = int(max(p.states.max() for p in paths))
    for row, (path, bm) in enumerate(zip(paths, bms)):
        r, c = row_slices(refined.offsets)[row], row_slices(classical.offsets)[row]
        assert np.array_equal(block.points[refined.union_index[r]], refined.events[r])
        got = refined.events[r], refined.regimes[r], refined.owner_interval[r]
        want = oracles.refined_grid(path, step, horizon)
        if isolated(path, bm, tol):
            for g, w in zip(got, want):
                assert np.array_equal(g, w)
        assert_events_agree(got, want, tol)
        want = oracles.classical_grid(path, step, horizon)
        for g, w in zip((classical.events[c], classical.regimes[c], classical.owner_interval[c]),
                        want):
            assert np.array_equal(g, w)

    linear = s.LinearHybridModel(a=np.linspace(-1.0, 1.0, n_states),
                                 b=np.linspace(0.3, 0.9, n_states), z0=1.0)
    try:
        want = [oracles.exact_linear(linear, p, bm) for p, bm in zip(paths, bms)]
    except RegimeNotConstantError:  # a switch more than tol from every union point
        with pytest.raises(RegimeNotConstantError):
            s.exact_linear_solution(linear, block)
    else:
        got = s.exact_linear_solution(linear, block)[:, 0]
        assert np.array_equal(got, np.concatenate(want))

    # with the same events, the block's rows solve as the oracle's grid does alone
    model = vector_model(n_states) if block.bm_values.shape[1] == 2 else linear
    solved, = euler_block(model, [refined], block.points, block.bm_values)
    for row, (path, bm) in enumerate(zip(paths, bms)):
        r = row_slices(refined.offsets)[row]
        events, regimes, owners = oracles.refined_grid(path, step, horizon)
        if not (np.array_equal(refined.events[r], events)
                and np.array_equal(refined.regimes[r], regimes)
                and np.array_equal(refined.owner_interval[r], owners)):
            continue  # a cluster: the regimes of segments shorter than 4 tol may differ
        grid = s.RefinedGrid(step=step, horizon=horizon, events=events, regimes=regimes,
                             owner_interval=owners, offsets=np.array([0, len(events)]),
                             union_index=np.zeros(len(events), dtype=np.int64))
        want = s.em_jump_adapted(model, grid, bm).values
        scale = max(1.0, float(np.max(np.abs(want))))
        assert np.max(np.abs(solved.values[r] - want)) <= 1e-12 * scale


@given(blocks(), st.lists(st.floats(0.0, 0.69), min_size=1, max_size=6))
def test_cumulants_match_per_path_integrals(sample, times):
    paths, bms, step = sample
    block = stack(paths, bms)
    n_states = int(max(p.states.max() for p in paths))
    model = vector_model(n_states) if block.bm_values.shape[1] == 2 else \
        s.LinearHybridModel(a=np.linspace(-1.0, 1.0, n_states), b=np.linspace(0.3, 0.9, n_states))
    solved, = euler_block(model, [s.build_refined_grid(block, step)], block.points,
                          block.bm_values)
    times = np.sort(np.concatenate([times, np.arange(0.0, 0.69, step) + 0.5 * step]))
    f, q = solved.cumulants(times)
    for row in range(len(paths)):
        lo, hi = solved.offsets[row], solved.offsets[row + 1]
        want_f, want_q = oracles.piecewise_cumulants(
            solved.times[lo:hi], solved.drift[lo:hi - 1], solved.diff[lo:hi - 1], times)
        assert np.array_equal(f[row], want_f) and np.array_equal(q[row], want_q)


def test_sup_errors_builds_each_grid_once_per_block(monkeypatch):
    steps = []
    build = harness.build_refined_grid

    def counting(sample, step, *args):
        steps.append(step)
        return build(sample, step, *args)

    monkeypatch.setattr(harness, "build_refined_grid", counting)
    config = s.ExperimentConfig(
        model=s.LinearHybridModel(a=[1.0, 2.0], b=[2.0, 1.0], z0=1.0),
        generator=s.validate_generator([[-1.0, 1.0], [2.0, -2.0]]), horizon=1.0,
        deltas=(0.25, 0.125), samples=2 * harness.BLOCK_SIZE + 3, reference="closed-form",
        schemes=(JUMP_ADAPTED, CLASSICAL),
    )
    harness._sup_errors(config)
    assert steps == [0.25, 0.125] * 3  # three blocks, two rungs


def test_each_grid_mask_is_computed_once_per_block_and_step(monkeypatch, tmp_path):
    config = s.ExperimentConfig(
        model=s.LinearHybridModel(a=[1.0, 2.0], b=[2.0, 1.0], z0=1.0),
        generator=s.validate_generator([[-1.0, 1.0], [2.0, -2.0]]), horizon=1.0,
        deltas=(0.25, 0.125), samples=2 * harness.BLOCK_SIZE + 3, reference="closed-form",
        schemes=(JUMP_ADAPTED, CLASSICAL),
    )
    cfg = tmp_path / "solve.json"
    cfg.write_text(json.dumps({"step": 0.125, "seed": 4}))

    def run(out):
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / out)]) == 0
        files = sorted(os.listdir(tmp_path / out))
        return harness._sup_errors(config), [(tmp_path / out / f).read_bytes() for f in files]

    with monkeypatch.context() as patch:  # a mask computed on every call
        patch.setattr(SampleBlock, "on_grid", SampleBlock._grid_mask)
        want = run("uncached")
    steps = []
    compute = SampleBlock._grid_mask

    def counting(block, step):
        steps.append(step)
        return compute(block, step)

    monkeypatch.setattr(SampleBlock, "_grid_mask", counting)
    sups, files = run("cached")
    assert np.array_equal(sups, want[0]) and files == want[1]
    # solve's one block with one step, then three blocks of two steps, each read by both schemes
    assert steps == [0.125] + [0.25, 0.125] * 3


RUNS = {"closed-form": harness._sup_errors, "fine-em": harness._sup_errors,
        "moments": harness.moment_check, "local": harness.local_error_scaling}


@pytest.mark.parametrize("run", sorted(RUNS))
def test_one_recursion_per_block(monkeypatch, run):
    """One kernel call per block, with one drift and one diffusion call per regime and interval.

    Every regime is visited in every interval of the longest grid in these
    blocks, so each kernel call makes exactly N K drift calls, K being the
    longest grid's interval count, and as many diffusion calls.
    """
    model = s.LinearHybridModel(a=[1.0, 2.0], b=[2.0, 1.0], z0=1.0)
    calls = {"drift": [], "diffusion": []}
    for name, log in calls.items():
        def counted(z, i, coefficient=getattr(model, name), log=log):
            log.append(i)
            return coefficient(z, i)

        setattr(model, name, counted)
    per_call = []
    kernel = harness.euler_block

    def counting(*args, **kwargs):
        before = {name: len(log) for name, log in calls.items()}
        solved = tuple(kernel(*args, **kwargs))
        per_call.append({name: len(log) - before[name] for name, log in calls.items()})
        return iter(solved)

    monkeypatch.setattr(harness, "euler_block", counting)
    config = s.ExperimentConfig(
        model=model, generator=s.validate_generator([[-1.0, 1.0], [2.0, -2.0]]), horizon=1.0,
        p_values=(2,), deltas=(0.25, 0.125, 0.0625), samples=2 * harness.BLOCK_SIZE + 3,
        reference="fine-em" if run == "fine-em" else "closed-form", ref_refinement=1,
        schemes=(JUMP_ADAPTED, CLASSICAL),
    )
    RUNS[run](config)
    longest = round(config.horizon / (config.reference_step if run == "fine-em"
                                      else config.finest_step))
    assert len(per_call) == 3  # three blocks
    assert longest == (32 if run == "fine-em" else 16)
    each = model.regime_count * longest
    assert per_call == [{"drift": each, "diffusion": each}] * 3


def test_solve_runs_every_scheme_in_one_recursion(monkeypatch, tmp_path):
    """`switchsde solve` with both schemes makes one kernel call, one grid per scheme."""
    grids = []
    kernel = harness.euler_block

    def counting(model, step_grids, *args, **kwargs):
        step_grids = list(step_grids)
        grids.append([g.step for g in step_grids])
        return kernel(model, step_grids, *args, **kwargs)

    monkeypatch.setattr(harness, "euler_block", counting)
    cfg = tmp_path / "solve.json"
    cfg.write_text(json.dumps({"step": 0.125, "seed": 4, "schemes": [JUMP_ADAPTED, CLASSICAL]}))
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert grids == [[0.125, 0.125]]


# --- the block draw ------------------------------------------------------------------


def fake_simulator(crafted):
    """simulate_exact_path, except that sample m in ``crafted`` gets the path crafted[m].

    derive_stream's spawn key tells the sample index. A crafted path takes
    as many uniforms from its stream as a simulated path with its switches
    does, so the Brownian draws after it start where they would.
    """
    simulate_exact_path = s.simulate_exact_path

    def simulate(gen, initial, horizon, rng, max_switches=10**6):
        path = crafted.get(rng.bit_generator.seed_seq.spawn_key[0])
        if path is None:
            return simulate_exact_path(gen, initial, horizon, rng, max_switches)
        rng.random(2 * path.n_segments - 1)
        return path

    return simulate


def draw_config(horizon, n_states, rates, initial, d, seed, fine_step):
    model = s.HybridModel(state_dim=1, noise_dim=d, regime_count=n_states,
                          drift=lambda z, i: 0.0, diffusion=lambda z, i: 0.0,
                          initial_value=[0.0], initial_regime=initial)
    return s.ExperimentConfig(model=model, generator=s.validate_generator(rates),
                              horizon=horizon, deltas=(fine_step,), seed=seed,
                              reference="fine-em")


def drawn_block(config, crafted, indices):
    """`harness._draw_block` on the finest step's grid, with the crafted paths."""
    with mock.patch.object(harness, "simulate_exact_path", fake_simulator(crafted)):
        fine = s.uniform_grid(config.horizon, config.finest_step)
        return harness._draw_block(config, fine, indices)


def assert_rows_are_per_sample_draws(config, crafted, block, indices):
    """Each row is `oracles.coupled_sample` from the same stream, byte for byte."""
    fine = s.uniform_grid(config.horizon, config.finest_step)
    rows, switch_rows = row_slices(block.offsets), row_slices(block.switch_offsets)
    assert block.offsets[-1] == len(block.points) == len(block.bm_values)
    with mock.patch.object(s, "simulate_exact_path", fake_simulator(crafted)):
        for m, r, sr in zip(indices, rows, switch_rows):
            chain, bm = oracles.coupled_sample(config.generator, config.model, config.horizon,
                                               fine, s.derive_stream(config.seed, m),
                                               config.jump_budget)
            assert block.switch_times[sr].tobytes() == chain.switch_times.tobytes()
            assert block.states[sr].tobytes() == chain.states.tobytes()
            assert block.points[r].tobytes() == bm.grid.points.tobytes()
            assert block.bm_values[r].tobytes() == bm.values.tobytes()


def with_switches(horizon, times, n_states=2):
    """A path that switches at ``times`` (after 0), alternating states 1 and 2."""
    times = np.array([0.0, *times])
    return s.ChainPath(horizon=horizon, switch_times=times,
                       states=1 + np.arange(len(times), dtype=np.int64) % 2)


@pytest.mark.parametrize("horizon", [1.0, 0.7])
@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("initial", [1, 2])  # state 2 is absorbing: one-segment rows
def test_a_drawn_block_is_the_per_sample_draws_in_every_cluster_case(horizon, d, initial):
    tol = time_tolerance(horizon)
    config = draw_config(horizon, 2, GENERATORS[2][1], initial, d, seed=5, fine_step=0.125)
    crafted = {  # samples 1 and 4 are simulated
        0: with_switches(horizon, [0.25 + 0.5 * tol, 0.4]),  # just after a gridpoint
        2: with_switches(horizon, [0.5 - 0.5 * tol]),  # just before a gridpoint
        3: with_switches(horizon, [0.3, 0.3 + 0.5 * tol, 0.3 + 0.9 * tol]),  # one cluster
        5: with_switches(horizon, [horizon - 0.5 * tol]),  # just before T
        6: with_switches(horizon, []),  # one segment
    }
    block = drawn_block(config, crafted, range(7))
    assert_rows_are_per_sample_draws(config, crafted, block, range(7))
    fine = len(s.uniform_grid(horizon, 0.125))
    # each cluster keeps one point, and a switch within tol of a gridpoint or T none
    assert np.diff(block.offsets)[[0, 2, 3, 5, 6]].tolist() == [fine + 1, fine, fine + 1,
                                                                fine, fine]
    if initial == 2:
        assert np.diff(block.offsets)[[1, 4]].tolist() == [fine, fine]


@st.composite
def draw_settings(draw):
    """(config, crafted paths by sample index, sample count) of a block draw."""
    horizon = draw(st.sampled_from([1.0, 0.7]))  # 0.7 is a multiple of 0.05 only
    fine_step = draw(st.sampled_from([0.125, 0.0625, 0.05]))
    n_states = draw(st.sampled_from([2, 3]))
    rates = draw(st.sampled_from(GENERATORS[n_states]))
    config = draw_config(horizon, n_states, rates, draw(st.integers(1, n_states)),
                         draw(st.sampled_from([1, 2])), draw(st.integers(0, 2**16)), fine_step)
    tol = time_tolerance(horizon)
    count = draw(st.integers(1, 5))
    crafted = {}
    for m in range(count):
        if not draw(st.booleans()):
            continue  # a simulated row
        path = draw(crafted_path(horizon, fine_step, n_states))
        near_end = horizon - draw(st.sampled_from([0.5, 2.0])) * tol
        if draw(st.booleans()) and near_end > path.switch_times[-1]:
            state = 1 + path.states[-1] % n_states
            path = s.ChainPath(horizon=horizon, switch_times=np.append(path.switch_times,
                                                                         near_end),
                               states=np.append(path.states, state))
        crafted[m] = path
    return config, crafted, count


@settings(max_examples=60)
@given(draw_settings())
def test_a_drawn_block_is_the_per_sample_draws(setup):
    config, crafted, count = setup
    block = drawn_block(config, crafted, range(count))
    assert_rows_are_per_sample_draws(config, crafted, block, range(count))


@given(draw_settings(), st.data())
def test_a_drawn_row_does_not_depend_on_the_other_rows_of_its_block(setup, data):
    config, crafted, count = setup
    m = data.draw(st.integers(0, count - 1))
    others = st.lists(st.integers(0, 9).filter(lambda k: k != m), max_size=4, unique=True)
    rows, drawn = [], []
    for _ in range(2):
        indices = data.draw(others.filter(lambda ks: ks not in drawn))
        drawn.append(list(indices))
        indices.insert(data.draw(st.integers(0, len(indices))), m)
        block = drawn_block(config, crafted, indices)
        r, sr = (row_slices(o)[indices.index(m)] for o in (block.offsets, block.switch_offsets))
        rows.append([block.points[r].tobytes(), block.bm_values[r].tobytes(),
                     block.switch_times[sr].tobytes(), block.states[sr].tobytes()])
    assert rows[0] == rows[1]
