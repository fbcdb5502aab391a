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

import dataclasses
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import switchsde as s
import switchsde.harness as harness
import switchsde.solvers as solvers
from switchsde._timeutil import time_tolerance
from switchsde.cli import main
from switchsde.errors import GridMismatchError, RegimeNotConstantError
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
    return paths, bms, step, fine


def stack(paths, bms, fine):
    return oracles.stack(paths, [bm.grid for bm in bms], [bm.values for bm in bms], fine)


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
    paths, bms, step, fine = sample
    block = stack(paths, bms, fine)
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
        grid = s.RefinedGrid(step=step, horizon=horizon, points=events,
                             union_index=np.arange(len(events)), regimes=regimes,
                             owner_interval=owners, offsets=np.array([0, len(events)]))
        want = s.em_jump_adapted(model, grid, bm).values
        scale = max(1.0, float(np.max(np.abs(want))))
        assert np.max(np.abs(solved.values[r] - want)) <= 1e-12 * scale


def owned_bytes(values):
    """The bytes of the buffer that ``values`` keeps alive."""
    while values.base is not None:
        values = values.base
    return values.nbytes


@settings(max_examples=50)
@given(sample=blocks())
@pytest.mark.parametrize("shift", [0, 297], ids=["N<=3", "N=300"])
def test_grids_point_into_the_union_grid_with_regimes_in_the_smallest_type(shift, sample):
    """Each grid shares its block's union points and owns two 8-byte indices and
    one regime per event: 17 bytes up to 255 states, against 32 with copied
    event times and 8-byte regimes. ``shift`` relabels states 1..3 as 298..300."""
    paths, bms, step, fine = sample
    paths = [s.ChainPath(p.horizon, p.switch_times, p.states + shift) for p in paths]
    block = stack(paths, bms, fine)
    small = np.uint16 if shift else np.uint8
    assert block.regimes.dtype == small
    refined, classical = s.build_refined_grid(block, step), classical_grid(block, step)
    for grid in (refined, classical):
        assert grid.points is block.points
        assert grid.events.tobytes() == block.points[grid.union_index].tobytes()
        assert grid.regimes.dtype == small
        owned = sum(map(owned_bytes, (grid.union_index, grid.owner_interval, grid.regimes)))
        assert owned <= (16 + np.dtype(small).itemsize) * len(grid)
    assert np.array_equal(refined.regimes, block.regimes[refined.union_index])
    want = np.concatenate([s.states_at(p, classical.events[c])
                           for p, c in zip(paths, row_slices(classical.offsets))])
    last = classical.offsets[1:] - 1
    want[last] = want[last - 1]  # the last event repeats the last interval's state
    assert np.array_equal(classical.regimes, want)


def test_the_arrays_that_grids_share_are_read_only():
    """An in-place write would silently move the events of every grid of the block."""
    block = SampleBlock.union(s.uniform_grid(1.0, 0.125),
                              [with_switches(1.0, [0.3, 0.55]), with_switches(1.0, [])])
    shared = [block.points, block.offsets, block.regimes]
    for grid in (s.build_refined_grid(block, 0.25), classical_grid(block, 0.25)):
        shared += [grid.union_index, grid.offsets]
    for values in shared:
        with pytest.raises(ValueError, match="read-only"):
            values[0] = values[1]


@given(blocks(), st.lists(st.floats(0.0, 0.69), min_size=1, max_size=6))
def test_cumulants_match_per_path_integrals(sample, times):
    paths, bms, step, fine = sample
    block = stack(paths, bms, fine)
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


def gridpoints_only(block, step):
    """The block's chain paths on union grids of the step's gridpoints alone,
    so that a switch more than tol from every gridpoint straddles an interval."""
    points = s.uniform_grid(block.horizon, step).points
    rows = len(block)
    values = np.random.default_rng(rows).standard_normal((rows * len(points), 1))
    offsets = np.arange(rows + 1) * len(points)
    values[offsets[:-1]] = 0.0  # B(0) = 0 in every row
    return SampleBlock(block.horizon, block.switch_times, block.states, block.switch_offsets,
                       np.tile(points, rows), offsets, values)


def brownian_rows(block):
    """The block's rows as one Brownian path each."""
    return [s.BrownianPath(s.TimeGrid(block.points[r]), block.bm_values[r])
            for r in row_slices(block.offsets)]


def closed_form(model, block):
    """The closed form on ``block``, or the message of the straddle it reports."""
    try:
        return s.exact_linear_solution(model, block)
    except RegimeNotConstantError as exc:
        return str(exc)


def closed_form_by_path(model, paths, bms):
    """`oracles.exact_linear` row by row, stacked as the block's (P, 1) values, or
    None where a row straddles a switch."""
    try:
        return np.concatenate([oracles.exact_linear(model, p, bm) for p, bm in zip(paths, bms)])[
            :, None]
    except RegimeNotConstantError:
        return None


def assert_lookups_match_per_path_oracles(paths, block, step, linear):
    """The chain lookups of ``block``, which holds ``paths`` one per row, against
    per-path `states_at`: the segment regimes at the midpoints, the classical
    regimes at the gridpoints, and both closed forms, on the block's union
    grids and on grids of the step's gridpoints alone."""
    horizon = block.horizon
    assert block.regimes.tobytes() == np.concatenate([
        oracles.segment_states(p, block.points[r])
        for p, r in zip(paths, row_slices(block.offsets))]).astype(block.regimes.dtype).tobytes()
    classical = classical_grid(block, step).regimes
    assert np.array_equal(classical, np.concatenate(
        [oracles.classical_grid(p, step, horizon)[1] for p in paths]))
    for on in (block, gridpoints_only(block, step)):
        got, want = closed_form(linear, on), closed_form_by_path(linear, paths, brownian_rows(on))
        if want is None:
            assert isinstance(got, str) and "straddles a regime switch" in got
        else:
            assert got.tobytes() == want.tobytes()


@settings(max_examples=100)
@given(blocks(), st.lists(st.floats(0.0, 0.69), min_size=1, max_size=6))
def test_row_searches_match_the_complex_key_search(sample, times):
    """Every lookup row by row is `oracles.keyed_search`'s one search over
    row + 1j * time, exactly: the block's switch points, from which it counts
    the segment regimes, the classical skeleton and the closed form's
    straddle check, and the cumulants. Those three no longer search, so they
    are checked against per-path oracles too, on union grids with the
    switches and on union grids of gridpoints alone.
    """
    paths, bms, step, fine = sample
    n_states = int(max(p.states.max() for p in paths))
    linear = s.LinearHybridModel(a=np.linspace(-1.0, 1.0, n_states),
                                 b=np.linspace(0.3, 0.9, n_states))
    model = vector_model(n_states) if bms[0].values.shape[1] == 2 else linear
    times = np.sort(np.concatenate([times, np.arange(0.0, 0.69, step) + 0.5 * step]))

    def lookups():
        block = stack(paths, bms, fine)  # a new block each time, as its lookups are cached
        solved, = euler_block(model, [s.build_refined_grid(block, step)], block.points,
                              block.bm_values)
        return [block.switch_points, block.regimes, classical_grid(block, step).regimes,
                *solved.cumulants(times), closed_form(linear, block),
                closed_form(linear, gridpoints_only(block, step))]

    got = lookups()
    with mock.patch.object(solvers, "_row_search", oracles.keyed_search):
        want = lookups()
    for g, w in zip(got, want):
        assert type(g) is type(w) and np.array_equal(g, w)
    assert_lookups_match_per_path_oracles(paths, stack(paths, bms, fine), step, linear)


def adjacent_pair_rounding_up(t):
    """The first two adjacent floats from ``t`` on whose midpoint rounds up to the larger."""
    a = t
    while 0.5 * (a + np.nextafter(a, 2.0)) != np.nextafter(a, 2.0):
        a = np.nextafter(a, 2.0)
    return a, np.nextafter(a, 2.0)


@pytest.mark.parametrize("horizon", [1.0, 0.7])
def test_lookups_at_switches_near_gridpoints_match_per_path_oracles(horizon):
    """Switches within TIME_TOL before and after a gridpoint, on one, and a pair
    closer than tol, against the per-path oracles."""
    tol, step, fine = time_tolerance(horizon), 0.125, 0.0625
    paths = [
        with_switches(horizon, [0.25 - 0.5 * tol, 0.5 + 0.5 * tol]),
        with_switches(horizon, [0.25, 0.375 - 0.9 * tol, 0.5625 + 0.9 * tol]),
        with_switches(horizon, [0.3, 0.3 + 0.5 * tol, horizon - 0.5 * tol]),
        with_switches(horizon, []),
    ]
    grid = s.uniform_grid(horizon, fine)
    bms = [s.generate_increments(s.merge_grids(grid, s.make_grid(np.append(p.switch_times,
                                                                           horizon))),
                                 1, np.random.default_rng(row))
           for row, p in enumerate(paths)]
    block = stack(paths, bms, fine)
    linear = s.LinearHybridModel(a=[0.5, -1.0], b=[0.3, 0.8])
    assert_lookups_match_per_path_oracles(paths, block, step, linear)
    # a switch just before a gridpoint sits at the point before it, one just after at it
    assert block.switch_points[:3].tolist() == [0, 3, 8]


def test_a_switch_past_a_hand_built_rows_last_point_holds_on_none_of_its_segments():
    """Rows that stop short of their paths' T: a switch past a row's last point
    leaves each row's segments in their midpoints' states, the last at its end."""
    rows = [(np.array([0.0, 0.25, 0.5]), with_switches(1.0, [0.4, 0.75])),
            (np.array([0.0, 0.5, 1.0]), with_switches(1.0, [0.5])),
            (np.array([0.0, 0.3]), with_switches(1.0, [0.3, 0.9]))]
    points, paths = zip(*rows)
    block = SampleBlock(1.0, np.concatenate([p.switch_times for p in paths]),
                        np.concatenate([p.states for p in paths]),
                        np.cumsum([0] + [p.n_segments for p in paths]),
                        np.concatenate(points), np.cumsum([0] + [len(t) for t in points]))
    want = np.concatenate([oracles.segment_states(p, t) for t, p in zip(points, paths)])
    assert block.regimes.tolist() == want.tolist()


def test_a_one_path_closed_form_on_points_closer_than_2_tol_matches_its_oracle():
    """``exact_linear_solution(ChainPath, bm)`` on a Brownian grid of its own with
    points closer than 2 tol, and a pair of adjacent floats whose midpoint rounds
    up to the switch on the larger: each segment runs in its midpoint's state."""
    tol = time_tolerance(1.0)
    a, b = adjacent_pair_rounding_up(0.6)
    points = np.array([0.0, 0.25, 0.3, 0.3 + 1.5 * tol, 0.5, a, b, 0.75, 1.0])
    bm = s.generate_increments(s.TimeGrid(points), 1, np.random.default_rng(3))
    linear = s.LinearHybridModel(a=[0.5, -1.0], b=[0.3, 0.8])
    halfway = 0.5 * (points[2] + points[3])  # on the midpoint of the close pair
    for switches in ([0.3 + 0.7 * tol], [0.3 + 1.5 * tol], [halfway], [0.3, b], [b],
                     [0.3 + 0.7 * tol, b]):
        path = with_switches(1.0, switches)
        got = s.exact_linear_solution(linear, path, bm)
        assert got.tobytes() == oracles.exact_linear(linear, path, bm)[:, None].tobytes()
        block = SampleBlock(1.0, path.switch_times, path.states,
                            np.array([0, path.n_segments]), points, np.array([0, len(points)]))
        assert np.array_equal(block.regimes, oracles.segment_states(path, points))
        assert np.array_equal(block.point_states, s.states_at(path, points))


@given(st.lists(st.tuples(st.lists(st.floats(0.0, 1.0), max_size=5),
                          st.lists(st.floats(-0.5, 1.5), max_size=5)), min_size=1, max_size=4))
def test_row_search_is_the_complex_key_search_with_empty_rows_and_early_queries(rows):
    keys = [np.sort(k) for k, _ in rows]
    queries = [np.array(q) for _, q in rows]
    args = [np.concatenate([[], *keys]), np.cumsum([0] + [len(k) for k in keys]),
            np.concatenate([[], *queries]), np.cumsum([0] + [len(q) for q in queries])]
    assert np.array_equal(solvers._row_search(*args), oracles.keyed_search(*args))


@given(st.lists(st.integers(1, 12), min_size=1, max_size=5), st.sampled_from([(), (2,)]),
       st.data())
def test_row_cumsum_is_each_rows_own_cumsum_bit_for_bit(lengths, tail, data):
    """Each row of `_row_cumsum` is that row's own np.cumsum, bit for bit: rows of
    unequal length, a single row, 1-D values and (P, 2) values."""
    offsets = np.cumsum([0] + lengths)
    shape = (int(offsets[-1]),) + tail
    values = np.array(data.draw(st.lists(st.floats(-1e3, 1e3), min_size=int(np.prod(shape)),
                                         max_size=int(np.prod(shape)))),
                      dtype=np.float64).reshape(shape)
    got = solvers._row_cumsum(values.copy(), offsets)
    want = np.concatenate([np.cumsum(values[lo:hi], axis=0)
                           for lo, hi in zip(offsets[:-1], offsets[1:])])
    assert got.shape == values.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("rates,a,b", [
    ([[-1.0, 1.0], [2.0, -2.0]], [1.0, 2.0], [2.0, 1.0]),  # linear-closed
    ([[-500.0, 300.0, 200.0], [250.0, -600.0, 350.0], [400.0, 200.0, -600.0]],
     [1.0, 2.0, -0.5], [2.0, 1.0, 0.5]),  # fastswitch-closed
], ids=["linear-closed", "fastswitch-closed"])
def test_one_row_search_per_block(monkeypatch, rates, a, b):
    """The segment regimes, the classical skeletons and the closed form's
    straddle check all count from the block's switch points: one row search
    per block, where each of them used to search on its own (8 per block)."""
    calls = []
    search = solvers._row_search

    def counting(*args):
        calls.append(len(args[2]))  # the queries: the block's switches
        return search(*args)

    monkeypatch.setattr(solvers, "_row_search", counting)
    config = s.ExperimentConfig(
        model=s.LinearHybridModel(a=a, b=b, z0=1.0), generator=s.validate_generator(rates),
        horizon=1.0, p_values=(2, 4), samples=harness.BLOCK_SIZE + 3,
        reference="closed-form", schemes=(JUMP_ADAPTED, CLASSICAL),
    )
    harness._sup_errors(config)
    assert len(calls) == 2  # two blocks, and each searches its switches once


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


@st.composite
def ranked_blocks(draw):
    """(block, ladder): rows with switches 0, 0.5, 0.9 or 1.5 tol around gridpoints of the
    finest step, bursts inside one of its intervals, on the ladder 2^-2 ... 2^-j."""
    horizon = draw(st.sampled_from([1.0, 0.7]))
    tol, ladder = time_tolerance(horizon), [2.0**-k for k in range(2, draw(st.integers(2, 6)) + 1)]
    fine = ladder[-1]
    chains = []
    for row in range(draw(st.integers(1, 4))):
        times = set()
        for k in draw(st.lists(st.integers(0, int(horizon / fine) + 1), max_size=5)):
            offset = draw(st.sampled_from([-1.5, -0.9, -0.5, 0.0, 0.5, 0.9, 1.5]))
            times.add(min(k * fine, horizon) + offset * tol)
        if draw(st.booleans()):  # a burst
            start = draw(st.integers(0, int(horizon / fine) - 1)) * fine
            times.update(start + fine * np.random.default_rng(row).random(draw(st.integers(1, 30))))
        times = [0.0] + sorted(t for t in times if 0.0 < t < horizon)
        states = 1 + np.arange(len(times)) % draw(st.sampled_from([2, 3]))
        chains.append(s.ChainPath(horizon=horizon, switch_times=np.array(times), states=states))
    return SampleBlock.union(s.uniform_grid(horizon, fine), chains), ladder


@settings(max_examples=150)
@given(ranked_blocks())
def test_grids_from_the_fine_rank_match_the_float_rule(sample):
    """Masks, events, owners and regimes of both grids at every step of the ladder are
    those that each step's float comparison with its multiples and the count of its
    gridpoints gave."""
    block, ladder = sample
    for step in ladder:
        assert block.on_grid(step).tobytes() == oracles.grid_mask(block, step).tobytes()
        for grid, classical in ((s.build_refined_grid(block, step), False),
                                (classical_grid(block, step), True)):
            keep, owners, regimes = oracles.grid_events(block, step, classical)
            assert grid.union_index.tobytes() == keep.tobytes()
            assert grid.owner_interval.tobytes() == owners.tobytes()
            assert grid.regimes.tobytes() == regimes.tobytes()


@settings(max_examples=150)
@given(ranked_blocks())
def test_the_reference_grid_is_every_union_point_and_on_the_fine_step_the_refined_grid(sample):
    """At every step of the ladder the reference keeps every union point, in the block's
    segment regimes, each in its interval by the float rule. On the fine step, where no
    union point off its grid opens a segment in the regime of the one before (no cluster
    of switches returns to its state), it is the switch-adapted grid field by field: so
    the reference's values keep their bytes."""
    block, ladder = sample
    for step in ladder:
        grid = solvers.reference_grid(block, step)
        count = np.cumsum(oracles.grid_mask(block, step))  # gridpoints up to a point, less one
        assert np.array_equal(grid.union_index, np.arange(len(block.points)))
        assert np.array_equal(grid.offsets, block.offsets)
        assert np.array_equal(grid.owner_interval,
                              count - np.repeat(count[block.offsets[:-1]], np.diff(block.offsets)))
        assert grid.regimes.tobytes() == block.regimes.tobytes()
        assert grid.points is block.points and grid.step == step
    keep, _, _ = oracles.grid_events(block, ladder[-1], classical=False)
    if len(keep) == len(block.points):
        refined = s.build_refined_grid(block, ladder[-1])
        for field in dataclasses.fields(refined):
            got, want = getattr(grid, field.name), getattr(refined, field.name)
            assert type(got) is type(want) and np.array_equal(got, want), field.name
            assert getattr(got, "dtype", None) == getattr(want, "dtype", None), field.name


@pytest.mark.parametrize("ratio", [0.5, 0.75, 1.5, 3.0, 6.0])
def test_a_step_off_the_dyadic_multiples_of_the_fine_step_is_a_grid_mismatch(ratio):
    block = SampleBlock.union(s.uniform_grid(1.0, 0.0625), [with_switches(1.0, [0.3])])
    with pytest.raises(GridMismatchError, match="a union grid lacks a gridpoint of step"):
        block.on_grid(0.0625 * ratio)
    if ratio < 1.0 or ratio == 1.5:  # steps whose gridpoints the union grid lacks
        with pytest.raises(GridMismatchError, match="a union grid lacks a gridpoint of step"):
            oracles.grid_mask(block, 0.0625 * ratio)


@pytest.mark.parametrize("horizon", [1.0, 0.7])
@pytest.mark.parametrize("step", [2.0, 4.0, 512.0])
def test_a_step_past_the_horizon_makes_grids_of_0_and_t(horizon, step):
    """As the float rule did, also where the step's ratio has more bits than the rank."""
    block = SampleBlock.union(s.uniform_grid(horizon, 0.5),
                              [with_switches(horizon, [0.3, 0.6]), with_switches(horizon, [])])
    for grid, classical in ((s.build_refined_grid(block, step), False),
                            (classical_grid(block, step), True)):
        keep, owners, regimes = oracles.grid_events(block, step, classical)
        assert grid.union_index.tobytes() == keep.tobytes()
        assert grid.owner_interval.tobytes() == owners.tobytes()
        assert grid.regimes.tobytes() == regimes.tobytes()


RUNS = {"closed-form": harness._sup_errors, "fine-em": harness._sup_errors,
        "moments": harness.moment_check, "local": harness.local_error_scaling}


class DefaultFill(s.LinearHybridModel):
    """The linear model with the fill every other model has: one call per regime."""

    fill_coefficients = s.HybridModel.fill_coefficients


@pytest.mark.parametrize("kind", ["shipped", "generic"])
@pytest.mark.parametrize("run", sorted(RUNS))
def test_one_recursion_per_block(monkeypatch, run, kind):
    """One kernel call per block, with one fill of the coefficients per interval.

    The shipped linear model fills every regime's rows with one drift and one
    diffusion call on the column of regimes 1..N, so each kernel call makes
    exactly K drift calls, K being the longest grid's interval count, and as
    many diffusion calls. The same model with `HybridModel`'s own fill, as
    any other model has it, makes one call of each per regime an active lane
    visits; every regime is visited in every interval of the longest grid in
    these blocks, so that is N K of each.
    """
    model = (s.LinearHybridModel if kind == "shipped" else DefaultFill)(
        a=[1.0, 2.0], b=[2.0, 1.0], z0=1.0)
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
    each = longest if kind == "shipped" else model.regime_count * longest
    assert per_call == [{"drift": each, "diffusion": each}] * 3
    for log in calls.values():
        if kind == "shipped":
            assert all(np.array_equal(i, [[[1]], [[2]]]) for i in log)
        else:
            assert all(isinstance(i, int) for i in log) and set(log) == {1, 2}


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
