"""Tests for the refined grid, the two Euler schemes, and the interpolants."""

import numpy as np
import pytest

import switchsde as s
from switchsde.errors import (
    GridMismatchError,
    LengthMismatchError,
    RegimeNotConstantError,
    TimeNotRealizedError,
)

GEN = s.validate_generator([[-1.0, 1.0], [2.0, -2.0]])


def chain(horizon, times, states):
    return s.ChainPath(
        horizon=horizon,
        switch_times=np.array(times, dtype=float),
        states=np.array(states, dtype=np.int64),
    )


def constant_drift_model(values):
    """f(z, i) = values[i-1], g = 0: integration is exact piecewise-linear."""
    vals = np.asarray(values, dtype=float)
    return s.HybridModel(
        state_dim=1, noise_dim=1, regime_count=len(vals),
        drift=lambda z, i: vals[i - 1],
        diffusion=lambda z, i: 0.0,
        initial_value=[0.0],
    )


def coupled_brownian(path, step, d=1, seed=0):
    union = s.merge_grids(
        s.uniform_grid(path.horizon, step),
        s.make_grid(np.append(path.switch_times, path.horizon)),
    )
    return s.generate_increments(union, d, np.random.default_rng(seed))


# --- build_refined_grid ------------------------------------------------------------


def test_refined_grid_constant_path():
    path = chain(1.0, [0.0], [1])
    grid = s.build_refined_grid(path, 0.25)
    assert grid.events.tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert grid.regimes.tolist() == [1] * 5
    assert grid.owner_interval.tolist() == [0, 1, 2, 3, 4]


def test_refined_grid_with_switches():
    path = chain(1.0, [0.0, 0.1, 0.6], [1, 2, 1])
    grid = s.build_refined_grid(path, 0.25)
    assert grid.events.tolist() == [0.0, 0.1, 0.25, 0.5, 0.6, 0.75, 1.0]
    assert grid.regimes.tolist() == [1, 2, 2, 2, 1, 1, 1]
    assert len(grid) == 7 <= int(1.0 / 0.25) + path.n_segments + 1


def test_refined_grid_switch_on_gridpoint_deduplicated():
    path = chain(1.0, [0.0, 0.5], [1, 2])
    grid = s.build_refined_grid(path, 0.25)
    assert grid.events.tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]
    # post-switch state at the shared event, by right continuity
    assert grid.regimes.tolist() == [1, 1, 2, 2, 2]


def test_refined_grid_count_bound_random():
    rng = np.random.default_rng(12)
    for _ in range(500):
        horizon = 1.0
        path = s.simulate_exact_path(GEN, 1, horizon, rng)
        step = horizon * 2.0 ** -int(rng.integers(0, 8))
        grid = s.build_refined_grid(path, step)
        assert len(grid) <= int(np.floor(horizon / step)) + path.n_segments + 1


def test_refined_grid_regimes_match_path():
    rng = np.random.default_rng(13)
    for _ in range(50):
        path = s.simulate_exact_path(GEN, 1, 1.0, rng)
        grid = s.build_refined_grid(path, 0.125)
        expected = [s.state_at(path, t) for t in grid.events]
        assert grid.regimes.tolist() == expected


# --- em_jump_adapted ----------------------------------------------------------------


def test_switch_adapted_exact_for_piecewise_constant_drift():
    model = constant_drift_model([1.0, -1.0])
    path = chain(1.0, [0.0, 0.5], [1, 2])
    grid = s.build_refined_grid(path, 1.0)
    bm = coupled_brownian(path, 1.0)
    sol = s.em_jump_adapted(model, grid, bm)
    assert sol.times.tolist() == [0.0, 0.5, 1.0]
    assert sol.values[:, 0].tolist() == [0.0, 0.5, 0.0]


def test_classical_misses_the_switch():
    model = constant_drift_model([1.0, -1.0])
    path = chain(1.0, [0.0, 0.5], [1, 2])
    ug = s.uniform_grid(1.0, 1.0)
    bm = s.aggregate_increments(coupled_brownian(path, 1.0), ug)
    sol = s.em_classical(model, s.skeleton_from_path(path, 1.0), 1.0, bm)
    assert sol.values[-1, 0] == 1.0


def test_switch_adapted_exactness_any_step():
    model = constant_drift_model([2.0, -3.0])
    rng = np.random.default_rng(3)
    for _ in range(20):
        path = s.simulate_exact_path(GEN, 1, 1.0, rng)
        durations = np.diff(np.append(path.switch_times, 1.0))
        exact = float(np.sum(np.where(path.states == 1, 2.0, -3.0) * durations))
        for step in (1.0, 0.25, 2.0**-5):
            grid = s.build_refined_grid(path, step)
            bm = coupled_brownian(path, min(step, 2.0**-5), seed=1)
            sol = s.em_jump_adapted(model, grid, bm)
            assert abs(sol.values[-1, 0] - exact) <= 1e-12


def test_schemes_coincide_without_switches():
    model = s.LinearHybridModel(a=[1.0, 2.0], b=[2.0, 1.0], z0=1.0)
    path = chain(1.0, [0.0], [1])
    step = 2.0**-4
    bm = coupled_brownian(path, step, seed=7)
    jump = s.em_jump_adapted(model, s.build_refined_grid(path, step), bm)
    ug = s.uniform_grid(1.0, step)
    classical = s.em_classical(
        model, s.skeleton_from_path(path, step), step, s.aggregate_increments(bm, ug)
    )
    assert np.array_equal(jump.times, classical.times)
    assert np.array_equal(jump.values, classical.values)


def test_single_regime_classical_matches_textbook_em():
    model = s.LinearHybridModel(a=[0.5], b=[1.0], z0=1.0)
    gen1 = s.validate_generator([[0.0]])
    path = s.simulate_exact_path(gen1, 1, 1.0, np.random.default_rng(0))
    step = 2.0**-5
    ug = s.uniform_grid(1.0, step)
    bm = s.generate_increments(ug, 1, np.random.default_rng(5))
    sol = s.em_classical(model, s.skeleton_from_path(path, step), step, bm)
    z = 1.0
    for k in range(len(ug) - 1):
        dt = ug.points[k + 1] - ug.points[k]
        db = bm.values[k + 1, 0] - bm.values[k, 0]
        z = z + 0.5 * z * dt + 1.0 * z * db
        assert sol.values[k + 1, 0] == z


def test_zero_coefficients_stay_at_start():
    model = s.HybridModel(
        state_dim=1, noise_dim=1, regime_count=2,
        drift=lambda z, i: 0.0, diffusion=lambda z, i: 0.0, initial_value=[3.0],
    )
    path = chain(1.0, [0.0, 0.4], [1, 2])
    bm = coupled_brownian(path, 0.25)
    sol = s.em_jump_adapted(model, s.build_refined_grid(path, 0.25), bm)
    assert np.all(sol.values == 3.0)


def test_vector_model_matches_manual_recursion():
    a = np.array([[0.1, -0.2], [0.3, 0.0]])
    model = s.HybridModel(
        state_dim=2, noise_dim=2, regime_count=2,
        drift=lambda z, i: float(i) * z,
        diffusion=lambda z, i: a * float(i),
        initial_value=[1.0, -1.0],
    )
    path = chain(1.0, [0.0, 0.37], [1, 2])
    step = 0.25
    bm = coupled_brownian(path, step, d=2, seed=11)
    grid = s.build_refined_grid(path, step)
    sol = s.em_jump_adapted(model, grid, bm)

    from switchsde._timeutil import match_indices, time_tolerance

    idx = match_indices(bm.grid.points, grid.events, time_tolerance(1.0))
    z = np.array([1.0, -1.0])
    frozen = z
    for i in range(len(grid.events) - 1):
        dt = grid.events[i + 1] - grid.events[i]
        db = bm.values[idx[i + 1]] - bm.values[idx[i]]
        regime = float(grid.regimes[i])
        z = z + regime * frozen * dt + (a * regime) @ db
        assert np.allclose(sol.values[i + 1], z, rtol=0, atol=0)
        if grid.owner_interval[i + 1] != grid.owner_interval[i]:
            frozen = z


def test_jump_adapted_requires_realized_events():
    model = s.LinearHybridModel(a=[1.0, 2.0], b=[1.0, 1.0], z0=1.0)
    path = chain(1.0, [0.0, 0.3], [1, 2])
    grid = s.build_refined_grid(path, 0.25)
    bare = s.generate_increments(s.uniform_grid(1.0, 0.25), 1, np.random.default_rng(0))
    with pytest.raises(GridMismatchError):
        s.em_jump_adapted(model, grid, bare)


def test_classical_skeleton_length_checked():
    model = s.LinearHybridModel(a=[1.0], b=[1.0], z0=1.0)
    ug = s.uniform_grid(1.0, 0.25)
    bm = s.generate_increments(ug, 1, np.random.default_rng(0))
    with pytest.raises(LengthMismatchError):
        s.em_classical(model, [1, 1], 0.25, bm)


# --- interpolants -------------------------------------------------------------------


def test_interpolant_reproduces_discrete_values_exactly():
    model = s.LinearHybridModel(a=[1.0, 2.0], b=[2.0, 1.0], z0=1.0)
    rng = np.random.default_rng(23)
    for _ in range(25):
        path = s.simulate_exact_path(GEN, 1, 1.0, rng)
        step = 2.0 ** -int(rng.integers(1, 5))
        bm = coupled_brownian(path, step, seed=int(rng.integers(10**6)))
        grid = s.build_refined_grid(path, step)
        sol = s.em_jump_adapted(model, grid, bm)
        recomputed = s.evaluate_path(sol, bm, sol.times)
        assert np.array_equal(recomputed, sol.values)
        t = float(sol.times[int(rng.integers(len(sol.times)))])
        single = s.evaluate_path(sol, bm, [t])[0]
        k = sol.times.tolist().index(t)
        assert np.array_equal(single, sol.values[k])


def test_interpolant_linear_between_events_for_deterministic_drift():
    model = constant_drift_model([1.0, -1.0])
    path = chain(1.0, [0.0], [1])
    step = 0.5
    bm = coupled_brownian(path, 0.25)
    sol = s.em_jump_adapted(model, s.build_refined_grid(path, step), bm)
    mid = s.evaluate_path(sol, bm, [0.25])[0]
    assert mid[0] == pytest.approx(0.25, abs=1e-15)
    assert s.evaluate_path(sol, bm, [0.0])[0][0] == 0.0


def test_interpolant_requires_realized_time():
    model = s.LinearHybridModel(a=[1.0, 2.0], b=[2.0, 1.0], z0=1.0)
    path = chain(1.0, [0.0], [1])
    bm = coupled_brownian(path, 0.25)
    sol = s.em_jump_adapted(model, s.build_refined_grid(path, 0.25), bm)
    with pytest.raises(TimeNotRealizedError):
        s.evaluate_path(sol, bm, [0.1])


# --- exact_linear_solution -----------------------------------------------------------


def test_exact_linear_piecewise_exponential_drift():
    model = s.LinearHybridModel(a=[1.0, 2.0], b=[0.0, 0.0], z0=1.0)
    path = chain(1.0, [0.0, 0.5], [1, 2])
    bm = coupled_brownian(path, 0.25, seed=2)
    sol = s.exact_linear_solution(model, path, bm)
    assert sol.values[-1, 0] == pytest.approx(np.exp(1.5), rel=1e-14)


def test_exact_linear_zero_coefficients_constant():
    model = s.LinearHybridModel(a=[0.0, 0.0], b=[0.0, 0.0], z0=1.0)
    path = chain(1.0, [0.0, 0.4], [1, 2])
    bm = coupled_brownian(path, 0.25, seed=4)
    sol = s.exact_linear_solution(model, path, bm)
    assert np.all(sol.values == 1.0)


def test_exact_linear_matches_gbm_formula():
    model = s.LinearHybridModel(a=[0.0], b=[1.0], z0=1.0)
    path = chain(1.0, [0.0], [1])
    bm = coupled_brownian(path, 2.0**-6, seed=6)
    sol = s.exact_linear_solution(model, path, bm)
    expect = np.exp(bm.values[:, 0] - bm.grid.points / 2.0)
    assert np.allclose(sol.values[:, 0], expect, rtol=1e-12)


def test_exact_linear_rejects_straddling_interval():
    model = s.LinearHybridModel(a=[1.0, 2.0], b=[1.0, 1.0], z0=1.0)
    path = chain(1.0, [0.0, 0.3], [1, 2])
    bm = s.generate_increments(s.uniform_grid(1.0, 0.25), 1, np.random.default_rng(0))
    with pytest.raises(RegimeNotConstantError):
        s.exact_linear_solution(model, path, bm)


def test_fine_em_converges_to_closed_form_at_half_order():
    """Single-regime geometric model: EM terminal L2 error shrinks like sqrt(step)."""
    model = s.LinearHybridModel(a=[0.0], b=[1.0], z0=1.0)
    gen1 = s.validate_generator([[0.0]])
    steps = [2.0**-k for k in range(3, 8)]
    sq_errors = {d: [] for d in steps}
    for m in range(256):
        rng = s.derive_stream(99, m)
        path = s.simulate_exact_path(gen1, 1, 1.0, rng)
        union = s.uniform_grid(1.0, 2.0**-11)
        bm = s.generate_increments(union, 1, rng)
        exact_terminal = s.exact_linear_solution(model, path, bm).values[-1, 0]
        for d in steps:
            grid = s.build_refined_grid(path, d)
            sol = s.em_jump_adapted(model, grid, bm)
            sq_errors[d].append((sol.values[-1, 0] - exact_terminal) ** 2)
    ladder = [(d, float(np.sqrt(np.mean(sq_errors[d])))) for d in steps]
    slope, _, _ = s.estimate_order(ladder)
    assert 0.35 <= slope <= 0.75
