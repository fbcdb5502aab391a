"""Tests for time grids and coupled Brownian increment generation."""

import io

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import switchsde as s
from switchsde._timeutil import TIME_TOL, time_tolerance
from switchsde.errors import HorizonMismatchError, InvalidGridError, NotRefinementError


# --- grid construction -----------------------------------------------------------


def test_make_grid_sorts_and_dedups():
    g = s.make_grid([0.0, 0.5, 0.25, 0.5, 1.0])
    assert g.points.tolist() == [0.0, 0.25, 0.5, 1.0]


def test_make_grid_collapses_near_duplicates():
    g = s.make_grid([0.0, 0.5, 0.5 + 1e-16, 1.0])
    assert len(g) == 3


def test_make_grid_keeps_first_of_each_cluster_in_a_chain():
    # consecutive gaps of 0.6 tol: each point is within tol of the one before,
    # but every second one is more than tol past the last point kept
    chain = 0.5 + TIME_TOL * np.array([0.0, 0.6, 1.2, 1.8, 2.4])
    g = s.make_grid(np.concatenate([[0.0], chain, [1.0]]))
    assert g.points.tolist() == [0.0, chain[0], chain[2], chain[4], 1.0]


def grid_loop(points):
    """The per-point loop: keep a point when it lies more than tol past the last one kept."""
    pts = np.sort(np.asarray(points, dtype=np.float64).ravel())
    tol = time_tolerance(pts[-1])
    keep = [0]
    for k in range(1, len(pts)):
        if pts[k] - pts[keep[-1]] > tol:
            keep.append(k)
    pts = pts[keep].copy()
    if abs(pts[0]) <= tol:
        pts[0] = 0.0
    return pts


@given(st.data())
def test_make_grid_matches_loop(data):
    horizon = data.draw(st.sampled_from([1.0, 3.0, 250.0]))
    tol = time_tolerance(horizon)
    points = [0.0, horizon]
    for start in data.draw(st.lists(st.floats(0.0, horizon), max_size=8)):
        gaps = data.draw(st.lists(st.sampled_from([0.0, 0.3, 0.6, 0.999, 1.0, 1.001, 1.7]),
                                  min_size=1, max_size=6))
        points.extend(p for p in start + tol * np.cumsum(gaps) if p <= horizon)
    assert s.make_grid(points).points.tobytes() == grid_loop(points).tobytes()


def test_make_grid_requires_zero_start():
    with pytest.raises(InvalidGridError):
        s.make_grid([0.5, 1.0])


def test_grid_rejects_single_point():
    with pytest.raises(InvalidGridError):
        s.make_grid([0.0])


def test_rows_laid_end_to_end_are_checked_as_grids_each():
    from switchsde.brownian import _check_rows

    _check_rows(np.array([0.0, 0.5, 1.0, 0.0, 0.3, 1.0]), np.array([0, 3, 6]))  # T, then the next 0
    with pytest.raises(InvalidGridError, match="start at 0"):
        _check_rows(np.array([0.0, 0.5, 1.0, 0.1, 0.3, 1.0]), np.array([0, 3, 6]))
    with pytest.raises(InvalidGridError, match="strictly increasing"):
        _check_rows(np.array([0.0, 0.5, 1.0, 0.0, 0.3, 0.3]), np.array([0, 3, 6]))


def test_uniform_grid_includes_horizon():
    g = s.uniform_grid(1.0, 0.25)
    assert g.points.tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]
    partial = s.uniform_grid(1.0, 0.3)
    assert partial.points.tolist() == [0.0, 0.3, 0.6, 0.8999999999999999, 1.0]


def test_uniform_grid_inexact_step_snaps_to_horizon():
    g = s.uniform_grid(1.0, 0.1)
    assert len(g) == 11
    assert g.points[-1] == 1.0


# --- merge_grids ------------------------------------------------------------------


def test_merge_subset_union():
    a = s.make_grid([0.0, 0.5, 1.0])
    b = s.make_grid([0.0, 0.25, 0.5, 0.75, 1.0])
    assert s.merge_grids(a, b).points.tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]


def test_merge_interior_point():
    a = s.make_grid([0.0, 1.0])
    b = s.make_grid([0.0, 0.3, 1.0])
    assert s.merge_grids(a, b).points.tolist() == [0.0, 0.3, 1.0]


def test_merge_idempotent():
    g = s.make_grid([0.0, 0.1, 0.7, 1.0])
    assert s.merge_grids(g, g).points.tolist() == g.points.tolist()


def test_merge_rejects_horizon_mismatch():
    with pytest.raises(HorizonMismatchError):
        s.merge_grids(s.make_grid([0.0, 1.0]), s.make_grid([0.0, 2.0]))


# --- generation -------------------------------------------------------------------


def test_single_increment_variance():
    horizon = 2.5
    grid = s.make_grid([0.0, horizon])
    rng = np.random.default_rng(17)
    draws = np.array(
        [s.generate_increments(grid, 1, rng).increments[0, 0] for _ in range(10**5)]
    )
    sample_var = draws.var(ddof=1)
    se = horizon * np.sqrt(2.0 / (len(draws) - 1))
    assert abs(sample_var - horizon) <= 3.0 * se
    assert abs(draws.mean()) <= 3.0 * np.sqrt(horizon / len(draws))


def test_per_interval_statistics():
    grid = s.uniform_grid(1.0, 0.25)
    rng = np.random.default_rng(4)
    inc = np.stack([s.generate_increments(grid, 1, rng).increments[:, 0] for _ in range(10**4)])
    delta = 0.25
    n = inc.shape[0]
    assert np.all(np.abs(inc.mean(axis=0)) <= 3.0 * np.sqrt(delta / n))
    assert np.all(np.abs(inc.var(axis=0, ddof=1) - delta) <= 3.0 * delta * np.sqrt(2.0 / (n - 1)))


def test_values_telescope():
    grid = s.make_grid([0.0, 0.5, 1.0])
    bm = s.generate_increments(grid, 3, np.random.default_rng(0))
    assert np.array_equal(bm.values[-1], bm.increments[0] + bm.increments[1])
    assert np.array_equal(bm.values[0], np.zeros(3))


def test_generation_determinism():
    grid = s.uniform_grid(1.0, 2.0**-6)
    a = s.generate_increments(grid, 2, np.random.default_rng(99))
    b = s.generate_increments(grid, 2, np.random.default_rng(99))
    assert np.array_equal(a.values, b.values)


# --- aggregation ------------------------------------------------------------------


def test_aggregate_arithmetic():
    fine = s.path_from_increments(s.make_grid([0.0, 0.25, 0.5, 1.0]), [0.1, -0.2, 0.3])
    agg = s.aggregate_increments(fine, s.make_grid([0.0, 0.5, 1.0]))
    assert agg.increments[:, 0] == pytest.approx([-0.1, 0.3], abs=1e-15)


def test_aggregate_identity():
    grid = s.uniform_grid(1.0, 0.125)
    bm = s.generate_increments(grid, 2, np.random.default_rng(1))
    same = s.aggregate_increments(bm, grid)
    assert np.array_equal(same.values, bm.values)
    assert np.array_equal(same.increments, bm.increments)


def test_aggregate_to_endpoints_telescopes():
    grid = s.uniform_grid(1.0, 2.0**-5)
    bm = s.generate_increments(grid, 1, np.random.default_rng(2))
    total = s.aggregate_increments(bm, s.make_grid([0.0, 1.0]))
    assert total.increments[0, 0] == bm.values[-1, 0]


def test_aggregate_rejects_non_refinement():
    bm = s.generate_increments(s.make_grid([0.0, 0.5, 1.0]), 1, np.random.default_rng(0))
    with pytest.raises(NotRefinementError):
        s.aggregate_increments(bm, s.make_grid([0.0, 0.3, 1.0]))


def test_refinement_consistency_is_bitwise():
    rng = np.random.default_rng(31)
    for _ in range(20):
        m = int(rng.integers(3, 7))
        fine = s.uniform_grid(1.0, 2.0**-m)
        mid = s.uniform_grid(1.0, 2.0 ** -(m - 1))
        coarse = s.uniform_grid(1.0, 2.0 ** -(m - 2))
        bm = s.generate_increments(fine, int(rng.integers(1, 4)), rng)
        via_mid = s.aggregate_increments(s.aggregate_increments(bm, mid), coarse)
        direct = s.aggregate_increments(bm, coarse)
        assert np.array_equal(via_mid.values, direct.values)
        assert np.array_equal(via_mid.increments, direct.increments)


def test_increments_consistent_with_values():
    grid = s.uniform_grid(1.0, 0.125)
    bm = s.generate_increments(grid, 2, np.random.default_rng(8))
    assert np.array_equal(bm.increments, np.diff(bm.values, axis=0))


def test_write_csv_round_trips_floats_and_writes_other_cells_verbatim():
    floats = [0.1, 1.0 / 3.0, 2.0**-1074, 1e300, -0.0, np.float64(np.pi), np.float32(0.1)]
    buf = io.StringIO()
    s.brownian.write_csv(buf, ["name", "value", "count"],
                         [("x", v, k) for k, v in enumerate(floats)] + [("y", "2.0", np.int64(7))])
    lines = buf.getvalue().splitlines()
    assert lines[0] == "name,value,count"
    for line, v in zip(lines[1:], floats):
        assert float(line.split(",")[1]) == float(v)
        assert line.split(",")[0] == "x"
    assert [line.split(",")[2] for line in lines[1:-1]] == [str(k) for k in range(len(floats))]
    assert lines[-1] == "y,2.0,7"
    assert lines[5] == "x,-0,4"  # the sign of zero, which float() equality cannot see
