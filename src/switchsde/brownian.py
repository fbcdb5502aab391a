"""Brownian increments on arbitrary sorted grids, with exact coarsening.

One Brownian realization per Monte Carlo sample is generated on the finest
(union) grid and then aggregated onto every coarser grid a solver needs, so
all schemes and the reference solution are driven by the same noise. The
cumulative path values are the only representation: increments are computed
as differences of the anchored cumulative values, which makes aggregation a
pure index-subsetting operation and keeps shared times bit-identical across
resolutions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._timeutil import match_indices, time_tolerance, uniform_points
from .errors import HorizonMismatchError, InvalidGridError, NotRefinementError


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing times from 0 to T."""

    points: np.ndarray

    def __post_init__(self):
        pts = self.points
        if pts.ndim != 1 or len(pts) < 2:
            raise InvalidGridError("grid needs at least the two endpoints")
        _check_rows(pts, np.array([0, len(pts)]))
        pts.setflags(write=False)

    @property
    def horizon(self) -> float:
        return float(self.points[-1])

    def __len__(self) -> int:
        return len(self.points)


def _check_rows(points, offsets) -> None:
    """TimeGrid's rule for rows laid end to end: each starts at 0 and increases strictly."""
    starts = points[offsets[:-1]]
    if (starts != 0.0).any():
        raise InvalidGridError(f"grid must start at 0, got {starts[starts != 0.0][0]}")
    steps = points[1:] - points[:-1]
    steps[offsets[1:-1] - 1] = 1.0  # a row's T, then the next row's 0
    if (steps <= 0.0).any():
        raise InvalidGridError("grid points must be strictly increasing")


def _cluster_firsts(pts, starts, tol) -> np.ndarray:
    """Mask of each cluster's first time (see make_grid) in sorted rows starting at ``starts``."""
    # a point more than tol past its predecessor is more than tol past the
    # last kept point too; only points within tol of their predecessor need
    # the distance to the last kept one, which is never in an earlier row
    keep = np.empty(len(pts), dtype=bool)
    np.greater(pts[1:] - pts[:-1], tol, out=keep[1:])
    keep[starts] = True
    last = 0
    for k in np.flatnonzero(~keep).tolist():
        if keep[k - 1]:
            last = k - 1
        if pts[k] - pts[last] > tol:
            keep[k] = True
    return keep


def make_grid(points) -> TimeGrid:
    """Build a TimeGrid from raw times: sort, deduplicate, pin the origin.

    Times closer than the grid tolerance collapse to the first of their
    cluster; a leading point within tolerance of 0 is snapped to exactly 0.
    """
    pts = np.sort(np.asarray(points, dtype=np.float64).ravel())
    if len(pts) == 0:
        raise InvalidGridError("no grid points given")
    tol = time_tolerance(pts[-1])
    pts = pts[_cluster_firsts(pts, 0, tol)]
    if abs(pts[0]) <= tol:
        pts[0] = 0.0
    return TimeGrid(points=pts)


def uniform_grid(horizon: float, step: float) -> TimeGrid:
    """Uniform grid 0, step, 2*step, ... with T always included."""
    if step <= 0.0 or step > horizon:
        raise InvalidGridError(f"step must lie in (0, T], got {step}")
    return TimeGrid(points=uniform_points(horizon, step, include_horizon=True))


def merge_grids(a: TimeGrid, b: TimeGrid) -> TimeGrid:
    """Sorted union of two grids over the same horizon.

    Points of ``a`` take precedence: a point of ``b`` within tolerance of an
    existing point of ``a`` is dropped rather than duplicated.
    """
    tol = time_tolerance(a.horizon)
    if abs(a.horizon - b.horizon) > tol:
        raise HorizonMismatchError(
            f"grids end at {a.horizon} and {b.horizon}"
        )
    missing = match_indices(a.points, b.points, tol) < 0
    pts = np.sort(np.concatenate([a.points, b.points[missing]]))
    return TimeGrid(points=pts)


def union_rows(fine: TimeGrid, times, offsets) -> tuple[np.ndarray, np.ndarray]:
    """merge_grids(fine, make_grid(row + [T])) for rows of sorted times split at ``offsets``.

    Returns the union grids laid end to end and their offsets. No row is sorted:
    T drops none of a row's times, and the survivors go in by position."""
    F, tol, rows = len(fine), time_tolerance(fine.horizon), np.arange(len(offsets))
    keep = _cluster_firsts(times, offsets[:-1], tol)
    keep &= match_indices(fine.points, times, tol) < 0
    extra = times[keep]
    row = np.searchsorted(offsets, np.flatnonzero(keep), side="right") - 1
    points = np.insert(np.tile(fine.points, len(offsets) - 1),
                       row * F + np.searchsorted(fine.points, extra), extra)
    points_offsets = rows * F + np.searchsorted(row, rows)  # and the earlier rows' extra times
    _check_rows(points, points_offsets)
    return points, points_offsets


@dataclass(frozen=True)
class BrownianPath:
    """A d-dimensional Brownian motion realized on a grid.

    ``values[k]`` is B at points[k] with B(0) = 0; ``increments`` are the
    consecutive differences of ``values`` (left-to-right accumulation fixes
    the rounding, so coarsening by subsetting stays exactly consistent).
    """

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        if self.values.ndim != 2 or self.values.shape[0] != len(self.grid):
            raise InvalidGridError("values must have one row per grid point")
        if np.any(self.values[0] != 0.0):
            raise InvalidGridError("path must start at 0")
        self.values.setflags(write=False)

    @property
    def increments(self) -> np.ndarray:
        """The increment over each grid interval, one row per interval."""
        return np.diff(self.values, axis=0)


def write_path_csv(fileobj, times, values, name: str) -> None:
    """CSV rows ``time,<name>_1,...,<name>_k``: ``times`` and the rows of ``values``, 17 digits."""
    header = ",".join(["time"] + [f"{name}_{j + 1}" for j in range(values.shape[1])])
    fileobj.write(header + "\n")
    for t, row in zip(times, values):
        cells = ",".join(f"{v:.17g}" for v in row)
        fileobj.write(f"{t:.17g},{cells}\n")


def path_from_increments(grid: TimeGrid, increments) -> BrownianPath:
    """Assemble a path from per-interval increments (values by cumulative sum)."""
    inc = np.asarray(increments, dtype=np.float64)
    if inc.ndim == 1:
        inc = inc[:, None]
    values = np.zeros((len(inc) + 1, inc.shape[1]))
    np.cumsum(inc, axis=0, out=values[1:])
    return BrownianPath(grid=grid, values=values)


def generate_increments(grid: TimeGrid, d: int, rng: np.random.Generator) -> BrownianPath:
    """Draw independent Gaussian increments with variance = interval length."""
    if d < 1:
        raise ValueError("dimension must be at least 1")
    dt = np.diff(grid.points)
    raw = rng.standard_normal((len(dt), d)) * np.sqrt(dt)[:, None]
    return path_from_increments(grid, raw)


def aggregate_increments(fine: BrownianPath, coarse: TimeGrid) -> BrownianPath:
    """Restrict a fine path to a coarser grid it refines.

    Coarse values are the fine values at the matching indices, so any chain
    of aggregations through intermediate grids yields bit-identical results.
    """
    tol = time_tolerance(fine.grid.horizon)
    idx = match_indices(fine.grid.points, coarse.points, tol)
    if np.any(idx < 0):
        missing = coarse.points[idx < 0][0]
        raise NotRefinementError(f"coarse point {missing} absent from fine grid")
    return BrownianPath(grid=coarse, values=fine.values[idx])
