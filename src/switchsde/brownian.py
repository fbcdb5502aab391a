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
        if pts[0] != 0.0:
            raise InvalidGridError(f"grid must start at 0, got {pts[0]}")
        if np.any(np.diff(pts) <= 0.0):
            raise InvalidGridError("grid points must be strictly increasing")
        pts.setflags(write=False)

    @property
    def horizon(self) -> float:
        return float(self.points[-1])

    def __len__(self) -> int:
        return len(self.points)


def make_grid(points) -> TimeGrid:
    """Build a TimeGrid from raw times: sort, deduplicate, pin the origin.

    Times closer than the grid tolerance collapse to the first of their
    cluster; a leading point within tolerance of 0 is snapped to exactly 0.
    """
    pts = np.sort(np.asarray(points, dtype=np.float64).ravel())
    if len(pts) == 0:
        raise InvalidGridError("no grid points given")
    tol = time_tolerance(pts[-1])
    # a point more than tol past its predecessor is more than tol past the
    # last kept point too; only points within tol of their predecessor need
    # the distance to the last kept one
    keep = np.empty(len(pts), dtype=bool)
    keep[0] = True
    np.greater(np.diff(pts), tol, out=keep[1:])
    last = 0
    for k in np.flatnonzero(~keep).tolist():
        if keep[k - 1]:
            last = k - 1
        if pts[k] - pts[last] > tol:
            keep[k] = True
    pts = pts[keep]
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

    def to_csv(self, fileobj) -> None:
        write_path_csv(fileobj, self.grid.points, self.values, "B")


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
