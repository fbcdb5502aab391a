"""Shared helpers for time arithmetic on [0, T] grids.

All grid builders in the package go through these functions so that the
same times are always represented by bit-identical floats.
"""

from __future__ import annotations

import numpy as np

#: Relative tolerance used to decide that two times are the same point.
TIME_TOL = 1e-14


def time_tolerance(horizon: float) -> float:
    """Absolute tolerance for comparing times on a [0, T] horizon."""
    return TIME_TOL * max(1.0, float(horizon))


def num_whole_steps(horizon: float, step: float) -> int:
    """Number of whole steps of size ``step`` that fit in [0, T].

    Robust to the usual float rounding of T/step: a step count whose last
    gridpoint lands within tolerance of T counts as whole.
    """
    tol = time_tolerance(horizon)
    n = int(np.floor(horizon / step))
    if (n + 1) * step <= horizon + tol:
        n += 1
    return n


def uniform_points(horizon: float, step: float, include_horizon: bool = True) -> np.ndarray:
    """Gridpoints k*step on [0, T], optionally with T appended.

    The final multiple of ``step`` is snapped to T when it lands within
    tolerance, so grids built from the same (T, step) always share floats.
    """
    tol = time_tolerance(horizon)
    n = num_whole_steps(horizon, step)
    pts = np.arange(n + 1, dtype=np.float64) * step
    if abs(pts[-1] - horizon) <= tol:
        pts[-1] = horizon
    elif include_horizon:
        pts = np.append(pts, horizon)
    return pts


def match_indices(haystack: np.ndarray, needles: np.ndarray, tol: float) -> np.ndarray:
    """Index of each needle time in the sorted haystack, within ``tol``.

    Returns an int array the length of ``needles``; entries are -1 where a
    needle has no counterpart within tolerance.
    """
    needles = np.atleast_1d(np.asarray(needles, dtype=np.float64))
    pos = np.searchsorted(haystack, needles)
    hi = np.minimum(pos, len(haystack) - 1)
    near = np.take(haystack, hi)
    if np.array_equal(near, needles):  # every needle is a haystack point
        return hi
    lo = np.maximum(pos - 1, 0)
    out = np.where(np.abs(np.take(haystack, lo) - needles) <= tol, lo, -1)
    return np.where(np.abs(near - needles) <= tol, hi, out)
