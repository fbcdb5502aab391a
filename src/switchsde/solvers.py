"""Euler-Maruyama schemes for hybrid SDEs and their continuous interpolants.

Two discretizations of the same equation:

* the classical scheme steps on a uniform grid and freezes both the state
  argument and the regime at the left gridpoint, observing the chain only
  through its uniform-grid skeleton;
* the switch-adapted scheme refines every uniform interval at the chain's
  actual switching times. Within an interval the state argument of the
  coefficients stays frozen at the last gridpoint value, but the regime
  argument follows the chain, so no switch is ever misattributed.

Both schemes, and the fine-grid reference, run through one batched kernel,
`euler_block`. Because the state argument is frozen inside each uniform
interval, a step only needs the time and the Brownian increment each path
spends in each regime during the interval; the classical scheme is the case
where all of it falls on the skeleton regime. The kernel advances a block of
paths at once with 2N coefficient calls per interval.

The schemes consume pre-generated chain and Brownian paths and never draw
randomness, which is what makes coupled-error measurement possible. Each
returned SolutionPath carries its per-segment coefficients so the continuous
interpolant can be evaluated anywhere the Brownian path is realized, exactly
reproducing the discrete values at the solver's own event times.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._timeutil import match_indices, time_tolerance, uniform_points
from .brownian import BrownianPath, TimeGrid
from .ctmc import ChainPath, segment_states
from .errors import (
    ConfigError,
    DimensionMismatchError,
    GridMismatchError,
    InvalidRegimeError,
    LengthMismatchError,
    NonFiniteError,
    RegimeNotConstantError,
    TimeNotRealizedError,
)
from .model import HybridModel, LinearHybridModel

JUMP_ADAPTED = "jump-adapted"
CLASSICAL = "classical"
EXACT_LINEAR = "exact-linear"


@dataclass(frozen=True)
class RefinedGrid:
    """Event times for the switch-adapted scheme on one chain path.

    ``events`` holds every uniform gridpoint up to T, every interior
    switching time, and T itself, sorted and deduplicated. ``regimes[i]`` is
    the chain state on [events[i], events[i+1]); ``owner_interval[i]`` is the
    index k of the uniform interval [k*step, (k+1)*step) containing the
    event.
    """

    step: float
    horizon: float
    events: np.ndarray
    regimes: np.ndarray
    owner_interval: np.ndarray

    def __post_init__(self):
        self.events.setflags(write=False)
        self.regimes.setflags(write=False)
        self.owner_interval.setflags(write=False)

    def __len__(self) -> int:
        return len(self.events)


@dataclass(frozen=True)
class SolutionPath:
    """A discrete solution with enough segment data to interpolate it.

    ``values[k]`` approximates the state at ``times[k]``. For solver outputs
    the per-segment arrays record the frozen coefficient arguments actually
    used on [times[i], times[i+1]), which lets the continuous version of the
    scheme be evaluated off-grid; oracle paths carry no segment data.
    """

    times: np.ndarray
    values: np.ndarray
    scheme_tag: str
    step: float | None = None
    seg_drift: np.ndarray | None = None
    seg_diff: np.ndarray | None = None

    def __post_init__(self):
        if self.values.shape[0] != len(self.times):
            raise ValueError("one value row per time required")
        for arr in (self.times, self.values, self.seg_drift, self.seg_diff):
            if arr is not None:
                arr.setflags(write=False)

    @property
    def state_dim(self) -> int:
        return self.values.shape[1]

    def to_csv(self, fileobj) -> None:
        header = ",".join(["time"] + [f"z_{j + 1}" for j in range(self.state_dim)])
        fileobj.write(header + "\n")
        for t, row in zip(self.times, self.values):
            cells = ",".join(f"{v:.17g}" for v in row)
            fileobj.write(f"{t:.17g},{cells}\n")


def build_refined_grid(path: ChainPath, step: float, horizon: float | None = None) -> RefinedGrid:
    """Merge uniform gridpoints with the path's switching times.

    A switch landing within tolerance of a gridpoint is represented by the
    gridpoint alone, and switches closer than tolerance by the first of them;
    each segment's regime is the chain state inside it (`segment_states`),
    so such a switch still governs the segment that follows. The event
    count never exceeds
    floor(T / step) + segments + 1.
    """
    horizon = path.horizon if horizon is None else float(horizon)
    if not 0.0 < step <= horizon:
        raise ConfigError(f"step must lie in (0, T], got {step}")
    tol = time_tolerance(horizon)
    multiples = uniform_points(horizon, step, include_horizon=False)
    base = multiples if abs(multiples[-1] - horizon) <= tol else np.append(multiples, horizon)

    switches = path.switch_times[1:]
    switches = switches[(switches > tol) & (switches < horizon - tol)]
    if len(switches):
        switches = switches[match_indices(base, switches, tol) < 0]
    if len(switches) > 1:  # collapse switches closer than the grid tolerance
        switches = switches[np.concatenate([[True], np.diff(switches) > tol])]
    events = np.sort(np.concatenate([base, switches]))

    regimes = segment_states(path, events)
    owners = np.searchsorted(multiples, events, side="right") - 1
    return RefinedGrid(
        step=float(step),
        horizon=horizon,
        events=events,
        regimes=regimes.astype(np.int64),
        owner_interval=owners.astype(np.int64),
    )


def classical_grid(skeleton, step: float, grid: TimeGrid) -> RefinedGrid:
    """The classical scheme's events: the gridpoints of ``grid`` and no switches.

    ``skeleton[k]`` is the regime frozen over the k-th interval of ``grid``;
    its length must equal the interval count (or exceed it by one when it
    also records the state at T).
    """
    pts = grid.points
    m = len(pts) - 1
    skeleton = np.asarray(skeleton, dtype=np.int64)
    if len(skeleton) not in (m, m + 1):
        raise LengthMismatchError(f"skeleton has {len(skeleton)} states for {m} steps")
    return RefinedGrid(
        step=float(step),
        horizon=grid.horizon,
        events=pts,
        regimes=np.append(skeleton[:m], skeleton[m - 1]),
        owner_interval=np.arange(m + 1, dtype=np.int64),
    )


def _event_indices(bm: BrownianPath, times: np.ndarray) -> np.ndarray:
    idx = match_indices(bm.grid.points, times, time_tolerance(bm.grid.horizon))
    if np.any(idx < 0):
        missing = times[idx < 0][0]
        raise GridMismatchError(f"Brownian path lacks a value at t={missing}")
    return idx


def _interpolate(values, drift, diff, seg, dt, db) -> np.ndarray:
    """Continuous-scheme values Z(e) + f (t - e) + g (B(t) - B(e)), state-major.

    ``values`` and ``drift`` are (n, E), ``diff`` is (n, d, E) over events e;
    ``seg`` picks the event each query starts from, ``dt`` (Q,) and ``db``
    (d, Q) are the query's elapsed time and Brownian displacement. Returns
    (n, Q).
    """
    g = np.take(diff, seg, axis=2)
    noise = g[:, 0] * db[0]
    for e in range(1, len(db)):
        noise = noise + g[:, e] * db[e]
    return np.take(values, seg, axis=1) + np.take(drift, seg, axis=1) * dt + noise


@dataclass(frozen=True)
class EulerBlock:
    """Solutions of one Euler recursion over a block of rows, one row per path.

    Per-event arrays are state-major and concatenated over rows; row r owns
    events ``offsets[r]:offsets[r + 1]``. ``drift[:, e]`` and ``diff[:, :, e]``
    are the frozen coefficients on the segment that starts at event e, zero
    on each row's last event, so the continuous scheme at time t in
    [e, next event) is ``values[:, e] + drift[:, e] (t - e) + diff[:, :, e] (B(t) - B(e))``.
    """

    grids: tuple
    bms: tuple
    offsets: np.ndarray
    times: np.ndarray
    values: np.ndarray
    drift: np.ndarray
    diff: np.ndarray
    bm_index: np.ndarray
    bm_values: np.ndarray

    def solution(self, row: int, scheme_tag: str) -> SolutionPath:
        lo, hi = self.offsets[row], self.offsets[row + 1]
        return SolutionPath(
            times=self.grids[row].events,
            values=self.values[:, lo:hi].T,
            scheme_tag=scheme_tag,
            step=self.grids[row].step,
            seg_drift=self.drift[:, lo:hi - 1].T,
            seg_diff=self.diff[:, :, lo:hi - 1].transpose(2, 0, 1),
        )

    def on_brownian_grids(self) -> np.ndarray:
        """Continuous-scheme values at every point of each row's Brownian grid.

        Returns (n, P): the rows' grids concatenated in row order.
        """
        sizes = [len(bm.grid) for bm in self.bms]
        if sizes == np.diff(self.offsets).tolist():  # every grid point is an event
            return self.values
        starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
        rows = np.repeat(np.arange(len(sizes)), np.diff(self.offsets))
        is_event = np.zeros(sum(sizes), dtype=np.int64)
        is_event[starts[rows] + self.bm_index] = 1
        seg = np.cumsum(is_event) - 1
        points = np.concatenate([bm.grid.points for bm in self.bms])
        bvals = np.concatenate([bm.values for bm in self.bms]).T
        return _interpolate(
            self.values, self.drift, self.diff, seg,
            points - np.take(self.times, seg), bvals - np.take(self.bm_values, seg, axis=1),
        )


def euler_block(model: HybridModel, grids, bms) -> EulerBlock:
    """Advance a block of paths through the frozen-state Euler recursion.

    Row r follows ``grids[r]`` (its events, the regime on each event
    segment and the uniform interval owning it) driven by ``bms[r]``; every
    grid shares one step and horizon. Inside uniform interval k the state
    argument stays frozen at Z_k, so with T_kj the time row r spends in
    regime j during the interval and W_kj the Brownian increment it gathers
    there,

        Z_{k+1} = Z_k + sum_j f(Z_k, j) T_kj + g(Z_k, j) W_kj,

    summed in regime order, the drift term before the noise term. One flat
    bincount over all rows' event segments builds T and W; the recursion
    then makes 2N batched coefficient calls per interval for the whole
    block (none for a regime no row visits in that interval). An event
    inside an interval gets the same sum over the segments before it. Rows
    never mix: a row's values do not depend on the other rows.
    """
    n, d, N = model.state_dim, model.noise_dim, model.regime_count
    grids, bms = tuple(grids), tuple(bms)
    sizes = np.array([len(g.events) for g in grids])
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    E, R = int(offsets[-1]), len(grids)
    rows = np.repeat(np.arange(R), sizes)
    times = np.concatenate([g.events for g in grids])
    regimes = np.concatenate([g.regimes for g in grids]) - 1
    owners = np.concatenate([g.owner_interval for g in grids])
    bm_index = [_event_indices(bm, g.events) for g, bm in zip(grids, bms)]
    bvals = np.concatenate([np.take(bm.values, idx, axis=0) for bm, idx in zip(bms, bm_index)])
    if regimes.min() < 0 or regimes.max() >= N:
        raise InvalidRegimeError(f"regime outside 1..{N}")

    last = offsets[1:] - 1
    steps = owners[last - 1] + 1
    if np.any(steps != steps[0]):
        raise ConfigError("a block needs one step and horizon for every row")
    K = int(steps[0])
    segs = np.ones(E, dtype=bool)
    segs[last] = False
    segs = np.flatnonzero(segs)
    dt = times[segs + 1] - times[segs]
    db = bvals[segs + 1] - bvals[segs]
    bins = (owners[segs] * N + regimes[segs]) * R + rows[segs]  # (k, j, row), row fastest
    occupation = np.bincount(bins, weights=dt, minlength=K * N * R).reshape(K * N, R, 1)
    noise = np.stack(
        [np.bincount(bins, weights=db[:, e], minlength=K * N * R) for e in range(d)], axis=-1
    ).reshape(K * N, R, d, 1)
    visited = (occupation[:, :, 0] > 0.0).any(axis=1).tolist()

    frozen = np.empty((K + 1, R, n))
    frozen[0] = model.initial_value
    f_all = np.zeros((K * N, R, n))
    g_all = np.zeros((K * N, R, n, d))
    term = np.empty((R, n))
    term_column = term[..., None]
    f_rows, g_rows, occupied, noises = list(f_all), list(g_all), list(occupation), list(noise)
    drift, diffusion = model.drift, model.diffusion
    kj = -1
    for k in range(K):
        zk, z = frozen[k], frozen[k + 1]
        z[...] = zk
        for j in range(1, N + 1):
            kj += 1
            if not visited[kj]:
                continue
            f = drift(zk, j)
            g = diffusion(zk, j)
            try:
                f_rows[kj][...] = f
                g_rows[kj][...] = g
            except ValueError as exc:
                raise DimensionMismatchError(
                    f"regime {j} coefficients do not broadcast to "
                    f"drift ({R}, {n}) and diffusion ({R}, {n}, {d}): {exc}"
                ) from None
            np.add(z, np.multiply(f_rows[kj], occupied[kj], out=term), out=z)
            np.matmul(g_rows[kj], noises[kj], out=term_column)
            np.add(z, term, out=z)

    values = np.empty((n, E))
    drift_e = np.zeros((n, E))
    diff_e = np.zeros((n, d, E))
    drift_e[:, segs] = np.take(f_all.reshape(-1, n), bins, axis=0).T
    diff_e[:, :, segs] = np.take(g_all.reshape(-1, n, d), bins, axis=0).transpose(1, 2, 0)
    first = np.ones(E, dtype=bool)
    first[1:] = (owners[1:] != owners[:-1]) | (rows[1:] != rows[:-1])
    cells = frozen.reshape(-1, n)
    values[:, first] = np.take(cells, owners[first] * R + rows[first], axis=0).T
    values[:, last] = frozen[K].T
    inner = np.flatnonzero(~first)
    inner = inner[inner != last[rows[inner]]]
    if len(inner):
        values[:, inner] = _inner_values(
            inner, first, segs, dt, db, regimes, owners * R + rows, N, R, cells, f_all, g_all
        ).T
    if not np.all(np.isfinite(values)):
        raise NonFiniteError("scheme produced non-finite values")
    return EulerBlock(grids=grids, bms=bms, offsets=offsets, times=times, values=values,
                      drift=drift_e, diff=diff_e, bm_index=np.concatenate(bm_index),
                      bm_values=bvals.T)


def _inner_values(inner, first, segs, dt, db, regimes, cell, N, R, frozen, f_all, g_all):
    """Values at events strictly inside a uniform interval.

    An inner event e of interval k gets Z_k + sum_j f_kj T_j(e) + g_kj W_j(e),
    with T_j(e) and W_j(e) the time and Brownian increment in regime j over
    the interval's segments before e, summed left to right exactly as the
    bincount sums them. The sums run as a cumsum over a (group, position)
    table holding only the intervals that contain inner events.
    """
    n, d = f_all.shape[-1], db.shape[1]
    group = np.cumsum(first) - 1
    group_start = np.flatnonzero(first)
    inner_group = group[inner]  # nondecreasing
    busy = inner_group[np.concatenate([[True], inner_group[1:] != inner_group[:-1]])]
    compact = np.full(len(group_start), -1)
    compact[busy] = np.arange(len(busy))
    seg_group = compact[group[segs]]
    kept = np.flatnonzero(seg_group >= 0)
    width = int((segs[kept] - group_start[group[segs[kept]]]).max()) + 1
    seg_slot = seg_group[kept] * width + segs[kept] - group_start[group[segs[kept]]]
    # the slot of the last segment before each inner event
    inner_slot = compact[inner_group] * width + inner - group_start[inner_group] - 1
    seg_regime, seg_dt, seg_db = regimes[segs[kept]], dt[kept], db[kept]
    coeff = cell[inner] // R * N * R + cell[inner] % R
    f_flat, g_flat = f_all.reshape(-1, n), g_all.reshape(-1, n, d)
    z = np.take(frozen, cell[inner], axis=0)
    for j in range(N):
        mine = seg_regime == j
        t_table = np.zeros(len(busy) * width)
        w_table = np.zeros((len(busy) * width, d))
        t_table[seg_slot[mine]] = seg_dt[mine]
        w_table[seg_slot[mine]] = seg_db[mine]
        t_part = np.take(np.cumsum(t_table.reshape(-1, width), axis=1).ravel(), inner_slot)
        w_part = np.take(np.cumsum(w_table.reshape(-1, width, d), axis=1).reshape(-1, d),
                         inner_slot, axis=0)
        z = z + np.take(f_flat, coeff + j * R, axis=0) * t_part[:, None]
        z = z + (np.take(g_flat, coeff + j * R, axis=0) @ w_part[:, :, None])[..., 0]
    return z


def em_jump_adapted(model: HybridModel, grid: RefinedGrid, bm: BrownianPath) -> SolutionPath:
    """Run the switch-adapted Euler scheme over the refined events.

    The coefficients are evaluated at the frozen state (the value at the
    last uniform gridpoint) and the current regime; the frozen state
    advances only when an event crosses into the next uniform interval.
    The Brownian path may live on any grid containing every event.
    """
    return euler_block(model, [grid], [bm]).solution(0, JUMP_ADAPTED)


def em_classical(model: HybridModel, skeleton, step: float, bm: BrownianPath) -> SolutionPath:
    """Run the classical Euler scheme on the uniform grid of ``bm``.

    ``skeleton[k]`` is the regime frozen over the k-th step; its length must
    equal the step count (or exceed it by one when it also records the state
    at T).
    """
    grid = classical_grid(skeleton, step, bm.grid)
    return euler_block(model, [grid], [bm]).solution(0, CLASSICAL)


def evaluate_path(solution: SolutionPath, bm: BrownianPath, times) -> np.ndarray:
    """Continuous-scheme values at arbitrary realized times, vectorized.

    For t in [times[i], times[i+1]) the value is the segment's left value
    plus its frozen drift times the elapsed time plus its frozen diffusion
    applied to the Brownian displacement; at the last time it is the last
    value. Requires solver segment data and B realized at every queried time.
    """
    if solution.seg_drift is None:
        raise ValueError("solution carries no segment data")
    query = np.atleast_1d(np.asarray(times, dtype=np.float64))
    tol = time_tolerance(float(bm.grid.horizon))
    q_idx = match_indices(bm.grid.points, query, tol)
    if np.any(q_idx < 0):
        raise TimeNotRealizedError(f"no Brownian value at t={query[q_idx < 0][0]}")
    ev_idx = match_indices(bm.grid.points, solution.times, tol)
    if np.any(ev_idx < 0):
        raise TimeNotRealizedError("Brownian path does not cover the solution grid")
    seg = np.maximum(np.searchsorted(solution.times, query, side="right") - 1, 0)
    zero = np.zeros((1,) + solution.seg_diff.shape[1:])
    return _interpolate(
        solution.values.T,
        np.concatenate([solution.seg_drift, zero[:, :, 0]]).T,
        np.concatenate([solution.seg_diff, zero]).transpose(1, 2, 0),
        seg,
        query - solution.times[seg],
        (bm.values[q_idx] - bm.values[ev_idx[seg]]).T,
    ).T


def exact_linear_solution(
    model: LinearHybridModel, path: ChainPath, bm: BrownianPath
) -> SolutionPath:
    """Conditional closed-form solution of the linear model on the path grid.

    Over each grid interval with constant regime i the solution multiplies by
    exp((a_i - b_i^2 / 2) dt + b_i dB); the grid must therefore refine the
    switching times. Serves as the strong-error reference.
    """
    if not isinstance(model, LinearHybridModel):
        raise ConfigError("closed-form reference exists only for the linear model")
    pts = bm.grid.points
    tol = time_tolerance(float(pts[-1]))
    sw = path.switch_times[1:]
    inside_lo = np.searchsorted(sw, pts[:-1] + tol)
    inside_hi = np.searchsorted(sw, pts[1:] - tol)
    if np.any(inside_hi > inside_lo):
        k = int(np.argmax(inside_hi > inside_lo))
        raise RegimeNotConstantError(
            f"interval [{pts[k]}, {pts[k + 1]}] straddles a regime switch"
        )
    reg = segment_states(path, pts)[:-1]
    a = model.a[reg - 1]
    b = model.b[reg - 1]
    dt = np.diff(pts)
    db = np.diff(bm.values[:, 0])
    log_steps = (a - 0.5 * b * b) * dt + b * db
    log_path = np.concatenate([[0.0], np.cumsum(log_steps)])
    z0 = float(model.initial_value[0])
    values = (z0 * np.exp(log_path)).reshape(-1, 1)
    return SolutionPath(times=pts, values=values, scheme_tag=EXACT_LINEAR)
