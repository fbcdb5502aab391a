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
where all of it falls on the skeleton regime. One kernel call advances a
block of paths under every step of a ladder at once: one recursion over the
longest rung's intervals, where iteration k advances the lanes of the rungs
that have more than k intervals.

The schemes consume pre-generated chain and Brownian paths and never draw
randomness, which is what makes coupled-error measurement possible. A block
of coupled samples is one `SampleBlock`: flat chain paths and union grids.
Every event of every scheme, step and reference is a union-grid point, so
the event grids of a whole block are index masks over it, built with a
fixed number of array operations however many rows the block has. Each
returned SolutionPath carries its per-segment coefficients so the continuous
interpolant can be evaluated anywhere the Brownian path is realized, exactly
reproducing the discrete values at the solver's own event times.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from ._timeutil import match_indices, num_whole_steps, time_tolerance, uniform_points
from .brownian import BrownianPath, make_grid, merge_grids, uniform_grid
from .ctmc import ChainPath
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


def _row_of(offsets) -> np.ndarray:
    """The row of each flat entry of rows laid end to end at ``offsets``."""
    return np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))


def _row_cumsum(values, offsets) -> np.ndarray:
    """Cumulative sums of ``values`` along axis 0 within each row.

    The rows are summed along a zero-padded table, so each one rounds
    exactly as its own cumulative sum would, in a block of any size.
    """
    rows = _row_of(offsets)
    cols = np.arange(len(values)) - offsets[rows]
    table = np.zeros((len(offsets) - 1, int(cols.max()) + 1) + values.shape[1:])
    table[rows, cols] = values
    return np.cumsum(table, axis=1)[rows, cols]


@dataclass(frozen=True)
class SampleBlock:
    """Chain paths and their union grids for a block of rows, as flat arrays.

    Row r's chain path is ``switch_times``/``states`` over
    ``switch_offsets[r]:switch_offsets[r + 1]``, starting at time 0. Its
    union grid is ``points`` over ``offsets[r]:offsets[r + 1]``, from 0 to
    the horizon, and its Brownian values are the same rows of ``bm_values``
    (None for a block without them). A union grid holds every gridpoint of
    every step the block serves, and each switching time of its row unless
    that lies within the time tolerance of another point.
    """

    horizon: float
    switch_times: np.ndarray
    states: np.ndarray
    switch_offsets: np.ndarray
    points: np.ndarray
    offsets: np.ndarray
    bm_values: np.ndarray | None = None

    @classmethod
    def stack(cls, chains, grids, bm_values=None) -> SampleBlock:
        """One row per chain path and its union grid (and Brownian values)."""
        return cls(
            horizon=grids[0].horizon,
            switch_times=np.concatenate([c.switch_times for c in chains]),
            states=np.concatenate([c.states for c in chains]),
            switch_offsets=np.cumsum([0] + [len(c.states) for c in chains]),
            points=np.concatenate([g.points for g in grids]),
            offsets=np.cumsum([0] + [len(g) for g in grids]),
            bm_values=None if bm_values is None else np.concatenate(bm_values),
        )

    def __len__(self) -> int:
        return len(self.offsets) - 1

    @cached_property
    def rows(self) -> np.ndarray:
        """The row of each union-grid point."""
        return _row_of(self.offsets)

    @cached_property
    def switch_keys(self) -> np.ndarray:
        """row + 1j * time per switch: complex numbers sort by row, then by time."""
        return _row_of(self.switch_offsets) + 1j * self.switch_times

    def states_at(self, rows, times) -> np.ndarray:
        """Right-continuous chain state of each (row, time) pair."""
        return self.states[np.searchsorted(self.switch_keys, rows + 1j * times, side="right") - 1]

    @cached_property
    def regimes(self) -> np.ndarray:
        """The state on each union-grid segment, then the state at each row's T.

        This is the regime rule of every scheme and reference: a segment's
        state is read at its midpoint, so a switch that the grid absorbed
        into a nearby point (one within the time tolerance) still governs
        the segment it opens.
        """
        mid = self.points.copy()
        mid[:-1] = 0.5 * (self.points[:-1] + self.points[1:])
        ends = self.offsets[1:] - 1
        mid[ends] = self.points[ends]
        return self.states_at(self.rows, mid)

    def on_grid(self, step: float) -> np.ndarray:
        """Mask of the union points on the uniform grid of ``step``, T included."""
        tol = time_tolerance(self.horizon)
        on_grid = np.abs(np.rint(self.points / step) * step - self.points) <= tol
        on_grid[self.offsets[1:] - 1] = True
        count = np.add.reduceat(on_grid, self.offsets[:-1], dtype=np.int64)
        if np.any(count != len(uniform_points(self.horizon, step))):
            raise GridMismatchError(f"a union grid lacks a gridpoint of step {step}")
        return on_grid


@dataclass(frozen=True)
class RefinedGrid:
    """Event times of one Euler scheme for a block of rows, one row per chain path.

    Row r owns ``offsets[r]:offsets[r + 1]`` of the flat arrays. Its
    ``events`` are its uniform gridpoints up to T, its interior switching
    times and T itself, in order; ``regimes[i]`` is the chain state on
    [events[i], events[i+1]); ``owner_interval[i]`` is the index k of the
    uniform interval [k*step, (k+1)*step) containing the event; and
    ``union_index[i]`` is the event's position in the union grid it was
    selected from.
    """

    step: float
    horizon: float
    events: np.ndarray
    regimes: np.ndarray
    owner_interval: np.ndarray
    offsets: np.ndarray
    union_index: np.ndarray

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


def build_refined_grid(sample, step: float, horizon: float | None = None) -> RefinedGrid:
    """The switch-adapted scheme's events: the step's gridpoints and the switches.

    ``sample`` is a SampleBlock, or one ChainPath, whose union grid is then
    its switching times merged into the step's uniform grid (``horizon``
    defaults to the path's). A row's events are its union points on the
    step's grid, its T, and every point across which the segment regime
    (`SampleBlock.regimes`) changes. A switch within tolerance of another
    point is represented by that point, and the segment it opens still runs
    in its regime. The event count never exceeds
    floor(T / step) + segments + 1.
    """
    if isinstance(sample, ChainPath):
        horizon = sample.horizon if horizon is None else float(horizon)
        if not 0.0 < step <= horizon:
            raise ConfigError(f"step must lie in (0, T], got {step}")
        union = merge_grids(uniform_grid(horizon, step),
                            make_grid(np.append(sample.switch_times, horizon)))
        sample = SampleBlock.stack([sample], [union])
    on_grid = sample.on_grid(step)
    regimes = sample.regimes
    keep = np.flatnonzero(on_grid | np.append(True, regimes[1:] != regimes[:-1]))
    offsets = np.searchsorted(keep, sample.offsets)
    count = np.cumsum(on_grid)  # a point's interval is the gridpoints up to it, less one
    owners = count[keep] - count[sample.offsets[:-1]][sample.rows[keep]]
    owners[offsets[1:] - 1] = num_whole_steps(sample.horizon, step)
    return RefinedGrid(
        step=float(step), horizon=sample.horizon, events=sample.points[keep],
        regimes=regimes[keep], owner_interval=owners, offsets=offsets, union_index=keep,
    )


def classical_grid(block: SampleBlock, step: float) -> RefinedGrid:
    """The classical scheme's events for a block: each row's gridpoints of ``step``.

    Each interval runs in the state the chain is in at its left gridpoint,
    the path's skeleton as `skeleton_from_path` reads it; the last event
    repeats the last interval's state.
    """
    keep = np.flatnonzero(block.on_grid(step))
    offsets = np.searchsorted(keep, block.offsets)
    regimes = block.states_at(block.rows[keep], block.points[keep])
    regimes[offsets[1:] - 1] = regimes[offsets[1:] - 2]
    return RefinedGrid(
        step=float(step), horizon=block.horizon, events=block.points[keep], regimes=regimes,
        owner_interval=np.arange(len(keep)) - np.repeat(offsets[:-1], np.diff(offsets)),
        offsets=offsets, union_index=keep,
    )


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
    The rows are ``copies`` stacked grids over one union grid, ``points``
    with Brownian values ``point_values``; event e is point ``bm_index[e]``
    of the union grid repeated ``copies`` times.
    """

    step: float
    copies: int
    offsets: np.ndarray
    times: np.ndarray
    values: np.ndarray
    drift: np.ndarray
    diff: np.ndarray
    bm_index: np.ndarray
    bm_values: np.ndarray
    points: np.ndarray
    point_values: np.ndarray

    def solution(self, row: int, scheme_tag: str) -> SolutionPath:
        lo, hi = self.offsets[row], self.offsets[row + 1]
        return SolutionPath(
            times=self.times[lo:hi],
            values=self.values[:, lo:hi].T,
            scheme_tag=scheme_tag,
            step=self.step,
            seg_drift=self.drift[:, lo:hi - 1].T,
            seg_diff=self.diff[:, :, lo:hi - 1].transpose(2, 0, 1),
        )

    def cumulants(self, times) -> tuple:
        """Integrals over [0, t] of the frozen drift and of the squared frozen
        diffusion, for every row at each of ``times``: (R, len(times), n) and
        (R, len(times)). Both are piecewise linear in t.
        """
        R = len(self.offsets) - 1
        q = np.einsum("ndi,ndi->i", self.diff, self.diff)
        # each segment's integral at its end; a row's first gets the previous
        # row's last event, where drift and diffusion are zero
        inc = np.zeros((len(self.times), len(self.drift) + 1))
        inc[1:] = np.vstack([self.drift, q]).T[:-1] * np.diff(self.times)[:, None]
        cum = _row_cumsum(inc, self.offsets)
        query = np.tile(times, R)
        seg = np.searchsorted(_row_of(self.offsets) + 1j * self.times,
                              np.repeat(np.arange(R), len(times)) + 1j * query, side="right") - 1
        off = query - self.times[seg]
        f = cum[seg, :-1] + self.drift[:, seg].T * off[:, None]
        return f.reshape(R, len(times), -1), (cum[seg, -1] + q[seg] * off).reshape(R, -1)

    def on_brownian_grids(self) -> np.ndarray:
        """Continuous-scheme values at every point of the repeated union grid.

        Returns (n, copies * P): the union grid once per stacked grid.
        """
        size = self.copies * len(self.points)
        if len(self.times) == size:  # every grid point is an event
            return self.values
        P = len(self.points)
        out = np.empty((len(self.values), size))
        bounds = np.searchsorted(self.bm_index, np.arange(self.copies + 1) * P)
        for c in range(self.copies):  # one grid at a time keeps the temporaries small
            lo, hi = bounds[c], bounds[c + 1]
            seg = np.repeat(np.arange(lo, hi), np.diff(self.bm_index[lo:hi], append=(c + 1) * P))
            out[:, c * P:(c + 1) * P] = _interpolate(
                self.values, self.drift, self.diff, seg, self.points - np.take(self.times, seg),
                self.point_values.T - np.take(self.bm_values, seg, axis=1),
            )
        return out


def euler_block(model: HybridModel, rungs, points, bm_values):
    """Advance a block of paths through the frozen-state Euler recursion, all rungs at once.

    Each rung is a sequence of grids that share one step and horizon; the
    rows of its grids, stacked in order, are its lanes. Every grid selects
    its events from the union grid ``points`` with Brownian values
    ``bm_values`` (P, d). Inside uniform interval k a lane's state argument
    stays frozen at Z_k, so with T_kj the time the lane spends in regime j
    during the interval and W_kj the Brownian increment it gathers there,

        Z_{k+1} = Z_k + sum_j f(Z_k, j) T_kj + g(Z_k, j) W_kj,

    summed in regime order, the drift term before the noise term. Rungs are
    independent recursions that share only the loop index: the lanes are
    stacked with the rungs of more intervals first, and iteration k advances
    the prefix of lanes whose rung has more than k intervals. So one block
    runs max K intervals, each with 2 batched coefficient calls per regime
    that an active lane visits. T and W live in a compact (k, j, lane)
    table, summed over each lane's event segments in order. An event inside
    an interval gets the same sum over the segments before it. Lanes never
    mix: a lane's values do not depend on the other lanes or rungs.

    Returns an iterator of one EulerBlock per rung, in the order given. It
    builds each rung's per-event arrays only when asked for it, so a block
    holds one rung's at a time; a rung with a non-finite value raises
    NonFiniteError then.
    """
    n, d, N = model.state_dim, model.noise_dim, model.regime_count
    rungs = [tuple(grids) for grids in rungs]
    counts = []  # intervals per rung
    for grids in rungs:
        steps = np.concatenate([g.owner_interval[g.offsets[1:] - 2] for g in grids]) + 1
        if np.any(steps != steps[0]):
            raise ConfigError("a rung needs one step and horizon for every row")
        counts.append(int(steps[0]))
        regimes = np.concatenate([g.regimes for g in grids])
        if regimes.min() < 1 or regimes.max() > N:
            raise InvalidRegimeError(f"regime outside 1..{N}")
    order = sorted(range(len(rungs)), key=lambda r: -counts[r])
    widths = [sum(len(g.offsets) - 1 for g in grids) for grids in rungs]  # lanes per rung
    lane0 = dict(zip(order, np.cumsum([0] + [widths[r] for r in order]).tolist()))
    L, K = sum(widths), counts[order[0]]
    lane_counts = np.repeat([counts[r] for r in order], [widths[r] for r in order])
    active = L - np.searchsorted(lane_counts[::-1], np.arange(K), side="right")
    # interval k's cells (j, lane) start at base[k]; frozen row k, the lanes
    # with at least k intervals, starts at fbase[k]
    base = np.concatenate([[0], np.cumsum(N * active)])
    fbase = np.concatenate([[0, L], L + np.cumsum(active)])
    active_end = np.append(active, 0)  # a row's last event may own interval K

    # T and W: each cell sums its lane's segments in order, as a bincount would
    occupation = np.zeros(base[-1])
    noise = np.zeros((base[-1], d))
    bins = {}  # (rung, grid): the cell of each segment
    for r in order:
        lane = lane0[r]
        for c, grid in enumerate(rungs[r]):  # one grid at a time keeps temporaries small
            seg = np.ones(len(grid), dtype=bool)
            seg[grid.offsets[1:] - 1] = False
            owners = grid.owner_interval
            cells = base[owners] + (grid.regimes - 1) * active_end[owners]
            cells += lane + _row_of(grid.offsets)
            bins[r, c] = cells = cells[seg]
            np.add.at(occupation, cells, np.diff(grid.events)[seg[:-1]])
            db = np.diff(np.take(bm_values, grid.union_index, axis=0), axis=0)[seg[:-1]]
            for e in range(d):  # a column at a time is several times faster
                np.add.at(noise[:, e], cells, db[:, e])
            lane += len(grid.offsets) - 1
    del seg, owners, cells, db
    # a regime no active lane spends time in costs no coefficient call
    firsts = (base[:-1, None] + np.arange(N) * active[:, None]).ravel()
    visited = np.logical_or.reduceat(occupation > 0.0, firsts).tolist()

    frozen = np.empty((fbase[-1], n))
    frozen[:L] = model.initial_value
    f_all = np.zeros((base[-1], n))
    g_all = np.zeros((base[-1], n, d))
    term = np.empty((L, n))
    # every view the loop touches, built per run of intervals with one active count
    f_rows, g_rows, occupied, noises, steps = [], [], [], [], []
    runs = np.flatnonzero(np.diff(active, prepend=-1)).tolist() + [K]
    z_prev = frozen[:L]
    for k0, k1 in zip(runs[:-1], runs[1:]):
        a, span = int(active[k0]), slice(base[k0], base[k1])
        f_rows += list(f_all[span].reshape(-1, a, n))
        g_rows += list(g_all[span].reshape(-1, a, n, d))
        occupied += list(occupation[span].reshape(-1, a, 1))
        noises += list(noise[span].reshape(-1, a, d, 1))
        z_next = list(frozen[fbase[k0 + 1]:fbase[k1 + 1]].reshape(-1, a, n))
        t, column = term[:a], term[:a, :, None]
        steps += [(zk, z, t, column) for zk, z in zip([z_prev[:a]] + z_next[:-1], z_next)]
        z_prev = z_next[-1]
    drift, diffusion = model.drift, model.diffusion
    kj = -1
    for zk, z, term_k, column in steps:
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
                a = len(zk)
                raise DimensionMismatchError(
                    f"regime {j} coefficients do not broadcast to "
                    f"drift ({a}, {n}) and diffusion ({a}, {n}, {d}): {exc}"
                ) from None
            np.add(z, np.multiply(f_rows[kj], occupied[kj], out=term_k), out=z)
            np.matmul(g_rows[kj], noises[kj], out=column)
            np.add(z, term_k, out=z)
    del occupation, noise, occupied, noises, steps, f_rows, g_rows  # lower the peak memory

    def expand(r):
        grids, rungs[r] = rungs[r], None  # not needed again
        offsets = np.concatenate([[0], np.cumsum(np.concatenate([np.diff(g.offsets)
                                                                 for g in grids]))])
        times = np.concatenate([g.events for g in grids])
        owners = np.concatenate([g.owner_interval for g in grids])
        bvals = np.take(bm_values, np.concatenate([g.union_index for g in grids]), axis=0)
        cells = np.concatenate([bins.pop((r, c)) for c in range(len(grids))])
        lanes = lane0[r] + _row_of(offsets)
        E, last = len(times), offsets[1:] - 1
        seg = np.ones(E, dtype=bool)
        seg[last] = False
        values = np.empty((n, E))
        drift_e = np.zeros((n, E))
        diff_e = np.zeros((n, d, E))
        drift_e[:, seg] = np.take(f_all, cells, axis=0).T
        diff_e[:, :, seg] = np.take(g_all, cells, axis=0).transpose(1, 2, 0)
        del cells
        first = np.ones(E, dtype=bool)
        first[1:] = owners[1:] != owners[:-1]
        first[offsets[:-1]] = True
        values[:, first] = np.take(frozen, fbase[owners[first]] + lanes[first], axis=0).T
        values[:, last] = frozen[fbase[counts[r]] + lanes[last]].T
        inner = ~first
        inner[last] = False
        inner = np.flatnonzero(inner)
        if len(inner):
            k, at = owners[inner], lanes[inner]
            values[:, inner] = _inner_values(
                inner, np.flatnonzero(first), times, bvals,
                np.concatenate([g.regimes for g in grids]) - 1, frozen[fbase[k] + at],
                base[k] + at, active[k], N, f_all, g_all,
            ).T
        if not np.all(np.isfinite(values)):
            raise NonFiniteError("scheme produced non-finite values")
        bm_index = np.concatenate([g.union_index + c * len(points) for c, g in enumerate(grids)])
        return EulerBlock(step=grids[0].step, copies=len(grids), offsets=offsets, times=times,
                          values=values, drift=drift_e, diff=diff_e, bm_index=bm_index,
                          bm_values=bvals.T, points=points, point_values=bm_values)

    # a generator's frame, and with it the tables, is freed once it finishes
    return (expand(r) for r in range(len(rungs)))


def _inner_values(inner, group_start, times, bvals, regimes, z, coeff, stride, N, f_all, g_all):
    """Values at events strictly inside a uniform interval.

    An inner event e of interval k gets Z_k + sum_j f_kj T_j(e) + g_kj W_j(e),
    with T_j(e) and W_j(e) the time and Brownian increment in regime j over
    the interval's segments before e, summed left to right exactly as the
    bincount sums them. ``group_start`` holds the first event of each row's
    interval, ``z`` is Z_k of each inner event and its regime j coefficients
    are row ``coeff + j * stride`` of ``f_all`` and ``g_all``. The sums run
    as a cumsum over a (group, position) table holding only the intervals
    that contain inner events, up to the last of them.
    """
    d = bvals.shape[1]
    group = np.searchsorted(group_start, inner, side="right") - 1  # nondecreasing
    new_group = np.concatenate([[True], group[1:] != group[:-1]])
    lo = group_start[group[new_group]]
    count = inner[np.append(np.flatnonzero(new_group)[1:], len(inner)) - 1] - lo
    width = int(count.max())
    busy = np.repeat(np.arange(len(lo)), count)  # the busy group of each segment kept
    pos = np.arange(len(busy)) - np.repeat(np.cumsum(count) - count, count)
    s, slot = lo[busy] + pos, busy * width + pos  # its event, and its slot in the table
    # the slot of the last segment before each inner event
    inner_slot = (np.cumsum(new_group) - 1) * width + inner - group_start[group] - 1
    seg_regime, seg_dt, seg_db = regimes[s], times[s + 1] - times[s], bvals[s + 1] - bvals[s]
    t_table = np.empty((len(lo), width))
    w_table = np.empty((len(lo), width, d))
    for j in range(N):  # one pair of tables, summed in place, serves every regime
        mine = seg_regime == j
        t_table.fill(0.0)
        w_table.fill(0.0)
        t_table.reshape(-1)[slot[mine]] = seg_dt[mine]
        w_table.reshape(-1, d)[slot[mine]] = seg_db[mine]
        t_part = np.take(np.cumsum(t_table, axis=1, out=t_table).reshape(-1), inner_slot)
        w_part = np.take(np.cumsum(w_table, axis=1, out=w_table).reshape(-1, d), inner_slot,
                         axis=0)
        z = z + np.take(f_all, coeff + j * stride, axis=0) * t_part[:, None]
        z = z + (np.take(g_all, coeff + j * stride, axis=0) @ w_part[:, :, None])[..., 0]
    return z


def em_jump_adapted(model: HybridModel, grid: RefinedGrid, bm: BrownianPath) -> SolutionPath:
    """Run the switch-adapted Euler scheme over the refined events.

    The coefficients are evaluated at the frozen state (the value at the
    last uniform gridpoint) and the current regime; the frozen state
    advances only when an event crosses into the next uniform interval.
    The Brownian path may live on any grid containing every event.
    """
    index = match_indices(bm.grid.points, grid.events, time_tolerance(bm.grid.horizon))
    if np.any(index < 0):
        raise GridMismatchError(f"Brownian path lacks a value at t={grid.events[index < 0][0]}")
    grid = replace(grid, union_index=index)
    return next(euler_block(model, [[grid]], bm.grid.points, bm.values)).solution(0, JUMP_ADAPTED)


def em_classical(model: HybridModel, skeleton, step: float, bm: BrownianPath) -> SolutionPath:
    """Run the classical Euler scheme on the uniform grid of ``bm``.

    ``skeleton[k]`` is the regime frozen over the k-th step; its length must
    equal the step count (or exceed it by one when it also records the state
    at T).
    """
    pts = bm.grid.points
    m = len(pts) - 1
    skeleton = np.asarray(skeleton, dtype=np.int64)
    if len(skeleton) not in (m, m + 1):
        raise LengthMismatchError(f"skeleton has {len(skeleton)} states for {m} steps")
    index = np.arange(m + 1)
    grid = RefinedGrid(step=float(step), horizon=bm.grid.horizon, events=pts,
                       regimes=np.append(skeleton[:m], skeleton[m - 1]), owner_interval=index,
                       offsets=np.array([0, m + 1]), union_index=index)
    return next(euler_block(model, [[grid]], pts, bm.values)).solution(0, CLASSICAL)


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


def exact_linear_solution(model: LinearHybridModel, sample, bm: BrownianPath | None = None
                          ) -> SolutionPath:
    """Conditional closed-form solution of the linear model on the union grid.

    ``sample`` is a ChainPath driven by ``bm``, on ``bm``'s grid, or a
    SampleBlock, whose rows then come back concatenated. Over each grid
    interval with constant regime i the solution multiplies by
    exp((a_i - b_i^2 / 2) dt + b_i dB); the grid must therefore refine the
    switching times. Each row's log-path is its own cumulative sum, so a
    row rounds the same in any block. Serves as the strong-error reference.
    """
    if not isinstance(model, LinearHybridModel):
        raise ConfigError("closed-form reference exists only for the linear model")
    if isinstance(sample, ChainPath):
        sample = SampleBlock.stack([sample], [bm.grid], [bm.values])
    pts, tol = sample.points, time_tolerance(sample.horizon)
    seg = np.searchsorted(sample.rows + 1j * pts, sample.switch_keys, side="right") - 1
    sw = sample.switch_times
    inside = (sw >= pts[seg] + tol) & (sw < pts[np.minimum(seg + 1, len(pts) - 1)] - tol)
    if np.any(inside):
        k = int(seg[np.argmax(inside)])
        raise RegimeNotConstantError(
            f"interval [{pts[k]}, {pts[k + 1]}] straddles a regime switch"
        )
    a = model.a[sample.regimes[:-1] - 1]
    b = model.b[sample.regimes[:-1] - 1]
    log_steps = np.zeros(len(pts))
    log_steps[1:] = (a - 0.5 * b * b) * np.diff(pts) + b * np.diff(sample.bm_values[:, 0])
    log_steps[sample.offsets[:-1]] = 0.0
    z0 = float(model.initial_value[0])
    values = (z0 * np.exp(_row_cumsum(log_steps, sample.offsets))).reshape(-1, 1)
    return SolutionPath(times=pts, values=values, scheme_tag=EXACT_LINEAR)
