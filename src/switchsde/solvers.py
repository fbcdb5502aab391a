"""Euler-Maruyama schemes for hybrid SDEs and their continuous interpolants.

Two discretizations of the same equation:

* the classical scheme runs on a uniform grid and freezes both the state
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
where all of it falls on the skeleton regime. One kernel call advances
every grid of a block at once: iteration k of one recursion advances the
lanes of the grids with more than k intervals, by one stacked product per
coefficient over the regimes, added to Z_k in regime order.

The schemes consume pre-generated chain and Brownian paths and never draw
randomness, which is what makes coupled-error measurement possible. A block
of coupled samples is one `SampleBlock`: flat chain paths and union grids.
Every event of every scheme, step and reference is a union-grid point, so
the event grids of a whole block are index masks over it, built with a
fixed number of array operations however many rows the block has. The
kernel's solutions are one `EulerBlock` per grid, and the one-path schemes
return a one-row block. A block carries its per-segment coefficients so the
continuous interpolant can be evaluated anywhere the Brownian path is
realized, exactly reproducing the discrete values at the solver's own event
times.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import repeat

import numpy as np

from ._timeutil import match_indices, time_tolerance, uniform_points
from .brownian import BrownianPath, TimeGrid, uniform_grid, union_rows
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


def _row_of(offsets) -> np.ndarray:
    """The row of each flat entry of rows laid end to end at ``offsets``."""
    return np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))


def _row_cumsum(values, offsets) -> np.ndarray:
    """Cumulative sums of ``values`` along axis 0 within each row, in place.

    Each row is its own sum, so it rounds the same in a block of any size."""
    for lo, hi in zip(offsets[:-1].tolist(), offsets[1:].tolist()):
        np.cumsum(values[lo:hi], axis=0, out=values[lo:hi])
    return values


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
    _masks: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def union(cls, fine: TimeGrid, chains) -> SampleBlock:
        """One row per chain path, on ``brownian.union_rows``' union grids."""
        switch_offsets = np.cumsum([0] + [len(c.states) for c in chains])
        times = np.concatenate([c.switch_times for c in chains])
        return cls(fine.horizon, times, np.concatenate([c.states for c in chains]),
                   switch_offsets, *union_rows(fine, times, switch_offsets))

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
        """Read-only mask of the union points on the uniform grid of ``step``, T included."""
        if step not in self._masks:  # built once per block and step
            self._masks[step] = self._grid_mask(step)
        return self._masks[step]

    def _grid_mask(self, step: float) -> np.ndarray:
        tol = time_tolerance(self.horizon)
        on_grid = np.abs(np.rint(self.points / step) * step - self.points) <= tol
        on_grid[self.offsets[1:] - 1] = True
        count = np.add.reduceat(on_grid, self.offsets[:-1], dtype=np.int64)
        if np.any(count != len(uniform_points(self.horizon, step))):
            raise GridMismatchError(f"a union grid lacks a gridpoint of step {step}")
        on_grid.setflags(write=False)
        return on_grid


@dataclass(frozen=True)
class RefinedGrid:
    """Event times of one Euler scheme for a block of rows, one row per chain path.

    Row r owns ``offsets[r]:offsets[r + 1]`` of the flat arrays. Its
    ``events`` are its uniform gridpoints up to T, its interior switching
    times and T itself, in order; ``regimes[i]`` is the chain state on
    [events[i], events[i+1]); ``owner_interval[i]`` is the index k of the
    uniform interval [k*step, (k+1)*step) containing the event, and K, the
    interval count, for the T that closes the last one, in every grid; and
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


def build_refined_grid(sample, step: float) -> RefinedGrid:
    """The switch-adapted scheme's events: the step's gridpoints and the switches.

    ``sample`` is a SampleBlock, or one ChainPath, whose union grid is then
    its switching times merged into the step's uniform grid on its horizon.
    A row's events are its union points on the step's grid, its T, and every
    point across which the segment regime (`SampleBlock.regimes`) changes. A switch within tolerance of another
    point is represented by that point, and the segment it opens still runs
    in its regime. The event count never exceeds
    floor(T / step) + segments + 1.
    """
    if isinstance(sample, ChainPath):  # uniform_grid checks the step
        sample = SampleBlock.union(uniform_grid(sample.horizon, step), [sample])
    on_grid = sample.on_grid(step)
    regimes = sample.regimes
    keep = np.flatnonzero(on_grid | np.append(True, regimes[1:] != regimes[:-1]))
    offsets = np.searchsorted(keep, sample.offsets)
    count = np.cumsum(on_grid)  # a point's interval is the gridpoints up to it, less one
    owners = count[keep] - count[sample.offsets[:-1]][sample.rows[keep]]
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


def _interpolate(block, seg, dt, db) -> np.ndarray:
    """Continuous-scheme values Z(e) + f (t - e) + g (B(t) - B(e)) of ``block``: (Q, n).

    ``seg`` picks the event each query starts from, ``dt`` (Q,) and ``db``
    (d, Q) are the query's elapsed time and Brownian displacement. The
    arithmetic runs on the state-major memory behind the block's views, so
    numpy's loops run along the queries.
    """
    diff = block.diff.transpose(1, 2, 0)  # (n, d, E): one noise column at a time
    noise = np.take(diff[:, 0], seg, axis=1) * db[0]
    for e in range(1, len(db)):
        noise += np.take(diff[:, e], seg, axis=1) * db[e]
    out = np.take(block.drift.T, seg, axis=1) * dt
    out += np.take(block.values.T, seg, axis=1)  # x + y rounds as y + x does
    out += noise
    return out.T


@dataclass(frozen=True)
class EulerBlock:
    """Solutions of one Euler recursion over a block of rows, one row per path.

    Per-event arrays are indexed by event first and concatenated over rows:
    row r owns events ``offsets[r]:offsets[r + 1]``, at ``times``. ``values``
    and ``drift`` are (E, n), ``diff`` (E, n, d) and ``bm_values`` (E, d).
    ``drift[e]`` and ``diff[e]`` are the frozen coefficients on the segment
    that starts at event e, zero on each row's last event, so the continuous
    scheme at t in [e, next event) is ``values[e] + drift[e] (t - e) + diff[e] (B(t) - B(e))``.
    The memory behind ``values``, ``drift`` and ``diff`` is state-major, so
    whole-block arithmetic runs along the events. The rows are one grid's,
    over the union grid ``points`` with Brownian values ``point_values``;
    event e is point ``bm_index[e]``. The one-path schemes return a one-row block.
    """

    step: float
    offsets: np.ndarray
    times: np.ndarray
    values: np.ndarray
    drift: np.ndarray
    diff: np.ndarray
    bm_index: np.ndarray
    bm_values: np.ndarray
    points: np.ndarray
    point_values: np.ndarray

    def cumulants(self, times) -> tuple:
        """Integrals over [0, t] of the frozen drift and of the squared frozen
        diffusion, for every row at each of ``times``: (R, len(times), n) and
        (R, len(times)). Both are piecewise linear in t.
        """
        R = len(self.offsets) - 1
        q = np.einsum("ind,ind->i", self.diff, self.diff)
        # each segment's integral at its end; a row's first gets the previous
        # row's last event, where drift and diffusion are zero
        inc = np.zeros((len(self.times), self.drift.shape[1] + 1))
        inc[1:] = np.column_stack([self.drift, q])[:-1] * np.diff(self.times)[:, None]
        cum = _row_cumsum(inc, self.offsets)
        query = np.tile(times, R)
        seg = np.searchsorted(_row_of(self.offsets) + 1j * self.times,
                              np.repeat(np.arange(R), len(times)) + 1j * query, side="right") - 1
        off = query - self.times[seg]
        f = cum[seg, :-1] + self.drift[seg] * off[:, None]
        return f.reshape(R, len(times), -1), (cum[seg, -1] + q[seg] * off).reshape(R, -1)

    def on_brownian_grids(self) -> np.ndarray:
        """Continuous-scheme values at every point of the union grid: (P, n)."""
        if len(self.times) == len(self.points):  # every union point is an event
            return self.values
        seg = np.repeat(np.arange(len(self.times)),
                        np.diff(self.bm_index, append=len(self.points)))
        return _interpolate(self, seg, self.points - np.take(self.times, seg),
                            self.point_values.T - np.take(self.bm_values.T, seg, axis=1))


def euler_block(model: HybridModel, grids, points, bm_values, reference=None):
    """Advance a block of paths through the frozen-state Euler recursion, all grids at once.

    Each grid has one step and horizon for all its rows, and its rows are
    its lanes. Every grid selects its events from the union grid ``points``
    with Brownian values ``bm_values`` (P, d). Inside uniform interval k a
    lane's state argument stays frozen at Z_k, so with T_kj the time the
    lane spends in regime j during the interval and W_kj the Brownian
    increment it gathers there,

        Z_{k+1} = Z_k + sum_j f(Z_k, j) T_kj + g(Z_k, j) W_kj,

    added to Z_k in regime order, the drift term before the noise term. Grids
    are independent recursions that share only the loop index: the lanes are
    stacked with the grids of more intervals first, and iteration k advances
    the prefix of lanes whose grid has more than k intervals. So one block
    runs max K intervals. In each, the 2 coefficient calls per regime that an
    active lane visits fill stacked (regime, lane) rows, and one product f T
    and one g W (elementwise for d = 1, as a 1 x 1 matmul rounds) cover all
    regimes, or the visited ones alone, as an unvisited scratch row may be
    stale. numpy's iteration walks each run of intervals with one active count
    and one kind of rows, with no per-interval lists. T and W are summed over
    each lane's segments in order. With row-wise coefficients lanes never mix.

    ``reference``, such as a fine-EM grid, is one more grid that is read
    only at the union points. Coefficients, one row per (interval, regime,
    lane), are kept only where a reader needs them: in every interval a grid
    of ``grids`` runs, and in each reference interval with an event inside
    it, or in all of them if some union point is no reference event. Every
    other interval's calls write into one scratch row per regime.

    Returns an iterator: the reference's (P, n) values when it is given,
    then one EulerBlock per grid, in the order given. Each is built only
    when asked for, so a block holds one grid's per-event arrays at a time;
    a grid with a non-finite value raises NonFiniteError then.
    """
    n, d, N = model.state_dim, model.noise_dim, model.regime_count
    nref = 0 if reference is None else 1  # the reference, when given, is grid 0
    grids = [reference] * nref + list(grids)
    counts = []  # intervals per grid
    for g in grids:
        count = g.owner_interval[g.offsets[1:] - 2] + 1  # per row
        if np.any(count != count[0]):
            raise ConfigError("a grid needs one step and horizon for every row")
        counts.append(int(count[0]))
        if g.regimes.min() < 1 or g.regimes.max() > N:
            raise InvalidRegimeError(f"regime outside 1..{N}")
    order = sorted(range(len(grids)), key=lambda r: -counts[r])
    widths = [len(g.offsets) - 1 for g in grids]  # lanes per grid
    lane0 = dict(zip(order, np.cumsum([0] + [widths[r] for r in order]).tolist()))
    L, K = sum(widths), counts[order[0]]
    lane_counts = np.repeat([counts[r] for r in order], [widths[r] for r in order])
    active = L - np.searchsorted(lane_counts[::-1], np.arange(K), side="right")
    # interval k's cells (j, lane) start at base[k]; frozen row k, the lanes
    # with at least k intervals, starts at fbase[k]
    base = np.concatenate([[0], np.cumsum(N * active)])
    fbase = np.concatenate([[0, L], L + np.cumsum(active)])
    active_end = np.append(active, 0)  # a row's last event, T, owns interval K

    # T and W: each cell sums its lane's segments in order
    occupation = np.zeros(base[-1])
    noise = np.zeros((base[-1], d))
    bins = {}  # grid: the cell of each segment
    for r in order:  # one grid at a time keeps temporaries small
        grid = grids[r]
        seg = np.ones(len(grid), dtype=bool)
        seg[grid.offsets[1:] - 1] = False
        owners = grid.owner_interval
        cells = base[owners] + (grid.regimes - 1) * active_end[owners]
        cells += lane0[r] + _row_of(grid.offsets)
        bins[r] = cells = cells[seg]
        np.add.at(occupation, cells, np.diff(grid.events)[seg[:-1]])
        db = np.diff(np.take(bm_values, grid.union_index, axis=0), axis=0)[seg[:-1]]
        for e in range(d):  # a column at a time is several times faster
            np.add.at(noise[:, e], cells, db[:, e])
    del seg, owners, cells, db
    # a regime no active lane spends time in costs no coefficient call
    firsts = (base[:-1, None] + np.arange(N) * active[:, None]).ravel()
    visited = np.logical_or.reduceat(occupation > 0.0, firsts).reshape(K, N)
    # coefficient rows where a reader needs them (see the docstring); an event is inner
    # when the one before it owns its interval, as a row's T and the next 0 never do
    kept = np.arange(K) < max(counts[nref:], default=0)
    if reference is not None:
        owners = reference.owner_interval
        kept[owners[:-1][np.diff(owners) == 0]] = True
        kept |= len(reference.events) < len(points)  # the interpolant reads every segment
    # a kept interval's rows start at cbase[k], as its cells do at base[k]; scratch at cbase[K]
    cbase = np.concatenate([[0], np.cumsum(N * active * kept)])

    frozen = np.empty((fbase[-1], n))
    frozen[:L] = model.initial_value
    f_all = np.zeros((cbase[-1] + N * L, n))
    g_all = np.zeros((cbase[-1] + N * L, n, d))
    plan = [tuple(range(N))] * K  # the regimes each interval visits
    partial = np.flatnonzero(~visited.all(axis=1))
    for k, row in zip(partial.tolist(), visited[partial].tolist()):
        plan[k] = tuple(j for j in range(N) if row[j])
    product = np.matmul if d > 1 else np.multiply  # g W: a 1 x 1 matmul is one multiply
    drift, diffusion = model.drift, model.diffusion
    runs = np.flatnonzero(np.diff(np.where(kept, active, -active), prepend=0)).tolist() + [K]
    zk = frozen[:L]
    for k0, k1 in zip(runs[:-1], runs[1:]):  # a run has one active count and one row kind
        a, span = int(active[k0]), slice(base[k0], base[k1])
        rows = slice(cbase[k0], cbase[k1]) if kept[k0] else slice(cbase[K], cbase[K] + N * a)
        fs, gs = f_all[rows].reshape(-1, N, a, n), g_all[rows].reshape(-1, N, a, n, d)
        if not kept[k0]:  # a run of scratch intervals shares one row set
            fs, gs = repeat(fs[0]), repeat(gs[0])
        fterm, gterm = np.empty((N, a, n)), np.empty((N, a, n, 1))
        fterms, gterms = list(fterm), list(gterm[..., 0])  # each regime's (a, n) terms
        zk = zk[:a]
        for z, fk, gk, tk, wk, js in zip(
                frozen[fbase[k0 + 1]:fbase[k1 + 1]].reshape(-1, a, n), fs, gs,
                occupation[span].reshape(-1, N, a, 1), noise[span].reshape(-1, N, a, d, 1),
                plan[k0:k1]):
            for j in js:
                f, g = drift(zk, j + 1), diffusion(zk, j + 1)
                try:
                    fk[j], gk[j] = f, g
                except ValueError as exc:
                    raise DimensionMismatchError(
                        f"regime {j + 1} coefficients do not broadcast to "
                        f"drift ({a}, {n}) and diffusion ({a}, {n}, {d}): {exc}"
                    ) from None
            if len(js) == N:
                np.multiply(fk, tk, out=fterm)
                product(gk, wk, out=gterm)
            else:  # an unvisited regime's rows may be stale scratch: leave them out
                for j in js:
                    np.multiply(fk[j], tk[j], out=fterm[j])
                    product(gk[j], wk[j], out=gterm[j])
            for j in js:  # Z_k, then each regime's drift term and noise term in order
                np.add(zk, fterms[j], out=z)
                np.add(z, gterms[j], out=z)
                zk = z

    def expand(r):
        grid, grids[r] = grids[r], None  # not needed again
        offsets, times, owners = grid.offsets, grid.events, grid.owner_interval
        bvals = np.take(bm_values, grid.union_index, axis=0)
        cells = bins.pop(r)  # its coefficient rows too: base and cbase agree where it reads
        lanes = lane0[r] + _row_of(offsets)
        E, last = len(times), offsets[1:] - 1
        values = np.empty((n, E))
        first = np.ones(E, dtype=bool)
        first[1:] = owners[1:] != owners[:-1]
        first[offsets[:-1]] = True
        values[:, first] = np.take(frozen, fbase[owners[first]] + lanes[first], axis=0).T
        inner = np.flatnonzero(~first)
        if len(inner):
            k, at = owners[inner], lanes[inner]
            values[:, inner] = _inner_values(
                inner, times, bvals, grid.regimes - 1, frozen[fbase[k] + at],
                cbase[k] + at, active[k], N, f_all, g_all,
            ).T
        if not np.all(np.isfinite(values)):
            raise NonFiniteError("scheme produced non-finite values")
        if r < nref and E == len(points):  # every union point is an event
            return values.T
        seg = np.ones(E, dtype=bool)
        seg[last] = False
        drift_e = np.zeros((n, E))
        diff_e = np.zeros((n, d, E))
        drift_e[:, seg] = np.take(f_all, cells, axis=0).T
        diff_e[:, :, seg] = np.take(g_all, cells, axis=0).transpose(1, 2, 0)
        del cells
        solved = EulerBlock(step=grid.step, offsets=offsets, times=times, values=values.T,
                            drift=drift_e.T, diff=diff_e.transpose(2, 0, 1),
                            bm_index=grid.union_index, bm_values=bvals, points=points,
                            point_values=bm_values)
        return solved.on_brownian_grids() if r < nref else solved

    # a generator's frame, and with it the tables, is freed once it finishes
    return (expand(r) for r in range(len(grids)))


def _inner_values(inner, times, bvals, regimes, z, coeff, stride, N, f_all, g_all):
    """Values at events strictly inside a uniform interval.

    An inner event e of interval k gets Z_k + sum_j f_kj T_j(e) + g_kj W_j(e),
    with T_j(e) and W_j(e) the time and Brownian increment in regime j over
    the interval's segments before e, summed left to right. ``z`` is Z_k and
    its regime j coefficients are row ``coeff + j * stride`` of ``f_all`` and
    ``g_all``.

    Segment e - 1 owns one cell of one table, with a (dt, dB) column per
    regime. Cells are ordered by the segment's position in its interval,
    then by the interval's rank: intervals with more segments rank first, so
    those that reach position p are a prefix. Adding position p - 1's prefix
    to position p, for p = 1, 2, ..., leaves in each cell the sums up to its
    segment; another regime's segment adds an exact 0.0.
    """
    # an interval's inner events directly follow its first event, which parts them from others
    new = np.diff(inner, prepend=-1) > 1
    group = np.cumsum(new) - 1
    pos = inner - inner[new][group]
    count = np.bincount(group)  # segments per interval
    order = np.argsort(-count, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    reach = np.searchsorted(-count[order], -np.arange(count[order[0]]))  # intervals reaching p
    off = np.concatenate([[0], np.cumsum(reach)])
    cell = off[pos] + rank[group]
    table = np.zeros((len(inner), N, 1 + bvals.shape[1]))
    flat, at = table.reshape(len(inner) * N, -1), cell * N + regimes[inner - 1]
    for c, column in enumerate([times, *bvals.T]):  # a column at a time is faster
        flat[at, c] = np.take(column, inner) - np.take(column, inner - 1)
    for prev, lo, a in zip(off[:-2].tolist(), off[1:-1].tolist(), reach[1:].tolist()):
        np.add(table[lo:lo + a], table[prev:prev + a], out=table[lo:lo + a])
    del group, pos, at  # lower the peak memory
    table = np.take(table, cell, axis=0)
    product = np.matmul if bvals.shape[1] > 1 else np.multiply  # as in euler_block
    for j in range(N):
        z = z + np.take(f_all, coeff + j * stride, axis=0) * table[:, j, :1]
        z = z + product(np.take(g_all, coeff + j * stride, axis=0), table[:, j, 1:, None])[..., 0]
    return z


def em_jump_adapted(model: HybridModel, grid: RefinedGrid, bm: BrownianPath) -> EulerBlock:
    """Run the switch-adapted Euler scheme over the refined events of one path.

    The coefficients are evaluated at the frozen state (the value at the
    last uniform gridpoint) and the current regime; the frozen state
    advances only when an event crosses into the next uniform interval.
    The Brownian path may live on any grid containing every event. Returns
    a one-row EulerBlock.
    """
    index = match_indices(bm.grid.points, grid.events, time_tolerance(bm.grid.horizon))
    if np.any(index < 0):
        raise GridMismatchError(f"Brownian path lacks a value at t={grid.events[index < 0][0]}")
    return next(euler_block(model, [replace(grid, union_index=index)], bm.grid.points, bm.values))


def em_classical(model: HybridModel, skeleton, step: float, bm: BrownianPath) -> EulerBlock:
    """Run the classical Euler scheme on the uniform grid of ``bm``: a one-row EulerBlock.

    ``skeleton[k]`` is the regime frozen over the k-th step; its length must
    equal the step count (or exceed it by one when it also records the state
    at T).
    """
    pts = bm.grid.points
    m = len(pts) - 1
    skeleton = np.asarray(skeleton, dtype=np.int64)
    if len(skeleton) not in (m, m + 1):
        raise LengthMismatchError(f"skeleton has {len(skeleton)} states for {m} intervals")
    index = np.arange(m + 1)
    grid = RefinedGrid(step=float(step), horizon=bm.grid.horizon, events=pts,
                       regimes=np.append(skeleton[:m], skeleton[m - 1]), owner_interval=index,
                       offsets=np.array([0, m + 1]), union_index=index)
    return next(euler_block(model, [grid], pts, bm.values))


def evaluate_path(solution: EulerBlock, bm: BrownianPath, times) -> np.ndarray:
    """Continuous-scheme values of a one-row solution at arbitrary realized times: (Q, n).

    For t in [times[i], times[i+1]) the value is the segment's left value
    plus its frozen drift times the elapsed time plus its frozen diffusion
    applied to the Brownian displacement; at the last time it is the last
    value. Requires B realized at every queried time and every event.
    """
    if len(solution.offsets) != 2:
        rows = len(solution.offsets) - 1
        raise ConfigError(f"evaluate_path needs a one-row solution, got one of {rows} rows")
    query = np.atleast_1d(np.asarray(times, dtype=np.float64))
    tol = time_tolerance(float(bm.grid.horizon))
    q_idx = match_indices(bm.grid.points, query, tol)
    if np.any(q_idx < 0):
        raise TimeNotRealizedError(f"no Brownian value at t={query[q_idx < 0][0]}")
    ev_idx = match_indices(bm.grid.points, solution.times, tol)
    if np.any(ev_idx < 0):
        raise TimeNotRealizedError("Brownian path does not cover the solution grid")
    seg = np.maximum(np.searchsorted(solution.times, query, side="right") - 1, 0)
    return _interpolate(solution, seg, query - solution.times[seg],
                        (bm.values[q_idx] - bm.values[ev_idx[seg]]).T)


def exact_linear_solution(model: LinearHybridModel, sample, bm: BrownianPath | None = None
                          ) -> np.ndarray:
    """Conditional closed-form solution of the linear model on the union grid: (P, 1).

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
        if bm is None:
            raise ConfigError("a ChainPath needs the Brownian path bm that drives it")
        sample = SampleBlock(sample.horizon, sample.switch_times, sample.states,
                             np.array([0, sample.n_segments]), bm.grid.points,
                             np.array([0, len(bm.grid)]), bm.values)
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
    log_inc = np.zeros(len(pts))
    log_inc[1:] = (a - 0.5 * b * b) * np.diff(pts) + b * np.diff(sample.bm_values[:, 0])
    log_inc[sample.offsets[:-1]] = 0.0
    z0 = float(model.initial_value[0])
    return (z0 * np.exp(_row_cumsum(log_inc, sample.offsets))).reshape(-1, 1)
