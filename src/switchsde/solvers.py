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
the event grids of a whole block are index masks over it, built by integer
arithmetic on each point's rank among the finest step's gridpoints with a
fixed number of array operations however many rows the block has. The
kernel's solutions are one `EulerBlock` per grid, and the one-path schemes
return a one-row block. A block carries its per-segment coefficients so the
continuous interpolant can be evaluated anywhere the Brownian path is
realized, exactly reproducing the discrete values at the solver's own event
times.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from itertools import repeat

import numpy as np

from ._timeutil import dyadic_ratio, match_indices, time_tolerance
from .brownian import BrownianPath, TimeGrid, uniform_grid, union_rows
from .ctmc import ChainPath
from .errors import (
    ConfigError,
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

#: The most values (n per union point) that `EulerBlock.in_chunks` interpolates at once.
CHUNK_VALUES = 2**16


def _row_of(offsets) -> np.ndarray:
    """The row of each flat entry of rows laid end to end at ``offsets``."""
    return np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))


def _row_search(keys, key_offsets, queries, query_offsets) -> np.ndarray:
    """The flat index of the last key <= each query among its row's keys.

    Row r's sorted keys are ``keys[key_offsets[r]:key_offsets[r + 1]]`` and
    its queries ``queries[query_offsets[r]:query_offsets[r + 1]]``; a query
    below them all gets the row's first key's index less one."""
    found = np.empty(len(queries), dtype=np.intp)
    for k0, k1, q0, q1 in zip(key_offsets[:-1].tolist(), key_offsets[1:].tolist(),
                              query_offsets[:-1].tolist(), query_offsets[1:].tolist()):
        found[q0:q1] = np.searchsorted(keys[k0:k1], queries[q0:q1], side="right")
        found[q0:q1] += k0 - 1
    return found


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
    step ``fine_step``, placed by ``fine_rank`` (`brownian.union_rows`; no
    event grid without it), and each switching time of its row unless that
    lies within the time tolerance of another point. ``points`` and
    ``offsets`` and ``fine_rank`` are read-only: every event grid of the block points into them.
    """

    horizon: float
    switch_times: np.ndarray
    states: np.ndarray
    switch_offsets: np.ndarray
    points: np.ndarray
    offsets: np.ndarray
    bm_values: np.ndarray | None = None
    fine_step: float | None = None
    fine_rank: np.ndarray | None = None

    def __post_init__(self):
        for values in (self.points, self.offsets, self.fine_rank):
            if values is not None:
                values.setflags(write=False)

    @classmethod
    def union(cls, fine: TimeGrid, chains) -> SampleBlock:
        """One row per chain path, on ``brownian.union_rows``' grids with the uniform ``fine``."""
        switch_offsets = np.cumsum([0] + [len(c.states) for c in chains])
        times = np.concatenate([c.switch_times for c in chains])
        points, offsets, rank = union_rows(fine, times, switch_offsets)
        return cls(fine.horizon, times, np.concatenate([c.states for c in chains]), switch_offsets,
                   points, offsets, fine_step=float(fine.points[1]), fine_rank=rank)

    def __len__(self) -> int:
        return len(self.offsets) - 1

    @cached_property
    def switch_points(self) -> np.ndarray:
        """For each switch, the union point at or before it in its row: the
        block's one chain lookup, which `regimes` and `point_states` count
        from. Read-only."""
        found = _row_search(self.points, self.offsets, self.switch_times, self.switch_offsets)
        found.setflags(write=False)
        return found

    def _states_from(self, start) -> np.ndarray:
        """The state at each union point when switch q holds from point ``start[q]`` on.

        Each switch holds until the next one starts. Each row's first switch
        starts at the row's first point and no start passes its row's end,
        so the starts rise through the block and one flat run per switch
        covers every row. The states come in the smallest unsigned type that
        holds them: one byte up to 255. Read-only, as the grids select from them.
        """
        states = self.states.astype(np.min_scalar_type(self.states.max()))
        out = np.repeat(states, np.diff(start, append=len(self.points)))
        out.setflags(write=False)
        return out

    @cached_property
    def point_states(self) -> np.ndarray:
        """Right-continuous chain state at each union point.

        A switch holds from its own point when it lies on it, else from the next.
        """
        at = self.switch_points
        return self._states_from(at + (self.points[at] != self.switch_times))

    @cached_property
    def regimes(self) -> np.ndarray:
        """The state on each union-grid segment, then the state at each row's T.

        This is the regime rule of every scheme and reference: a segment's
        state is read at its midpoint, so a switch that the grid absorbed
        into a nearby point (one within the time tolerance) still governs
        the segment it opens. A switch holds from the first segment of its
        row whose midpoint is at or after it: the one at its point, or the
        next, or the one before when that midpoint rounds up to the switch.
        Read-only, as the grids select from it.
        """
        at, sw, points = self.switch_points, self.switch_times, self.points
        row = _row_of(self.switch_offsets)
        # the midpoints of the segments from and up to point at; a row's last one is its T
        after = 0.5 * (points[at] + points[at + (at != self.offsets[row + 1] - 1)])
        before = 0.5 * (points[at - 1] + points[at - (at == self.offsets[row])])
        start = at + (after < sw)
        start -= (points[at] == sw) & (before >= sw)
        start[self.switch_offsets[:-1]] = self.offsets[:-1]  # each row's first switch, at 0
        return self._states_from(start)

    def on_grid(self, step: float) -> np.ndarray:
        """Read-only mask of union points on ``step``'s grid and T."""
        on_grid = (self.fine_rank & ((1 << self._shift(step)) - 1)) == 0
        on_grid[self.offsets[1:] - 1] = True
        on_grid.setflags(write=False)
        return on_grid

    def _shift(self, step: float) -> int:
        """log2 of twice ``step``'s `dyadic_ratio`, or the rank's bits past T: 1 << shift
        divides a gridpoint's fine rank, and any point's rank >> shift is its interval."""
        ratio = dyadic_ratio(step, self.fine_step, self.horizon)
        if ratio is None:
            raise GridMismatchError(f"a union grid lacks a gridpoint of step {step}")
        return min(ratio.bit_length(), 8 * self.fine_rank.itemsize)

    def select(self, mask) -> tuple:
        """(union_index, position in the row, offsets) of the union points in ``mask``, which
        holds each row's T; positions in the smallest unsigned type that holds every row's."""
        keep = np.flatnonzero(mask)
        offsets = np.searchsorted(keep, self.offsets)
        position = keep - np.repeat(self.offsets[:-1], np.diff(offsets))
        return keep, position.astype(np.min_scalar_type(np.diff(self.offsets).max())), offsets


@dataclass(frozen=True)
class RefinedGrid:
    """Events of one Euler scheme for a block of rows, as a selection of their union grid.

    Row r owns ``offsets[r]:offsets[r + 1]`` of the flat arrays. Its event i is
    union point ``union_offsets[r] + position[i]`` (its `union_index`; two bytes
    below 65,536 points per row), or ``points[i]`` in a grid of every union point,
    whose ``position`` is None. A row's ``events`` are its uniform gridpoints up to
    T, its interior switching times and T itself, in order. ``regimes[i]`` is the
    chain state on [events[i], events[i+1]), one byte up to 255 states in a block's
    grids; ``rank[i]`` is its fine rank (`brownian.union_rows`) in the block's
    type, two bytes up to 2^14 fine steps, and ``rank >> shift`` the k of its
    interval [k*step, (k+1)*step). ``points`` and ``union_offsets`` are the union
    grid's, shared by every grid of the block and not copied; all are read-only.
    """

    step: float
    horizon: float
    points: np.ndarray
    union_offsets: np.ndarray
    position: np.ndarray | None
    regimes: np.ndarray
    rank: np.ndarray
    shift: int
    offsets: np.ndarray

    def __post_init__(self):
        for values in vars(self).values():
            if isinstance(values, np.ndarray):
                values.setflags(write=False)

    @property
    def union_index(self) -> np.ndarray | None:
        """Each event's union point as an ``np.intp``, on each read; None in a grid of every one."""
        return None if self.position is None else (
            np.repeat(self.union_offsets[:-1], np.diff(self.offsets)) + self.position)

    @property
    def events(self) -> np.ndarray:
        """The event times, gathered from the union grid on each read."""
        return self.points if self.position is None else self.points[self.union_index]

    @property
    def counts(self) -> np.ndarray:
        """Each row's interval count K: its T's fine rank >> shift, rounded up."""
        return -(-self.rank[self.offsets[1:] - 1].astype(np.intp) >> self.shift)

    @property
    def owner_interval(self) -> np.ndarray:
        """Each event's interval, and K for the T that closes its row's last one: on each read."""
        owners = np.right_shift(self.rank, self.shift, dtype=np.intp)
        owners[self.offsets[1:] - 1] = self.counts
        return owners

    def __len__(self) -> int:
        return len(self.rank)


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
    regimes = sample.regimes
    keep, position, offsets = sample.select(
        sample.on_grid(step) | np.append(True, regimes[1:] != regimes[:-1]))
    every = len(keep) == len(regimes)  # every point: no copies
    return RefinedGrid(
        step=float(step), horizon=sample.horizon, points=sample.points, position=position,
        union_offsets=sample.offsets, regimes=regimes if every else regimes[keep], offsets=offsets,
        rank=sample.fine_rank if every else sample.fine_rank[keep], shift=sample._shift(step))


def reference_grid(block: SampleBlock, step: float) -> RefinedGrid:
    """The fine-EM reference's events: every union point, in ``step``'s intervals, no copies."""
    return RefinedGrid(float(step), block.horizon, block.points, block.offsets, position=None,
                       regimes=block.regimes, rank=block.fine_rank, shift=block._shift(step),
                       offsets=block.offsets)


def classical_grid(block: SampleBlock, step: float) -> RefinedGrid:
    """The classical scheme's events for a block: each row's gridpoints of ``step``.

    Each interval runs in the state the chain is in at its left gridpoint,
    the path's skeleton as `skeleton_from_path` reads it; the last event
    repeats the last interval's state.
    """
    keep, position, offsets = block.select(block.on_grid(step))
    regimes = block.point_states[keep]
    regimes[offsets[1:] - 1] = regimes[offsets[1:] - 2]
    return RefinedGrid(step=float(step), horizon=block.horizon, points=block.points,
                       union_offsets=block.offsets, position=position, regimes=regimes,
                       rank=block.fine_rank[keep], shift=block._shift(step), offsets=offsets)


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
        seg = _row_search(self.times, self.offsets, query, np.arange(R + 1) * len(times))
        off = query - self.times[seg]
        f = cum[seg, :-1] + self.drift[seg] * off[:, None]
        return f.reshape(R, len(times), -1), (cum[seg, -1] + q[seg] * off).reshape(R, -1)

    def on_brownian_grids(self, r0: int = 0, r1: int | None = None) -> np.ndarray:
        """Continuous-scheme values at the union points of rows r0..r1 - 1, or all: (Q, n)."""
        e0, e1 = self.offsets[[r0, -1 if r1 is None else r1]]
        p0, p1 = self.bm_index[e0], self.bm_index[e1] if e1 < len(self.times) else len(self.points)
        if len(self.times) == len(self.points):  # every union point is an event
            return self.values[p0:p1]
        seg = np.repeat(np.arange(e0, e1), np.diff(self.bm_index[e0:e1], append=p1))
        return _interpolate(self, seg, self.points[p0:p1] - np.take(self.times, seg),
                            self.point_values[p0:p1].T - np.take(self.bm_values.T, seg, axis=1))

    def in_chunks(self):
        """Runs of rows of at most CHUNK_VALUES values, or one row: (rows, points, their values)."""
        starts = np.append(self.bm_index[self.offsets[:-1]], len(self.points))
        r0, width = 0, CHUNK_VALUES // self.values.shape[1]
        while r0 < len(starts) - 1:
            r1 = max(r0 + 1, int(np.searchsorted(starts, starts[r0] + width, side="right")) - 1)
            yield slice(r0, r1), slice(starts[r0], starts[r1]), self.on_brownian_grids(r0, r1)
            r0 = r1


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
    runs max K intervals. In each, one fill (`HybridModel.fill_coefficients`)
    writes the stacked (regime, lane) rows of the regimes an active lane
    visits, and one product f T and one g W (elementwise for d = 1, as a
    1 x 1 matmul rounds) cover all regimes; a regime no active lane visits
    has its rows set to 0 after the fill, as a scratch row may be stale and
    the fill may write any row. numpy's iteration walks each run of intervals
    with one active count and one kind of rows, with no per-interval lists.
    T and W are summed over each lane's segments in order. With row-wise
    coefficients lanes never mix.

    ``reference``, such as `reference_grid`'s fine-EM grid, is one more grid
    whose events are every union point (else a ConfigError), so its values are
    the recursion's, never interpolated. Coefficients, one row per (interval,
    regime, lane), are kept only where a reader needs them: in every interval
    a grid of ``grids`` runs, and in each reference interval with an event
    inside it. Every other interval's calls write into one scratch row per regime.

    Returns an iterator: the reference's (P, n) values when it is given, then one
    EulerBlock per grid, in the order given, each built only when asked for: a block
    holds one grid's per-event arrays at a time, and a non-finite grid raises NonFiniteError then.
    """
    n, d, N = model.state_dim, model.noise_dim, model.regime_count
    if reference is not None and len(reference) != len(points):
        raise ConfigError("a reference needs every union point as an event")
    nref = 0 if reference is None else 1  # the reference, when given, is grid 0
    grids = [reference] * nref + list(grids)
    counts = []  # intervals per grid
    for g in grids:
        count = g.counts  # per row
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

    # T and W: each cell sums its lane's segments in order. A row's T gets cell -1:
    # its segment to the next row's 0 goes to a last cell that no interval reads,
    # and its coefficients come from the last row of f_all and g_all, never written. One
    # table holds both, so its first free lifts glibc's trim threshold over later rounds' arrays
    tables = np.zeros((1 + d, base[-1] + 1))
    occupation, noise = tables[0], tables[1:].T

    def on_events(r):  # grid r's union index, event times and Brownian values, once per phase
        if r < nref:  # the reference is every union point, in order
            return None, points, bm_values
        index = grids[r].union_index
        return index, grids[r].points[index], np.take(bm_values, index, axis=0)

    def on_cells(grid, owners, lanes):  # each segment's (interval, regime, lane) cell, in lanes
        lanes += base[owners]  # in place, so a reference holds no fourth P-long array
        lanes += (grid.regimes - 1) * active_end[owners]
        lanes[grid.offsets[1:] - 1] = -1  # T's
        return lanes

    for r in order:  # one grid at a time keeps temporaries small
        _, times, bvals = on_events(r)
        cells = on_cells(grids[r], grids[r].owner_interval, lane0[r] + _row_of(grids[r].offsets))
        np.add.at(occupation, cells[:-1], np.diff(times))
        db = np.diff(bvals, axis=0)
        for e in range(d):  # a column at a time is several times faster
            np.add.at(noise[:, e], cells[:-1], db[:, e])
    del cells, db, times, bvals
    # a regime no active lane spends time in costs no coefficient call
    firsts = (base[:-1, None] + np.arange(N) * active[:, None]).ravel()
    visited = np.logical_or.reduceat(occupation[:-1] > 0.0, firsts).reshape(K, N)
    # coefficient rows where a reader needs them (see the docstring); an event is inner
    # when the one before it owns its interval, as a row's T and the next 0 never do
    kept = np.arange(K) < max(counts[nref:], default=0)
    if reference is not None:
        owners = reference.owner_interval
        kept[owners[1:][owners[1:] == owners[:-1]]] = True
        del owners
    # a kept interval's rows start at cbase[k], as its cells do at base[k]; scratch at cbase[K]
    cbase = np.concatenate([[0], np.cumsum(N * active * kept)])

    frozen = np.empty((fbase[-1], n))
    frozen[:L] = model.initial_value
    f_all = np.zeros((cbase[-1] + N * L + 1, n))  # kept rows, scratch rows, then cell -1
    g_all = np.zeros((len(f_all), n, d))
    plan = [(tuple(range(N)), [])] * K  # the regimes each interval visits, and the rest
    partial = np.flatnonzero(~visited.all(axis=1))
    for k, row in zip(partial.tolist(), visited[partial].tolist()):
        plan[k] = tuple(j for j in range(N) if row[j]), [j for j in range(N) if not row[j]]
    product = np.matmul if d > 1 else np.multiply  # g W: a 1 x 1 matmul is one multiply
    fill = model.fill_coefficients
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
        for z, fk, gk, tk, wk, (js, idle) in zip(
                frozen[fbase[k0 + 1]:fbase[k1 + 1]].reshape(-1, a, n), fs, gs,
                occupation[span].reshape(-1, N, a, 1), noise[span].reshape(-1, N, a, d, 1),
                plan[k0:k1]):
            fill(zk, js, fk, gk)
            if idle:  # a stale or filled row of an idle regime times a T or W of 0 could be inf * 0
                fk[idle] = gk[idle] = 0.0
            np.multiply(fk, tk, out=fterm)
            product(gk, wk, out=gterm)
            for j in js:  # Z_k, then each regime's drift term and noise term in order
                np.add(zk, fterms[j], out=z)
                np.add(z, gterms[j], out=z)
                zk = z

    def expand(r):
        grid, (index, times, bvals) = grids[r], on_events(r)
        grids[r] = None  # not needed again
        offsets, owners = grid.offsets, grid.owner_interval
        lanes = lane0[r] + _row_of(offsets)
        at = fbase[owners] + lanes  # the frozen row of each event's interval
        values = np.take(frozen.T, at, axis=1)  # every event's Z_k, (n, E): state-major
        # an event is inner when the one before it owns its interval, as a row's T
        # and the next 0 never do; an inner value adds its segments to Z_k
        inner, regimes = np.flatnonzero(owners[1:] == owners[:-1]) + 1, grid.regimes - 1
        i0, width = 0, CHUNK_VALUES // (N * (1 + d))  # inner events per CHUNK_VALUES table values
        starts = [0, len(inner)] if len(inner) <= width else np.append(  # each interval's first
            np.flatnonzero(np.diff(inner, prepend=-1) > 1), len(inner))
        while i0 < len(inner):  # runs of whole intervals: at most width events, or one interval
            i1 = max(starts[np.searchsorted(starts, i0, side="right")],
                     starts[np.searchsorted(starts, i0 + width, side="right") - 1])
            part, k = inner[i0:i1], owners[inner[i0:i1]]
            values[:, part] = _inner_values(part, times, bvals, regimes, frozen[at[part]],
                                            cbase[k] + lanes[part], active[k], N, f_all, g_all,
                                            product).T
            i0 = i1
        if not np.all(np.isfinite(values)):
            raise NonFiniteError("scheme produced non-finite values")
        if r < nref:  # no interpolation, so no coefficients per event
            return values.T
        # its coefficient rows are its cells: base and cbase agree where a grid reads
        cells = on_cells(grid, owners, lanes)
        drift_e = np.take(f_all, cells, axis=0).T.copy()  # into state-major memory
        diff_e = np.take(g_all, cells, axis=0).transpose(1, 2, 0).copy()
        del cells
        return EulerBlock(step=grid.step, offsets=offsets, times=times, values=values.T,
                          drift=drift_e.T, diff=diff_e.transpose(2, 0, 1),
                          bm_index=index, bm_values=bvals, points=points,
                          point_values=bm_values)

    # a generator's frame, and with it the tables, is freed once it finishes
    return (expand(r) for r in range(len(grids)))


def _inner_values(inner, times, bvals, regimes, z, coeff, stride, N, f_all, g_all, product):
    """Values at events strictly inside a uniform interval.

    An inner event e of interval k gets Z_k + sum_j f_kj T_j(e) + g_kj W_j(e),
    with T_j(e) and W_j(e) the time and Brownian increment in regime j over
    the interval's segments before e, summed left to right. ``z`` is Z_k and
    its regime j coefficients are row ``coeff + j * stride`` of ``f_all`` and
    ``g_all``; ``product`` is euler_block's g W.

    Segment e - 1 owns one cell, a (dt, dB) row in each regime's table, and
    fills the row of its own regime. Cells are ordered by the segment's
    position in its interval, then by the interval's rank: intervals with
    more segments rank first, so those that reach position p are a prefix.
    Adding position p - 1's prefix to position p, for p = 1, 2, ..., leaves
    in each cell the sums up to its segment; another regime's segment adds
    an exact 0.0.
    """
    # an interval's inner events directly follow its first event, which parts them from others
    new = np.diff(inner, prepend=-1) > 1
    group = np.cumsum(new) - 1
    pos = inner - inner[new][group]
    count = np.bincount(group)  # segments per interval
    key = count.max() - count  # in at most 16 bits numpy's stable sort is a radix sort
    order = np.argsort(key.astype(np.min_scalar_type(key.max())), kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    reach = np.searchsorted(-count[order], -np.arange(count[order[0]]))  # intervals reaching p
    off = np.concatenate([[0], np.cumsum(reach)])
    cell = off[pos] + rank[group]
    table = np.zeros((N, len(inner), 1 + bvals.shape[1]))
    flat, at = table.reshape(N * len(inner), -1), cell + regimes[inner - 1] * np.intp(len(inner))
    for c, column in enumerate([times, *bvals.T]):  # a column at a time is faster
        flat[at, c] = np.take(column, inner) - np.take(column, inner - 1)
    for prev, lo, a in zip(off[:-2].tolist(), off[1:-1].tolist(), reach[1:].tolist()):
        np.add(table[:, lo:lo + a], table[:, prev:prev + a], out=table[:, lo:lo + a])
    del group, pos, at  # lower the peak memory
    for j in range(N):  # regime j's sums in event order, one regime at a time
        sums = np.take(table[j], cell, axis=0)
        z = z + np.take(f_all, coeff + j * stride, axis=0) * sums[:, :1]
        z = z + product(np.take(g_all, coeff + j * stride, axis=0), sums[:, 1:, None])[..., 0]
    return z


def em_jump_adapted(model: HybridModel, grid: RefinedGrid, bm: BrownianPath) -> EulerBlock:
    """Run the switch-adapted Euler scheme over the refined events of one path.

    The coefficients are evaluated at the frozen state (the value at the
    last uniform gridpoint) and the current regime; the frozen state
    advances only when an event crosses into the next uniform interval.
    The Brownian path may live on any grid containing every event. Returns
    a one-row EulerBlock.
    """
    if len(grid.offsets) != 2:
        rows = len(grid.offsets) - 1
        raise ConfigError(f"em_jump_adapted needs a one-row grid, got one of {rows} rows")
    index = match_indices(bm.grid.points, grid.events, time_tolerance(bm.grid.horizon))
    if np.any(index < 0):
        raise GridMismatchError(f"Brownian path lacks a value at t={grid.events[index < 0][0]}")
    grid = replace(grid, points=bm.grid.points, union_offsets=np.array([0, len(bm.grid)]),
                   position=index)
    return next(euler_block(model, [grid], bm.grid.points, bm.values))


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
    index, offsets = np.arange(m + 1), np.array([0, m + 1])
    grid = RefinedGrid(step=float(step), horizon=bm.grid.horizon, points=pts, union_offsets=offsets,
                       position=index, regimes=np.append(skeleton[:m], skeleton[m - 1]),
                       rank=2 * index, shift=1, offsets=offsets)
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
    sw, seg = sample.switch_times, sample.switch_points
    inside = (sw >= pts[seg] + tol) & (sw < pts[np.minimum(seg + 1, len(pts) - 1)] - tol)
    if np.any(inside):
        k = int(seg[np.argmax(inside)])
        raise RegimeNotConstantError(
            f"interval [{pts[k]}, {pts[k + 1]}] straddles a regime switch"
        )
    regime = sample.regimes[:-1].astype(np.intp) - 1  # numpy indexes fastest with intp
    a, b = model.a[regime], model.b[regime]
    log_inc = np.zeros(len(pts))
    log_inc[1:] = (a - 0.5 * b * b) * np.diff(pts) + b * np.diff(sample.bm_values[:, 0])
    log_inc[sample.offsets[:-1]] = 0.0
    z0 = float(model.initial_value[0])
    return (z0 * np.exp(_row_cumsum(log_inc, sample.offsets))).reshape(-1, 1)
