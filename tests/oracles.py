"""Per-path versions of the block builders in `switchsde.solvers`, kept as oracles.

The package builds the events of every scheme and the closed-form reference
for a whole block of samples at once, as index masks over the union grid.
These functions build the same things one chain path at a time, the way the
package did before: the refined grid by merging the step's gridpoints with
the path's switching times, the classical grid from the path's skeleton,
the closed form over the Brownian path's own grid, and the drift and
diffusion integrals of one solution. Each segment's regime is the chain
state at its midpoint. `inner_values` is the Euler kernel's step for events
inside an interval done with one padded table per regime, and
`gridpoint_values` its recursion over uniform intervals one lane at a time.
`closed_class_count` is the reachability count of closed classes that
`switchsde.stationary_distribution` replaced with strongly connected components.
`generator_checks` is `switchsde.validate_generator`'s check and normalization
entry by entry and row by row.
`lipschitz_probe` and `growth_probe` are the model probes with one
coefficient call per point and regime, on the same draw of points.
`coupled_sample` is the coupled draw of one sample, a chain path and then
a Brownian path on its union grid, as the harness made it before it drew a
whole block at once; `stack` lays such draws end to end as one block
record, and `coupled_block` stacks the harness's first block of them, which
the harness no longer hands out.
"""

import numpy as np

import switchsde as s
import switchsde.harness as harness
from switchsde._timeutil import match_indices, time_tolerance, uniform_points
from switchsde.errors import (NegativeOffDiagonalError, RegimeNotConstantError,
                              RowSumViolationError)
from switchsde.solvers import SampleBlock


def segment_states(path, times):
    """The state on each [times[k], times[k+1]), read at its midpoint, then at the last time."""
    return s.states_at(path, np.append(0.5 * (times[:-1] + times[1:]), times[-1:]))


def coupled_sample(generator, model, horizon, fine, rng, max_switches):
    """One coupled draw: a chain path, then a Brownian path on its union grid.

    The chain path starts in the model's initial regime and may switch at
    most ``max_switches`` times; the Brownian path lives on the union of
    ``fine`` and the path's switching times. Returns (chain, Brownian path).
    """
    chain = s.simulate_exact_path(generator, model.initial_regime, horizon, rng, max_switches)
    union = s.merge_grids(fine, s.make_grid(np.append(chain.switch_times, horizon)))
    return chain, s.generate_increments(union, model.noise_dim, rng)


def coupled_block(config, fine_step):
    """The SampleBlock of samples 0..min(M, BLOCK_SIZE) - 1 on the grid of ``fine_step``.

    Each row is `coupled_sample` from derive_stream(seed, m), the draw the
    harness makes for sample m.
    """
    fine = s.uniform_grid(config.horizon, fine_step)
    chains, bms = zip(*(
        coupled_sample(config.generator, config.model, config.horizon, fine,
                       s.derive_stream(config.seed, m), config.jump_budget)
        for m in range(min(config.samples, harness.BLOCK_SIZE))
    ))
    return stack(chains, [bm.grid for bm in bms], [bm.values for bm in bms])


def stack(chains, grids, bm_values):
    """The block of one row per chain path, its union grid and its Brownian values."""
    return SampleBlock(
        horizon=grids[0].horizon,
        switch_times=np.concatenate([c.switch_times for c in chains]),
        states=np.concatenate([c.states for c in chains]),
        switch_offsets=np.cumsum([0] + [len(c.states) for c in chains]),
        points=np.concatenate([g.points for g in grids]),
        offsets=np.cumsum([0] + [len(g) for g in grids]),
        bm_values=np.concatenate(bm_values),
    )


def refined_grid(path, step, horizon):
    """(events, regimes, owners) of the switch-adapted scheme on one path.

    T gets the interval count as its owner. A switch within tolerance of a
    gridpoint is dropped, and so is a switch within tolerance of the switch
    before it.
    """
    tol = time_tolerance(horizon)
    multiples = uniform_points(horizon, step, include_horizon=False)
    base = multiples if abs(multiples[-1] - horizon) <= tol else np.append(multiples, horizon)
    switches = path.switch_times[1:]
    switches = switches[(switches > tol) & (switches < horizon - tol)]
    if len(switches):
        switches = switches[match_indices(base, switches, tol) < 0]
    if len(switches) > 1:
        switches = switches[np.concatenate([[True], np.diff(switches) > tol])]
    events = np.sort(np.concatenate([base, switches]))
    owners = np.searchsorted(multiples, events, side="right") - 1
    owners[-1] = len(base) - 1  # T closes the last interval, as in classical_grid
    return events, segment_states(path, events), owners


def classical_grid(path, step, horizon):
    """(events, regimes, owners) of the classical scheme on one path."""
    events = s.uniform_grid(horizon, step).points
    m = len(events) - 1
    skeleton = s.skeleton_from_path(path, step)
    return events, np.append(skeleton[:m], skeleton[m - 1]), np.arange(m + 1)


def exact_linear(model, path, bm):
    """Closed-form values of the linear model on bm's grid, one cumulative sum per path."""
    pts = bm.grid.points
    tol = time_tolerance(float(pts[-1]))
    sw = path.switch_times[1:]
    if np.any(np.searchsorted(sw, pts[1:] - tol) > np.searchsorted(sw, pts[:-1] + tol)):
        raise RegimeNotConstantError("a grid interval straddles a regime switch")
    reg = segment_states(path, pts)[:-1]
    a, b = model.a[reg - 1], model.b[reg - 1]
    log_steps = (a - 0.5 * b * b) * np.diff(pts) + b * np.diff(bm.values[:, 0])
    log_path = np.concatenate([[0.0], np.cumsum(log_steps)])
    return float(model.initial_value[0]) * np.exp(log_path)


def piecewise_cumulants(events, drift, diff, times):
    """Integrals over [0, t] of one path's frozen drift and squared frozen diffusion.

    ``drift`` (E - 1, n) and ``diff`` (E - 1, n, d) hold the coefficients on
    the segments between the E ``events``.
    """
    dt_seg = np.diff(events)
    q_seg = np.einsum("ind,ind->i", diff, diff)
    cum_f = np.vstack([np.zeros((1, drift.shape[1])),
                       np.cumsum(drift * dt_seg[:, None], axis=0)])
    cum_q = np.concatenate([[0.0], np.cumsum(q_seg * dt_seg)])
    seg = np.clip(np.searchsorted(events, times, side="right") - 1, 0, len(events) - 2)
    off = times - events[seg]
    return cum_f[seg] + drift[seg] * off[:, None], cum_q[seg] + q_seg[seg] * off


def inner_values(inner, times, bvals, regimes, z, coeff, stride, N, f_all, g_all):
    """`solvers._inner_values` by one (interval, position) table per regime.

    Each interval that holds inner events gets a row as wide as the widest
    of them, and the row's cumulative sum gives the time and Brownian
    increment in the regime over the segments before each inner event.
    """
    d = bvals.shape[1]
    new_group = np.diff(inner, prepend=-1) > 1  # an interval's inner events follow its first
    lo = inner[new_group] - 1  # the interval's first event
    start = lo[np.cumsum(new_group) - 1]
    count = inner[np.append(np.flatnonzero(new_group)[1:], len(inner)) - 1] - lo
    width = int(count.max())
    busy = np.repeat(np.arange(len(lo)), count)  # the busy group of each segment kept
    pos = np.arange(len(busy)) - np.repeat(np.cumsum(count) - count, count)
    s, slot = lo[busy] + pos, busy * width + pos  # its event, and its slot in the table
    # the slot of the last segment before each inner event
    inner_slot = (np.cumsum(new_group) - 1) * width + inner - start - 1
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


def gridpoint_values(model, grid, bm_values):
    """The Euler values Z_0..Z_K of every row of ``grid``, one lane at a time: (rows * (K + 1), n).

    In each uniform interval the time T_j and the Brownian increment W_j the
    row spends in regime j are summed over its segments in order, from 0.
    Then Z_{k+1} is Z_k plus f(Z_k, j) T_j and then g(Z_k, j) W_j for each
    regime j the row visits, in regime order. ``bm_values`` are the union
    grid's, which ``grid.union_index`` selects from.
    """
    n, d = model.state_dim, model.noise_dim
    out = []
    for lo, hi in zip(grid.offsets[:-1], grid.offsets[1:]):
        times, regimes = grid.events[lo:hi], grid.regimes[lo:hi]
        owners, bvals = grid.owner_interval[lo:hi], bm_values[grid.union_index[lo:hi]]
        z = np.broadcast_to(model.initial_value, (1, n))
        out.append(z[0])
        for k in range(owners[-1]):
            occupation, noise = {}, {}
            for i in np.flatnonzero(owners[:-1] == k):  # segment i is [times[i], times[i + 1])
                j = int(regimes[i])
                occupation[j] = occupation.get(j, 0.0) + (times[i + 1] - times[i])
                noise[j] = noise.get(j, np.zeros(d)) + (bvals[i + 1] - bvals[i])
            zk = z
            for j in sorted(occupation):
                f = np.broadcast_to(model.drift(zk, j), (1, n))
                g = np.broadcast_to(model.diffusion(zk, j), (1, n, d))
                z = z + f * occupation[j]
                z = z + (g @ noise[j][None, :, None])[..., 0]
            out.append(z[0])
    return np.array(out)


def closed_class_count(rates):
    """Number of closed communicating classes of the jump structure, by reachability."""
    n = rates.shape[0]
    adj = rates > 0.0
    np.fill_diagonal(adj, True)
    reach = adj.copy()
    for _ in range(max(1, int(np.ceil(np.log2(n)))) + 1):
        reach = reach | (reach.astype(np.int64) @ reach.astype(np.int64) > 0)
    comm = reach & reach.T
    seen = np.zeros(n, dtype=bool)
    closed = 0
    for i in range(n):
        if seen[i]:
            continue
        members = comm[i]
        seen |= members
        # closed iff nothing reachable from the class lies outside it
        if not np.any(reach[members] & ~members):
            closed += 1
    return closed


def generator_checks(rates):
    """The normalized rates, or the error of the first bad row: a negative entry before the sum."""
    mat = np.array(rates, dtype=np.float64)
    for i in range(mat.shape[0]):
        for j in range(mat.shape[0]):
            if i != j and mat[i, j] < 0.0:
                return NegativeOffDiagonalError(i + 1, j + 1, mat[i, j])
        row_sum = mat[i].sum()
        if abs(row_sum) > s.ctmc.ROW_SUM_TOL * max(1.0, np.abs(mat[i]).max()):
            return RowSumViolationError(i + 1, row_sum)
        mat[i, i] = 0.0
        mat[i, i] = -mat[i].sum()
    return mat


def _box_points(box, n, count, rng):
    lo = np.broadcast_to(np.asarray(box[0], dtype=np.float64), (n,))
    hi = np.broadcast_to(np.asarray(box[1], dtype=np.float64), (n,))
    return lo + (hi - lo) * rng.random((count, n))


def lipschitz_probe(model, box, samples, rng):
    """`switchsde.lipschitz_probe` one pair of points and one regime at a time."""
    pts = _box_points(box, model.state_dim, 2 * samples, rng)
    best = 0.0
    for k in range(samples):
        z, zbar = pts[2 * k], pts[2 * k + 1]
        gap = float(np.linalg.norm(z - zbar))
        if gap == 0.0:
            continue
        for i in range(1, model.regime_count + 1):
            df = np.linalg.norm(s.drift_eval(model, z, i) - s.drift_eval(model, zbar, i))
            dg = np.linalg.norm(s.diffusion_eval(model, z, i) - s.diffusion_eval(model, zbar, i))
            best = max(best, max(df, dg) / gap)
    return best


def growth_probe(model, box, samples, rng):
    """`switchsde.growth_probe` one point and one regime at a time."""
    best = 0.0
    for z in _box_points(box, model.state_dim, samples, rng):
        denom = 1.0 + float(np.linalg.norm(z))
        for i in range(1, model.regime_count + 1):
            nf = np.linalg.norm(s.drift_eval(model, z, i))
            ng = np.linalg.norm(s.diffusion_eval(model, z, i))
            best = max(best, max(nf, ng) / denom)
    return best
