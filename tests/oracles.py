"""Per-path versions of the block builders in `switchsde.solvers`, kept as oracles.

The package builds the events of every scheme and the closed-form reference
for a whole block of samples at once, as index masks over the union grid.
These functions build the same things one chain path at a time, the way the
package did before: the refined grid by merging the step's gridpoints with
the path's switching times, the classical grid from the path's skeleton,
the closed form over the Brownian path's own grid, and the drift and
diffusion integrals of one solution. Each segment's regime is the chain
state at its midpoint.
"""

import numpy as np

import switchsde as s
from switchsde._timeutil import match_indices, time_tolerance, uniform_points
from switchsde.errors import RegimeNotConstantError


def segment_states(path, times):
    """The state on each [times[k], times[k+1]), read at its midpoint, then at the last time."""
    return s.states_at(path, np.append(0.5 * (times[:-1] + times[1:]), times[-1:]))


def refined_grid(path, step, horizon):
    """(events, regimes, owners) of the switch-adapted scheme on one path.

    A switch within tolerance of a gridpoint is dropped, and so is a switch
    within tolerance of the switch before it.
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


def piecewise_cumulants(sol, times):
    """Integrals over [0, t] of a solution's frozen drift and squared frozen diffusion."""
    events = sol.times
    dt_seg = np.diff(events)
    q_seg = np.einsum("ind,ind->i", sol.seg_diff, sol.seg_diff)
    cum_f = np.vstack([np.zeros((1, sol.state_dim)),
                       np.cumsum(sol.seg_drift * dt_seg[:, None], axis=0)])
    cum_q = np.concatenate([[0.0], np.cumsum(q_seg * dt_seg)])
    seg = np.clip(np.searchsorted(events, times, side="right") - 1, 0, len(events) - 2)
    off = times - events[seg]
    return cum_f[seg] + sol.seg_drift[seg] * off[:, None], cum_q[seg] + q_seg[seg] * off
