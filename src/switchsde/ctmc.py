"""Finite-state continuous-time Markov chain machinery.

States are labeled 1..N throughout the public API. A chain is described by
its generator matrix (off-diagonal entries are switching rates, rows sum to
zero). The module provides generator validation, transition matrices via the
matrix exponential, exact path simulation with exponential holding times,
and skeleton extraction on uniform grids.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._timeutil import num_whole_steps, time_tolerance
from .brownian import write_csv
from .errors import (
    ConfigError,
    InvalidRegimeError,
    JumpBudgetError,
    NegativeOffDiagonalError,
    NonSquareError,
    OutOfHorizonError,
    ReducibleError,
    RowSumViolationError,
    setting,
)

ROW_SUM_TOL = 1e-12

#: Most (hold, jump) uniform pairs that simulate_exact_path draws at once.
CHUNK_PAIRS = 4096


@dataclass(frozen=True)
class GeneratorMatrix:
    """Validated CTMC generator: nonnegative off-diagonals, zero row sums."""

    n_states: int
    rates: np.ndarray

    def __post_init__(self):
        self.rates.setflags(write=False)

    def exit_rate(self, i: int) -> float:
        """Rate of leaving state i (nonnegative; 0 for an absorbing state)."""
        return -float(self.rates[i - 1, i - 1])

    @cached_property
    def jump_tables(self) -> tuple:
        """Per state i (0-based): the cumulative jump probabilities to the
        states i can jump to, and those states with the last one repeated.

        ``landing[searchsorted(thresholds, u, side="right")]`` is then the
        state a uniform u selects, the last positive-rate state taking any
        rounding residue. An absorbing state has no thresholds and lands on
        itself.
        """
        thresholds, landing = [], []
        for i, row in enumerate(self.rates):
            cand = np.flatnonzero(row > 0.0)
            thresholds.append(np.cumsum(row[cand]) / -row[i])
            landing.append(np.append(cand, cand[-1]) if len(cand) else np.array([i]))
        return thresholds, landing


@dataclass(frozen=True)
class TransitionMatrix:
    """One-step transition probabilities over a time step."""

    step: float
    probs: np.ndarray

    def __post_init__(self):
        probs = self.probs
        if np.any(probs < 0.0) or np.any(probs > 1.0):
            raise ValueError("transition probabilities must lie in [0, 1]")
        if np.max(np.abs(probs.sum(axis=1) - 1.0)) > ROW_SUM_TOL:
            raise ValueError("transition matrix rows must sum to 1")
        probs.setflags(write=False)


@dataclass(frozen=True)
class ChainPath:
    """One right-continuous sample path of the chain on [0, T].

    ``switch_times`` starts at 0 and lists the instants at which the recorded
    state changes; ``states[k]`` holds on [switch_times[k], switch_times[k+1])
    and the final state holds up to and including T.
    """

    horizon: float
    switch_times: np.ndarray
    states: np.ndarray

    def __post_init__(self):
        times, states = self.switch_times, self.states
        if len(times) != len(states) or len(times) == 0:
            raise ValueError("switch_times and states must have equal, nonzero length")
        if times[0] != 0.0:
            raise ValueError("first switch time must be 0")
        if (times[1:] <= times[:-1]).any():
            raise ValueError("switch times must be strictly increasing")
        if times[-1] >= self.horizon:
            raise ValueError("interior switch times must lie strictly before T")
        if (states[1:] == states[:-1]).any():
            raise ValueError("consecutive states must differ")
        times.setflags(write=False)
        states.setflags(write=False)

    @property
    def n_segments(self) -> int:
        """Number of constant stretches of the path."""
        return len(self.states)

    def holding_times(self) -> np.ndarray:
        """Durations of the completed stretches (the final one is censored at T)."""
        return np.diff(self.switch_times)

    def to_csv(self, fileobj) -> None:
        """Write `time,state` rows plus a terminal (T, last state) row."""
        write_csv(fileobj, ["time", "state"], [*zip(self.switch_times, self.states.tolist()),
                                               (self.horizon, int(self.states[-1]))])


def validate_generator(rates) -> GeneratorMatrix:
    """Check generator structure and normalize the diagonal exactly.

    ``rates`` (rows or an array) must be a finite square matrix whose
    off-diagonals are nonnegative and whose rows sum to zero within 1e-12;
    the diagonal is then recomputed as minus the off-diagonal row sum so
    downstream arithmetic sees exact zero row sums.
    """
    try:
        mat = np.array(rates, dtype=np.float64)
    except ValueError as exc:  # ragged rows, or an entry that is not a number
        raise NonSquareError(f"rate matrix must be a square matrix of numbers: {exc}") from None
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise NonSquareError(f"rate matrix must be square, got shape {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise ConfigError("rates must be finite")
    n = mat.shape[0]
    negative = (mat < 0.0) & ~np.eye(n, dtype=bool)
    row_sums = mat.sum(axis=1)
    bad = negative.any(axis=1) | (
        np.abs(row_sums) > ROW_SUM_TOL * np.abs(mat).max(axis=1, initial=1.0))
    if bad.any():  # the first bad row, its negative entry before its sum
        i = int(bad.argmax())
        if negative[i].any():
            j = int(negative[i].argmax())
            raise NegativeOffDiagonalError(i + 1, j + 1, mat[i, j])
        raise RowSumViolationError(i + 1, row_sums[i])
    np.fill_diagonal(mat, 0.0)
    np.fill_diagonal(mat, -mat.sum(axis=1))
    return GeneratorMatrix(n_states=n, rates=mat)


def generator_from_json(source) -> GeneratorMatrix:
    """Read a generator from JSON ``{"states": N, "rates": [[...], ...]}``.

    ``source`` is the parsed object or a JSON string.
    """
    if isinstance(source, (str, bytes)):
        source = json.loads(source)
    if not isinstance(source, dict):
        raise ConfigError(f"generator must be a JSON object, got {type(source).__name__}")
    declared = setting(source, "states", int)
    gen = validate_generator(setting(source, "rates", [[float]]))
    if declared != gen.n_states:
        raise NonSquareError(
            f"declared {declared} states but rate matrix is {gen.n_states}x{gen.n_states}"
        )
    return gen


def matrix_exponential(gen: GeneratorMatrix, t: float) -> TransitionMatrix:
    """Transition matrix exp(rates * t), computed by ``scipy.linalg.expm``.

    Entries are clamped to [0, 1] and rows renormalized, so the result is a
    stochastic matrix even after rounding.
    """
    from scipy.linalg import expm  # only chain validation needs it

    if t < 0.0:
        raise ValueError("time must be nonnegative")
    p = np.clip(expm(gen.rates * t), 0.0, 1.0)
    p /= p.sum(axis=1, keepdims=True)
    return TransitionMatrix(step=t, probs=p)


def stationary_distribution(gen: GeneratorMatrix) -> np.ndarray:
    """Probability vector pi with pi @ rates = 0, by direct linear solve.

    Raises ReducibleError when the generator has more than one closed
    communicating class (no unique stationary law): a strongly connected
    component of the jump graph that no jump leaves.
    """
    from scipy.sparse.csgraph import connected_components  # only chain validation needs it

    count, labels = connected_components(gen.rates > 0.0, connection="strong")
    src, dst = np.nonzero(gen.rates > 0.0)
    if count - len(np.unique(labels[src[labels[src] != labels[dst]]])) > 1:
        raise ReducibleError("generator has multiple closed communicating classes")
    n = gen.n_states
    system = np.vstack([gen.rates.T, np.ones((1, n))])
    rhs = np.zeros(n + 1)
    rhs[-1] = 1.0
    pi, *_ = np.linalg.lstsq(system, rhs, rcond=None)
    pi = np.clip(pi, 0.0, None)
    return pi / pi.sum()


def simulate_exact_path(
    gen: GeneratorMatrix,
    initial: int,
    horizon: float,
    rng: np.random.Generator,
    max_switches: int = 10**6,
) -> ChainPath:
    """Simulate one exact chain path on [0, T].

    The hold in state i is log(1 - u) / rates[i, i] with u uniform on [0, 1)
    (an exponential with the state's exit rate); the landing state is chosen
    by comparing a second uniform draw against the cumulative rate fractions
    of the other states, the last positive-rate state absorbing residual
    rounding mass. Absorbing states (zero exit rate) hold forever, so the
    path is truncated at T. Exceeding ``max_switches`` raises
    JumpBudgetError and flags a pathological rate scale.

    Draw order: hold and jump uniforms alternate, starting with a hold, and
    a hold with u = 0 is redrawn. A path with k switches therefore takes
    2k+1 uniforms from ``rng`` (the last hold crosses T), or 2k when it ends
    in an absorbing state, plus one per redrawn hold; whatever the caller
    draws next, such as the Brownian path, starts right after them.
    The uniforms are drawn in chunks of (hold, jump) pairs; the generator
    is then rewound and advanced by exactly the count used.
    """
    if not horizon > 0.0:
        raise ConfigError(f"horizon must be positive, got {horizon}")
    if max_switches < 0:
        raise ConfigError(f"the switch budget must be non-negative, got {max_switches}")
    n = gen.n_states
    if not 1 <= initial <= n:
        raise InvalidRegimeError(f"initial state {initial} outside 1..{n}")

    diag = np.diagonal(gen.rates)
    thresholds, landing_states = gen.jump_tables
    absorbing = (diag == 0.0).tolist()
    top_rate = -float(diag.min())

    times = [np.zeros(1)]
    states = [initial - 1]
    t = 0.0
    state = initial - 1
    while not absorbing[state] and t < horizon:
        # enough pairs for the expected switches plus four standard deviations
        expected = (horizon - t) * top_rate
        pairs = int(max(1, min(CHUNK_PAIRS, max_switches - len(states) + 2,
                               expected + 4.0 * math.sqrt(expected) + 2.0)))
        saved = rng.bit_generator.state
        u = rng.random(2 * pairs)

        u_jump = u[1::2]
        landing = np.empty((n, pairs), dtype=np.int64)
        for i in range(n):
            landing[i] = landing_states[i][np.searchsorted(thresholds[i], u_jump, side="right")]
        # visited[j] is the state before pair j; the walk ends at an absorbing state
        visited = [state]
        for step_map in landing.T.tolist():
            if absorbing[state]:
                break
            state = step_map[state]
            visited.append(state)
        live = len(visited) - 1

        clock = np.empty(live + 1)
        clock[0] = t
        clock[1:] = np.log1p(-u[0:2 * live:2]) / diag[visited[:live]]
        zero_hold = clock[1:] <= 0.0  # u = 0 gives a zero hold, which is redrawn
        np.cumsum(clock, out=clock)
        stops = np.flatnonzero(zero_hold | (clock[1:] >= horizon))
        done = int(stops[0]) if len(stops) else live
        if len(states) - 1 + done > max_switches:
            raise JumpBudgetError(f"more than {max_switches} switches before t={horizon}")
        times.append(clock[1:done + 1])
        states.extend(visited[1:done + 1])
        state = visited[done]
        t = clock[min(done + 1, live)]

        # a stop at a hold (zero or crossing T) used that hold but not its jump
        used = 2 * done + (done < live)
        if used < 2 * pairs:
            rng.bit_generator.state = saved
            rng.random(used)

    return ChainPath(float(horizon), np.concatenate(times), np.array(states, dtype=np.int64) + 1)


def state_at(path: ChainPath, t: float) -> int:
    """Right-continuous state value at time t in [0, T]."""
    tol = time_tolerance(path.horizon)
    if t < -tol or t > path.horizon + tol:
        raise OutOfHorizonError(f"t={t} outside [0, {path.horizon}]")
    return int(states_at(path, t))


def states_at(path: ChainPath, times: np.ndarray) -> np.ndarray:
    """Vectorized right-continuous lookup for sorted or unsorted times."""
    idx = np.searchsorted(path.switch_times, times, side="right") - 1
    return path.states[np.maximum(idx, 0)]


def skeleton_from_path(path: ChainPath, step: float) -> np.ndarray:
    """States read off the exact path at 0, step, 2*step, ... up to T.

    This is how the classical scheme observes the chain; switches that occur
    strictly inside a step are invisible to the result.
    """
    if step <= 0.0:
        raise ValueError("step must be positive")
    n = num_whole_steps(path.horizon, step)
    query = np.minimum(np.arange(n + 1, dtype=np.float64) * step, path.horizon)
    return states_at(path, query)
