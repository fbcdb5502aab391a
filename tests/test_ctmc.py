"""Tests for the chain machinery: generators, transition matrices, paths.

The chunked path simulator is checked against the per-switch loop it
replaced, kept here as the oracle: paths must agree bit for bit, and the
random stream must end in the same state.
"""

import io
import json
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
import scipy.stats
from hypothesis import given
from hypothesis import strategies as st

import switchsde as s
import switchsde.ctmc as ctmc
from switchsde.errors import (
    InvalidRegimeError,
    JumpBudgetError,
    NegativeOffDiagonalError,
    NonSquareError,
    OutOfHorizonError,
    ReducibleError,
    RowSumViolationError,
)

TWO_STATE = [[-1.0, 1.0], [2.0, -2.0]]


@pytest.fixture
def gen():
    return s.validate_generator(TWO_STATE)


def two_state_transition(t):
    """Closed form for the [[-1,1],[2,-2]] generator: eigenvalues 0 and -3."""
    e = np.exp(-3.0 * t)
    return np.array(
        [
            [(2.0 + e) / 3.0, (1.0 - e) / 3.0],
            [(2.0 - 2.0 * e) / 3.0, (1.0 + 2.0 * e) / 3.0],
        ]
    )


# --- validate_generator -------------------------------------------------------


def test_validate_single_absorbing_state():
    g = s.validate_generator([[0.0]])
    assert g.n_states == 1
    assert g.rates[0, 0] == 0.0


def test_validate_two_state(gen):
    assert gen.n_states == 2
    assert np.array_equal(gen.rates, np.array(TWO_STATE))
    assert gen.rates.sum(axis=1).tolist() == [0.0, 0.0]


def test_validate_rejects_negative_off_diagonal():
    with pytest.raises(NegativeOffDiagonalError) as err:
        s.validate_generator([[-1.0, -1.0], [2.0, -2.0]])
    assert (err.value.i, err.value.j) == (1, 2)


def test_validate_rejects_nonsquare():
    with pytest.raises(NonSquareError):
        s.validate_generator([[-1.0, 1.0]])


def test_validate_rejects_bad_row_sum():
    with pytest.raises(RowSumViolationError):
        s.validate_generator([[-1.0, 2.0], [2.0, -2.0]])


def test_validate_normalizes_tiny_row_sums():
    g = s.validate_generator([[-1.0 + 1e-14, 1.0], [2.0, -2.0]])
    assert g.rates[0].sum() == 0.0


def test_generator_json_roundtrip(gen):
    doc = json.dumps({"states": 2, "rates": TWO_STATE})
    g = s.generator_from_json(doc)
    assert np.array_equal(g.rates, gen.rates)
    with pytest.raises(NonSquareError):
        s.generator_from_json({"states": 3, "rates": TWO_STATE})


# --- matrix_exponential ---------------------------------------------------------


def test_matrix_exponential_at_zero_is_identity(gen):
    assert np.array_equal(s.matrix_exponential(gen, 0.0).probs, np.eye(2))


def test_matrix_exponential_symmetric_closed_form():
    g = s.validate_generator([[-1.0, 1.0], [1.0, -1.0]])
    p = s.matrix_exponential(g, np.log(2.0) / 2.0).probs
    # P_11(t) = (1 + exp(-2t)) / 2 gives exactly 3/4 here
    assert np.abs(p - [[0.75, 0.25], [0.25, 0.75]]).max() < 1e-12


def test_matrix_exponential_two_state_closed_form(gen):
    for t in (0.1, 1.0):
        assert np.abs(s.matrix_exponential(gen, t).probs - two_state_transition(t)).max() < 1e-12


def test_matrix_exponential_long_time_reaches_stationary(gen):
    p = s.matrix_exponential(gen, 10.0).probs
    assert np.abs(p - [2.0 / 3.0, 1.0 / 3.0]).max() < 1e-6


def test_matrix_exponential_matches_scipy_on_random_generators():
    rng = np.random.default_rng(0)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        rates = rng.uniform(0.0, 3.0, (n, n))
        np.fill_diagonal(rates, 0.0)
        mat = rates.copy()
        np.fill_diagonal(mat, -rates.sum(axis=1))
        g = s.validate_generator(mat)
        t = float(rng.uniform(0.0, 5.0))
        ours = s.matrix_exponential(g, t).probs
        reference = scipy.linalg.expm(g.rates * t)
        assert np.abs(ours - reference).max() < 1e-12


def test_matrix_exponential_rows_are_stochastic(gen):
    for t in (1e-6, 0.1, 1.0, 25.0):
        p = s.matrix_exponential(gen, t).probs
        assert p.min() >= 0.0 and p.max() <= 1.0
        assert np.abs(p.sum(axis=1) - 1.0).max() <= 1e-12


def test_semigroup_property(gen):
    rng = np.random.default_rng(42)
    for _ in range(50):
        u, v = rng.uniform(0.0, 1.0, 2)
        lhs = s.matrix_exponential(gen, u).probs @ s.matrix_exponential(gen, v).probs
        rhs = s.matrix_exponential(gen, u + v).probs
        assert np.abs(lhs - rhs).max() < 1e-10


# --- stationary_distribution ----------------------------------------------------


def test_stationary_symmetric():
    g = s.validate_generator([[-1.0, 1.0], [1.0, -1.0]])
    assert np.abs(s.stationary_distribution(g) - 0.5).max() < 1e-12


def test_stationary_two_thirds(gen):
    pi = s.stationary_distribution(gen)
    assert np.abs(pi - [2.0 / 3.0, 1.0 / 3.0]).max() < 1e-12


def test_stationary_single_state():
    assert s.stationary_distribution(s.validate_generator([[0.0]])).tolist() == [1.0]


def test_stationary_rejects_reducible():
    with pytest.raises(ReducibleError):
        s.stationary_distribution(s.validate_generator([[0.0, 0.0], [0.0, 0.0]]))
    block = [
        [-1.0, 1.0, 0.0, 0.0],
        [1.0, -1.0, 0.0, 0.0],
        [0.0, 0.0, -2.0, 2.0],
        [0.0, 0.0, 2.0, -2.0],
    ]
    with pytest.raises(ReducibleError):
        s.stationary_distribution(s.validate_generator(block))


def test_stationary_transient_state_allowed():
    g = s.validate_generator([[-1.0, 1.0], [0.0, 0.0]])
    assert np.abs(s.stationary_distribution(g) - [0.0, 1.0]).max() < 1e-12


# --- simulate_exact_path ---------------------------------------------------------


def test_absorbing_state_never_switches():
    g = s.validate_generator([[0.0]])
    path = s.simulate_exact_path(g, 1, 5.0, np.random.default_rng(0))
    assert path.n_segments == 1
    assert path.switch_times.tolist() == [0.0]
    assert path.states.tolist() == [1]


def test_two_state_paths_alternate(gen):
    rng = np.random.default_rng(3)
    for _ in range(20):
        path = s.simulate_exact_path(gen, 1, 10.0, rng)
        assert np.all(path.states[:-1] != path.states[1:])
        assert path.states[0] == 1
        assert np.all(np.diff(path.switch_times) > 0.0)
        assert path.switch_times[-1] < 10.0


def test_holding_time_mean_matches_exponential(gen):
    rng = np.random.default_rng(11)
    holds = []
    for _ in range(100):
        path = s.simulate_exact_path(gen, 1, 100.0, rng)
        durations = path.holding_times()
        holds.extend(durations[path.states[:-1] == 1])
    holds = np.array(holds)
    # state 1 exit rate is 1, so holds are Exp(1) with mean and sd both 1
    assert len(holds) > 3000
    assert abs(holds.mean() - 1.0) < 3.0 * holds.std(ddof=1) / np.sqrt(len(holds))


def test_holding_times_pass_ks(gen):
    rng = np.random.default_rng(7)
    path = s.simulate_exact_path(gen, 1, 7500.0, rng)
    holds = path.holding_times()
    for state, rate in ((1, 1.0), (2, 2.0)):
        sample = holds[path.states[:-1] == state]
        assert len(sample) >= 10**4 // 3
        _, pvalue = scipy.stats.kstest(sample, "expon", args=(0.0, 1.0 / rate))
        assert pvalue >= 0.01


def test_jump_budget(gen):
    with pytest.raises(JumpBudgetError):
        s.simulate_exact_path(gen, 1, 10_000.0, np.random.default_rng(0), max_switches=100)


def test_path_determinism(gen):
    a = s.simulate_exact_path(gen, 1, 50.0, np.random.default_rng(123))
    b = s.simulate_exact_path(gen, 1, 50.0, np.random.default_rng(123))
    assert np.array_equal(a.switch_times, b.switch_times)
    assert np.array_equal(a.states, b.states)


def test_initial_state_validated(gen):
    with pytest.raises(InvalidRegimeError):
        s.simulate_exact_path(gen, 3, 1.0, np.random.default_rng(0))


# --- chunked simulation against the per-switch loop --------------------------------


def loop_path(gen, initial, horizon, rng, max_switches=10**6):
    """The per-switch loop: one hold draw, then one jump draw, per switch."""
    n = gen.n_states
    candidates, thresholds = [], []
    for i in range(n):
        exit_rate = -gen.rates[i, i]
        cand = np.array([j for j in range(n) if j != i and gen.rates[i, j] > 0.0],
                        dtype=np.int64)
        candidates.append(cand + 1)
        thresholds.append(np.cumsum(gen.rates[i, cand]) / exit_rate if exit_rate > 0.0
                          else np.empty(0))
    times, states = [0.0], [int(initial)]
    t, state = 0.0, int(initial)
    while True:
        gii = gen.rates[state - 1, state - 1]
        if gii == 0.0:
            break
        tau = 0.0
        while tau <= 0.0:  # u = 0 would yield a zero hold; redraw
            tau = np.log1p(-rng.random()) / gii
        t = t + tau
        if t >= horizon:
            break
        if len(times) - 1 >= max_switches:
            raise JumpBudgetError(f"more than {max_switches} switches before t={horizon}")
        cum = thresholds[state - 1]
        k = min(int(np.searchsorted(cum, rng.random(), side="right")), len(cum) - 1)
        state = int(candidates[state - 1][k])
        times.append(t)
        states.append(state)
    return s.ChainPath(horizon=float(horizon), switch_times=np.array(times),
                       states=np.array(states, dtype=np.int64))


PCG64_MULTIPLIER = (2549297995355413924 << 64) + 4865540595714422341


def stream_with_draw(seed, position, largest=False):
    """A PCG64 stream whose uniform number ``position`` (from 0) is exactly 0.0,
    or the largest double below 1 when ``largest`` is set.

    PCG64 steps its 128-bit state s to s * multiplier + inc, then outputs
    the rotated xor of the high and low halves: 0 when the halves are equal,
    all ones when they are complements. Stepping back from such a state
    gives the start state.
    """
    rng = np.random.default_rng(seed)
    state = rng.bit_generator.state
    inc, inverse = state["state"]["inc"], pow(PCG64_MULTIPLIER, -1, 1 << 128)
    high = 12345
    target = (high << 64) | (high ^ (2**64 - 1) if largest else high)
    for _ in range(position + 1):
        target = (target - inc) * inverse % (1 << 128)
    state["state"]["state"] = target
    rng.bit_generator.state = state
    return rng


def test_rounding_residue_lands_on_last_state():
    # with 12 states the cumulative jump fractions of state 1 end below 1, and
    # a jump uniform above that falls to the last positive-rate state
    rates = np.ones((12, 12))
    rates[0, 1:] = [0.3, 0.1, 1.1, 1.1, 0.1, 0.3, 1.1, 0.7, 0.3, 1.1, 1.1]
    np.fill_diagonal(rates, 0.0)
    np.fill_diagonal(rates, -rates.sum(axis=1))
    gen = s.validate_generator(rates)
    assert gen.jump_tables[0][0][-1] < 1 - 2**-53
    assert stream_with_draw(4, 1, largest=True).random(2)[1] == 1 - 2**-53
    expected_rng = stream_with_draw(4, 1, largest=True)
    rng = stream_with_draw(4, 1, largest=True)
    expected = loop_path(gen, 1, 100.0, expected_rng)
    path = s.simulate_exact_path(gen, 1, 100.0, rng)
    assert expected.states[1] == path.states[1] == 12
    assert path.switch_times.tobytes() == expected.switch_times.tobytes()
    assert path.states.tolist() == expected.states.tolist()
    assert rng.random() == expected_rng.random()


@st.composite
def chain_generators(draw):
    """Generators with N <= 4 states, rates 1e-2..1e3, sometimes an absorbing state."""
    n = draw(st.integers(1, 4))
    rates = np.array([[draw(st.sampled_from([0.0, 0.01, 0.3, 1.0, 7.0, 60.0, 1000.0]))
                       for _ in range(n)] for _ in range(n)])
    np.fill_diagonal(rates, 0.0)
    if n > 1 and draw(st.booleans()):
        rates[draw(st.integers(0, n - 1))] = 0.0
    np.fill_diagonal(rates, -rates.sum(axis=1))
    return s.validate_generator(rates)


@given(st.data())
def test_chunked_simulation_matches_loop(data):
    gen = data.draw(chain_generators())
    initial = data.draw(st.integers(1, gen.n_states))
    horizon = data.draw(st.sampled_from([0.05, 1.0, 3.7, 40.0]))
    cap = data.draw(st.sampled_from([1, 2, 5, ctmc.CHUNK_PAIRS]))
    seed = data.draw(st.integers(0, 2**32))
    zero = data.draw(st.none() | st.integers(0, 12))

    def stream():
        return np.random.default_rng(seed) if zero is None else stream_with_draw(seed, zero)

    expected_rng, rng = stream(), stream()
    expected = loop_path(gen, initial, horizon, expected_rng)
    with mock.patch.object(ctmc, "CHUNK_PAIRS", cap):
        path = s.simulate_exact_path(gen, initial, horizon, rng)
    assert path.switch_times.tobytes() == expected.switch_times.tobytes()
    assert path.states.tolist() == expected.states.tolist()
    assert rng.random() == expected_rng.random()
    assert rng.standard_normal(3).tolist() == expected_rng.standard_normal(3).tolist()


def test_zero_hold_is_redrawn():
    # the first uniform is the first hold: it is 0 and must be skipped
    gen = s.validate_generator(TWO_STATE)
    assert stream_with_draw(8, 0).random() == 0.0
    for cap in (1, ctmc.CHUNK_PAIRS):
        expected_rng, rng = stream_with_draw(8, 0), stream_with_draw(8, 0)
        expected = loop_path(gen, 1, 2.0, expected_rng)
        with mock.patch.object(ctmc, "CHUNK_PAIRS", cap):
            path = s.simulate_exact_path(gen, 1, 2.0, rng)
        assert path.switch_times.tobytes() == expected.switch_times.tobytes()
        assert path.switch_times[1] > 0.0
        assert rng.random() == expected_rng.random()


def test_jump_budget_boundary():
    fast = s.validate_generator([[-500.0, 300.0, 200.0], [400.0, -600.0, 200.0],
                                 [250.0, 250.0, -500.0]])
    for seed in range(3):
        k = loop_path(fast, 1, 1.0, np.random.default_rng(seed)).n_segments - 1
        for cap in (1, 7, ctmc.CHUNK_PAIRS):
            with mock.patch.object(ctmc, "CHUNK_PAIRS", cap):
                path = s.simulate_exact_path(fast, 1, 1.0, np.random.default_rng(seed),
                                             max_switches=k)
                assert path.n_segments - 1 == k
                with pytest.raises(JumpBudgetError):
                    s.simulate_exact_path(fast, 1, 1.0, np.random.default_rng(seed),
                                          max_switches=k - 1)


class Scripted:
    """A generator whose uniforms repeat a fixed script."""

    def __init__(self, script):
        self.bit_generator = np.random.default_rng(0).bit_generator  # saved and restored
        self.script = np.array(script)

    def random(self, size):
        return np.resize(self.script, size)


def test_simulated_path_checks_that_every_hold_moves_t():
    gen = s.validate_generator([[-2.0, 2.0], [2.0, -2.0]])
    # the first hold ends near 1.15, where a hold of 2^-54 is below half an ulp
    with pytest.raises(ValueError, match="strictly increasing"):
        s.simulate_exact_path(gen, 1, 10.0, Scripted([0.9, 0.5, 2.0**-53, 0.5]))
    path = s.simulate_exact_path(gen, 1, 10.0, Scripted([0.9, 0.5]))
    assert np.all(np.diff(path.switch_times) > 0.0)
    assert not path.switch_times.flags.writeable and not path.states.flags.writeable


# --- state_at / skeleton ---------------------------------------------------------


def single_switch_path():
    return s.ChainPath(
        horizon=1.0,
        switch_times=np.array([0.0, 0.5]),
        states=np.array([1, 2]),
    )


def test_state_at_is_right_continuous():
    path = single_switch_path()
    assert s.state_at(path, 0.5) == 2
    assert s.state_at(path, 0.499999) == 1
    assert s.state_at(path, 0.0) == 1
    assert s.state_at(path, 1.0) == 2


def test_state_at_rejects_out_of_horizon():
    path = single_switch_path()
    with pytest.raises(OutOfHorizonError):
        s.state_at(path, -0.1)
    with pytest.raises(OutOfHorizonError):
        s.state_at(path, 1.1)


def test_state_at_constant_path():
    path = s.ChainPath(horizon=2.0, switch_times=np.array([0.0]), states=np.array([3]))
    for t in (0.0, 0.7, 2.0):
        assert s.state_at(path, t) == 3


def test_skeleton_constant_path():
    path = s.ChainPath(horizon=1.0, switch_times=np.array([0.0]), states=np.array([2]))
    assert s.skeleton_from_path(path, 0.25).tolist() == [2, 2, 2, 2, 2]


def test_skeleton_reads_off_switch():
    path = s.ChainPath(
        horizon=1.0, switch_times=np.array([0.0, 0.3]), states=np.array([1, 2])
    )
    assert s.skeleton_from_path(path, 0.25).tolist() == [1, 1, 2, 2, 2]


def test_skeleton_misses_short_excursion():
    path = s.ChainPath(
        horizon=1.0,
        switch_times=np.array([0.0, 0.1, 0.2]),
        states=np.array([1, 2, 1]),
    )
    assert s.skeleton_from_path(path, 0.25).tolist() == [1, 1, 1, 1, 1]


def test_skeleton_matches_state_at(gen):
    rng = np.random.default_rng(9)
    for _ in range(20):
        path = s.simulate_exact_path(gen, 1, 3.0, rng)
        step = float(rng.uniform(0.05, 0.5))
        skel = s.skeleton_from_path(path, step)
        for k, state in enumerate(skel):
            assert state == s.state_at(path, min(k * step, path.horizon))


# --- CSV export -------------------------------------------------------------------


def test_chain_csv_rows():
    path = single_switch_path()
    buf = io.StringIO()
    path.to_csv(buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "time,state"
    assert lines[1] == "0,1"
    assert lines[2] == "0.5,2"
    assert lines[3] == "1,2"
