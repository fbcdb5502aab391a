"""Tests for the chain machinery: generators, transition matrices, paths."""

import io
import json

import numpy as np
import pytest
import scipy.linalg
import scipy.stats

import switchsde as s
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
