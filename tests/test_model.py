"""Tests for hybrid model coefficients and assumption probes."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
import switchsde as s
from switchsde.errors import (
    ConfigError,
    DimensionMismatchError,
    InvalidRegimeError,
    NonFiniteError,
)


@pytest.fixture
def linear():
    return s.LinearHybridModel(a=[1.0, 2.0], b=[2.0, 1.0], z0=1.0)


def test_drift_eval_linear(linear):
    model = s.LinearHybridModel(a=[1.0, 2.0], b=[2.0, 1.0], z0=1.0)
    assert s.drift_eval(model, 3.0, 2).tolist() == [6.0]
    assert s.drift_eval(model, 0.0, 1).tolist() == [0.0]


def test_diffusion_eval_linear():
    model = s.LinearHybridModel(a=[1.0, 2.0], b=[2.0, 1.0], z0=1.0)
    assert s.diffusion_eval(model, 3.0, 1).tolist() == [[6.0]]
    assert s.diffusion_eval(model, 0.0, 2).tolist() == [[0.0]]


def test_regime_out_of_range(linear):
    with pytest.raises(InvalidRegimeError):
        s.drift_eval(linear, 1.0, 3)
    with pytest.raises(InvalidRegimeError):
        s.diffusion_eval(linear, 1.0, 0)


def test_nonfinite_coefficient_detected():
    model = s.HybridModel(
        state_dim=1, noise_dim=1, regime_count=1,
        drift=lambda z, i: np.array([np.inf]),
        diffusion=lambda z, i: np.array([[0.0]]),
        initial_value=[1.0],
    )
    with pytest.raises(NonFiniteError):
        s.drift_eval(model, 1.0, 1)


def test_dimension_mismatch_detected():
    model = s.HybridModel(
        state_dim=2, noise_dim=1, regime_count=1,
        drift=lambda z, i: np.zeros(3),
        diffusion=lambda z, i: np.zeros((2, 1)),
        initial_value=[1.0, 1.0],
    )
    with pytest.raises(DimensionMismatchError):
        s.drift_eval(model, np.zeros(2), 1)


@pytest.mark.parametrize("name", ["state_dim", "noise_dim", "regime_count"])
@pytest.mark.parametrize("value", [0, -1])
def test_a_dimension_below_one_is_rejected(name, value):
    """A zero noise dimension would run the model as an ODE and a zero state
    dimension would fail deep in the kernel; both stop at the model."""
    dims = {"state_dim": 1, "noise_dim": 1, "regime_count": 1, name: value}
    with pytest.raises(DimensionMismatchError, match=f"{name} must be at least 1"):
        s.HybridModel(**dims, drift=lambda z, i: 0.0, diffusion=lambda z, i: 0.0,
                      initial_value=np.zeros(max(dims["state_dim"], 0)))


def test_linear_model_requires_positive_start():
    with pytest.raises(ConfigError):
        s.LinearHybridModel(a=[1.0], b=[1.0], z0=-1.0)


def test_model_from_config_linear_and_trig():
    linear = s.model_from_config({"model": "linear", "a": [1, 2], "b": [2, 1], "z0": 1.0})
    assert isinstance(linear, s.LinearHybridModel)
    assert linear.has_closed_form()
    trig = s.model_from_config(
        {"model": "trig", "a": [1, 2], "b": [0.5, 1], "c": [0.1, -0.1], "z0": 1.0}
    )
    assert isinstance(trig, s.TrigHybridModel)
    assert not trig.has_closed_form()
    with pytest.raises(ConfigError):
        s.model_from_config({"model": "cubic"})


def test_trig_coefficients():
    trig = s.TrigHybridModel(a=[2.0], b=[3.0], c=[0.5], z0=1.0)
    z = 0.7
    assert s.drift_eval(trig, z, 1)[0] == pytest.approx(2.0 * np.sin(z) + 0.5)
    assert s.diffusion_eval(trig, z, 1)[0, 0] == pytest.approx(3.0 * np.cos(z))


# --- probes ----------------------------------------------------------------------


def test_lipschitz_probe_linear_family(linear):
    est = s.lipschitz_probe(linear, box=(-10.0, 10.0), samples=2000,
                            rng=np.random.default_rng(0))
    # exact constant for this family is max(|a|, |b|) = 2
    assert est <= 2.0 + 1e-12
    assert est > 1.9


def test_lipschitz_probe_constant_model_is_zero():
    model = s.HybridModel(
        state_dim=1, noise_dim=1, regime_count=2,
        drift=lambda z, i: np.array([float(i)]),
        diffusion=lambda z, i: np.array([[2.0]]),
        initial_value=[0.0],
    )
    assert s.lipschitz_probe(model, samples=200, rng=np.random.default_rng(1)) == 0.0


def test_lipschitz_probe_running_max_in_samples(linear):
    small = s.lipschitz_probe(linear, samples=100, rng=np.random.default_rng(5))
    large = s.lipschitz_probe(linear, samples=400, rng=np.random.default_rng(5))
    assert large >= small


def test_growth_probe_linear(linear):
    est = s.growth_probe(linear, samples=2000, rng=np.random.default_rng(2))
    assert est <= 2.0 + 1e-12
    assert est > 1.5


def test_growth_probe_zero_model():
    zero = s.HybridModel(
        state_dim=1, noise_dim=1, regime_count=1,
        drift=lambda z, i: 0.0 * z,
        diffusion=lambda z, i: (0.0 * z)[..., None],
        initial_value=[1.0],
    )
    assert s.growth_probe(zero, samples=100, rng=np.random.default_rng(3)) == 0.0


def test_growth_probe_flags_superlinear_model():
    quad = s.HybridModel(
        state_dim=1, noise_dim=1, regime_count=1,
        drift=lambda z, i: z * z,
        diffusion=lambda z, i: (0.0 * z)[..., None],
        initial_value=[1.0],
    )
    est = s.growth_probe(quad, box=(-10.0, 10.0), samples=3000,
                         rng=np.random.default_rng(4))
    assert est > 5.0  # far above the scale of any Lipschitz model on this box


def vector_model():
    """An n = d = 2 model whose coefficients are BLAS products, like perfbench's vector-fine."""
    a = np.array([[[-1.0, 0.5], [0.25, -2.0]], [[0.5, 0.0], [-1.0, 1.5]]])
    sig = np.array([[[0.3, 0.1], [0.0, 0.4]], [[0.2, -0.1], [0.5, 0.3]]])
    return s.HybridModel(state_dim=2, noise_dim=2, regime_count=2,
                         drift=lambda z, i: z @ a[i - 1].T,
                         diffusion=lambda z, i: z[..., :, None] * sig[i - 1],
                         initial_value=[1.0, 0.5])


PROBE_MODELS = {
    "linear": lambda: s.LinearHybridModel(a=[1.0, 2.0, -0.5], b=[2.0, 1.0, 0.5], z0=1.0),
    "trig": lambda: s.TrigHybridModel(a=[1.0, 2.0], b=[0.5, 1.0], c=[0.1, -0.1], z0=1.0),
    "vector": vector_model,
}


@pytest.mark.parametrize("name", PROBE_MODELS)
@pytest.mark.parametrize("probe", ["lipschitz_probe", "growth_probe"])
def test_probe_is_one_call_per_coefficient_and_regime_and_matches_the_per_point_loop(
        probe, name):
    model = PROBE_MODELS[name]()
    calls = []
    for attr in ("drift", "diffusion"):
        fn = getattr(model, attr)
        setattr(model, attr, lambda z, i, fn=fn: calls.append(len(z)) or fn(z, i))
    got = getattr(s, probe)(model, samples=300, rng=np.random.default_rng(6))
    assert len(calls) == 2 * model.regime_count
    want = getattr(oracles, probe)(model, (-10.0, 10.0), 300, np.random.default_rng(6))
    if name == "vector":  # a BLAS product may round a row differently in a bigger batch
        assert got == pytest.approx(want, rel=1e-12)
    else:
        assert got == want


def test_evaluation_is_pure(linear):
    z = np.array([1.7])
    first = s.drift_eval(linear, z, 2)
    second = s.drift_eval(linear, z, 2)
    assert np.array_equal(first, second)


# ±0.0, the smallest and largest subnormals, the smallest normal, and large finite states
EDGE_STATES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
               1e300, -1e300, 1.7976931348623157e308, -1.7976931348623157e308]
finite = st.floats(allow_nan=False, allow_infinity=False)


@given(st.data())
def test_the_shipped_fill_is_the_per_regime_calls_bit_for_bit(data):
    """A shipped model's one-call fill writes every regime's rows with the
    bits of ``drift(Z, i)`` and ``diffusion(Z, i)`` called with each int i."""
    n_states = data.draw(st.integers(1, 5))
    kind = data.draw(st.sampled_from([s.LinearHybridModel, s.TrigHybridModel]))
    coefficients = [data.draw(st.lists(finite, min_size=n_states, max_size=n_states))
                    for _ in range(2 if kind is s.LinearHybridModel else 3)]
    model = kind(*coefficients)
    states = data.draw(st.lists(st.one_of(st.sampled_from(EDGE_STATES), finite),
                                min_size=1, max_size=8))
    Z = np.array(states)[:, None]
    drift_rows = np.full((n_states, len(Z), 1), np.nan)
    diffusion_rows = np.full((n_states, len(Z), 1, 1), np.nan)
    with np.errstate(all="ignore"):  # a large coefficient times a large state overflows alike
        model.fill_coefficients(Z, range(n_states), drift_rows, diffusion_rows)
        f = [np.broadcast_to(model.drift(Z, i), Z.shape) for i in range(1, n_states + 1)]
        g = [model.diffusion(Z, i) for i in range(1, n_states + 1)]
    assert drift_rows.tobytes() == np.stack(f).tobytes()
    assert diffusion_rows.tobytes() == np.stack(g).tobytes()
