"""Hybrid diffusion models: state equation coefficients indexed by regime.

A model supplies the drift f(z, i) and diffusion g(z, i) of

    dz(t) = f(z(t), r(t)) dt + g(z(t), r(t)) dB(t)

where r(t) is a finite-state chain with states 1..N. Coefficient callables
must be pure and reentrant, and they are batch-first: the solvers call
``drift(Z, i)`` and ``diffusion(Z, i)`` positionally with a block of states
``Z`` of shape (B, n), and the results must broadcast to (B, n) and
(B, n, d). A constant such as a Python float broadcasts too.
`drift_eval`/`diffusion_eval` evaluate one state as a batch of one and
return the (n,) and (n, d) shapes.

Two families ship with the package: a per-regime linear model (which has a
conditional closed-form solution, used as the strong-error reference) and a
bounded trigonometric model for exercising the schemes where no closed form
exists.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    ConfigError,
    DimensionMismatchError,
    InvalidRegimeError,
    NonFiniteError,
)


class HybridModel:
    """A hybrid SDE model with regime-dependent coefficients.

    Parameters
    ----------
    state_dim, noise_dim, regime_count : int
        Dimensions n, d and the number of chain states N.
    drift : callable
        (Z, i) -> drift of each state in the block Z of shape (B, n),
        broadcastable to (B, n); i in 1..N.
    diffusion : callable
        (Z, i) -> diffusion of each state, broadcastable to (B, n, d).
    initial_value : array-like
        Starting point z0 (length n).
    initial_regime : int
        Starting chain state in 1..N.
    """

    def __init__(self, state_dim, noise_dim, regime_count, drift, diffusion,
                 initial_value, initial_regime=1):
        self.state_dim = int(state_dim)
        self.noise_dim = int(noise_dim)
        self.regime_count = int(regime_count)
        self.drift = drift
        self.diffusion = diffusion
        self.initial_value = np.atleast_1d(np.asarray(initial_value, dtype=np.float64))
        self.initial_regime = int(initial_regime)
        if self.initial_value.shape != (self.state_dim,):
            raise DimensionMismatchError(
                f"initial value has shape {self.initial_value.shape}, expected ({self.state_dim},)"
            )
        if not 1 <= self.initial_regime <= self.regime_count:
            raise InvalidRegimeError(
                f"initial regime {self.initial_regime} outside 1..{self.regime_count}"
            )

    def has_closed_form(self) -> bool:
        return False


class LinearHybridModel(HybridModel):
    """Scalar model with f(z, i) = a_i * z and g(z, i) = b_i * z.

    Globally Lipschitz with constant max_i(|a_i| or |b_i|) and zero
    coefficients at the origin. Admits a conditional closed-form solution
    given the chain path, which makes it the oracle model for strong-error
    measurements.
    """

    def __init__(self, a, b, z0=1.0, initial_regime=1):
        self.a = np.asarray(a, dtype=np.float64)
        self.b = np.asarray(b, dtype=np.float64)
        if self.a.shape != self.b.shape or self.a.ndim != 1:
            raise ConfigError("a and b must be 1-d arrays of equal length")
        if not np.isscalar(z0) and np.size(z0) != 1:
            raise ConfigError("z0 must be a scalar")
        if float(np.asarray(z0).ravel()[0]) <= 0.0:
            raise ConfigError("z0 must be positive")
        a_arr, b_arr = self.a, self.b
        super().__init__(
            state_dim=1,
            noise_dim=1,
            regime_count=len(a_arr),
            drift=lambda z, i: a_arr[i - 1] * z,
            diffusion=lambda z, i: (b_arr[i - 1] * z)[..., None],
            initial_value=[float(np.asarray(z0).ravel()[0])],
            initial_regime=initial_regime,
        )

    def has_closed_form(self) -> bool:
        return True


class TrigHybridModel(HybridModel):
    """Scalar model with f(z, i) = a_i * sin(z) + c_i and g(z, i) = b_i * cos(z).

    Globally Lipschitz with bounded coefficients; exists to stress the
    schemes on a genuinely nonlinear problem (no closed form).
    """

    def __init__(self, a, b, c, z0=1.0, initial_regime=1):
        self.a = np.asarray(a, dtype=np.float64)
        self.b = np.asarray(b, dtype=np.float64)
        self.c = np.asarray(c, dtype=np.float64)
        if not (self.a.shape == self.b.shape == self.c.shape) or self.a.ndim != 1:
            raise ConfigError("a, b, c must be 1-d arrays of equal length")
        a_arr, b_arr, c_arr = self.a, self.b, self.c
        super().__init__(
            state_dim=1,
            noise_dim=1,
            regime_count=len(a_arr),
            drift=lambda z, i: a_arr[i - 1] * np.sin(z) + c_arr[i - 1],
            diffusion=lambda z, i: (b_arr[i - 1] * np.cos(z))[..., None],
            initial_value=[float(z0)],
            initial_regime=initial_regime,
        )


def model_from_config(cfg: dict, initial_regime: int = 1) -> HybridModel:
    """Build a shipped model from its JSON description.

    Supported forms:
      {"model": "linear", "a": [...], "b": [...], "z0": ...}
      {"model": "trig", "a": [...], "b": [...], "c": [...], "z0": ...}
    """
    try:
        kind = cfg["model"]
    except (KeyError, TypeError):
        raise ConfigError("model config needs a 'model' key") from None
    try:
        if kind == "linear":
            return LinearHybridModel(
                a=cfg["a"], b=cfg["b"], z0=cfg.get("z0", 1.0), initial_regime=initial_regime
            )
        if kind == "trig":
            return TrigHybridModel(
                a=cfg["a"], b=cfg["b"], c=cfg["c"], z0=cfg.get("z0", 1.0),
                initial_regime=initial_regime,
            )
    except KeyError as exc:
        raise ConfigError(f"{kind} model config lacks {exc}") from None
    raise ConfigError(f"unknown model kind {kind!r}")


def _check_regime(model: HybridModel, i: int) -> None:
    if not 1 <= i <= model.regime_count:
        raise InvalidRegimeError(f"regime {i} outside 1..{model.regime_count}")


def _eval_one(model: HybridModel, coefficient, name: str, z, i: int, shape) -> np.ndarray:
    """Call a coefficient on the batch [z] and validate its (1, *shape) broadcast."""
    _check_regime(model, i)
    z = np.atleast_1d(np.asarray(z, dtype=np.float64))
    out = np.asarray(coefficient(z[None, :], i), dtype=np.float64)
    try:
        out = np.broadcast_to(out, (1,) + shape)[0].copy()
    except ValueError:
        raise DimensionMismatchError(
            f"{name} returned shape {out.shape}, expected one broadcastable to {(1,) + shape}"
        ) from None
    if not np.all(np.isfinite(out)):
        raise NonFiniteError(f"{name} produced non-finite values at z={z}, regime {i}")
    return out


def drift_eval(model: HybridModel, z, i: int) -> np.ndarray:
    """Evaluate the drift as a length-n vector, validating shape and finiteness."""
    return _eval_one(model, model.drift, "drift", z, i, (model.state_dim,))


def diffusion_eval(model: HybridModel, z, i: int) -> np.ndarray:
    """Evaluate the diffusion as an n x d matrix, validating shape and finiteness."""
    return _eval_one(model, model.diffusion, "diffusion", z, i,
                     (model.state_dim, model.noise_dim))


def _draw_points(box, n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    lo, hi = box
    lo = np.broadcast_to(np.asarray(lo, dtype=np.float64), (n,))
    hi = np.broadcast_to(np.asarray(hi, dtype=np.float64), (n,))
    return lo + (hi - lo) * rng.random((count, n))


def lipschitz_probe(
    model: HybridModel,
    box=(-10.0, 10.0),
    samples: int = 4096,
    rng: np.random.Generator | None = None,
) -> float:
    """Empirical lower bound on the global Lipschitz constant of f and g.

    Samples pairs of points in the box and returns the largest observed
    difference quotient over all regimes. A fixed stream prefix makes the
    estimate a running maximum: more samples can only raise it.
    """
    if samples < 2:
        raise ValueError("need at least 2 samples")
    rng = rng or np.random.default_rng()
    pts = _draw_points(box, model.state_dim, 2 * samples, rng)
    best = 0.0
    for k in range(samples):
        z, zbar = pts[2 * k], pts[2 * k + 1]
        gap = float(np.linalg.norm(z - zbar))
        if gap == 0.0:
            continue
        for i in range(1, model.regime_count + 1):
            df = np.linalg.norm(drift_eval(model, z, i) - drift_eval(model, zbar, i))
            dg = np.linalg.norm(diffusion_eval(model, z, i) - diffusion_eval(model, zbar, i))
            best = max(best, max(df, dg) / gap)
    return best


def growth_probe(
    model: HybridModel,
    box=(-10.0, 10.0),
    samples: int = 4096,
    rng: np.random.Generator | None = None,
) -> float:
    """Empirical lower bound on the linear-growth envelope constant.

    Returns the largest observed (|f| or |g|) / (1 + |z|) over the box and
    all regimes. Values far above the model's expected scale flag a
    coefficient that outgrows the linear envelope.
    """
    if samples < 1:
        raise ValueError("need at least 1 sample")
    rng = rng or np.random.default_rng()
    pts = _draw_points(box, model.state_dim, samples, rng)
    best = 0.0
    for z in pts:
        denom = 1.0 + float(np.linalg.norm(z))
        for i in range(1, model.regime_count + 1):
            nf = np.linalg.norm(drift_eval(model, z, i))
            ng = np.linalg.norm(diffusion_eval(model, z, i))
            best = max(best, max(nf, ng) / denom)
    return best
