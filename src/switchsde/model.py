"""Hybrid diffusion models: state equation coefficients indexed by regime.

A model supplies the drift f(z, i) and diffusion g(z, i) of

    dz(t) = f(z(t), r(t)) dt + g(z(t), r(t)) dB(t)

where r(t) is a finite-state chain with states 1..N. Coefficient callables
must be pure and reentrant, and they are batch-first: the solvers call
``drift(Z, i)`` and ``diffusion(Z, i)`` positionally with a block of states
``Z`` of shape (B, n), and the results must broadcast to (B, n) and
(B, n, d). A constant such as a Python float broadcasts too.
`drift_eval`/`diffusion_eval` evaluate one state as a batch of one and
return the (n,) and (n, d) shapes. The probes are batch calls too: one drift
and one diffusion call per regime on all their points.

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
    setting,
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
        for name in ("state_dim", "noise_dim", "regime_count"):
            if (dim := getattr(self, name)) < 1:
                raise DimensionMismatchError(f"{name} must be at least 1, got {dim}")
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
        a = self.a = np.asarray(a, dtype=np.float64)
        b = self.b = np.asarray(b, dtype=np.float64)
        if a.shape != b.shape or a.ndim != 1:
            raise ConfigError("a and b must be 1-d arrays of equal length")
        z0 = np.ravel(z0).astype(np.float64)  # a copy, so the caller's array stays theirs
        if z0.shape != (1,) or not z0[0] > 0.0:
            raise ConfigError(f"z0 must be a positive scalar, got {z0}")
        super().__init__(
            state_dim=1,
            noise_dim=1,
            regime_count=len(a),
            drift=lambda z, i: a[i - 1] * z,
            diffusion=lambda z, i: (b[i - 1] * z)[..., None],
            initial_value=z0,
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
        a = self.a = np.asarray(a, dtype=np.float64)
        b = self.b = np.asarray(b, dtype=np.float64)
        c = self.c = np.asarray(c, dtype=np.float64)
        if not (a.shape == b.shape == c.shape) or a.ndim != 1:
            raise ConfigError("a, b, c must be 1-d arrays of equal length")
        super().__init__(
            state_dim=1,
            noise_dim=1,
            regime_count=len(a),
            drift=lambda z, i: a[i - 1] * np.sin(z) + c[i - 1],
            diffusion=lambda z, i: (b[i - 1] * np.cos(z))[..., None],
            initial_value=[float(z0)],
            initial_regime=initial_regime,
        )


def model_from_config(cfg: dict, initial_regime: int = 1) -> HybridModel:
    """Build a shipped model from its JSON description.

    Supported forms, each coefficient a list of finite numbers:
      {"model": "linear", "a": [...], "b": [...], "z0": ...}
      {"model": "trig", "a": [...], "b": [...], "c": [...], "z0": ...}
    """
    shipped = {"linear": (LinearHybridModel, "ab"), "trig": (TrigHybridModel, "abc")}
    kind = cfg.get("model") if isinstance(cfg, dict) else None
    if not isinstance(kind, str) or kind not in shipped:
        raise ConfigError(f"model config needs a 'model' key of {sorted(shipped)}, got {kind!r}")
    cls, keys = shipped[kind]
    return cls(*(setting(cfg, key, [float]) for key in keys),
               z0=setting(cfg, "z0", float, 1.0), initial_regime=initial_regime)


def _evaluate(model: HybridModel, name: str, Z, i: int) -> np.ndarray:
    """One call of the coefficient ``name`` on the (B, n) batch Z in regime i.

    A single state is a batch of one. Returns a new (B, n) drift or (B, n, d)
    diffusion array, after checking the regime, the broadcast and finiteness.
    """
    if not 1 <= i <= model.regime_count:
        raise InvalidRegimeError(f"regime {i} outside 1..{model.regime_count}")
    Z = np.atleast_2d(np.asarray(Z, dtype=np.float64))
    shape = (len(Z), model.state_dim) + ((model.noise_dim,) if name == "diffusion" else ())
    out = np.asarray(getattr(model, name)(Z, i), dtype=np.float64)
    try:
        out = np.broadcast_to(out, shape).copy()
    except ValueError:
        raise DimensionMismatchError(f"{name} returned shape {out.shape}, expected one "
                                     f"broadcastable to {shape}") from None
    if not np.isfinite(out).all():
        raise NonFiniteError(f"{name} produced non-finite values in regime {i}")
    return out


def drift_eval(model: HybridModel, z, i: int) -> np.ndarray:
    """Evaluate the drift as a length-n vector, validating shape and finiteness."""
    return _evaluate(model, "drift", z, i)[0]


def diffusion_eval(model: HybridModel, z, i: int) -> np.ndarray:
    """Evaluate the diffusion as an n x d matrix, validating shape and finiteness."""
    return _evaluate(model, "diffusion", z, i)[0]


def _worst_norms(model: HybridModel, box, count: int, rng, rows) -> tuple:
    """Draw ``count`` points in the box and call each coefficient once per
    regime on them all. Returns the norm of each row of ``rows(points)`` and
    the largest norm of that row of ``rows(f)`` or ``rows(g)`` over the regimes."""
    rng = rng or np.random.default_rng()
    lo, hi = (np.asarray(edge, dtype=np.float64) for edge in box)
    pts = lo + (hi - lo) * rng.random((count, model.state_dim))
    worst = 0.0
    for i in range(1, model.regime_count + 1):
        for name in ("drift", "diffusion"):
            values = rows(_evaluate(model, name, pts, i))
            worst = np.maximum(worst, np.linalg.norm(values.reshape(len(values), -1), axis=1))
    return np.linalg.norm(rows(pts), axis=1), worst


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
    gap, worst = _worst_norms(model, box, 2 * samples, rng, lambda v: v[0::2] - v[1::2])
    return float((worst[gap > 0.0] / gap[gap > 0.0]).max(initial=0.0))


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
    size, worst = _worst_norms(model, box, samples, rng, lambda v: v)
    return float((worst / (1.0 + size)).max())
