"""Monte Carlo measurement of strong convergence for the hybrid EM schemes.

The estimation design couples everything through shared randomness: for each
sample index m a dedicated random stream (derived from the master seed and m
by a fixed, documented mixing rule) first draws one exact chain path, then
one Brownian path on the union grid containing the finest uniform gridpoints,
every coarser gridpoint, all switching times, and the reference grid
(`_draw_block`, a block at a time; ``switchsde solve`` draws with it too). Every
scheme at every step size, and the reference solution itself, consume
aggregations of that single realization, so the measured error is pure
discretization error.

Per step size the root-L^p sup-error

    eps(delta) = ( mean_m sup_t |z(t) - Z(t)|^p )^(1/p)

is reported with a delta-method standard error, and the convergence order is
the least-squares slope of log2 eps against log2 delta.

Every experiment is one pass over the samples (`_solved_blocks`): per block
of BLOCK_SIZE consecutive indices it draws the samples together, computes
the reference when asked, and runs one batched Euler recursion over every
(step, scheme) grid and the fine-EM reference grid. The recursion runs over
the finest grid's intervals, each grid's lanes dropping out after its last.
Each grid comes back as one `EulerBlock`, the record the one-path schemes
return too, and the reference as its values at the union points; the
experiments reduce these and never hold the block. Each sample's arithmetic
is independent of its block, and the block size is a constant, so results
are bit-identical across reruns and thread counts. ``run_strong_error``'s
``threads`` argument, kept for the callers that pass it, changes nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

# aggregate_increments, em_classical, em_jump_adapted, evaluate_path,
# generate_increments, make_grid, merge_grids and skeleton_from_path are
# unused here but stay bound: the traced benchmark (perfbench/spans.py)
# wraps the layer functions under the names this module binds.
from .brownian import (
    TimeGrid,
    aggregate_increments,
    generate_increments,
    make_grid,
    merge_grids,
    uniform_grid,
    write_csv,
)
from .ctmc import (
    ChainPath,
    GeneratorMatrix,
    generator_from_json,
    matrix_exponential,
    simulate_exact_path,
    skeleton_from_path,
    stationary_distribution,
)
from .errors import (ConfigError, DegenerateFitError, NonPositiveErrorValues, ReducibleError,
                     check_keys, setting)
from .model import HybridModel, model_from_config
from .solvers import (
    CLASSICAL,
    JUMP_ADAPTED,
    SampleBlock,
    _row_cumsum,
    build_refined_grid,
    classical_grid,
    em_classical,
    em_jump_adapted,
    euler_block,
    evaluate_path,
    exact_linear_solution,
    reference_grid,
)
from ._timeutil import dyadic_ratio, uniform_points

REFERENCE_CLOSED_FORM = "closed-form"
REFERENCE_FINE_EM = "fine-em"

_DEFAULT_DELTAS = tuple(2.0 ** -k for k in range(4, 10))

#: The JSON config format's defaults: every key but generator and model, which
#: `config_from_dict` needs, and reference, whose default depends on the model.
CONFIG_DEFAULTS = {
    "schema_version": 1, "seed": 0, "horizon": 1.0, "initial_regime": 1,
    "deltas": list(_DEFAULT_DELTAS), "p": [2], "samples": 1000, "refinement_exponent": 6,
    "schemes": [JUMP_ADAPTED, CLASSICAL], "step": 2.0**-4, "jump_budget": 10**6,
}
CONFIG_KEYS = {*CONFIG_DEFAULTS, "generator", "model", "reference"}

#: Samples per block of the batched recursion. Fixed, so that neither the
#: sample count nor a thread count can change the arithmetic; large enough
#: that each coefficient call of a block's one recursion (at most 2N per
#: interval of the finest grid) serves many samples. A block's peak grows with rows x union
#: points per row in the recursion's tables (94 MB for 64 rows at 2**-14), not the sup pass.
BLOCK_SIZE = 64


def derive_stream(master_seed: int, index: int) -> np.random.Generator:
    """Per-task random stream: default_rng over SeedSequence(seed, spawn_key=(index,)).

    The mixing is numpy's stable SeedSequence hash, so (seed, index) pairs
    give reproducible, statistically independent streams that are safe to
    consume in parallel.
    """
    if master_seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {master_seed}")
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(index,)))


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a strong-error experiment needs.

    ``deltas`` must be a finite descending dyadic ladder in a finite horizon:
    each entry a power-of-two multiple of the smallest to within the time
    tolerance, by the rule the grids are built by (`_timeutil.dyadic_ratio`).
    Moment orders and ``samples`` must be at least 2. Each field but the model,
    generator and reference holds what the JSON reader's type rule,
    `errors.setting`, returns for it: Python ints, finite floats, tuples. The
    reference is the closed form when the model has one, or a fine
    jump-adapted run ``2**ref_refinement`` times finer than the smallest step.
    Every step, the reference's too, is positive with a grid np.intp can rank.
    """

    model: HybridModel
    generator: GeneratorMatrix
    horizon: float
    p_values: tuple = (2,)
    deltas: tuple = _DEFAULT_DELTAS
    samples: int = 1000
    seed: int = 0
    reference: str = REFERENCE_CLOSED_FORM
    ref_refinement: int = 6
    schemes: tuple = (JUMP_ADAPTED,)
    jump_budget: int = 10**6

    def __post_init__(self):
        for name, kind in (("horizon", float), ("p_values", [int]), ("deltas", [float]),
                           ("samples", int), ("seed", int), ("ref_refinement", int),
                           ("jump_budget", int), ("schemes", [str])):  # the JSON reader's rule
            object.__setattr__(self, name, setting(vars(self), name, kind))
        if not self.horizon > 0:
            raise ConfigError(f"horizon must be positive, got {self.horizon}")
        if self.samples < 2:
            raise ConfigError("need at least 2 samples")
        if not self.p_values or any(p < 2 for p in self.p_values):
            raise ConfigError("moment orders must all be at least 2")
        for name, entries in (("moment order", self.p_values), ("scheme", self.schemes)):
            if len(set(entries)) != len(entries):
                raise ConfigError(f"a {name} is listed twice in {list(entries)}")
        if not self.deltas:
            raise ConfigError("empty step ladder")
        if any(not 0 < d <= self.horizon for d in self.deltas):
            raise ConfigError("steps must lie in (0, T]")
        if any(a <= b for a, b in zip(self.deltas, self.deltas[1:])):
            raise ConfigError("step ladder must be strictly descending")
        unknown = set(self.schemes) - {JUMP_ADAPTED, CLASSICAL}
        if unknown or not self.schemes:
            raise ConfigError(f"unknown schemes {sorted(unknown)}")
        if self.reference not in (REFERENCE_CLOSED_FORM, REFERENCE_FINE_EM):
            raise ConfigError(f"unknown reference mode {self.reference!r}")
        if self.reference == REFERENCE_CLOSED_FORM and not self.model.has_closed_form():
            raise ConfigError("closed-form reference requested for a model without one")
        if self.reference == REFERENCE_FINE_EM and self.ref_refinement < 1:
            raise ConfigError("refinement exponent must be at least 1")
        most = np.iinfo(np.intp).max // 2  # the points a grid may hold: its fine ranks are 2x
        for d in (*self.deltas, self.reference_step):  # a uniform grid has at most T / d + 2 points
            if not d > 0.0 or self.horizon / d + 2 > most:
                raise ConfigError(f"step {d} is not positive or makes over {most} gridpoints")
        for d in self.deltas:
            if dyadic_ratio(d, self.finest_step, self.horizon) is None:
                raise ConfigError(f"step {d} is not a power-of-two multiple of {self.finest_step} "
                                  "to within the time tolerance: the ladder must be dyadic")
        if self.model.regime_count != self.generator.n_states:
            raise ConfigError(
                f"model has {self.model.regime_count} regimes but the generator "
                f"has {self.generator.n_states} states"
            )

    @property
    def finest_step(self) -> float:
        return self.deltas[-1]

    @property
    def reference_step(self) -> float:
        if self.reference == REFERENCE_FINE_EM:  # 0.5 ** k underflows to 0.0, 2.0 ** k overflows
            return self.finest_step * 0.5 ** self.ref_refinement
        return self.finest_step


def config_from_dict(data: dict) -> ExperimentConfig:
    """Build an ExperimentConfig from a parsed JSON experiment description.

    A key outside CONFIG_KEYS or a schema_version other than 1 is a ConfigError,
    and a key left out takes its CONFIG_DEFAULTS value; ``generator`` and ``model`` are required."""
    check_keys(data, CONFIG_KEYS, "config")
    data = {**CONFIG_DEFAULTS, **data}
    if setting(data, "schema_version", int) != CONFIG_DEFAULTS["schema_version"]:
        raise ConfigError(f"unsupported schema_version {data['schema_version']}")
    try:
        model = model_from_config(data["model"],
                                  initial_regime=setting(data, "initial_regime", int))
        return ExperimentConfig(
            model=model,
            generator=generator_from_json(data["generator"]),
            horizon=data["horizon"],
            p_values=setting(data, "p", [int]),
            deltas=data["deltas"],
            samples=data["samples"],
            seed=data["seed"],
            reference=data.get("reference", REFERENCE_CLOSED_FORM
                               if model.has_closed_form() else REFERENCE_FINE_EM),
            ref_refinement=setting(data, "refinement_exponent", int),
            schemes=data["schemes"],
            jump_budget=data["jump_budget"],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid experiment config: {exc}") from exc


@dataclass(frozen=True)
class ErrorPoint:
    scheme: str
    p: int
    delta: float
    eps: float
    stderr: float
    samples: int


@dataclass(frozen=True)
class OrderFit:
    scheme: str
    p: int
    slope: float
    intercept: float
    r2: float


@dataclass(frozen=True)
class ErrorReport:
    """Per-step errors and fitted convergence orders of one experiment."""

    points: tuple
    fits: tuple

    def points_for(self, scheme: str, p: int) -> list:
        return [pt for pt in self.points if pt.scheme == scheme and pt.p == p]

    def fit_for(self, scheme: str, p: int) -> OrderFit | None:
        for f in self.fits:
            if f.scheme == scheme and f.p == p:
                return f
        return None

    def write_errors_csv(self, fileobj) -> None:
        write_csv(fileobj, ["scheme", "p", "delta", "eps", "stderr", "M"],
                  [(pt.scheme, str(pt.p), pt.delta, pt.eps, pt.stderr, pt.samples)
                   for pt in self.points])

    def write_fit_csv(self, fileobj) -> None:
        write_csv(fileobj, ["scheme", "p", "slope", "intercept", "r2"],
                  [(f.scheme, str(f.p), f.slope, f.intercept, f.r2) for f in self.fits])


def estimate_order(errors) -> tuple:
    """Least-squares fit of log2(eps) = slope * log2(delta) + intercept.

    Returns (slope, intercept, r2). Rejects errors that are not positive and
    finite, and ladders with fewer than two distinct step sizes. Flat data
    fits exactly, so its r2 is reported as 1.
    """
    pts = [(float(d), float(e)) for d, e in errors]
    if any(not 0.0 < e < np.inf for _, e in pts):
        raise NonPositiveErrorValues("all error values must be positive and finite")
    if len(pts) < 2 or len({d for d, _ in pts}) < 2:
        raise DegenerateFitError("need at least two distinct step sizes")
    x = np.log2([d for d, _ in pts])
    y = np.log2([e for _, e in pts])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), float(r2)


def _draw_block(config: ExperimentConfig, fine: TimeGrid, indices) -> SampleBlock:
    """The coupled draws of samples ``indices``, as one block on ``fine``'s union grids.

    Sample m reads derive_stream(seed, m) in a fixed order: its chain path's
    uniforms (from the model's initial regime, within ``jump_budget`` switches),
    then the (P_m - 1) * d standard normals of its Brownian increments on its
    P_m union points, in C order. Every chain is drawn first; no stream's order changes."""
    streams = [derive_stream(config.seed, m) for m in indices]
    block = SampleBlock.union(fine, [
        simulate_exact_path(config.generator, config.model.initial_regime, config.horizon, rng,
                            config.jump_budget) for rng in streams])
    increments = np.empty((len(block.points), config.model.noise_dim))
    increments[block.offsets[:-1]] = 0.0
    for rng, lo, hi in zip(streams, block.offsets[:-1].tolist(), block.offsets[1:].tolist()):
        rng.standard_normal(out=increments[lo + 1:hi])
    # a row's 0 follows the last row's T, so its step clips to 0; each row sums on its own
    increments *= np.sqrt(np.diff(block.points, prepend=0.0).clip(0.0))[:, None]
    return replace(block, bm_values=_row_cumsum(increments, block.offsets))


def _solve_ladder(model: HybridModel, block: SampleBlock, deltas, schemes,
                  reference_step: float | None = None):
    """One Euler recursion for a block: one grid per (step, scheme), in that order.

    The switch-adapted run on ``reference_step``, when given, comes first, on every union
    point (`reference_grid`), as its recursion's values there. Returns euler_block's
    iterator; it holds the only reference to the grids, so each is freed once expanded.
    """
    reference = reference_grid(block, reference_step) if reference_step else None
    grids = [build_refined_grid(block, delta) if scheme == JUMP_ADAPTED
             else classical_grid(block, delta) for delta in deltas for scheme in schemes]
    return euler_block(model, grids, block.points, block.bm_values, reference=reference)


def _solved_blocks(config: ExperimentConfig, schemes, reference=False):
    """The one pass over the samples: one solved ladder per block of BLOCK_SIZE indices.

    Each block is `_draw_block` on the uniform grid of the finest step, or of
    the reference step if ``reference``. Yields, per block, its union grids'
    row offsets, the reference's (P, n) values on them (None unless
    ``reference``) and `_solve_ladder`'s iterator, never the block itself.
    """
    model, fine_em = config.model, reference and config.reference == REFERENCE_FINE_EM
    fine = uniform_grid(config.horizon, config.reference_step if reference else config.finest_step)
    for lo in range(0, config.samples, BLOCK_SIZE):
        block = _draw_block(config, fine, range(lo, min(lo + BLOCK_SIZE, config.samples)))
        # the closed form runs before the recursion, whose tables would add to its peak
        ref = exact_linear_solution(model, block) if reference and not fine_em else None
        solved = _solve_ladder(model, block, config.deltas, schemes,
                               config.reference_step if fine_em else None)
        # the block lives until the next replaces it: freeing it sooner made glibc trim the heap
        yield block.offsets, next(solved) if fine_em else ref, solved


def _distance(gap) -> np.ndarray:
    """The norm of each row of ``gap``: |x| for n = 1, sqrt(x * x) save under- or overflow."""
    return np.abs(gap[:, 0]) if gap.shape[1] == 1 else np.linalg.norm(gap, axis=1)


def _sup_errors(config: ExperimentConfig) -> np.ndarray:
    """sup_t |z - Z| over each sample's union grid, shaped (scheme, delta, sample).

    One Euler recursion per block advances every scheme at every step, and
    the reference too when it is the switch-adapted run on the reference
    step. Each grid is built once per block and step.
    """
    sups = np.concatenate([
        [np.concatenate([np.maximum.reduceat(_distance(values - ref[at]), offsets[rows] - at.start)
                         for rows, at, values in approx.in_chunks()])
         for approx in solved]
        for offsets, ref, solved in _solved_blocks(config, config.schemes, reference=True)
    ], axis=1)  # in the ladder's order
    return sups.reshape(len(config.deltas), len(config.schemes), -1).swapaxes(0, 1)


def run_strong_error(config: ExperimentConfig, threads: int = 1) -> ErrorReport:
    """Estimate root-L^p sup-errors across the step ladder and fit the order.

    One coupled (chain, Brownian) realization per sample drives every scheme
    and step size as well as the reference, so differences are discretization
    error only. A ladder with an estimate of exactly zero (a scheme exact for
    the model) or one that overflowed to inf is reported but not fitted.
    ``threads`` is accepted for compatibility and changes nothing.
    """
    all_sups = _sup_errors(config)
    points = []
    fits = []
    m = config.samples
    moments = {}  # per p, each (scheme, delta) row reduced along its contiguous samples,
    for p in config.p_values:  # which rounds as the row's own mean and std
        powered = all_sups ** p
        moments[p] = powered.mean(axis=-1), powered.std(axis=-1, ddof=1)
    for si, scheme in enumerate(config.schemes):
        for p in config.p_values:
            ladder = []
            mean, std = moments[p]
            for di, delta in enumerate(config.deltas):
                eps = float(mean[si, di]) ** (1.0 / p)
                if eps > 0.0:
                    stderr = eps ** (1 - p) * float(std[si, di]) / (p * np.sqrt(m))
                else:
                    stderr = 0.0
                points.append(ErrorPoint(scheme, p, delta, eps, float(stderr), m))
                ladder.append((delta, eps))
            if all(0 < e < np.inf for _, e in ladder) and len(ladder) >= 2:
                slope, intercept, r2 = estimate_order(ladder)
                fits.append(OrderFit(scheme, p, slope, intercept, r2))
    return ErrorReport(points=tuple(points), fits=tuple(fits))


def summary_text(report: ErrorReport) -> str:
    lines = ["strong-error summary", "===================="]
    for f in report.fits:
        lines.append(
            f"{f.scheme} p={f.p}: fitted order {f.slope:.4f} "
            f"(intercept {f.intercept:.4f}, r2 {f.r2:.6f})"
        )
    if not report.fits:
        lines.append("no order fits (zero or insufficient error data)")
    lines.append("")
    lines.append("scheme, p, delta, eps, stderr")
    for pt in report.points:
        lines.append(
            f"{pt.scheme}, {pt.p}, {pt.delta:.6g}, {pt.eps:.8g}, {pt.stderr:.4g}"
        )
    return "\n".join(lines) + "\n"


# --- moment stability -------------------------------------------------------

#: The across-ladder ratio of a sup-moment that `MomentReport.flagged` reports.
GROWTH_FLAG_FACTOR = 2.0


@dataclass(frozen=True)
class MomentPoint:
    p: int
    delta: float
    sup_moment: float


@dataclass(frozen=True)
class MomentReport:
    """Empirical E sup_t |Z(t)|^p across the step ladder."""

    points: tuple

    def points_for(self, p: int) -> list:
        return [pt for pt in self.points if pt.p == p]

    def max_ratio(self, p: int) -> float:
        """Largest over smallest sup-moment at ``p``: inf, or nan, where the smallest is 0."""
        vals = [pt.sup_moment for pt in self.points_for(p)]
        with np.errstate(divide="ignore", invalid="ignore"):
            return float(np.float64(max(vals)) / min(vals))

    def all_finite(self) -> bool:
        return all(np.isfinite(pt.sup_moment) for pt in self.points)

    def flagged(self) -> list:
        """(p, ratio) pairs whose across-ladder variation exceeds GROWTH_FLAG_FACTOR."""
        out = []
        for p in sorted({pt.p for pt in self.points}):
            ratio = self.max_ratio(p)
            if not np.isfinite(ratio) or ratio > GROWTH_FLAG_FACTOR:
                out.append((p, ratio))
        return out


def moment_check(config: ExperimentConfig) -> MomentReport:
    """Estimate E sup_t |Z(t)|^p for the switch-adapted scheme across the ladder.

    Every rung reads the same samples, so across-ladder variation reflects
    discretization alone. For a seed they have the error run's chain paths,
    and its Brownian paths only with the closed-form reference.
    Ratios beyond ``GROWTH_FLAG_FACTOR`` are reported by ``flagged()``.
    """
    sups = np.concatenate([
        [np.maximum.reduceat(_distance(rung.values), rung.offsets[:-1])
         for rung in solved]
        for _, _, solved in _solved_blocks(config, (JUMP_ADAPTED,))
    ], axis=1)
    points = []
    for p in config.p_values:
        for di, delta in enumerate(config.deltas):
            points.append(MomentPoint(p, delta, float(np.mean(sups[di] ** p))))
    return MomentReport(points=tuple(points))


# --- local (one-step) error scaling -----------------------------------------


@dataclass(frozen=True)
class LocalErrorPoint:
    p: int
    delta: float
    max_moment: float


@dataclass(frozen=True)
class LocalErrorReport:
    """Midpoint-measured sup_t E|Z(t) - frozen(t)|^p and its log-log slope."""

    points: tuple
    slopes: dict


def local_error_scaling(config: ExperimentConfig) -> LocalErrorReport:
    """Measure the gap between the continuous scheme and its frozen argument.

    At the midpoint m of a uniform interval starting at t_k, the scheme has
    moved away from the frozen value Z_k by the accumulated drift A plus a
    centered Gaussian with variance Q (the integrated squared diffusion),
    both known exactly given the chain and the path up to t_k. The per-cell
    moment E|Z(m) - Z_k|^p is therefore averaged with the Gaussian part
    integrated out analytically (|A|^2 + Q for p = 2; the matching Gaussian
    moment formula for p = 4), which removes the one-draw noise that would
    otherwise swamp the max over midpoints. The maximum over midpoints of
    the cell means should scale like delta^(p/2).
    """
    if any(p not in (2, 4) for p in config.p_values):
        raise ConfigError("local-error scaling supports moment orders 2 and 4")
    if config.model.state_dim != 1 and any(p == 4 for p in config.p_values):
        raise ConfigError("order-4 local error requires a scalar model")
    starts = {delta: uniform_points(config.horizon, delta, include_horizon=False)[:-1]
              for delta in config.deltas}
    cells = {(delta, p): [] for delta in config.deltas for p in (2, 4)}
    for _, _, solved in _solved_blocks(config, (JUMP_ADAPTED,)):
        for delta, rung in zip(config.deltas, solved):
            f_lo, q_lo = rung.cumulants(starts[delta])
            f_hi, q_hi = rung.cumulants(starts[delta] + 0.5 * delta)
            drift2 = np.sum((f_hi - f_lo) ** 2, axis=2)
            var = q_hi - q_lo
            cells[delta, 2].append(drift2 + var)
            if 4 in config.p_values:
                cells[delta, 4].append(drift2**2 + 6.0 * drift2 * var + 3.0 * var**2)
    points = []
    slopes = {}
    for p in config.p_values:
        ladder = []
        for delta in config.deltas:
            stacked = np.concatenate(cells[delta, p])
            moment = float(stacked.mean(axis=0).max())
            points.append(LocalErrorPoint(p, delta, moment))
            ladder.append((delta, moment))
        if all(0 < v < np.inf for _, v in ladder) and len(ladder) >= 2:
            slope, _, _ = estimate_order(ladder)
            slopes[p] = slope
    return LocalErrorReport(points=tuple(points), slopes=slopes)


# --- chain statistical validation --------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    statistic: float
    bound: float
    detail: str = ""


@dataclass(frozen=True)
class ChainValidationReport:
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def write_csv(self, fileobj) -> None:
        write_csv(fileobj, ["check", "statistic", "bound", "passed", "detail"],
                  [(c.name, c.statistic, c.bound, int(c.passed), c.detail) for c in self.checks])


def _occupancy_batches(chain: ChainPath, n_states: int, n_batches: int) -> np.ndarray:
    """Per-window time fraction spent in each state, for batch-means errors."""
    horizon = chain.horizon
    bounds = np.linspace(0.0, horizon, n_batches + 1)
    seg_start = chain.switch_times
    seg_end = np.append(chain.switch_times[1:], horizon)
    occ = np.zeros((n_batches, n_states))
    for b in range(n_batches):
        lo, hi = bounds[b], bounds[b + 1]
        overlap = np.minimum(seg_end, hi) - np.maximum(seg_start, lo)
        overlap = np.clip(overlap, 0.0, None)
        np.add.at(occ[b], chain.states - 1, overlap)
        occ[b] /= hi - lo
    return occ


#: The switch budget of the one long path that `validate_chain_statistics` simulates.
VALIDATION_SWITCH_BUDGET = 10**7


def validate_chain_statistics(gen: GeneratorMatrix, step: float, samples: int,
                              seed: int) -> ChainValidationReport:
    """Statistical checks of the exact chain simulator against theory.

    Simulates one long path with ``samples`` skeleton steps and checks
    (a) skeleton one-step transition frequencies against exp(rates * step)
    entry-wise with 3-sigma binomial bounds, (b) completed holding times per
    state against the exponential law of the exit rate (KS at level 0.01),
    and (c) long-run occupancy against the stationary distribution with
    3-sigma batch-means bounds. Failures are report entries, not exceptions.
    """
    import scipy.stats  # costs about 1 s and 40 MB, so only validation pays for it

    if samples < 1000:
        raise ConfigError("need at least 1000 skeleton samples")
    if not step > 0.0:
        raise ConfigError(f"skeleton step must be positive, got {step}")
    rng = derive_stream(seed, 0)
    horizon = samples * step
    chain = simulate_exact_path(gen, 1, horizon, rng, max_switches=VALIDATION_SWITCH_BUDGET)
    n = gen.n_states
    checks = []

    # (a) skeleton transition frequencies vs the matrix exponential
    skel = skeleton_from_path(chain, step)
    counts = np.zeros((n, n))
    np.add.at(counts, (skel[:-1] - 1, skel[1:] - 1), 1.0)
    row_totals = counts.sum(axis=1)
    probs = matrix_exponential(gen, step).probs
    for i in range(n):
        if row_totals[i] < 50:
            continue
        for j in range(n):
            p_theory = probs[i, j]
            freq = counts[i, j] / row_totals[i]
            bound = 3.0 * np.sqrt(p_theory * (1.0 - p_theory) / row_totals[i])
            checks.append(
                CheckResult(
                    name=f"transition_{i + 1}->{j + 1}",
                    passed=bool(abs(freq - p_theory) <= bound),
                    statistic=float(abs(freq - p_theory)),
                    bound=float(bound),
                    detail=f"freq={freq:.6g} theory={p_theory:.6g} n={int(row_totals[i])}",
                )
            )

    # (b) holding times vs the exponential law
    holds = chain.holding_times()
    hold_states = chain.states[:-1]
    for i in range(1, n + 1):
        rate = gen.exit_rate(i)
        if rate == 0.0:
            continue
        sample = holds[hold_states == i]
        if len(sample) < 50:
            continue
        stat, pvalue = scipy.stats.kstest(sample, "expon", args=(0.0, 1.0 / rate))
        checks.append(
            CheckResult(
                name=f"holding_ks_state_{i}",
                passed=bool(pvalue >= 0.01),
                statistic=float(pvalue),
                bound=0.01,
                detail=f"ks_stat={stat:.6g} n={len(sample)}",
            )
        )

    # (c) occupancy vs the stationary distribution
    try:
        pi = stationary_distribution(gen)
    except ReducibleError:
        pi = None
    if pi is not None:
        batches = _occupancy_batches(chain, n, n_batches=20)
        occ = batches.mean(axis=0)
        se = batches.std(axis=0, ddof=1) / np.sqrt(batches.shape[0])
        for i in range(n):
            checks.append(
                CheckResult(
                    name=f"occupancy_state_{i + 1}",
                    passed=bool(abs(occ[i] - pi[i]) <= 3.0 * se[i]),
                    statistic=float(abs(occ[i] - pi[i])),
                    bound=float(3.0 * se[i]),
                    detail=f"occ={occ[i]:.6g} stationary={pi[i]:.6g}",
                )
            )

    return ChainValidationReport(checks=tuple(checks))
