"""Euler-Maruyama schemes for SDEs with Markovian regime switching.

The package simulates finite-state chains exactly, drives two Euler schemes
(classical skeleton-based and switch-adapted) with shared chain and Brownian
realizations, and measures strong L^p convergence against closed-form or
fine-grid references.
"""

from . import errors
from .brownian import (
    BrownianPath,
    TimeGrid,
    aggregate_increments,
    generate_increments,
    make_grid,
    merge_grids,
    path_from_increments,
    uniform_grid,
)
from .ctmc import (
    ChainPath,
    GeneratorMatrix,
    TransitionMatrix,
    generator_from_json,
    matrix_exponential,
    simulate_exact_path,
    skeleton_from_path,
    state_at,
    states_at,
    stationary_distribution,
    validate_generator,
)
from .harness import (
    ChainValidationReport,
    ErrorPoint,
    ErrorReport,
    ExperimentConfig,
    LocalErrorReport,
    MomentReport,
    OrderFit,
    config_from_dict,
    derive_stream,
    estimate_order,
    local_error_scaling,
    moment_check,
    run_strong_error,
    summary_text,
    validate_chain_statistics,
)
from .model import (
    HybridModel,
    LinearHybridModel,
    TrigHybridModel,
    diffusion_eval,
    drift_eval,
    growth_probe,
    lipschitz_probe,
    model_from_config,
)
from .solvers import (
    CLASSICAL,
    JUMP_ADAPTED,
    EulerBlock,
    RefinedGrid,
    build_refined_grid,
    em_classical,
    em_jump_adapted,
    evaluate_path,
    exact_linear_solution,
)

__version__ = "0.1.0"
