"""Deterministic DP federated-averaging simulator and analysis toolkit.

The package simulates round-based federated averaging of linear regression
models with client-side Laplace or Gaussian noise, predicts the noise item's
variance in closed form, evaluates the matching convergence bound, and plans
iteration counts (the tuned local-iteration count and the finite optimal
total iteration count when the noise forces divergence).
"""

from .bounds import (
    BoundParams,
    bound_curve,
    bound_params,
    c_mechanism,
    convergence_bound,
    e_from_rule,
    nearest_divisor,
    omega0,
    optimal_local_iterations,
    optimal_total_iterations,
    rate_exponent,
    schedule_offset,
)
from .data import load_csv, sorted_partition, synth_regression
from .engine import (
    ClipSpec,
    DivergenceError,
    FederationConfig,
    Repeats,
    RoundRecord,
    RunResult,
    Schedule,
    aggregate,
    client_update,
    lr_schedule,
    pilot_gradient_bound,
    run_federation,
    select_pool,
)
from .harness import (
    Experiment,
    PlanReport,
    RunSummary,
    ValidationReport,
    build_experiment,
    centralized_gd_oracle,
    cmd_plan,
    cmd_run,
    cmd_sweep,
    cmd_validate,
    run_repeats,
)
from .mechanisms import (
    MechanismSpec,
    NoiseContext,
    asymptotic_z,
    gaussian_sigma,
    laplace_scale,
    noise_item_variance,
    noise_stream,
    sample_noise,
    sensitivity_l1,
    sensitivity_l2,
)
from .regression import (
    ClientShard,
    ConfigError,
    PaddedShards,
    ProblemConstants,
    clip_gradient,
    global_loss,
    global_optimum,
    local_optimum,
    mse_gradient,
    mse_loss,
    problem_constants,
)

__version__ = "0.1.0"
