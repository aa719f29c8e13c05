"""Deterministic DP federated-averaging simulator and analysis toolkit.

The package simulates round-based federated averaging of linear regression
models with client-side Laplace or Gaussian noise, predicts the noise item's
variance in closed form, evaluates the matching convergence bound, and plans
iteration counts: the tuned local-iteration count, and whether the tuned
error vanishes, levels off or grows with the total iteration count.

The per-client reference oracles it is tested against are not re-exported:
import them from ``dpfedsim.reference``.
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
    rate_exponent,
    schedule_offset,
)
from .data import load_csv, sorted_partition, synth_regression
from .engine import (
    ClipSpec,
    FederationConfig,
    Repeats,
    RoundRecord,
    RunResult,
    Schedule,
    pilot_gradient_bound,
    run_federation,
)
from .harness import (
    Experiment,
    PlanReport,
    RunSummary,
    ValidationReport,
    build_experiment,
    cmd_plan,
    cmd_run,
    cmd_sweep,
    cmd_validate,
    run_repeats,
)
from .mechanisms import (
    MechanismSpec,
    NoiseContext,
    gaussian_sigma,
    laplace_scale,
    noise_item_variance,
    noise_stream,
    round_sensitivity,
    sample_noise,
)
from .regression import (
    ClientShard,
    ConfigError,
    PaddedShards,
    ProblemConstants,
    clip_gradient,
    mse_gradient,
    problem_constants,
)

__version__ = "0.1.0"
