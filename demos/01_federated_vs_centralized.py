"""Sanity anchor: with full participation and one local step per round,
federated averaging is plain gradient descent.

The engine selects every client each round (b = N), runs a single clipped
full-batch step per client (E = 1), adds no noise (epsilon = inf), and
aggregates with size weights. That composition collapses algebraically to
gradient descent on the size-weighted global loss, and the simulator
reproduces it to the last bit worth caring about.
"""
import numpy as np

from dpfedsim import (
    ClipSpec,
    FederationConfig,
    Schedule,
    centralized_gd_oracle,
    problem_constants,
    run_federation,
    synth_regression,
)

T = 150

dataset = synth_regression(
    n_clients=8, n_per_client=15, n_features=4, heterogeneity=0.4, noise_std=0.1,
    seed=7,
)
constants = problem_constants(dataset, np.zeros(dataset.dim), zeta=25.0)
schedule = Schedule.decay(constants, 1)

config = FederationConfig(
    n_clients=8, pool_size=8, local_iters=1, global_iters=T,
    schedule=schedule, clip=ClipSpec(25.0, "l2"),
)

result = run_federation(config, dataset, constants, record_trajectory=True).runs[0]
oracle = centralized_gd_oracle(dataset.shards, T, schedule, config.clip, config.theta_0)

worst = max(float(np.max(np.abs(a - b))) for a, b in zip(result.trajectory, oracle))
print(f"max per-coordinate gap over {T} iterations: {worst:.2e}")

print("\nloss and distance-to-optimum along the run:")
for rec in result.records[:: T // 10]:
    print(f"  t={rec.t:3d}  loss={rec.global_loss:.5f}  y={rec.y_k:.2e}")
print(f"\noptimal loss f* = {constants.f_star:.5f}")
print(f"final distance^2 = {result.records[-1].y_k:.2e} (started at {constants.y0:.3f})")

# partial participation changes the trajectory but not the destination
# (b*T = 4*150 is a multiple of N, so every client joins exactly 75 rounds)
config_pool = FederationConfig(
    n_clients=8, pool_size=4, local_iters=1, global_iters=T,
    schedule=schedule, clip=ClipSpec(25.0, "l2"),
)
pooled = run_federation(config_pool, dataset, constants).runs[0]
print(f"\nwith b=4 of 8 clients per round: final y = {pooled.records[-1].y_k:.2e}")
