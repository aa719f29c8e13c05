"""Why iteration counts need tuning once DP noise is in the loop.

Two experiments on one synthetic task:
  1. sweep the total iteration count T under Laplace noise: more iterations
     stop helping and start hurting, so the best T is finite and interior;
  2. at fixed T, compare local-iteration rules E = 1, T^(1/3), T^(1/2),
     T^(2/3), T: the T^(2/3) rule minimizes the final loss, matching the
     planner's z/(z+1) exponent for the Laplace variance growth z = 2.
"""
import numpy as np

from dpfedsim import (
    ClipSpec,
    FederationConfig,
    MechanismSpec,
    Schedule,
    e_from_rule,
    optimal_local_iterations,
    problem_constants,
    rate_exponent,
    run_federation,
    synth_regression,
)

REPEATS = 10
dataset = synth_regression(
    n_clients=20, n_per_client=20, n_features=3, heterogeneity=0.5, noise_std=0.1,
    seed=0,
)
zeta = 0.3
constants = problem_constants(dataset, np.zeros(dataset.dim), zeta)


def final_loss(pool_size, local_iters, global_iters, epsilon):
    mech = (
        MechanismSpec()
        if epsilon is None
        else MechanismSpec(kind="laplace", epsilon=epsilon, xi1=zeta)
    )
    schedule = Schedule.decay(constants, local_iters)
    # the runs with seeds 0 .. REPEATS-1, as one block
    config = FederationConfig(
        n_clients=20, pool_size=pool_size, local_iters=local_iters,
        global_iters=global_iters, schedule=schedule, clip=ClipSpec(zeta, "l2"),
        mechanism=mech, repeats=REPEATS,
    )
    runs = run_federation(config, dataset, constants).runs
    return float(np.mean([run.records[-1].global_loss for run in runs]))


print("sweep over T with E = 1 (Laplace, eps = 3 vs noise-free):")
print("    T    loss (eps=3)   loss (noise-free)")
grid = list(range(10, 101, 10))
noisy = [final_loss(10, 1, T, epsilon=3.0) for T in grid]
free = [final_loss(10, 1, T, epsilon=None) for T in grid]
for T, a, b in zip(grid, noisy, free):
    print(f"  {T:4d}   {a:11.4f}   {b:16.4f}")
best = grid[int(np.argmin(noisy))]
print(f"noisy optimum at T = {best} (interior); noise-free keeps improving to T = 100")

T = 120
print(f"\nlocal-iteration rules at fixed T = {T} (Laplace, eps = 5, full pool):")
for rule in ("1", "T^{1/3}", "T^{1/2}", "T^{2/3}", "T"):
    E = e_from_rule(rule, T)
    loss = final_loss(20, E, T // E, epsilon=5.0)
    print(f"  E = {rule:8s} -> E={E:3d}, T_g={T // E:3d}:  final loss {loss:.4f}")

z = 2.0
print(f"\nplanner: for variance growth z = {z:g}, E* = T^(z/(z+1)) = "
      f"{optimal_local_iterations(T, z)} and the tuned error floor moves like "
      f"T^{rate_exponent(z):.3g}")
