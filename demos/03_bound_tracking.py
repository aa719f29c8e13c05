"""Tracking the convergence bound against measured runs, with and without noise.

Under the inverse-decay schedule the expected squared distance to the optimum
is bounded by a 1/(k+gamma) term plus a noise term that scales with the
mechanism constant. Averaging trajectories over 20 seeds shows the measured
distance sitting below the bound at every recorded round.
"""
import numpy as np

from dpfedsim import (
    ClipSpec,
    FederationConfig,
    MechanismSpec,
    Schedule,
    problem_constants,
    run_federation,
    synth_regression,
)

dataset = synth_regression(
    n_clients=50, n_per_client=20, n_features=4, heterogeneity=0.5, noise_std=0.1,
    seed=3,
)
zeta = 8.0
constants = problem_constants(dataset, np.zeros(dataset.dim), zeta)
E, T_g = 4, 50
schedule = Schedule.decay(constants, E)


def averaged_run(mechanism, repeats=20):
    # the runs with seeds 0 .. repeats-1, as one block
    config = FederationConfig(
        n_clients=50, pool_size=10, local_iters=E, global_iters=T_g,
        schedule=schedule, clip=ClipSpec(zeta, "l2"), mechanism=mechanism, repeats=repeats,
    )
    runs = run_federation(config, dataset, constants).runs
    trajectories = [[rec.y_k for rec in run.records] for run in runs]
    bound = [rec.bound_y_k for rec in runs[0].records]
    return np.mean(trajectories, axis=0), bound


print(f"task: mu={constants.mu:.3f} lambda={constants.lam:.3f} "
      f"Gamma={constants.gamma_noniid:.3f} y0={constants.y0:.3f}")

mean_free, bound_free = averaged_run(MechanismSpec())
noisy_spec = MechanismSpec(kind="laplace", epsilon=80.0, xi1=zeta)
mean_lap, bound_lap = averaged_run(noisy_spec)

print("\n   k    mean y (free)   bound (free)   mean y (laplace)   bound (laplace)")
for i in range(4, T_g, 5):
    k = (i + 1) * E
    print(
        f"  {k:4d}   {mean_free[i]:12.5f}   {bound_free[i]:12.3f}"
        f"   {mean_lap[i]:15.5f}   {bound_lap[i]:14.3f}"
    )

print(f"\nbound holds everywhere (noise-free): {bool(np.all(mean_free <= bound_free))}")
print(f"bound holds everywhere (laplace):    {bool(np.all(mean_lap <= bound_lap))}")
print("\nthe bound is loose by design: it absorbs worst-case drift, sampling and")
print("noise constants, but it decays at the measured 1/k shape.")
