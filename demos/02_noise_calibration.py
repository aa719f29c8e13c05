"""How the DP noise is calibrated, and checking the variance predictor by simulation.

A client that joins T_l rounds and moves its parameters by at most
Xi = eta_tilde * E * xi per round gets per-coordinate noise
Laplace(T_l * Xi1 / eps), or Normal with deviation sigma * Xi2 where
sigma = c2 * sqrt(T_l * log(1/delta)) / eps. The closed form for the
aggregated noise's expected squared norm is compared against brute-force
pool sampling; for the Gaussian case the published constant carries an
extra factor 2, which the simulation rules out.
"""
import numpy as np

from dpfedsim import (
    MechanismSpec,
    NoiseContext,
    gaussian_sigma,
    laplace_scale,
    noise_item_variance,
    round_sensitivity,
)

ctx = NoiseContext(
    p=10, eta_tilde=0.05, E=4, T_l=6, T_g=12, b=2, N=4, n=60, n_bar_sq=225.0,
)
sizes = [15, 15, 15, 15]

laplace = MechanismSpec(kind="laplace", epsilon=1.0, xi1=1.5)
gaussian = MechanismSpec(kind="gaussian", epsilon=1.0, delta=1e-4, xi2=1.5)

print(f"laplace per-coordinate scale: {laplace_scale(ctx, laplace):.4f}")
print(f"gaussian noise multiplier sigma: {gaussian_sigma(ctx, gaussian):.4f}")
print(f"gaussian per-coordinate std: "
      f"{gaussian_sigma(ctx, gaussian) * round_sensitivity(ctx, gaussian.xi2):.4f}")


def simulate(spec, draws=200_000, seed=1):
    """Brute-force E||w||^2 of the pool-aggregated noise over round-robin pools."""
    rng = np.random.default_rng(seed)
    n_pools = ctx.N // ctx.b
    total = 0.0
    for t in range(n_pools):
        pool = [(t * ctx.b + j) % ctx.N for j in range(ctx.b)]
        weights = (ctx.N / ctx.b) * np.array([sizes[l] / ctx.n for l in pool])
        if spec.kind == "laplace":
            w = rng.laplace(0.0, laplace_scale(ctx, spec), (draws // n_pools, ctx.b, ctx.p))
        else:
            std = gaussian_sigma(ctx, spec) * round_sensitivity(ctx, spec.xi2)
            w = rng.normal(0.0, std, (draws // n_pools, ctx.b, ctx.p))
        total += np.sum(np.einsum("dbp,b->dp", w, weights) ** 2)
    return total / (draws // n_pools * n_pools)


for spec, label in ((laplace, "laplace"), (gaussian, "gaussian")):
    mc = simulate(spec)
    exact = noise_item_variance(spec, ctx, mode="exact")
    paper = noise_item_variance(spec, ctx, mode="paper")
    print(f"\n{label}:")
    print(f"  simulated   E||w||^2 = {mc:12.2f}")
    print(f"  predicted (exact)    = {exact:12.2f}   ratio {mc / exact:.3f}")
    print(f"  predicted (paper)    = {paper:12.2f}   ratio {mc / paper:.3f}")

print("\nthe laplace modes agree; the gaussian paper-mode constant is ~2x too large,")
print("so downstream planning uses the exact mode by default.")
