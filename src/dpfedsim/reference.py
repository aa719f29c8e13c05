"""Per-client reference oracles that the batched engine is tested against.

Each takes one shard or one client at a time, in ascending client id, as the
paper states the algorithm. The simulator never calls them, and no other
module imports this one; the one rule they share with it is the pool,
``engine.pool_slice``, which ``select_pool`` lists.
"""
from __future__ import annotations

import numpy as np

from .engine import ClipSpec, Schedule, _all_within_limit, pool_slice
from .regression import (
    ClientShard, ConfigError, _as_theta, _least_squares, clip_gradient, mse_gradient,
)

__all__ = [
    "DivergenceError",
    "select_pool",
    "client_update",
    "aggregate",
    "centralized_gd_oracle",
    "mse_loss",
    "local_optimum",
    "pooled_design",
    "global_optimum",
    "global_loss",
]


class DivergenceError(RuntimeError):
    """Parameters left the representable range during a run."""


def select_pool(t: int, n_clients: int, pool_size: int) -> list[int]:
    """Round-robin pool for round t: client ids (t*b) mod N ... (t*b+b-1) mod N."""
    if n_clients % pool_size != 0:
        raise ConfigError("pool size must divide the client count")
    pool = pool_slice(t, n_clients, pool_size)
    return list(range(pool.start, pool.stop))


def client_update(
    theta_in: np.ndarray,
    shard: ClientShard,
    t: int,
    local_iters: int,
    schedule: Schedule,
    clip: ClipSpec,
) -> np.ndarray:
    """E clipped full-batch gradient steps with rates eta_{tE} ... eta_{tE+E-1}.

    Returns the pre-noise local parameters; the caller adds the DP noise so
    the server never sees a noiseless upload. Raises ``DivergenceError`` once
    a step leaves ``engine.PARAM_LIMIT``.
    """
    theta = np.asarray(theta_in, dtype=float)
    k0 = t * local_iters
    for i in range(local_iters):
        grad = clip_gradient(mse_gradient(theta, shard), clip.zeta, clip.norm)
        theta = theta - schedule.rate(k0 + i) * grad
        if not _all_within_limit(theta):
            raise DivergenceError("parameters exceeded the divergence limit")
    return theta


def aggregate(
    noisy_params: list[tuple[np.ndarray, int]],
    n_clients: int,
    pool_size: int,
    n_total: int,
) -> np.ndarray:
    """Server rule (N/b) * sum_l (n_l/n) * theta_l over the pool.

    Entries must already be ordered by ascending client id; the sum runs in
    list order to keep results bit-reproducible.
    """
    if not noisy_params:
        raise ConfigError("cannot aggregate an empty pool")
    if len(noisy_params) != pool_size:
        raise ConfigError(f"expected {pool_size} pool entries, got {len(noisy_params)}")
    acc = np.zeros_like(noisy_params[0][0])
    for theta_l, n_l in noisy_params:
        acc = acc + (n_l / n_total) * theta_l
    return (n_clients / pool_size) * acc


def centralized_gd_oracle(
    shards,
    total_iters: int,
    schedule: Schedule,
    clip: ClipSpec,
    theta_0: np.ndarray | None = None,
) -> np.ndarray:
    """Plain full-batch gradient descent on the size-weighted global loss.

    The descent direction is the size-weighted sum of per-client clipped
    gradients (ascending client id), i.e. exactly the loss surface the
    federation descends. Returns the (T+1, p) trajectory including the start
    point. Certifies the engine's b=N, E=1, noise-free special case.
    """
    ordered = sorted(shards, key=lambda s: s.client_id)
    sizes = [s.n_l for s in ordered]
    n = sum(sizes)
    dim = ordered[0].dim
    theta = np.zeros(dim) if theta_0 is None else np.asarray(theta_0, dtype=float)
    out = np.empty((total_iters + 1, dim))
    out[0] = theta
    for k in range(total_iters):
        grad = np.zeros(dim)
        for shard in ordered:
            g = clip_gradient(mse_gradient(theta, shard), clip.zeta, clip.norm)
            grad = grad + (shard.n_l / n) * g
        theta = theta - schedule.rate(k) * grad
        out[k + 1] = theta
    return out


def mse_loss(theta: np.ndarray, shard: ClientShard) -> float:
    """Mean squared error (1/n_l) * sum_i (x_i . theta - y_i)^2."""
    theta = _as_theta(theta, shard)
    resid = shard.features @ theta - shard.targets
    return float(resid @ resid) / shard.n_l


def local_optimum(shard: ClientShard) -> tuple[np.ndarray, float]:
    """Minimum-norm least-squares parameters of a shard and their loss f_l*.

    Rank-deficient systems resolve to the pseudo-inverse solution, so the
    result is deterministic even for tiny shards with n_l < d.
    """
    theta, *_ = np.linalg.lstsq(shard.features, shard.targets, rcond=None)
    return theta, mse_loss(theta, shard)


def pooled_design(shards: list[ClientShard]) -> tuple[np.ndarray, np.ndarray]:
    """Stack all shards (ascending client id) into one design matrix and target vector."""
    ordered = sorted(shards, key=lambda s: s.client_id)
    X = np.concatenate([s.features for s in ordered], axis=0)
    y = np.concatenate([s.targets for s in ordered], axis=0)
    return X, y


def global_optimum(shards: list[ClientShard]) -> tuple[np.ndarray, float]:
    """Minimum-norm least-squares solution of the pooled problem and its loss f*.

    The pooled objective (1/n) ||X theta - y||^2 equals the size-weighted
    average of the per-shard losses, so its minimizer is the global optimum of
    the federated task.
    """
    return _least_squares(*pooled_design(shards))


def global_loss(theta: np.ndarray, shards: list[ClientShard]) -> float:
    """Size-weighted global loss sum_l (n_l/n) f_l(theta) = (1/n) ||X theta - y||^2."""
    ordered = sorted(shards, key=lambda s: s.client_id)
    n = sum(s.n_l for s in ordered)
    total = 0.0
    for shard in ordered:
        resid = shard.features @ np.asarray(theta, dtype=float) - shard.targets
        total += float(resid @ resid)
    return total / n
