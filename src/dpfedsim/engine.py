"""Round-based simulation of federated averaging with client-side DP noise.

A run executes T_g rounds. Each round selects a pool of b clients round-robin,
lets every pool client take E full-batch clipped gradient steps from the
current server parameters, adds that client's calibrated noise to the result,
and aggregates the noisy parameters with size weights.

A round's pool is a contiguous block of client ids, so the local steps of the
whole pool run as one vectorised block on a zero-padded copy of the shards:
the number of numpy calls per step does not grow with the pool size. The
pool's noise block is one draw from the round's stream, aggregation is one
reduction over the pool block in a fixed order, and the pooled loss is a p x p
quadratic form, so a round costs O(b * max(n_l) * p * E + p^2) and results
are bit-reproducible.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import bounds
from .bounds import schedule_offset
from .mechanisms import MechanismSpec, NoiseContext, noise_stream, sample_noise
from .regression import (
    CLIP_NORMS, ClientShard, ConfigError, ProblemConstants, clip_gradient, mse_gradient,
)

__all__ = [
    "SCHEDULE_KINDS",
    "DivergenceError",
    "Schedule",
    "ClipSpec",
    "FederationConfig",
    "RoundRecord",
    "RunResult",
    "lr_schedule",
    "schedule_offset",
    "select_pool",
    "noise_context",
    "client_update",
    "aggregate",
    "run_federation",
    "pilot_gradient_bound",
]

# aborts a repeat well before float overflow corrupts the records
PARAM_LIMIT = 1e12


class DivergenceError(RuntimeError):
    """Parameters left the representable range during a run."""


def lr_schedule(k: int, mu: float, gamma: float) -> float:
    """Inverse-decay learning rate 2 / (mu * (k + gamma)), strictly decreasing in k."""
    if not mu > 0:
        raise ConfigError("decay schedule requires mu > 0")
    if gamma < 1:
        raise ConfigError("decay schedule requires gamma >= 1")
    return 2.0 / (mu * (k + gamma))


SCHEDULE_KINDS = ("decay", "constant")


@dataclass(frozen=True)
class Schedule:
    """Learning-rate schedule: inverse decay (``kind="decay"``) or constant."""

    kind: str
    mu: float | None = None
    gamma: float | None = None
    eta: float | None = None

    def __post_init__(self):
        if self.kind not in SCHEDULE_KINDS:
            raise ConfigError(
                f"unknown schedule kind {self.kind!r}, expected one of {SCHEDULE_KINDS}"
            )
        if self.kind == "decay":
            if self.mu is None or self.gamma is None:
                raise ConfigError("decay schedule needs mu and gamma")
            lr_schedule(0, self.mu, self.gamma)  # validates ranges
        elif self.eta is None or not self.eta > 0:
            raise ConfigError("constant schedule needs eta > 0")

    @classmethod
    def decay(cls, mu: float, gamma: float) -> "Schedule":
        return cls(kind="decay", mu=mu, gamma=gamma)

    @classmethod
    def constant(cls, eta: float) -> "Schedule":
        return cls(kind="constant", eta=eta)

    def rate(self, k: int) -> float:
        if self.kind == "decay":
            return lr_schedule(k, self.mu, self.gamma)
        return self.eta


@dataclass(frozen=True)
class ClipSpec:
    """Gradient norm clipping: threshold and which norm it bounds."""

    zeta: float = 150.0
    norm: str = "l1"

    def __post_init__(self):
        if not self.zeta > 0:
            raise ConfigError("clip threshold zeta must be > 0")
        if self.norm not in CLIP_NORMS:
            raise ConfigError(f"unknown clip norm {self.norm!r}")


@dataclass(frozen=True)
class FederationConfig:
    """Everything needed to reproduce one experiment.

    The pool size must divide the client count so the round-robin cycle
    closes, and b*T_g must be a multiple of N so each client participates an
    exact integer number of rounds T_l = b*T_g/N.
    """

    n_clients: int
    pool_size: int
    local_iters: int
    global_iters: int
    schedule: Schedule
    clip: ClipSpec
    mechanism: MechanismSpec = field(default_factory=MechanismSpec)
    theta_0: np.ndarray | None = None
    seed: int = 0
    repeats: int = 20

    def __post_init__(self):
        if self.n_clients < 1 or self.pool_size < 1:
            raise ConfigError("client count and pool size must be >= 1")
        if self.pool_size > self.n_clients:
            raise ConfigError("pool size cannot exceed the client count")
        if self.n_clients % self.pool_size != 0:
            raise ConfigError(
                f"pool size {self.pool_size} must divide the client count {self.n_clients}"
            )
        if self.local_iters < 1 or self.global_iters < 1:
            raise ConfigError("local and global iteration counts must be >= 1")
        if (self.pool_size * self.global_iters) % self.n_clients != 0:
            raise ConfigError(
                "b*T_g must be a multiple of N so each client joins an integer "
                f"number of rounds (b={self.pool_size}, T_g={self.global_iters}, "
                f"N={self.n_clients})"
            )
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if self.repeats < 1:
            raise ConfigError("repeats must be >= 1")

    @property
    def rounds_per_client(self) -> int:
        return self.pool_size * self.global_iters // self.n_clients

    @property
    def total_iters(self) -> int:
        return self.local_iters * self.global_iters


@dataclass(frozen=True)
class RoundRecord:
    """Telemetry for one global iteration.

    ``k`` is the cumulative iteration index (t+1)*E at recording time and
    ``eta_k`` the first (largest) rate used inside the round, i.e. the rate
    entering the round's sensitivities. ``y_k``/``bound_y_k`` are NaN when the
    optimum or the bound constants are unavailable.
    """

    t: int
    k: int
    eta_k: float
    global_loss: float
    y_k: float
    bound_y_k: float
    noise_l2: float


@dataclass
class RunResult:
    records: list[RoundRecord]
    theta: np.ndarray
    diverged: bool
    trajectory: list[np.ndarray] | None = None


def _pool_slice(t: int, n_clients: int, pool_size: int) -> slice:
    # b divides N, so the start (t*b) mod N is a multiple of b and the pool never wraps
    start = (t * pool_size) % n_clients
    return slice(start, start + pool_size)


def select_pool(t: int, n_clients: int, pool_size: int) -> list[int]:
    """Round-robin pool for round t: client ids (t*b) mod N ... (t*b+b-1) mod N."""
    if n_clients % pool_size != 0:
        raise ConfigError("pool size must divide the client count")
    pool = _pool_slice(t, n_clients, pool_size)
    return list(range(pool.start, pool.stop))


def _check_params(theta: np.ndarray) -> None:
    # NaN fails the comparison, so one reduction also catches non-finite entries
    if not np.abs(theta).max() <= PARAM_LIMIT:
        raise DivergenceError("parameters exceeded the divergence limit")


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
    the server never sees a noiseless upload.
    """
    theta = np.asarray(theta_in, dtype=float)
    k0 = t * local_iters
    for i in range(local_iters):
        grad = clip_gradient(mse_gradient(theta, shard), clip.zeta, clip.norm)
        theta = theta - schedule.rate(k0 + i) * grad
        _check_params(theta)
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


def _aggregate_block(
    block: np.ndarray, weights: np.ndarray, n_clients: int, pool_size: int
) -> np.ndarray:
    """``aggregate`` on a (b, p) block of rows in ascending client-id order.

    The reduction order is numpy's: for p > 1 it adds the rows in order, for
    p = 1 it may sum pairwise, so results agree with ``aggregate`` to rounding.
    """
    return (n_clients / pool_size) * np.add.reduce(weights[:, None] * block, axis=0)


@dataclass(frozen=True)
class _PaddedShards:
    """All shards stacked in client-id order, zero-padded to the largest shard.

    Zero rows add nothing to a residual, a gradient or a loss, so client l's
    data is ``x[l]``/``y[l]`` and a pool is the slice of its id block. Memory
    is N * max(n_l) * p floats, plus O(p^2) for the loss form once a loss is
    asked for.
    """

    x: np.ndarray  # (N, n_max, p)
    y: np.ndarray  # (N, n_max)
    sizes: np.ndarray  # (N,) shard sizes as floats
    weights: np.ndarray  # (N,) aggregation weights n_l / n
    n: int

    @classmethod
    def build(cls, shards: list[ClientShard], n_clients: int) -> "_PaddedShards":
        shards = sorted(shards, key=lambda s: s.client_id)
        if len(shards) != n_clients:
            raise ConfigError(
                f"config expects {n_clients} shards, dataset has {len(shards)}"
            )
        if [s.client_id for s in shards] != list(range(n_clients)):
            raise ConfigError("shard client ids must be exactly 0..N-1")
        sizes = [s.n_l for s in shards]
        x = np.zeros((n_clients, max(sizes), shards[0].dim))
        y = np.zeros((n_clients, max(sizes)))
        for cid, shard in enumerate(shards):
            x[cid, : shard.n_l] = shard.features
            y[cid, : shard.n_l] = shard.targets
        n = sum(sizes)
        sizes = np.array(sizes, dtype=float)
        return cls(x=x, y=y, sizes=sizes, weights=sizes / n, n=n)

    @property
    def dim(self) -> int:
        return self.x.shape[2]

    @cached_property
    def _loss_form(self) -> tuple[np.ndarray, np.ndarray, float, np.ndarray]:
        # built on the first loss call, so runs that never ask (the pilot) skip it
        x, y = self.x.reshape(-1, self.dim), self.y.ravel()
        gram = x.T @ x
        theta_ref = np.linalg.lstsq(gram, x.T @ y, rcond=None)[0]
        resid = x @ theta_ref - y
        return gram, theta_ref, float(resid @ resid), x.T @ resid

    def loss(self, theta: np.ndarray) -> float:
        """Pooled loss (1/n) ||X theta - y||^2 over every client's samples.

        Expanded around the near-optimal theta_ref with d = theta - theta_ref:
        ||X theta - y||^2 = L_ref + 2 d'g + d'G d, where G = X'X and L_ref and
        g = X'(X theta_ref - y) are computed from the residual. L_ref and d'G d
        are non-negative and g is close to zero, so the sum does not cancel the
        way theta'G theta - 2 c'theta + y'y does when the loss is far below
        y'y / n.
        """
        gram, theta_ref, loss_ref, grad_ref = self._loss_form
        d = theta - theta_ref
        return (loss_ref + 2.0 * float(d @ grad_ref) + float(d @ gram @ d)) / self.n


def _initial_theta(config: FederationConfig, dim: int) -> np.ndarray:
    theta = (
        np.zeros(dim)
        if config.theta_0 is None
        else np.asarray(config.theta_0, dtype=float)
    )
    if theta.shape != (dim,):
        raise ConfigError("theta_0 dimension does not match the dataset")
    return theta


def _local_steps(
    data: _PaddedShards,
    pool: slice,
    theta: np.ndarray,
    t: int,
    config: FederationConfig,
    on_grad=None,
) -> np.ndarray:
    """Round t's E clipped full-batch steps for every client of the pool.

    ``pool`` is the round's block of client ids; each client starts from
    ``theta``. Returns the (b, p) pre-noise local parameters, one row per
    client in ascending id order. ``on_grad`` sees every step's (b, p) block
    of clipped gradients.
    """
    x, y = data.x[pool], data.y[pool]
    x_t = x.transpose(0, 2, 1)
    scale = (2.0 / data.sizes[pool])[:, None]
    # theta broadcasts over the pool until the first step gives each client a row
    block = theta
    k0 = t * config.local_iters
    for i in range(config.local_iters):
        resid = np.matmul(x, block[..., None])[..., 0] - y
        grad = clip_gradient(
            scale * np.matmul(x_t, resid[:, :, None])[:, :, 0],
            config.clip.zeta,
            config.clip.norm,
        )
        if on_grad is not None:
            on_grad(grad)
        block = block - config.schedule.rate(k0 + i) * grad
        _check_params(block)
    return block


def _pool_noise(config: FederationConfig, ctx: NoiseContext, t: int, pool: slice) -> np.ndarray:
    """The (b, p) noise block of round t, row i for client ``pool.start + i``."""
    return sample_noise(
        config.mechanism, ctx, noise_stream(config.seed, t), (pool.stop - pool.start,)
    )


def noise_context(config: FederationConfig, p: int, n: int, n_bar_sq: float,
                  t: int) -> NoiseContext:
    """The calibration context of round t: its first learning rate and the run's shape.

    ``n`` is the total sample count and ``n_bar_sq`` the mean squared shard
    size; both are constant over a run, so callers compute them once.
    """
    return NoiseContext(
        p=p,
        eta_tilde=config.schedule.rate(t * config.local_iters),
        E=config.local_iters,
        T_l=config.rounds_per_client,
        T_g=config.global_iters,
        b=config.pool_size,
        N=config.n_clients,
        n=n,
        n_bar_sq=n_bar_sq,
    )


def run_federation(
    config: FederationConfig,
    shards: list[ClientShard],
    constants: ProblemConstants | None = None,
    record_trajectory: bool = False,
) -> RunResult:
    """Execute T_g rounds of noisy federated averaging.

    ``constants`` (when given) supplies the optimum for the y_k column and,
    together with a decay schedule, the per-round convergence bound. The
    result is deterministic in (config, seed); a divergent repeat returns the
    trajectory up to the last valid round with ``diverged=True``.
    """
    data = _PaddedShards.build(shards, config.n_clients)
    dim = data.dim
    theta = _initial_theta(config, dim)
    n_bar_sq = float(data.sizes @ data.sizes) / config.n_clients

    bound_params = None
    if (
        constants is not None
        and constants.assumptions_ok
        and config.schedule.kind == "decay"
    ):
        bound_params = bounds.bound_params(
            constants,
            config.mechanism,
            p=dim,
            local_iters=config.local_iters,
            global_iters=config.global_iters,
            n_clients=config.n_clients,
            pool_size=config.pool_size,
        )

    records: list[RoundRecord] = []
    trajectory = [theta.copy()] if record_trajectory else None
    diverged = False
    n_clients, b = config.n_clients, config.pool_size

    for t in range(config.global_iters):
        pool = _pool_slice(t, config.n_clients, config.pool_size)
        round_ctx = noise_context(config, dim, data.n, n_bar_sq, t)

        try:
            local = _local_steps(data, pool, theta, t, config)
            noise = _pool_noise(config, round_ctx, t, pool)
            theta_new = _aggregate_block(local + noise, data.weights[pool], n_clients, b)
            _check_params(theta_new)
        except DivergenceError:
            diverged = True
            break

        noise_agg = _aggregate_block(noise, data.weights[pool], n_clients, b)
        theta = theta_new
        if trajectory is not None:
            trajectory.append(theta.copy())

        k = (t + 1) * config.local_iters
        y_k = math.nan
        bound_y_k = math.nan
        if constants is not None:
            diff = theta - constants.theta_star
            y_k = float(diff @ diff)
            if bound_params is not None:
                bound_y_k = bounds.convergence_bound(k, bound_params, constants.y0)
        records.append(
            RoundRecord(
                t=t,
                k=k,
                eta_k=round_ctx.eta_tilde,
                global_loss=data.loss(theta),
                y_k=y_k,
                bound_y_k=bound_y_k,
                noise_l2=float(np.linalg.norm(noise_agg)),
            )
        )

    return RunResult(records=records, theta=theta, diverged=diverged, trajectory=trajectory)


def pilot_gradient_bound(config: FederationConfig, shards: list[ClientShard]) -> float:
    """Max clipped-gradient L2 norm over one noise-free run of the same shape.

    Used to turn the unobservable gradient bound into a concrete number when
    clipping is done in the L1 norm (under L2 clipping the threshold itself is
    the bound). A diverging pilot returns the maximum observed so far: clipped
    norms never exceed the threshold, so the partial measurement still bounds
    every step the real runs will take. The pool's clients step in lockstep,
    so "so far" covers every pool client's steps up to and including the one
    that diverged.
    """
    data = _PaddedShards.build(shards, config.n_clients)
    theta = _initial_theta(config, data.dim)
    max_sq = 0.0

    def record_max(grad):
        nonlocal max_sq
        # one dot product per row, as np.linalg.norm takes for a vector
        max_sq = max(max_sq, float(np.max(np.matmul(grad[:, None, :], grad[:, :, None]))))

    try:
        for t in range(config.global_iters):
            pool = _pool_slice(t, config.n_clients, config.pool_size)
            local = _local_steps(data, pool, theta, t, config, on_grad=record_max)
            theta = _aggregate_block(
                local, data.weights[pool], config.n_clients, config.pool_size
            )
            _check_params(theta)
    except DivergenceError:
        pass
    return math.sqrt(max_sq)
