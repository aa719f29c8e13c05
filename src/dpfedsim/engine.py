"""Round-based simulation of federated averaging with client-side DP noise.

A run executes T_g rounds. Each round selects a pool of b clients round-robin,
lets every pool client take E full-batch clipped gradient steps from the
current server parameters, adds that client's calibrated noise to the result,
and aggregates the noisy parameters with size weights.

An experiment is ``config.repeats`` = R runs, with seeds seed + r, and
``run_federation`` runs them as one block and returns them as ``Repeats``. A
round's pool is a contiguous block of client ids (``pool_slice``), so each
local step of every pool client in every repeat is one vectorised gradient
pass over the pool's slice of the dataset's store (``regression.PaddedShards``),
built once and shared by every repeat (``client_update``): the number of
numpy calls per step grows with neither the pool size nor the repeat count.
When p <= max(n_l) the pass is one batched p x p matvec with each client's
cached H_l = (2/n_l) X_l'X_l and h_l = (2/n_l) X_l'y_l (the Gram form);
otherwise it reads the zero-padded (R, b, max(n_l), p) rows (the residual
form). Repeat r draws each round's (b, p) noise block as the next draw of its
own stream, ``mechanisms.noise_stream(seed + r)``, built once per run.
Aggregation (``aggregate``) is one reduction per repeat in a fixed order, and
the per-round metrics (the p x p pooled loss, y_k and the noise norm) take one
dot product per repeat. A round therefore costs O(R * b * p^2 * E) for the
steps in Gram form and O(R * b * max(n_l) * p * E) in residual form, plus
O(R * p^2) for the metrics, and every repeat is bitwise the same whether it
runs alone or in a block.
The L1 pilot that measures the gradient bound is the same round loop run
noise-free with one repeat, watching every step's clipped gradients. The
per-client loops that the kernel is tested against live in ``reference``,
which nothing here imports.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import bounds
# mse_gradient is not called here: bench/tracer.py patches it by this module's name
from .mechanisms import MechanismSpec, NoiseContext, noise_stream, sample_noise
from .regression import (
    CLIP_NORMS, ConfigError, PaddedShards, ProblemConstants, _row_dots, clip_gradient,
    mse_gradient,
)

__all__ = [
    "SCHEDULE_KINDS",
    "Schedule",
    "ClipSpec",
    "FederationConfig",
    "RoundRecord",
    "RunResult",
    "Repeats",
    "pool_slice",
    "noise_context",
    "run_bound_params",
    "client_update",
    "aggregate",
    "run_federation",
    "pilot_gradient_bound",
]

# aborts a repeat well before float overflow corrupts the records
PARAM_LIMIT = 1e12

# repeats run in chunks whose largest per-step work array, (R, b, max(n_l, p)),
# holds at most this many elements; chunking changes no byte of any repeat.
# validate sums its Monte-Carlo squared norms in blocks of this many noise elements
CHUNK_ELEMENTS = 4_000_000


SCHEDULE_KINDS = ("decay", "constant")


@dataclass(frozen=True)
class Schedule:
    """Learning-rate schedule: inverse decay (``kind="decay"``) or constant.

    The decay rate eta_k = 2/(mu(k+gamma)) is strictly decreasing in k; its
    mu > 0 and gamma >= 1 are checked once, when the schedule is built. A run
    reports the convergence bound only under ``Schedule.decay(constants, E)``.
    A decay schedule built by hand stays allowed: the bound gate compares
    schedules by value, so one equal to ``Schedule.decay(constants, E)`` gets
    the bound and any other gets NaN.
    """

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
            if not self.mu > 0:
                raise ConfigError("decay schedule requires mu > 0")
            if not self.gamma >= 1:
                raise ConfigError("decay schedule requires gamma >= 1")
        elif self.eta is None or not self.eta > 0:
            raise ConfigError("constant schedule needs eta > 0")

    @classmethod
    def decay(cls, constants: ProblemConstants, local_iters: int) -> "Schedule":
        """eta_k = 2/(mu(k+gamma)) with mu from ``constants`` and gamma = max(8*lambda/mu, E)."""
        if not constants.assumptions_ok:
            raise ConfigError(
                "assumptions violated: the pooled Hessian is singular, so the decay "
                "schedule has no valid rate; use the constant schedule"
            )
        return cls(kind="decay", mu=constants.mu,
                   gamma=bounds.schedule_offset(constants.lam, constants.mu, local_iters))

    @classmethod
    def constant(cls, eta: float) -> "Schedule":
        return cls(kind="constant", eta=eta)

    def rate(self, k: int) -> float:
        if self.kind == "decay":
            return 2.0 / (self.mu * (k + self.gamma))
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
    exact integer number of rounds T_l = b*T_g/N. The experiment is the
    ``repeats`` runs with seeds seed, seed + 1, ...
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
    repeats: int = 1

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


@dataclass
class Repeats:
    """The runs of one block of repeats; ``runs[r]`` is the run with seed config.seed + r.

    ``records`` and ``diverged`` total the runs the way a single ``RunResult``
    reports itself: every completed round's record, run after run, and the
    number of runs that diverged.
    """

    runs: list[RunResult]

    @property
    def records(self) -> list[RoundRecord]:
        return [rec for run in self.runs for rec in run.records]

    @property
    def diverged(self) -> int:
        return sum(run.diverged for run in self.runs)


def pool_slice(t: int, n_clients: int, pool_size: int) -> slice:
    """Round-robin pool for round t: the block of client ids (t*b) mod N ... (t*b+b-1) mod N."""
    # b divides N, so the start (t*b) mod N is a multiple of b and the pool never wraps
    start = (t * pool_size) % n_clients
    return slice(start, start + pool_size)


def _all_within_limit(params: np.ndarray) -> bool:
    """Whether every entry of ``params`` is within PARAM_LIMIT (NaN is not)."""
    # NaN fails the comparison, so one reduction also catches non-finite entries
    return np.abs(params).max() <= PARAM_LIMIT


def _within_limit(params: np.ndarray) -> np.ndarray:
    """Per repeat (the leading axis): whether all its entries are within PARAM_LIMIT."""
    return np.abs(params).reshape(len(params), -1).max(axis=1) <= PARAM_LIMIT


def aggregate(
    block: np.ndarray, weights: np.ndarray, n_clients: int, pool_size: int
) -> np.ndarray:
    """Server rule (N/b) * sum_l (n_l/n) * theta_l on an (R, b, p) block, per repeat.

    A repeat's b rows are in ascending client-id order and ``weights`` holds
    their n_l/n. The reduction order is numpy's: for p > 1 it adds the rows
    in order, for p = 1 it may sum pairwise, so results agree with the
    per-client ``reference.aggregate`` to rounding. Either way a repeat's sum
    does not depend on the other repeats.
    """
    return (n_clients / pool_size) * np.add.reduce(weights[:, None] * block, axis=-2)


def _check_clients(data: PaddedShards, n_clients: int) -> None:
    if data.n_clients != n_clients:
        raise ConfigError(
            f"config expects {n_clients} shards, dataset has {data.n_clients}"
        )


def _initial_theta(config: FederationConfig, dim: int) -> np.ndarray:
    theta = (
        np.zeros(dim)
        if config.theta_0 is None
        else np.asarray(config.theta_0, dtype=float)
    )
    if theta.shape != (dim,):
        raise ConfigError("theta_0 dimension does not match the dataset")
    return theta


def client_update(
    data: PaddedShards,
    pool: slice,
    theta: np.ndarray,
    t: int,
    config: FederationConfig,
    on_grad=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Round t's E clipped full-batch steps for every client of the pool, in every repeat.

    ``theta`` is the (R, p) block of the repeats' server parameters and
    ``pool`` the round's block of client ids; each client starts from its
    repeat's row. Returns the (R, b, p) pre-noise local parameters, one row per
    client in ascending id order, and the (R,) mask of the repeats whose
    parameters stayed within PARAM_LIMIT after every step. A repeat that leaves
    the limit keeps stepping with the others until the round ends, or until no
    repeat is left within it. ``on_grad`` is given, once the steps end, the
    (S, R, b, p) stack of the clipped gradients of the S steps taken.

    The gradients come from ``data.pool_gradient``: in Gram form when
    p <= max(n_l), from the store's per-client statistics, built by the first
    round run on the store and kept for the pilot, every repeat and every
    sweep point; in residual form otherwise, which builds nothing.
    """
    gradient = data.pool_gradient(pool)
    # a repeat's theta broadcasts over the pool until the first step gives each client a row
    block = theta[:, None, :]
    ok = np.ones(len(theta), dtype=bool)
    k0 = t * config.local_iters
    grads = []
    for i in range(config.local_iters):
        grad = clip_gradient(gradient(block), config.clip.zeta, config.clip.norm)
        if on_grad is not None:
            grads.append(grad)
        block = block - config.schedule.rate(k0 + i) * grad
        # one reduction over the whole block; the per-repeat mask only once it fails
        if not _all_within_limit(block):
            ok &= _within_limit(block)
            if not ok.any():
                break
    if on_grad is not None:
        on_grad(np.stack(grads))
    return block, ok


def _pool_noise(config: FederationConfig, ctx: NoiseContext,
                streams: list[np.random.Generator], pool: slice) -> np.ndarray:
    """The (R, b, p) noise block of a round: block r is the next draw of ``streams[r]``.

    Row i of a repeat's block belongs to client ``pool.start + i``.
    """
    lead = (pool.stop - pool.start,)
    return np.stack([sample_noise(config.mechanism, ctx, rng, lead) for rng in streams])


def noise_context(config: FederationConfig, data: PaddedShards, t: int) -> NoiseContext:
    """Round t's calibration context: its first rate and the shape of the run on ``data``."""
    return NoiseContext(
        p=data.dim,
        eta_tilde=config.schedule.rate(t * config.local_iters),
        E=config.local_iters,
        T_l=config.rounds_per_client,
        T_g=config.global_iters,
        b=config.pool_size,
        N=config.n_clients,
        n=data.n,
        n_bar_sq=data.n_bar_sq,
    )


def run_bound_params(
    config: FederationConfig, constants: ProblemConstants | None
) -> bounds.BoundParams | None:
    """The convergence bound's parameters for runs of ``config`` on the task of ``constants``.

    None when the bound is undefined for those runs: no constants, a singular
    pooled Hessian, a schedule other than
    ``Schedule.decay(constants, config.local_iters)``, the only one the bound
    holds for, or a start ``config.theta_0`` whose squared distance to theta*
    is not the ``constants.y0`` the bound starts from.
    """
    if (constants is None or not constants.assumptions_ok
            or config.schedule != Schedule.decay(constants, config.local_iters)):
        return None
    diff = _initial_theta(config, constants.theta_star.size) - constants.theta_star
    if float(diff @ diff) != constants.y0:
        return None
    return bounds.bound_params(constants, config.mechanism, config.local_iters,
                               config.global_iters, config.n_clients, config.pool_size)


def _run_block(
    config: FederationConfig,
    data: PaddedShards,
    constants: ProblemConstants | None,
    seeds: list[int],
    record_trajectory: bool,
    on_grad=None,
    records: bool = True,
) -> list[RunResult]:
    """T_g rounds of the runs with the given seeds, all in one round loop.

    The loop carries the (A, p) parameters of the A repeats still active. A
    repeat whose local steps or aggregate leave PARAM_LIMIT in round t is
    marked diverged and leaves the block at the end of round t, keeping its
    records and parameters up to round t - 1. A noise-free run builds no
    noise stream. ``on_grad`` sees each round's stack of clipped gradients (see
    ``client_update``); with ``records`` false the runs keep no round records.
    """
    dim = data.dim
    theta_0 = _initial_theta(config, dim)
    bound_params = run_bound_params(config, constants)

    runs = [
        RunResult(records=[], theta=theta_0, diverged=False,
                  trajectory=[theta_0.copy()] if record_trajectory else None)
        for _ in seeds
    ]
    active = list(range(len(seeds)))
    theta = np.tile(theta_0, (len(seeds), 1))
    n_clients, b = config.n_clients, config.pool_size
    noisy = config.mechanism.kind != "none"
    if noisy:
        streams = [noise_stream(seed) for seed in seeds]

    for t in range(config.global_iters):
        pool = pool_slice(t, n_clients, b)
        weights = data.weights[pool]
        round_ctx = noise_context(config, data, t)

        if noisy:
            noise = _pool_noise(config, round_ctx, [streams[r] for r in active], pool)
        else:
            noise = sample_noise(config.mechanism, round_ctx, None, (len(active), b))
        # a diverged repeat steps on to the round's end: silence its overflow
        with np.errstate(over="ignore", invalid="ignore"):
            local, ok = client_update(data, pool, theta, t, config, on_grad)
            theta_new = aggregate(local + noise, weights, n_clients, b)
        ok &= _within_limit(theta_new)
        if not ok.all():
            for i in np.flatnonzero(~ok):
                runs[active[i]].theta = theta[i]
                runs[active[i]].diverged = True
            active = [r for r, keep in zip(active, ok) if keep]
            if not active:
                break
            theta_new, noise = theta_new[ok], noise[ok]
        theta = theta_new
        if not records:
            continue

        k = (t + 1) * config.local_iters
        losses = data.losses(theta)
        noise_agg = aggregate(noise, weights, n_clients, b)
        noise_l2 = np.sqrt(_row_dots(noise_agg, noise_agg))
        y_k = np.full(len(active), math.nan)
        bound_y_k = math.nan
        if constants is not None:
            diff = theta - constants.theta_star
            y_k = _row_dots(diff, diff)
            if bound_params is not None:
                bound_y_k = bounds.convergence_bound(k, bound_params)
        for i, r in enumerate(active):
            runs[r].records.append(
                RoundRecord(
                    t=t,
                    k=k,
                    eta_k=round_ctx.eta_tilde,
                    global_loss=float(losses[i]),
                    y_k=float(y_k[i]),
                    bound_y_k=bound_y_k,
                    noise_l2=float(noise_l2[i]),
                )
            )
            if record_trajectory:
                runs[r].trajectory.append(theta[i])

    for i, r in enumerate(active):
        runs[r].theta = theta[i]
    return runs


def run_federation(
    config: FederationConfig,
    data: PaddedShards,
    constants: ProblemConstants | None = None,
    record_trajectory: bool = False,
) -> Repeats:
    """Execute T_g rounds of noisy federated averaging, ``config.repeats`` times.

    ``data`` is the dataset's ``PaddedShards`` store. ``constants`` (when
    given) supplies the optimum for the y_k column and, together with a decay
    schedule, the per-round convergence bound. ``runs[r]`` of the result is
    the run with seed config.seed + r, for r < config.repeats; the runs are
    computed as one block (in chunks that bound memory), and each is bitwise
    the run a one-repeat config with its seed gives. A divergent run keeps its
    records up to the last valid round and has ``diverged=True``.
    """
    _check_clients(data, config.n_clients)
    seeds = [config.seed + r for r in range(config.repeats)]
    chunk = max(1, CHUNK_ELEMENTS // (config.pool_size * max(data.x.shape[1], data.dim)))
    runs = []
    for start in range(0, len(seeds), chunk):
        runs += _run_block(config, data, constants, seeds[start:start + chunk],
                           record_trajectory)
    return Repeats(runs)


def pilot_gradient_bound(config: FederationConfig, data: PaddedShards) -> float:
    """Max clipped-gradient L2 norm over one noise-free run of the same shape.

    Used to turn the unobservable gradient bound into a concrete number when
    clipping is done in the L1 norm (under L2 clipping the threshold itself is
    the bound). The pilot is the round loop's noise-free, one-repeat case,
    whatever mechanism, seed and repeat count ``config`` names, and stops
    where that run diverges: after a local step or an aggregate past
    PARAM_LIMIT. The pool's clients step in lockstep, so the maximum covers
    every pool client's steps up to and including the one that diverged. It
    bounds only the steps of this noise-free pilot: noisy runs leave its
    trajectory, and their clipped gradients can be far larger (up to the
    threshold, which is the only hard bound on them).
    """
    _check_clients(data, config.n_clients)
    max_sq = 0.0

    def keep_max(steps: np.ndarray) -> None:
        nonlocal max_sq
        # one maximum per step; a step with a NaN norm is skipped whole
        for step_max in _row_dots(steps, steps).reshape(len(steps), -1).max(axis=1).tolist():
            max_sq = max(max_sq, step_max)

    noise_free = replace(config, mechanism=MechanismSpec())
    _run_block(noise_free, data, None, [config.seed], False, keep_max, records=False)
    return math.sqrt(max_sq)
