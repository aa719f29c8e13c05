"""Round-based simulation of federated averaging with client-side DP noise.

A run executes T_g rounds. Each round selects a pool of b clients round-robin,
lets every pool client take E full-batch clipped gradient steps from the
current server parameters, adds that client's calibrated noise to the result,
and aggregates the noisy parameters with size weights.

An experiment is ``config.repeats`` = R runs, with seeds seed + r, and
``run_federation`` runs them as one block and returns them as ``Repeats``. A
round's pool is a contiguous block of client ids (``pool_slice``), so each
local step of every pool client in every repeat is one vectorised pass over
the pool's slice of the dataset's store (``regression.PaddedShards``), built
once and shared by every repeat (``client_update``): the number of numpy
calls per step grows with neither the pool size nor the repeat count. The
form of the steps (Gram, dual or residual) and the lane padding that keeps a
repeat's bits independent of R are chosen in one place,
``PaddedShards.local_steps``. Repeat r takes each round's (b, p) noise block
as the next unit draw of its own stream, ``mechanisms.noise_stream(seed + r)``,
built once per run, times the round's scale. The draws of a chunk of rounds
are one call per repeat, made on the run's one worker thread while the
rounds before them step; they are the values of one draw per round. A
repeat that diverges reads on in its stream until the block ends, so no
other repeat's draws move. In dual form the same worker builds each round's
pool kernel K_l = X_l X_l' one round ahead. A run with neither noise nor
dual-form steps starts no thread.
Aggregation (``aggregate``) is one reduction per repeat in a fixed order, and the
per-round metrics (the p x p pooled loss, y_k and the noise norm) take one
dot product per repeat. They are kept as columns, a (T_g, R) array per
metric that each round fills with one vector assignment (``RoundColumns``);
a run's ``RoundRecord``s are built from them only when its ``records`` is
first read. Every repeat is bitwise the
same whether it runs alone or in a block. The L1 pilot that measures the
gradient bound is the same round loop run noise-free with one repeat,
watching every step's clipped gradients. The per-client loops that the
kernel is tested against live in ``reference``, which nothing here imports.
"""
from __future__ import annotations

import math
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import repeat

import numpy as np

from . import bounds
# mse_gradient and sample_noise are not called here: bench/tracer.py patches
# them by this module's name
from .mechanisms import (
    MechanismSpec, NoiseContext, noise_scale, noise_stream, sample_noise, unit_noise,
)
from .regression import (
    CHUNK_ELEMENTS, CLIP_NORMS, LANES, ConfigError, PaddedShards, ProblemConstants, _row_dots,
    clip_gradient, mse_gradient, pool_kernel,
)

__all__ = [
    "SCHEDULE_KINDS",
    "Schedule",
    "ClipSpec",
    "FederationConfig",
    "RoundRecord",
    "RoundColumns",
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

# unit noise values a block of repeats draws ahead in one chunk of rounds (512 KB)
NOISE_CHUNK_ELEMENTS = 2**16


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


@dataclass(frozen=True)
class RoundColumns:
    """The per-round metrics of one block of runs, kept as columns.

    Entry t of ``eta_k`` and ``bound_y_k`` is round t's, the same for every
    run of the block; they hold the rounds that at least one run completed.
    ``global_loss``, ``y_k`` and ``noise_l2`` are (T_g, R) arrays whose
    column i is run i's, filled for the rounds that run completed. Round t's
    ``k`` is (t + 1) * ``local_iters``.
    """

    local_iters: int
    eta_k: list[float]
    bound_y_k: list[float]
    global_loss: np.ndarray
    y_k: np.ndarray
    noise_l2: np.ndarray


@dataclass
class RunResult:
    """One run: its final parameters, whether it diverged, and its per-round metrics.

    The run completed rounds 0 .. ``rounds`` - 1. Their metrics are column
    ``column`` of its block's ``metrics`` (None for a run that keeps no
    records, as the pilot's); ``series`` reads one of them, and ``records``
    builds the rounds' ``RoundRecord``s on first access.
    """

    theta: np.ndarray
    diverged: bool
    trajectory: list[np.ndarray] | None = None
    rounds: int = 0
    metrics: RoundColumns | None = None
    column: int = 0

    def series(self, name: str) -> np.ndarray:
        """The run's ``name`` metric (global_loss, y_k or noise_l2) over its completed rounds."""
        return getattr(self.metrics, name)[:self.rounds, self.column]

    @cached_property
    def records(self) -> list[RoundRecord]:
        m = self.metrics
        if m is None:
            return []
        return [
            RoundRecord(t=t, k=(t + 1) * m.local_iters, eta_k=eta_k, global_loss=loss, y_k=y_k,
                        bound_y_k=bound_y_k, noise_l2=noise_l2)
            for t, eta_k, loss, y_k, bound_y_k, noise_l2 in zip(
                range(self.rounds), m.eta_k, self.series("global_loss").tolist(),
                self.series("y_k").tolist(), m.bound_y_k, self.series("noise_l2").tolist())
        ]


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
    kernel=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Round t's E clipped full-batch steps for every client of the pool, in every repeat.

    ``theta`` is the (R, p) block of the repeats' server parameters and
    ``pool`` the round's block of client ids; each client starts from its
    repeat's row. Returns the (R, b, p) pre-noise local parameters, a new
    array the caller may write, one row per client in ascending id order, and
    the (R,) mask of the repeats whose parameters stayed within PARAM_LIMIT
    after every step. A repeat that leaves the limit keeps stepping with the
    others until the round ends, or until no repeat is left within it.
    ``on_grad`` is given, once the steps end, the (S, R, b, p) stack of the
    clipped gradients of the S steps taken.

    The steps are taken by ``data.local_steps``, which chooses their form;
    ``kernel``, when given, is the pool's ``pool_kernel`` built ahead for the
    dual form. The parameters are checked after every step only when the
    round could leave PARAM_LIMIT: a clipped step moves no entry by more than
    its rate times zeta (1 + 1e-10), so from max|theta| + (1 + 1e-9) zeta
    sum(rates) below the limit only the last step is checked. A check costs a
    pass over the block, and in dual form a matrix product to form the
    parameters.
    """
    steps = data.local_steps(pool, theta, config.clip.norm, kernel)
    k0, last = t * config.local_iters, config.local_iters - 1
    deferred = (float(np.abs(theta).max()) + (1 + 1e-9) * config.clip.zeta
                * sum(config.schedule.rate(k0 + i) for i in range(config.local_iters))
                < PARAM_LIMIT)
    ok = np.ones(len(theta), dtype=bool)
    grads = []
    for i in range(config.local_iters):
        grad = clip_gradient(steps.gradient(), config.clip.zeta, config.clip.norm,
                             steps.row_norms)
        if on_grad is not None:
            grads.append(steps.primal(grad))
        steps.step(config.schedule.rate(k0 + i), grad)
        if not deferred or i == last:
            block = steps.params()
            # one reduction over the whole block; the per-repeat mask only once it fails
            if not _all_within_limit(block):
                ok &= _within_limit(block)
                if not ok.any():
                    break
    if on_grad is not None:
        on_grad(np.stack(grads))
    return block, ok


def _ahead(worker: ThreadPoolExecutor, make, keys) -> Iterator:
    """Yield ``make(key)`` for each of ``keys`` in order, each one made ahead on ``worker``.

    The first is made on the calling thread. Each later one is handed to the
    worker before the one before it is yielded, and is waited for when the
    generator resumes; the generator keeps no item it has yielded, so while
    the caller holds one, the next is the only other one alive. An exception
    the worker raised is raised again by the ``next`` that waits for it.
    """
    keys = iter(keys)
    made = [make(next(keys))]
    for key in keys:
        ahead = worker.submit(make, key)
        yield made.pop()
        made.append(ahead.result())
    yield made.pop()


def _unit_noise_rounds(
    config: FederationConfig, data: PaddedShards, seeds: list[int], worker: ThreadPoolExecutor
) -> Iterator[np.ndarray]:
    """Yield each round's (R, b, p) unit noise of the R repeats, drawn a chunk of rounds ahead.

    Repeat r's stream, ``noise_stream(seeds[r])``, draws the unit noise of a
    chunk of rounds in one (span, b, p) ``unit_noise`` call: the values of
    span per-round (b, p) draws. A chunk is one round-major (span, R, b, p)
    block for all R repeats, so a round's noise is a view of it, and a
    repeat that has diverged just reads on in its own stream. Chunk 0 is
    drawn on the calling thread; each later chunk is handed to ``worker``,
    the run's one worker thread, when the chunk before it is taken, and its
    first round waits for it (``_ahead``). The worker runs what it is handed
    in order, so each stream is read by one thread at a time, in order,
    whatever else the run hands it; at most the current and the next chunk
    are held, and the worker calls nothing of this generator's but
    ``unit_noise``.
    """
    kind, rounds = config.mechanism.kind, config.global_iters
    streams = [noise_stream(seed) for seed in seeds]
    span = max(1, NOISE_CHUNK_ELEMENTS // (len(seeds) * config.pool_size * data.dim))

    def chunk(start: int) -> np.ndarray:
        block = np.empty((min(span, rounds - start), len(seeds), config.pool_size, data.dim))
        for r, stream in enumerate(streams):
            block[:, r] = unit_noise(kind, stream, block[:, r].shape)
        return block

    for block in _ahead(worker, chunk, range(0, rounds, span)):
        yield from block


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


def _round_columns(config: FederationConfig, repeats: int) -> RoundColumns:
    """Empty columns for the per-round metrics of ``repeats`` runs of ``config``.

    A ``ConfigError`` names the sizes when the columns cannot be allocated.
    """
    shape = (config.global_iters, repeats)
    try:
        columns = [np.empty(shape) for _ in range(3)]
    except (MemoryError, ValueError) as exc:  # ValueError: past the address space
        raise ConfigError(
            f"the per-round metrics of global_iters={config.global_iters} rounds x "
            f"{repeats} repeats do not fit in memory ({exc})"
        ) from None
    return RoundColumns(config.local_iters, [], [], *columns)


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
    metrics and parameters up to round t - 1. Round t's noise is the next
    block of every repeat's stream, drawn a chunk of rounds ahead while the
    rounds before it step (``_unit_noise_rounds``); once a repeat has
    diverged, the active repeats' rows are picked out and its stream reads on
    unused. In dual form (``PaddedShards.step_form``) round t + 1's pool
    kernel is built while round t steps, round 0's in line (``_ahead``), and
    round t's steps take it. Both are made on the block's one worker thread,
    which the block owns in one ``with``: the worker runs them in the order
    they are handed over, and the block waits for it, so no thread outlives
    the block, however it ends. A noise-free run builds no noise stream, no
    noise block and no calibration context, and records a noise norm of
    0.0; a run with neither noise nor dual-form steps starts no thread.
    ``on_grad`` sees each round's stack of clipped gradients (see
    ``client_update``).

    The block's per-round metrics go to preallocated (T_g, R) columns
    (``RoundColumns``), one vector assignment per metric and round, and each
    run keeps its count of completed rounds; no ``RoundRecord`` is built
    here. With ``records`` false no metric is computed and the runs have no
    columns.
    """
    dim = data.dim
    theta_0 = _initial_theta(config, dim)
    bound_params = run_bound_params(config, constants)
    metrics = _round_columns(config, len(seeds)) if records else None

    runs = [
        RunResult(theta=theta_0, diverged=False, metrics=metrics, column=i,
                  trajectory=[theta_0.copy()] if record_trajectory else None)
        for i in range(len(seeds))
    ]
    active = list(range(len(seeds)))
    theta = np.tile(theta_0, (len(seeds), 1))
    n_clients, b = config.n_clients, config.pool_size
    noisy = config.mechanism.kind != "none"
    dual = data.step_form(config.clip.norm) == "dual"
    with ThreadPoolExecutor(max_workers=1) as worker:  # starts its thread on first submit
        noise_rounds = _unit_noise_rounds(config, data, seeds, worker) if noisy else None
        kernels = (_ahead(worker, lambda t: pool_kernel(data.x[pool_slice(t, n_clients, b)]),
                          range(config.global_iters)) if dual else repeat(None))
        for t in range(config.global_iters):
            pool = pool_slice(t, n_clients, b)
            weights = data.weights[pool]

            if noisy:
                noise = next(noise_rounds)
                if len(active) < len(seeds):
                    noise = noise[active]
                noise *= noise_scale(config.mechanism, noise_context(config, data, t))
            # a diverged repeat steps on to the round's end: silence its overflow
            with np.errstate(over="ignore", invalid="ignore"):
                local, ok = client_update(data, pool, theta, t, config, on_grad, next(kernels))
                if noisy:
                    local += noise
                theta_new = aggregate(local, weights, n_clients, b)
            ok &= _within_limit(theta_new)
            if not ok.all():
                for i in np.flatnonzero(~ok):
                    runs[active[i]].theta = theta[i]
                    runs[active[i]].diverged = True
                    runs[active[i]].rounds = t
                active = [r for r, keep in zip(active, ok) if keep]
                if not active:
                    break
                theta_new = theta_new[ok]
                if noisy:
                    noise = noise[ok]
            theta = theta_new
            if record_trajectory:
                for i, r in enumerate(active):
                    runs[r].trajectory.append(theta[i])
            if not records:
                continue

            k = (t + 1) * config.local_iters
            # round t's row of the columns, or its entries for the active repeats
            row = t if len(active) == len(seeds) else (t, active)
            metrics.eta_k.append(config.schedule.rate(t * config.local_iters))
            metrics.global_loss[row] = data.losses(theta)
            noise_l2 = 0.0
            if noisy:
                noise_agg = aggregate(noise, weights, n_clients, b)
                noise_l2 = np.sqrt(_row_dots(noise_agg, noise_agg))
            metrics.noise_l2[row] = noise_l2
            y_k = bound_y_k = math.nan
            if constants is not None:
                diff = theta - constants.theta_star
                y_k = _row_dots(diff, diff)
                if bound_params is not None:
                    bound_y_k = bounds.convergence_bound(k, bound_params)
            metrics.y_k[row] = y_k
            metrics.bound_y_k.append(bound_y_k)

    for i, r in enumerate(active):
        runs[r].theta = theta[i]
        runs[r].rounds = config.global_iters
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
    # a chunk's largest per-step work array, (b, max(n_l, p), L), counts the
    # padded lanes, so a chunk is a whole number of lane blocks
    lanes = CHUNK_ELEMENTS // (config.pool_size * max(data.x.shape[1], data.dim))
    chunk = max(LANES, lanes // LANES * LANES)
    runs = []
    for start in range(0, len(seeds), chunk):
        runs += _run_block(config, data, constants, seeds[start:start + chunk],
                           record_trajectory)
    return Repeats(runs)


def pilot_gradient_bound(config: FederationConfig, data: PaddedShards) -> float:
    """Max clipped-gradient L2 norm over one noise-free, L1-clipped run of the same shape.

    Turns the unobservable gradient bound into a concrete number when
    clipping is done in the L1 norm. It measures G under L1 clipping only:
    under L2 clipping the threshold itself is the bound, and a config whose
    clip norm is not L1 is a ``ConfigError``. The pilot is the round loop's
    noise-free, one-repeat case, whatever mechanism, seed and repeat count
    ``config`` names, and stops where that run diverges: after a local step
    or an aggregate past PARAM_LIMIT. The pool's clients step in lockstep, so
    the maximum covers every pool client's steps up to and including the one
    that diverged. It bounds only the steps of this noise-free pilot: noisy
    runs leave its trajectory, and their clipped gradients can be far larger
    (up to the threshold, which is the only hard bound on them).
    """
    if config.clip.norm != "l1":
        raise ConfigError(f"the pilot measures the gradient bound under l1 clipping only, "
                          f"not {config.clip.norm}: there the bound is the threshold")
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
