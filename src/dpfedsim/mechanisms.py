"""Noise calibration and sampling for client-side differential privacy.

Calibration covers the per-round accumulated-update sensitivities, the
Laplace scale and Gaussian sigma that spread a privacy budget over all the
rounds a client joins, the closed-form predictor for the expected squared
norm of the aggregated noise, and the growth exponent z of that variance in
the number of global iterations (2 for Laplace, 1 for Gaussian).

Noise comes from one random stream per run, ``noise_stream(seed)``, keyed
apart from the stream that builds the data from the same seed value. A draw is
a unit-scale draw (``unit_noise``) times the round's scale (``noise_scale``),
and ``sample_noise`` is that product. Round t's pool of b clients takes the
(t+1)-th (b, p) block of unit draws on that stream, and row i belongs to
client (t*b mod N) + i. Every earlier round drew a block of the same shape and
kind, and a unit draw of several rounds in one call gives the same values as
one call per round, so a draw is a pure function of (seed, round, client id,
b, p, mechanism kind): it cannot depend on how the work is scheduled, and a
run with seed s draws the same noise whatever the other repeats are.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .regression import ConfigError

__all__ = [
    "MechanismSpec",
    "NoiseContext",
    "round_sensitivity",
    "laplace_scale",
    "gaussian_sigma",
    "noise_stream",
    "unit_noise",
    "noise_scale",
    "sample_noise",
    "noise_item_variance",
    "epsilon_regime_warning",
    "l1_sensitivity_warning",
]

KINDS = ("none", "laplace", "gaussian")


@dataclass(frozen=True)
class MechanismSpec:
    """A DP mechanism family with its calibration parameters.

    ``kind="none"`` is the noise-free benchmark and is tied to an infinite
    epsilon. Laplace needs the per-step L1 sensitivity ``xi1``; Gaussian needs
    ``delta`` in (0,1), the calibration constant ``c2`` and the per-step L2
    bound ``xi2``. A sensitivity must be finite: an infinite one would scale
    the noise to infinity. Local iterations are full-batch, so the
    calibration's per-client sampling probability q is 1.
    """

    kind: str = "none"
    epsilon: float = math.inf
    delta: float | None = None
    c2: float = 1.0
    xi1: float | None = None
    xi2: float | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown mechanism kind {self.kind!r}, expected one of {KINDS}")
        if self.kind == "none":
            if not math.isinf(self.epsilon):
                raise ConfigError("mechanism 'none' means epsilon = inf (and vice versa)")
            return
        if math.isinf(self.epsilon):
            raise ConfigError("epsilon = inf means mechanism 'none' (and vice versa)")
        if not self.epsilon > 0:
            raise ConfigError("epsilon must be > 0")
        if self.kind == "laplace":
            if self.xi1 is None or not 0 < self.xi1 < math.inf:
                raise ConfigError("laplace mechanism requires a finite xi1 > 0")
        else:  # gaussian
            if self.delta is None or not 0.0 < self.delta < 1.0:
                raise ConfigError("gaussian mechanism requires delta in (0, 1)")
            if not self.c2 > 0:
                raise ConfigError("gaussian mechanism requires c2 > 0")
            if self.xi2 is None or not 0 < self.xi2 < math.inf:
                raise ConfigError("gaussian mechanism requires a finite xi2 > 0")

    @property
    def z(self) -> float:
        """Growth exponent of the noise-item variance in T_g: 2 Laplace, 1 Gaussian, 0 none."""
        return {"none": 0.0, "laplace": 2.0, "gaussian": 1.0}[self.kind]


@dataclass(frozen=True)
class NoiseContext:
    """Shape of one federation round as seen by the noise calibration.

    eta_tilde is the largest learning rate inside the round, E the number of
    local iterations per round, T_l the number of rounds each client joins
    (exactly b*T_g/N), n the total sample count and n_bar_sq the mean squared
    shard size (1/N) * sum n_l^2.
    """

    p: int
    eta_tilde: float
    E: int
    T_l: int
    T_g: int
    b: int
    N: int
    n: int
    n_bar_sq: float

    def __post_init__(self):
        if self.p < 1 or self.E < 1 or self.T_g < 1 or self.n < 1:
            raise ConfigError("p, E, T_g and n must all be >= 1")
        if not 1 <= self.b <= self.N:
            raise ConfigError("pool size b must satisfy 1 <= b <= N")
        if self.T_l * self.N != self.b * self.T_g:
            raise ConfigError("T_l must equal b*T_g/N exactly")
        if not self.eta_tilde > 0:
            raise ConfigError("eta_tilde must be > 0")
        if not self.n_bar_sq > 0:
            raise ConfigError("n_bar_sq must be > 0")


def round_sensitivity(ctx: NoiseContext, xi: float) -> float:
    """Sensitivity eta_tilde * E * xi of a round's accumulated update.

    The norm is that of the per-step bound xi: xi1 gives the L1 sensitivity
    Xi1 that scales the Laplace noise, xi2 the L2 bound Xi2 that scales the
    Gaussian noise.
    """
    if not xi > 0:
        raise ConfigError("xi must be > 0")
    return ctx.eta_tilde * ctx.E * xi


def laplace_scale(ctx: NoiseContext, spec: MechanismSpec) -> float:
    """Per-coordinate Laplace scale T_l * Xi1 / epsilon for a budget over T_l rounds."""
    if spec.kind != "laplace":
        raise ConfigError("laplace_scale needs a laplace mechanism spec")
    return ctx.T_l * round_sensitivity(ctx, spec.xi1) / spec.epsilon


def gaussian_sigma(ctx: NoiseContext, spec: MechanismSpec) -> float:
    """Noise multiplier c2 * sqrt(T_l * log(1/delta)) / epsilon (sampling probability q = 1).

    The per-coordinate standard deviation of the released noise is
    sigma * Xi2.
    """
    if spec.kind != "gaussian":
        raise ConfigError("gaussian_sigma needs a gaussian mechanism spec")
    return spec.c2 * math.sqrt(ctx.T_l * math.log(1.0 / spec.delta)) / spec.epsilon


def noise_stream(seed: int) -> np.random.Generator:
    """The random stream of the run with seed ``seed``.

    The stream is the PCG64 generator of the ``SeedSequence`` child with
    spawn key (0,) of ``seed``, so repeated calls return an identical stream,
    and it is keyed apart from ``default_rng(seed)``, the generator the data
    builders use, and from the streams ``validate`` draws on: round-robin
    pool t's is the child with spawn key (t,) of ``SeedSequence((seed,
    draws))``, draws >= 10^4. Round t's pool takes the (t+1)-th (b, p)
    block of ``unit_noise`` draws on it; row i of the block belongs to client
    (t*b mod N) + i.
    """
    if seed < 0:
        raise ConfigError("seed must be non-negative")
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))


def unit_noise(kind: str, rng: np.random.Generator, size: tuple[int, ...]) -> np.ndarray:
    """A ``size`` array of unit-scale draws of mechanism ``kind`` from one call on ``rng``.

    Laplace draws have scale 1, Gaussian draws standard deviation 1. The
    values fill ``size`` in C order, so one call of (S, b, p) gives the
    values of S calls of (b, p), in turn.
    """
    if kind == "laplace":
        return rng.laplace(0.0, 1.0, size=size)
    return rng.standard_normal(size)


def noise_scale(spec: MechanismSpec, ctx: NoiseContext) -> float:
    """The factor a unit draw is scaled by: T_l*Xi1/epsilon for Laplace, sigma*Xi2 for Gaussian."""
    if spec.kind == "laplace":
        return laplace_scale(ctx, spec)
    return gaussian_sigma(ctx, spec) * round_sensitivity(ctx, spec.xi2)


def sample_noise(
    spec: MechanismSpec,
    ctx: NoiseContext,
    rng: np.random.Generator | None,
    lead: tuple[int, ...] = (),
) -> np.ndarray:
    """Draw a ``lead + (p,)`` array of the noise vectors clients add before upload.

    Each p-vector is one client's noise: Laplace draws have per-coordinate
    scale T_l*Xi1/epsilon; Gaussian draws have standard deviation sigma*Xi2.
    The array is one ``unit_noise`` call on ``rng`` scaled in place by
    ``noise_scale``. kind="none" returns exact zeros without touching the
    stream, so ``rng`` may then be None.
    """
    size = (*lead, ctx.p)
    if spec.kind == "none":
        return np.zeros(size)
    # the draws and bits of rng.laplace(0.0, scale, size) and rng.normal(0.0,
    # scale, size), but for the sign of an exact zero: those compute
    # 0.0 +- scale * u, which turns a product that underflows to -0.0 into 0.0
    noise = unit_noise(spec.kind, rng, size)
    noise *= noise_scale(spec, ctx)
    return noise


def _per_coordinate_second_moment(spec: MechanismSpec, ctx: NoiseContext, mode: str) -> float:
    scale = noise_scale(spec, ctx)
    if spec.kind == "laplace":
        return 2.0 * scale * scale
    moment = scale * scale
    if mode == "paper":
        # the published closed form carries an extra factor 2 for the
        # gaussian case; kept for literal reproduction, see mode="exact"
        moment *= 2.0
    return moment


def noise_item_variance(spec: MechanismSpec, ctx: NoiseContext, mode: str = "exact") -> float:
    """Predicted E{||w_t^b||^2} of the pool-aggregated noise.

    Laplace: 2 p b Xi1^2 T_g^2 n_bar^2 / (n^2 eps^2), identical in both
    modes. Gaussian: mode="exact" uses the true second moment (sigma*Xi2)^2
    per coordinate; mode="paper" keeps the published factor-2 variant. The
    pool sum of squared shard sizes is replaced by its round-robin cycle
    average b * n_bar^2.
    """
    if mode not in ("exact", "paper"):
        raise ConfigError(f"unknown variance mode {mode!r}")
    if spec.kind == "none":
        return 0.0
    m2 = _per_coordinate_second_moment(spec, ctx, mode)
    return (ctx.N**2) * ctx.n_bar_sq * ctx.p * m2 / (ctx.b * ctx.n**2)


def epsilon_regime_warning(spec: MechanismSpec, ctx: NoiseContext) -> str | None:
    """Warn when the Gaussian budget looks large relative to q^2 * T_l = T_l.

    The calibration is only stated for epsilon below an (unnumbered) constant
    times q^2 * T_l; the constraint cannot be enforced without that constant,
    so it is surfaced as a warning at the only checkable scale. Local
    iterations are full-batch, so the sampling probability q is 1.
    """
    if spec.kind == "gaussian" and spec.epsilon >= ctx.T_l:
        return (
            f"epsilon={spec.epsilon:g} is not small relative to q^2*T_l="
            f"{ctx.T_l:g}; the gaussian calibration constant regime may not apply"
        )
    return None


def l1_sensitivity_warning(spec: MechanismSpec, p: int, zeta: float,
                           clip_norm: str) -> str | None:
    """Warn when Laplace noise is calibrated below the L1 norm an L2-clipped gradient can have.

    Clipping in the L2 norm to ``zeta`` lets a p-dimensional gradient reach
    L1 norm sqrt(p) * zeta, so an ``xi1`` below that under-calibrates the
    Laplace noise by up to that ratio.
    """
    reach = math.sqrt(p) * zeta
    if spec.kind == "laplace" and clip_norm == "l2" and spec.xi1 < reach:
        return (
            f"xi1={spec.xi1:g} is below sqrt(p)*zeta={reach:g}, the largest L1 norm of an "
            f"l2-clipped gradient; the laplace noise may be under-calibrated by up to "
            f"{reach / spec.xi1:.3g}x"
        )
    return None
