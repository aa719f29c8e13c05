"""Closed-form convergence bound and the iteration-count planner built on it.

The bound tracks the expected squared distance to the optimum under the decay
schedule: a 1/(k+gamma) term driven by heterogeneity, local drift and pool
sampling, plus a noise term that grows with the round count through the
mechanism's variance exponent z. The planner picks the local-iteration count
E that balances the two and classifies the long-run behaviour from z alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .mechanisms import MechanismSpec
from .regression import ConfigError, ProblemConstants

__all__ = [
    "BoundParams",
    "schedule_offset",
    "omega0",
    "c_mechanism",
    "bound_params",
    "convergence_bound",
    "bound_curve",
    "optimal_local_iterations",
    "E_RULES",
    "e_from_rule",
    "rate_exponent",
    "nearest_divisor",
]


@dataclass(frozen=True)
class BoundParams:
    """Frozen bound ingredients, from ``constants.y0`` under ``Schedule.decay(constants, E)``."""

    constants: ProblemConstants
    omega0: float
    omega1: float
    c_m: float
    z: float
    gamma: float
    local_iters: int
    global_iters: int


def schedule_offset(lam: float, mu: float, local_iters: int) -> float:
    """Decay offset gamma = max(8*lambda/mu, E).

    With gamma >= E the rate shrinks by at most a factor 2 across one round,
    which is what the convergence bound and the sensitivity calibration rely
    on.
    """
    if not mu > 0:
        raise ConfigError("schedule offset requires mu > 0")
    return max(8.0 * lam / mu, float(local_iters))


def omega0(
    lam: float,
    gamma_noniid: float,
    local_iters: int,
    g_bound: float,
    n_clients: int,
    pool_size: int,
) -> float:
    """Noise-free drift constant 6*lam*Gamma + 8(E-1)^2 G^2 + 4E^2 G^2 (N-b)/((N-1) b).

    The pool-sampling term vanishes for full participation (b = N), which also
    guards the (N-1) denominator when N = 1.
    """
    if local_iters < 1:
        raise ConfigError("local iteration count must be >= 1")
    if not 1 <= pool_size <= n_clients:
        raise ConfigError("need 1 <= b <= N")
    drift = 8.0 * (local_iters - 1) ** 2 * g_bound**2
    if pool_size == n_clients:
        sampling = 0.0
    else:
        sampling = (
            4.0
            * local_iters**2
            * g_bound**2
            * (n_clients - pool_size)
            / ((n_clients - 1) * pool_size)
        )
    return 6.0 * lam * gamma_noniid + drift + sampling


def c_mechanism(spec: MechanismSpec, p: int, pool_size: int, n_clients: int) -> float:
    """Mechanism constant of the noise term.

    Laplace: 8 p b xi1^2 / (N^2 eps^2). Gaussian: 8 p c2^2 log(1/delta) xi2^2
    / (N eps^2). Zero for the noise-free benchmark.
    """
    if spec.kind == "none":
        return 0.0
    eps = spec.epsilon
    if spec.kind == "laplace":
        return 8.0 * p * pool_size * spec.xi1**2 / (n_clients**2 * eps**2)
    return 8.0 * p * spec.c2**2 * math.log(1.0 / spec.delta) * spec.xi2**2 / (n_clients * eps**2)


def bound_params(
    constants: ProblemConstants,
    mechanism: MechanismSpec,
    local_iters: int,
    global_iters: int,
    n_clients: int,
    pool_size: int,
) -> BoundParams:
    """Assemble the bound ingredients for an experiment shape on the task of ``constants``."""
    if not constants.assumptions_ok:
        raise ConfigError("bound constants unavailable: assumptions violated (singular Hessian)")
    z = mechanism.z
    try:
        c_m = c_mechanism(mechanism, constants.theta_star.size, pool_size, n_clients)
        w0 = omega0(
            constants.lam,
            constants.gamma_noniid,
            local_iters,
            constants.g_bound,
            n_clients,
            pool_size,
        )
    except ArithmeticError as exc:
        # a square of epsilon, xi1, xi2 or the gradient bound left the float range
        raise ConfigError(
            f"bound constants out of float range ({exc}): check epsilon, xi1, xi2 "
            "and clip_threshold"
        ) from None
    w1 = c_m * local_iters**2 * global_iters**z
    gamma = schedule_offset(constants.lam, constants.mu, local_iters)
    return BoundParams(
        constants=constants,
        omega0=w0,
        omega1=w1,
        c_m=c_m,
        z=z,
        gamma=gamma,
        local_iters=local_iters,
        global_iters=global_iters,
    )


def convergence_bound(k: int, bp: BoundParams) -> float:
    """Upper bound on the squared distance to the optimum after k iterations.

    (1/(k+gamma)) * ((4/mu^2) omega0 + gamma*y0)
        + (4/mu^2) * (t/(k+gamma-1)^2) * omega1,  t = floor(k/E), mu and y0 from bp.constants.
    """
    if k < 0:
        raise ConfigError("iteration index must be >= 0")
    mu = bp.constants.mu
    if not mu > 0:
        raise ConfigError("bound requires mu > 0")
    t = k // bp.local_iters
    lead = (4.0 / mu**2) * bp.omega0 + bp.gamma * bp.constants.y0
    noise = (4.0 / mu**2) * (t / (k + bp.gamma - 1.0) ** 2) * bp.omega1
    return lead / (k + bp.gamma) + noise


def bound_curve(bp: BoundParams) -> list[tuple[int, float]]:
    """Bound samples at the recorded iterations k = E, 2E, ..., E*T_g."""
    return [
        (t * bp.local_iters, convergence_bound(t * bp.local_iters, bp))
        for t in range(1, bp.global_iters + 1)
    ]


def nearest_divisor(total: int, target: int) -> int:
    """Divisor of ``total`` closest to ``target``; ties break downward."""
    if total < 1:
        raise ConfigError("total must be >= 1")
    divisors = []
    for d in range(1, math.isqrt(total) + 1):
        if total % d == 0:
            divisors += (d, total // d)
    return min(divisors, key=lambda d: (abs(d - target), d))


def _power_rule(total_iters: int, exponent: float) -> int:
    """E = round(T^a), clamped to [1, T]."""
    return max(1, min(total_iters, round(total_iters**exponent)))


def optimal_local_iterations(total_iters: int, z: float, divisor_adjust: bool = True) -> int:
    """Local-iteration count E = round(T^(z/(z+1))), clamped to [1, T].

    With ``divisor_adjust`` (the default) the result is moved to the divisor
    of T nearest to the rounded value (ties downward), since the engine
    requires an integer number of rounds T_g = T/E.
    """
    if total_iters < 1:
        raise ConfigError("total iteration count must be >= 1")
    if not 0.0 <= z <= 2.0:
        raise ConfigError("z must lie in [0, 2]")
    e = _power_rule(total_iters, z / (z + 1.0))
    if divisor_adjust:
        e = nearest_divisor(total_iters, e)
    return e


# symbolic local-iteration rules accepted on the sweep E_rule axis,
# mapped to the exponent a in E = round(T^a)
E_RULES = {
    "1": 0.0,
    "T^{1/3}": 1.0 / 3.0,
    "T^{1/2}": 0.5,
    "T^{2/3}": 2.0 / 3.0,
    "T": 1.0,
}


def e_from_rule(rule: str, total_iters: int) -> int:
    """Local-iteration count for a symbolic rule, adjusted to a divisor of T."""
    if rule not in E_RULES:
        raise ConfigError(f"unknown E rule {rule!r}, expected one of {sorted(E_RULES)}")
    return nearest_divisor(total_iters, _power_rule(total_iters, E_RULES[rule]))


def rate_exponent(z: float) -> float:
    """Long-run exponent (z-1)/(z+1) of the tuned bound in T.

    Negative means the error still vanishes, zero that it levels off at a
    constant, positive that it grows (so a finite optimal T exists).
    """
    if not 0.0 <= z <= 2.0:
        raise ConfigError("z must lie in [0, 2]")
    return (z - 1.0) / (z + 1.0)
